"""Run a scale workload of ROADMAP.md, one line per instance.

    python3 tools/scale.py [sat_threshold | xl_completion]

sat_threshold, the default, is the 3-SAT reduction of random_formula(Random(1000 v + s), v,
round(4.26 v)), near the satisfiability threshold, for v = 10, 12, 16 and
20 and seeds s = 1, 2 and 3, each decided by exists_binary under a budget
of 3 M nodes (the time cap is set high enough never to bind, so the node
counts are deterministic).

xl_completion is recipe completion (labeling_from_assignment) on the
reduction of a planted 3-SAT formula (bench/generators.planted_3sat with
seed v and round(3.3 v) clauses) for v = 250, 500, 1,000 and 2,000, that is
n = 8,625 to 69,000, under the same budget.

Each instance runs in a fresh process, one at a time, so its peak resident
set size is its own: the interpreter, the imports and the search together.
For sat_threshold the line holds v, the seed, n, the status, the nodes, the
seconds of the exists_binary call and the peak RSS in MB; a last line on
stderr gives the share decided.  For xl_completion it holds v, n, the
status (found, or the name of the exception the completion raised), the
seconds of the labeling_from_assignment call, text_s (the seconds of reading
back the reduction graph's text, graph_from_text(graph_to_text(g)), checked
equal to g and dropped before the completion starts) and the peak RSS in MB.
Standard library only; the package is imported from the checkout's src
directory and the generator from its bench directory.
"""

from __future__ import annotations

import argparse
import multiprocessing
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SAT_THRESHOLD = [(v, s) for v in (10, 12, 16, 20) for s in (1, 2, 3)]
SAT_THRESHOLD_NODES = 3_000_000
XL_COMPLETION = (250, 500, 1_000, 2_000)
XL_CLAUSE_RATIO = 3.3


def sat_threshold_instance(v_seed: tuple[int, int]) -> dict:
    sys.path.insert(0, str(SRC))
    from luckylab.constructions import build_sat_reduction
    from luckylab.oracles import random_formula
    from luckylab.solver import SearchBudget, exists_binary

    v, seed = v_seed
    phi = random_formula(random.Random(1000 * v + seed), v, round(4.26 * v))
    g = build_sat_reduction(phi).graph
    start = time.perf_counter()
    rep = exists_binary(g, SearchBudget(max_nodes=SAT_THRESHOLD_NODES, max_ms=3_600_000))
    seconds = time.perf_counter() - start
    return {"v": v, "seed": seed, "n": g.n, "status": rep.status,
            "nodes": rep.nodes_explored, "seconds": round(seconds, 3),
            "peak_rss_mb": _peak_rss_mb()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KB on Linux
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def xl_completion_instance(v: int) -> dict:
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import generators
    from luckylab.constructions import build_sat_reduction
    from luckylab.fileio import graph_from_text, graph_to_text
    from luckylab.formula import make_formula
    from luckylab.oracles import labeling_from_assignment
    from luckylab.solver import SearchBudget

    num_vars, clauses, planted = generators.planted_3sat(
        random.Random(v), v, round(XL_CLAUSE_RATIO * v))
    phi = make_formula(num_vars, clauses)
    red = build_sat_reduction(phi)
    start = time.perf_counter()
    text = graph_to_text(red.graph)
    parsed = graph_from_text(text)
    text_s = time.perf_counter() - start
    if parsed != red.graph:
        raise AssertionError(f"v = {v}: the graph text round trip changed the graph")
    del text, parsed
    start = time.perf_counter()
    try:
        labeling_from_assignment(phi, planted, SearchBudget(max_nodes=SAT_THRESHOLD_NODES,
                                                            max_ms=3_600_000), reduction=red)
        status = "found"
    except Exception as err:  # the row names whatever ended the completion
        status = type(err).__name__
    seconds = time.perf_counter() - start
    return {"v": v, "n": red.graph.n, "status": status, "seconds": round(seconds, 3),
            "text_s": round(text_s, 3), "peak_rss_mb": _peak_rss_mb()}


def _xl_completion() -> int:
    print(f"{'v':>5} {'n':>6} {'status':<16} {'s':>7} {'text_s':>7} {'rss_mb':>7}")
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for row in pool.imap(xl_completion_instance, XL_COMPLETION):
            print(f"{row['v']:>5} {row['n']:>6} {row['status']:<16} {row['seconds']:>7.3f} "
                  f"{row['text_s']:>7.3f} {row['peak_rss_mb']:>7.1f}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", default="sat_threshold",
                        choices=["sat_threshold", "xl_completion"])
    if parser.parse_args(argv).workload == "xl_completion":
        return _xl_completion()
    print(f"{'v':>3} {'seed':>4} {'n':>5} {'status':<16} {'nodes':>9} {'s':>7} {'rss_mb':>7}")
    decided = 0
    # one worker, replaced after each instance
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for row in pool.imap(sat_threshold_instance, SAT_THRESHOLD):
            decided += row["status"] in ("found", "infeasible")
            print(f"{row['v']:>3} {row['seed']:>4} {row['n']:>5} {row['status']:<16} "
                  f"{row['nodes']:>9,} {row['seconds']:>7.3f} {row['peak_rss_mb']:>7.1f}",
                  flush=True)
    print(f"sat_threshold: {decided} of {len(SAT_THRESHOLD)} decided", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
