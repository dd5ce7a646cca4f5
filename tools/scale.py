"""Run the sat_threshold scale workload of ROADMAP.md, one line per instance.

    python3 tools/scale.py

sat_threshold is the 3-SAT reduction of random_formula(Random(1000 v + s), v,
round(4.26 v)), near the satisfiability threshold, for v = 10, 12, 16 and
20 and seeds s = 1, 2 and 3, each decided by exists_binary under a budget
of 3 M nodes (the time cap is set high enough never to bind, so the node
counts are deterministic).

Each instance runs in a fresh process, one at a time, so its peak resident
set size is its own: the interpreter, the imports and the search together.
Per instance the line holds v, the seed, n, the status, the nodes, the
seconds of the exists_binary call and the peak RSS in MB; a last line on
stderr gives the share decided.  Standard library only; the package is
imported from the checkout's src directory.
"""

from __future__ import annotations

import argparse
import multiprocessing
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SAT_THRESHOLD = [(v, s) for v in (10, 12, 16, 20) for s in (1, 2, 3)]
SAT_THRESHOLD_NODES = 3_000_000


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
    # ru_maxrss is in KB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"v": v, "seed": seed, "n": g.n, "status": rep.status,
            "nodes": rep.nodes_explored, "seconds": round(seconds, 3),
            "peak_rss_mb": round(rss_mb, 1)}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
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
