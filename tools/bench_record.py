"""Write a perf record (BENCH_<N>.json) from paired benchmark runs.

A change that claims a speed-up is measured in pairs: the parent commit and
the change sit in two checkouts, and each runs

    python3 bench/run.py --workload W --seed S --seconds 26 --trace 0

on the same seeds, alternating which side runs first.  Every run leaves
bench/out/W-seedS-trace0.json in its own checkout.  This script reads those
files and writes one record at the change's root:

    python3 tools/bench_record.py --parent ../parent --change . \\
        --claim exhaustive_proofs:wall_s \\
        --workload exhaustive_proofs=1501-1510 --workload sat_equiv=1601-1603 \\
        --out BENCH_<N>.json

Per workload the record holds the seeds, each side's commit and source
digest (a side run from a tree that is not a commit, such as a change not
yet committed, has commit null and is named by its digest), and per pair each side's end-to-end metrics (each itself a median
over the run's passes) with the side that ran first, judged by the run
files' modification times.  It then summarises each metric over the pairs:
each side's median and quartiles, the change's median relative to the
parent's, and the pairs in which the change reads better.  The metric names
and their directions come from BENCHMARK.json.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def run_file(root: Path, workload: str, seed: int) -> Path:
    return root / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"


def seed_range(text: str) -> list[int]:
    """'1501-1505' as the list of seeds 1501 to 1505."""
    lo, hi = (int(x) for x in text.split("-", 1))
    return list(range(lo, hi + 1))


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Median, quartiles and pairs won, per end-to-end metric, over the pairs."""
    out = {}
    for name, direction in better.items():
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        wins = sum((c < q) if direction == "lower" else (c > q) for q, c in zip(par, chg))
        med_p, med_c = statistics.median(par), statistics.median(chg)
        out[name] = {
            "parent_median": med_p, "parent_quartiles": quartiles(par),
            "change_median": med_c, "change_quartiles": quartiles(chg),
            "change_over_parent": med_c / med_p - 1.0 if med_p else None,
            "pairs_change_better": wins,
        }
    return out


def side(runs: list[dict]) -> dict:
    """The commit and source digest one side's runs share."""
    envs = {(r["env"]["commit"], r["env"]["code_sha256"]) for r in runs}
    if len(envs) != 1:
        raise ValueError(f"runs of one side come from different sources: {sorted(envs, key=str)}")
    commit, digest = envs.pop()
    return {"commit": commit, "code_sha256": digest}


def workload_record(parent: Path, change: Path, workload: str, seeds: list[int],
                    better: dict[str, str]) -> dict:
    pairs, runs = [], {"parent": [], "change": []}
    for seed in seeds:
        pair = {"seed": seed}
        paths = {"parent": run_file(parent, workload, seed), "change": run_file(change, workload, seed)}
        for name, path in paths.items():
            run = json.loads(path.read_text())
            if not run["result"]["correct"]:
                raise ValueError(f"{path}: the run's answers were not all correct")
            runs[name].append(run)
            pair[name] = {m: run["result"]["metrics"][m]["value"] for m in better}
        pair["first"] = min(paths, key=lambda name: paths[name].stat().st_mtime)
        pairs.append(pair)
    return {"seeds": seeds, "parent": side(runs["parent"]), "change": side(runs["change"]),
            "pairs": pairs, "summary": summarize(pairs, better)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--claim", required=True, help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME=SEEDS",
                    help="a workload and its seeds, as FIRST-LAST; repeatable")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    claim_workload, claim_metric = args.claim.split(":", 1)
    workloads = {}
    for item in args.workload:
        name, seeds = item.split("=", 1)
        workloads[name] = workload_record(args.parent, args.change, name, seed_range(seeds), better)
    if claim_workload not in workloads or claim_metric not in better:
        raise SystemExit(f"error: the claim {args.claim} names no measured workload and metric")
    first = json.loads(run_file(args.change, claim_workload,
                                workloads[claim_workload]["seeds"][0]).read_text())["env"]
    record = {
        "claim": {"workload": claim_workload, "metric": claim_metric,
                  "better": better[claim_metric],
                  **workloads[claim_workload]["summary"][claim_metric],
                  "pairs": len(workloads[claim_workload]["pairs"])},
        "command": f"python3 bench/run.py --workload W --seed S --seconds {first['seconds']:g} "
                   f"--trace 0",
        "machine": {k: first[k] for k in ("cpu_count", "python", "implementation", "platform")},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
