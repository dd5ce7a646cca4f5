"""Run every workload once and print each metric by name with its unit.

    python3 bench/report.py --seed 1             # end-to-end metrics
    python3 bench/report.py --seed 1 --trace 1   # per-layer metrics

Each workload runs in its own process, one after another, exactly as
`bench/run.py` runs it alone.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for wl in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", wl["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{wl['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        print(f"== {wl['name']}  correct={result['correct']}  attempted={result['attempted']}"
              f"  failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:48s} {m['value']:>16.6g}  {m['unit']}")
        if "op_ms_tail_percentile" in detail:
            print(f"  (op_ms_tail is p{detail['op_ms_tail_percentile']} of "
                  f"{detail['op_ms_tail_samples']} operations; {detail['passes']} passes)")
        for failure in detail["failures"][:5]:
            print(f"  failure: {failure}")
    return status


if __name__ == "__main__":
    sys.exit(main())
