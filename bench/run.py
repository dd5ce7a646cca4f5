"""luckylab benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload sat_equiv --seed 1 --seconds 26 --trace 0

The run imports luckylab from src/ next to this directory, builds the
workload's instances from the seed and warms up (that is setup_s), then runs
passes over the workload's operations, one at a time, for about --seconds
seconds.  Every output is checked.  The last line of standard output is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  The line before it holds the environment and run details, which
are also written to bench/out/.

End-to-end times are normalized to a reference machine speed.  On a shared
machine the speed of the same Python code drifts by up to 2x over minutes.
A fixed routine that does not use luckylab (REFERENCE_ROUTINE) is timed
before every operation, and each measured time is divided by how much
slower than REFERENCE_NOMINAL_S that routine ran around it.  Raw times are
kept in the run details.

A traced run makes one untraced pass and then one traced pass over the same
operations; their wall-time difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5
REFERENCE_NOMINAL_S = 0.0006  # one reference call, uncontended 2-core x86-64 VM, CPython 3.11
REFERENCE_SETUP_CALLS = 20
TAIL_LADDER = (99, 95, 90, 75)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "ok_share": "share", "nodes_total": "count", "peak_rss_mb": "MB",
}


@dataclass
class OpRecord:
    name: str
    seconds: float
    nodes: Optional[int]
    status: str  # "ok" | "failed" | "wrong"
    reason: Optional[str] = None
    calls: list = field(default_factory=list)
    slowdown: float = 1.0  # reference time around the op / REFERENCE_NOMINAL_S


@dataclass
class Pass:
    wall: float  # includes checks, excludes reference calls
    records: list[OpRecord]
    slowdown: float  # mean reference time in the pass / REFERENCE_NOMINAL_S


def reference_routine() -> int:
    """Fixed pure-Python work that shares no code with luckylab: count the
    7-queens solutions by backtracking over sets."""
    n = 7
    cols: set[int] = set()
    diag: set[int] = set()
    anti: set[int] = set()

    def place(row: int) -> int:
        if row == n:
            return 1
        total = 0
        for c in range(n):
            if c in cols or row + c in diag or row - c in anti:
                continue
            cols.add(c)
            diag.add(row + c)
            anti.add(row - c)
            total += place(row + 1)
            cols.discard(c)
            diag.discard(row + c)
            anti.discard(row - c)
        return total

    return place(0)


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_routine()
    return time.perf_counter() - t0


def reference_slowdown(calls: int) -> float:
    return statistics.mean(reference_seconds() for _ in range(calls)) / REFERENCE_NOMINAL_S


def load_luckylab():
    """Import the benchmark modules against luckylab from this checkout's src/."""
    if not (SRC / "luckylab" / "__init__.py").is_file():
        raise ImportError(f"no luckylab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import luckylab

    if Path(luckylab.__file__).resolve().parent != SRC / "luckylab":
        raise ImportError(f"luckylab imported from {luckylab.__file__}, not from {SRC}")
    import instrument
    import workloads

    return instrument, workloads


def run_op(inst, workloads, op) -> OpRecord:
    inst.begin_op(op.name)
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a failing operation is recorded; the run goes on
        result, error = None, exc
    seconds = time.perf_counter() - t0
    calls = inst.end_op()
    counted = [c.nodes for c in calls if c.nodes is not None]
    rec = OpRecord(op.name, seconds, sum(counted) if counted else None, "ok", calls=calls)
    if error is not None:
        name = type(error).__name__
        rec.status = "wrong" if name in workloads.WRONG_ERRORS else "failed"
        rec.reason = f"{name}: {str(error)[:160]}"
    else:
        try:
            op.check(result, calls)
        except workloads.CheckFailed as cf:
            rec.status = "wrong" if cf.wrong else "failed"
            rec.reason = str(cf)
    for c in calls:  # keep counts, not outputs, so memory stays flat across passes
        c.args, c.kwargs, c.result = (), {}, None
    return rec


def run_pass(inst, workloads, ops, earlier: Optional[Pass]) -> Pass:
    """One pass over the ops, with a reference call before each op and after
    the last.  Node counts must repeat those of the `earlier` pass."""
    expected = {r.name: r.nodes for r in earlier.records} if earlier else {}
    t0 = time.perf_counter()
    refs = [reference_seconds()]
    records = []
    for op in ops:
        records.append(run_op(inst, workloads, op))
        refs.append(reference_seconds())
    wall = time.perf_counter() - t0 - sum(refs)
    for i, r in enumerate(records):
        r.slowdown = (refs[i] + refs[i + 1]) / (2 * REFERENCE_NOMINAL_S)
        if earlier and r.nodes != expected[r.name]:
            r.status = "wrong"
            r.reason = f"node count {r.nodes} differs from {expected[r.name]} in an earlier pass"
    return Pass(wall, records, statistics.mean(refs) / REFERENCE_NOMINAL_S)


def tail_percentile(samples: int) -> int:
    """The highest ladder percentile with at least ten samples beyond it, else p50."""
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def op_seconds(passes: list[Pass], normalized: bool) -> dict[str, list[float]]:
    """Each op's time in every pass, raw or divided by its slowdown."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p.records:
            times.setdefault(r.name, []).append(r.seconds / r.slowdown if normalized else r.seconds)
    return times


def normalized_wall(p: Pass) -> float:
    """The pass's wall time with each op divided by its own slowdown (a pass
    can be dominated by one long op) and the rest by the pass's."""
    ops = sum(r.seconds for r in p.records)
    return sum(r.seconds / r.slowdown for r in p.records) + (p.wall - ops) / p.slowdown


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics.  Times are normalized, then the median over the
    passes is taken (each op's median, the median pass)."""
    records = [r for p in passes for r in p.records]
    op_ms = sorted(statistics.median(v) * 1000.0 for v in op_seconds(passes, True).values())
    level = tail_percentile(len(op_ms))
    wall = statistics.median(normalized_wall(p) for p in passes)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": len(passes[0].records) / wall,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": percentile(op_ms, level),
        "ok_share": sum(r.status == "ok" for r in records) / len(records),
        "nodes_total": sum(r.nodes or 0 for r in passes[0].records),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_ms = sorted(statistics.median(v) * 1000.0 for v in op_seconds(passes, False).values())
    detail = {"passes": len(passes), "op_ms_tail_percentile": level, "op_ms_tail_samples": len(op_ms),
              "slowdowns": [p.slowdown for p in passes],
              "raw": {"wall_s": statistics.median(p.wall for p in passes),
                      "op_ms_p50": statistics.median(raw_ms), "op_ms_tail": percentile(raw_ms, level)}}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, detail


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


def setup_probes(args, count: int) -> list[float]:
    """Setup time of fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def commit_hash() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_digest() -> str:
    """Digest of the luckylab and benchmark sources, keying node-count comparisons."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "luckylab").rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
        "commit": commit_hash(), "code_sha256": code_digest(),
    }


def compare_with_earlier_runs(args, env: dict, nodes: dict) -> list[str]:
    """Per-op node counts must equal those of any earlier run of the same
    workload, seed and code, traced or not."""
    mismatches = []
    for trace in (0, 1):
        path = OUT / f"{args.workload}-seed{args.seed}-trace{trace}.json"
        try:
            earlier = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if earlier["env"]["code_sha256"] != env["code_sha256"]:
            continue
        for name, n in earlier["nodes"].items():
            if nodes.get(name) != n:
                mismatches.append(f"{name}: {nodes.get(name)} now, {n} in {path.name}")
    return mismatches


def write_outputs(args, payload: dict, spans) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)
    if spans is not None:
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for s, own in spans:
                fh.write(json.dumps({"span": s.span_id, "parent": s.parent_id, "op": s.op_id,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "self": own, **s.info}) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sat_equiv", "bounds_gnp", "reduction_scale", "exhaustive_proofs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    before = reference_slowdown(REFERENCE_SETUP_CALLS)
    t0 = time.perf_counter()
    try:
        instrument, workloads = load_luckylab()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inst = instrument.Instrument()
    inst.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    run_op(inst, workloads, wl.warm_up)
    setup_s = time.perf_counter() - t0
    setup_s /= (before + reference_slowdown(REFERENCE_SETUP_CALLS)) / 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args)
    spans = None
    if args.trace:
        untraced = run_pass(inst, workloads, wl.ops, None)
        inst.tracing = True
        traced = run_pass(inst, workloads, wl.ops, untraced)
        inst.tracing = False
        passes = [untraced, traced]
        layer = instrument.per_layer_metrics(inst, traced.records, normalized_wall(untraced),
                                             normalized_wall(traced))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        own = instrument.self_times(inst.spans)
        spans = [(s, own[s.span_id]) for s in inst.spans]
        detail = {"untraced_wall_s": untraced.wall, "traced_wall_s": traced.wall,
                  "slowdowns": [untraced.slowdown, traced.slowdown]}
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(inst, workloads, wl.ops, passes[0] if passes else None))
            # start another pass only if it should end within half a pass of --seconds
            if time.perf_counter() - start + passes[-1].wall / 2 > args.seconds:
                break
        setup_s = statistics.median([setup_s] + setup_probes(args, SETUP_SAMPLES - 1))
        metrics, detail = end_to_end(passes, setup_s)

    records = [r for p in passes for r in p.records]
    nodes = {r.name: r.nodes for r in passes[0].records}
    mismatches = compare_with_earlier_runs(args, env, nodes)
    bad = [r for r in records if r.status != "ok"]
    detail["failures"] = sorted({f"{r.name}: {r.reason}" for r in bad})[:20]
    detail["node_mismatches_with_earlier_runs"] = mismatches[:20]
    correct = not mismatches and not any(r.status == "wrong" for r in records)
    result = {"correct": correct, "attempted": len(records), "failed": len(bad), "metrics": metrics}
    times = op_seconds(passes, False)
    write_outputs(args, {"env": env, "detail": detail, "result": result, "nodes": nodes,
                         "ops": [[r.name, r.nodes, r.status, r.reason, times[r.name]]
                                 for r in passes[0].records]}, spans)
    print(json.dumps({"env": env, "detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
