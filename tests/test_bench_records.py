"""The committed perf records (BENCH_*.json at the repository root) and the tool that writes them."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}


def test_a_perf_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_perf_record_names_its_claim_and_pairs(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["workload"] in WORKLOADS and claim["metric"] in METRICS
    assert claim["better"] == METRICS[claim["metric"]]
    assert claim["pairs"] == len(record["workloads"][claim["workload"]]["pairs"]) > 0
    for name, workload in record["workloads"].items():
        assert name in WORKLOADS
        assert [pair["seed"] for pair in workload["pairs"]] == workload["seeds"]
        for side in ("parent", "change"):
            assert set(workload[side]) == {"commit", "code_sha256"}
        for pair in workload["pairs"]:
            assert pair["first"] in ("parent", "change")
            assert set(pair["parent"]) == set(pair["change"]) == set(METRICS)
        assert set(workload["summary"]) == set(METRICS)


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(root, workload, seed, wall_s, commit, mtime):
    path = root / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    values = {name: 1.0 for name in METRICS}
    values["wall_s"] = wall_s
    path.write_text(json.dumps({
        "env": {"commit": commit, "code_sha256": f"digest-{commit}", "seconds": 26.0,
                "cpu_count": 2, "python": "3.11.7", "implementation": "CPython",
                "platform": "Linux"},
        "result": {"correct": True, "metrics": {k: {"value": v} for k, v in values.items()}},
    }))
    os.utime(path, (mtime, mtime))


def test_record_tool_pairs_runs_by_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (change / "BENCHMARK.json").parent.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(SPEC))
    walls = {7: (0.30, 0.20), 8: (0.26, 0.27), 9: (0.28, 0.18)}
    for seed, (p, c) in walls.items():
        # the change runs first on seed 8 only
        _write_run(parent, "exhaustive_proofs", seed, p, "abc", 1000 + 10 * seed + (seed == 8) * 5)
        _write_run(change, "exhaustive_proofs", seed, c, None, 1002 + 10 * seed)
    out = tmp_path / "BENCH_0.json"
    assert _load_tool().main(["--parent", str(parent), "--change", str(change),
                              "--claim", "exhaustive_proofs:wall_s",
                              "--workload", "exhaustive_proofs=7-9", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    workload = record["workloads"]["exhaustive_proofs"]
    assert workload["parent"] == {"commit": "abc", "code_sha256": "digest-abc"}
    assert workload["change"] == {"commit": None, "code_sha256": "digest-None"}
    assert [p["first"] for p in workload["pairs"]] == ["parent", "change", "parent"]
    assert [(p["parent"]["wall_s"], p["change"]["wall_s"]) for p in workload["pairs"]] == \
        list(walls.values())
    claim = record["claim"]
    assert (claim["metric"], claim["workload"], claim["pairs"]) == ("wall_s", "exhaustive_proofs", 3)
    assert (claim["parent_median"], claim["change_median"]) == (0.28, 0.20)
    assert claim["pairs_change_better"] == 2
    assert record["command"] == "python3 bench/run.py --workload W --seed S --seconds 26 --trace 0"
