"""tools/scale.py, the runner of the scale workloads."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("scale", ROOT / "tools" / "scale.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sat_threshold_instance_row():
    # one instance in this process: v = 10, seed 2 is satisfiable
    scale = _load_tool()
    assert len(scale.SAT_THRESHOLD) == 12
    row = scale.sat_threshold_instance((10, 2))
    assert {k: row[k] for k in ("v", "seed", "n", "status", "nodes")} == \
        {"v": 10, "seed": 2, "n": 395, "status": "found", "nodes": 12_745}
    assert row["seconds"] >= 0 and row["peak_rss_mb"] > 0


def test_xl_completion_instance_row():
    # one instance in this process; its outcome is not pinned, since the
    # recursive search raises RecursionError at this depth and an iterative
    # one would finish
    scale = _load_tool()
    assert scale.XL_COMPLETION == (250, 500, 1_000, 2_000)
    row = scale.xl_completion_instance(250)
    assert (row["v"], row["n"]) == (250, 8_625)
    assert row["status"] and row["seconds"] >= 0 and row["peak_rss_mb"] > 0
    assert row["text_s"] >= 0
