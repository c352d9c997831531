"""Self-test of the benchmark: every workload at tiny sizes.

Checks that each run prints every metric BENCHMARK.json names, with its
unit; that two runs with one seed repeat the digests, op counts, model and
error metrics exactly; that tracing changes no output; and that the
benchmark refuses to run without the program next to it.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5

# record fields that must repeat exactly for one seed
DETERMINISTIC = ("digest_sha256", "count_ops", "model", "sat_frac", "top1_agree",
                 "err_max_lsb", "softmax_sum_dev_lsb", "softmax_rows_over_budget")


def run(workload: str, trace: int, root: Path = ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def finish(workload: str, trace: int):
    """(last-line result, full record) of one tiny run."""
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}-tiny.json"
    return result, json.loads(path.read_text())


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    first, rec1 = finish(workload, 0)
    second, rec2 = finish(workload, 0)
    traced, rec3 = finish(workload, 1)

    for result in (first, second, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in first["metrics"].values())

    for key in ("model_cycles_per_item", "err_mae_lsb"):
        assert first["metrics"][key] == second["metrics"][key], key
    for key in DETERMINISTIC:
        assert rec1["info"][key] == rec2["info"][key] == rec3["info"][key], key
    assert rec1["info"]["failed_frac"] == 0.0

    layers = traced["metrics"]
    assert layers["cordic.shift_adds"]["value"] == rec3["info"]["count_ops"]["shift_adds"]
    assert layers["cordic.run_raw.calls"]["value"] > 0
    if workload == "row_batch":
        # traced count == the shift_add_ops totals run_batch returned
        assert layers["cordic.shift_adds"]["value"] == rec3["info"]["model"]["shift_adds"]
        assert layers["pe.mac.calls"]["value"] > 0 and layers["pe.layer.calls"]["value"] == 0
    if workload == "mlp_forward":
        assert layers["pe.layer.calls"]["value"] > 0 and layers["pe.mac.calls"]["value"] == 0
    if workload == "af_montecarlo":
        assert layers["analysis.oracle.ms"]["value"] > 0
        assert layers["cordic.run_raw.lr.ms"]["value"] == 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("row_batch", 0, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
