"""Fast self-test of the benchmark: every workload at its smallest size.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every metric the benchmark is specified to report
NAMED_END_TO_END = {"wall_s", "evals_per_s", "call_p50_ms", "call_tail_ms", "setup_s", "peak_rss_mb"}
NAMED_PER_LAYER = {
    f"{layer}.{field}"
    for layer, fields in {
        "hashing.hash_uniform": ("calls", "elems", "self_s", "elems_per_s"),
        "hashing.mix": ("calls", "self_s"),
        "simulators.sample_block": ("calls", "evals", "self_s", "evals_per_s", "rows_mean", "cols_mean"),
        "simulators.generate": ("self_s",),
        "bounds": ("self_s",),
        "algorithms.gs": ("calls", "self_s", "p50_us"),
        "algorithms.psp": ("calls", "iterations", "self_s", "survivor_eval_share"),
        "games.nash_mask": ("calls", "self_s"),
        "games.pure_eps_nash": ("self_s",),
        "games.rationalizable": ("calls", "self_s"),
        "experiments": ("self_s",),
        "trace": ("overhead_frac", "coverage"),
    }.items()
    for field in fields
}


def run_tiny(workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
        )
    assert code == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def test_spec_names_every_metric():
    assert {m["name"] for m in SPEC["end_to_end"]} == NAMED_END_TO_END
    assert NAMED_PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    result, text = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], float)
        assert f"metric {m['name']} " in text
    assert "metric failed_frac 0 " in text
    assert " digest " in text


def test_outputs_are_deterministic():
    workload = WORKLOADS["progressive"](tiny=True)
    inputs = workload.prepare(5)
    first = workload.run_pass(inputs, 1)
    again = workload.run_pass(workload.prepare(5), 1)
    assert first.outputs == again.outputs
    assert not first.failures


def test_unrecorded_seed_checks_a_recorded_seed():
    workload = WORKLOADS["decay"]()
    check_seed, checked, recorded = run.recorded_check(workload, 57, [])
    assert check_seed == 17
    assert [run.digest(p.outputs) for p in checked] == recorded


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
