"""Smoke-size self-test of the benchmark.

    python3 -m pytest perfbench -q

Each workload runs untraced and traced on tiny inputs (`--smoke`) through
the same command BENCHMARK.json declares.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SMOKE_TIMEOUT_S = 60
ATTRIBUTED_PCT = (50.0, 150.0)


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    argv = [sys.executable, *BENCH["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=SMOKE_TIMEOUT_S * 2)
    return proc, time.monotonic() - t0


@functools.cache
def result(workload: str, trace: int, seed: int = 3):
    proc, elapsed = run_bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), elapsed


def spans(info: dict, phase: str | None = None) -> set[str]:
    return {key.split("|")[2] for key in info["spans"]
            if phase is None or key.startswith(phase + "|")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_in_seconds_and_checks_outputs(workload, trace):
    info, final, elapsed = result(workload, trace)
    assert elapsed < SMOKE_TIMEOUT_S
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    assert info["env"]["blas_threads"] == 1 and info["env"]["seed"] == 3


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_with_its_unit(workload, trace):
    _, final, _ = result(workload, trace)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in final["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())


def test_label_planar_records_no_net_span():
    info, final, _ = result("label_planar", 1)
    assert not any(name.startswith("net.") for name in spans(info))
    assert "mechanics.friction_wrench" in spans(info, "pass")
    assert final["metrics"]["synthetic.make_planar_trials.us_per_step"]["value"] > 0


def test_train_c4_records_no_mechanics_span_after_setup():
    info, final, _ = result("train_c4", 1)
    assert not any(name.startswith("mechanics.") for name in spans(info, "pass"))
    assert "synthetic.make_ft_samples" in spans(info, "setup")
    for layer in ("conv3d_0", "ln_conv3d_0", "fc_2", "fc_out"):
        assert final["metrics"][f"net.layers.{layer}.fwd_ms"]["value"] > 0


def test_cli_mixed_traces_io_and_checkpoint():
    info, final, _ = result("cli_mixed", 1)
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    for name in ("dataset.read_samples_jsonl.us_per_record",
                 "dataset.write_samples_jsonl.us_per_record",
                 "net.checkpoint.save_ms", "net.checkpoint.load_ms", "cli_eval_s"):
        assert metrics[name] > 0, name
    assert metrics["net.layers.fc_2.fwd_ms"] == 0  # the CLI-default net has two FC layers


@pytest.mark.parametrize("workload", ["train_c4", "cli_mixed"])
def test_traced_parts_account_for_the_step(workload):
    """Layer, loss, Adam and take spans cover the step without counting any
    of it twice. Smoke runs last a second or two, too short to hold the
    traced and untraced step to the 10% a full run reconciles to."""
    _, final, _ = result(workload, 1)
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    assert ATTRIBUTED_PCT[0] <= metrics["trace.attributed_pct"] <= ATTRIBUTED_PCT[1]
    assert metrics["net.training.step_residual_ms"] < metrics["train_step_ms_p90"]


def test_computed_counts_repeat_for_a_seed():
    info, final, _ = result("cli_mixed", 1)
    proc, _ = run_bench("cli_mixed", 1)
    rerun = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert "net.layers.conv3d_0.useful_frac" in info["computed"]
    for name in info["computed"]:
        assert rerun[name] == final["metrics"][name], name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, elapsed = run_bench("train_c4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert elapsed < 180
    assert '"metrics"' not in proc.stdout
