"""Run a workload and turn its passes and spans into named metrics."""

from __future__ import annotations

import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import TRAIN_CTX, Tracer
from workloads import WORKLOADS, PassResult, StepClock

SETUP_REPS = 3  # setup_s is their median
MIN_PASSES = 3
MIN_PASSES_TRACED = 4  # alternating untraced / traced
MIN_OPS = 110  # so that op_ms_p90 has at least ten samples beyond it
OVERTIME_S = 60  # longest a run goes on past --seconds to reach the minimums

# every layer of the criterion-4 net; the CLI-default net is a subset
LAYERS = (
    "conv3d_0", "ln_conv3d_0", "relu_conv3d_0", "conv3d_1", "ln_conv3d_1", "relu_conv3d_1",
    "collapse_depth", "conv2d", "ln_conv2d", "relu_conv2d", "flatten",
    "fc_0", "ln_fc_0", "relu_fc_0", "fc_1", "ln_fc_1", "relu_fc_1",
    "fc_2", "ln_fc_2", "relu_fc_2", "fc_out",
)

# per-layer metrics whose values repeat exactly for a seed
COMPUTED = (
    "direction_median_pct", "magnitude_median_pct",
    "baselines.linear.direction_median_pct", "baselines.linear.magnitude_median_pct",
    "mechanics.episode_steps", "mechanics.static_step_ratio",
    "synthetic.make_planar_trials.label_ratio",
    "dataset.featurize_voxel.bytes_per_sample", "dataset.featurize_voxel.nonzero_frac",
    "dataset.voxel_bytes.train", "dataset.voxel_bytes.val", "dataset.voxel_bytes.test",
    "net.layers.conv3d_0.mmac_per_iter", "net.layers.conv3d_0.useful_frac",
)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def run_passes(tf, workload, seconds: float, tracer: Tracer | None):
    """Set up SETUP_REPS times, then run passes until `seconds` have passed
    and the minimum passes and ops are reached.

    With a tracer, the set-ups and every second pass are traced and the
    other passes run with no patch beyond the step clock.
    """
    clock = StepClock(tf.training) if workload.uses_steps else None
    setups: list[tuple[float, dict]] = []
    passes: list[tuple[bool, PassResult]] = []
    try:
        if tracer:
            tracer.install(tf)
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            stage = workload.setup()
            setups.append((time.perf_counter() - t0, stage))
        if clock:
            clock.stamps.clear()
        min_passes = MIN_PASSES_TRACED if tracer else MIN_PASSES
        start = time.perf_counter()
        ops = 0
        while time.perf_counter() - start < seconds or (
            (len(passes) < min_passes or ops < MIN_OPS)
            and time.perf_counter() - start < seconds + OVERTIME_S
        ):
            traced = tracer is not None and len(passes) % 2 == 1
            if tracer:
                tracer.phase = "pass"
                if traced:
                    tracer.install(tf)
                else:
                    tracer.uninstall()
            try:
                result = workload.run_pass(len(passes), clock)
            except Exception:  # a failed pass is counted, the run goes on
                traceback.print_exc()
                result = PassResult(attempted=1, failed=1)
                if clock:
                    clock.stamps.clear()
            passes.append((traced, result))
            ops += 0 if traced else len(result.ops)
        if tracer:
            tracer.uninstall()
        computed = workload.computed() if tracer else {}
    finally:
        if tracer:
            tracer.uninstall()
        if clock:
            clock.close()
        workload.close()
    return setups, passes, computed


def end_to_end(setups, untraced, attempted, failed) -> dict[str, float]:
    return {
        "setup_s": _median(s for s, _ in setups),
        "op_ms_p90": _percentile([op for r in untraced for op in r.ops], 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def span_metrics(tracer: Tracer, setup_reps: int, n_traced: int, ops_u, ops_t) -> dict[str, float]:
    """Per-layer metrics from the aggregated spans of the traced work."""
    m: dict[str, float] = {}

    def per_item(name, scale, ctx=None):
        _, seconds, items = tracer.total(name, ctx)
        return seconds / items * scale if items else 0.0

    def per_call(name, scale, ctx=None):
        calls, seconds, _ = tracer.total(name, ctx)
        return seconds / calls * scale if calls else 0.0

    def calls_per_cycle(name):
        """Calls per set-up plus calls per traced pass."""
        in_setup = tracer.total(name, phase="setup")[0] / setup_reps
        in_pass = tracer.total(name, phase="pass")[0] / n_traced if n_traced else 0.0
        return in_setup + in_pass

    for name in ("synthetic.make_ft_samples", "dataset.featurize_voxel"):
        m[f"{name}.us_per_sample"] = per_item(name, 1e6)
    for name in ("synthetic.make_planar_trials", "synthetic.simulate_push"):
        m[f"{name}.us_per_step"] = per_item(name, 1e6)
    m["mechanics.infer_force_with_friction.us_per_step"] = per_call(
        "mechanics.infer_force_with_friction", 1e6)
    for name in ("synthetic.sensor_forward", "sensor.detect_contact",
                 "mechanics.friction_wrench"):
        m[f"{name}.calls"] = calls_per_cycle(name)
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    m["voxel.encode.us_per_call"] = per_call("voxel.encode", 1e6)
    for name in ("dataset.read_samples_jsonl", "dataset.write_samples_jsonl"):
        m[f"{name}.us_per_record"] = per_item(name, 1e6)
    m["net.checkpoint.save_ms"] = per_call("net.checkpoint.save_checkpoint", 1e3)
    m["net.checkpoint.load_ms"] = per_call("net.checkpoint.load_checkpoint", 1e3)
    m["metrics.evaluate_pairs.us_per_sample"] = per_item("metrics.evaluate_pairs", 1e6)
    m["metrics.summarize_rows.ms"] = per_call("metrics.summarize_rows", 1e3)
    m["baselines.linear_fit.ms"] = per_call("baselines.linear_fit", 1e3)
    m["baselines.linear_predict.us_per_sample"] = per_item("baselines.linear_predict", 1e6)

    iters = tracer.total("net.training.adam_step", phase="pass")[0]

    def ms_per_iter(name):
        return tracer.total(name, TRAIN_CTX, "pass")[1] / iters * 1e3 if iters else 0.0

    parts = 0.0
    for layer in LAYERS:
        for kind in ("fwd", "bwd"):
            m[f"net.layers.{layer}.{kind}_ms"] = ms_per_iter(f"net.layers.{layer}.{kind}")
            parts += m[f"net.layers.{layer}.{kind}_ms"]
    for name in ("net.losses.batch_loss_and_grad", "net.training.adam_step",
                 "net.training.batch_take"):
        m[f"{name}.ms_per_iter"] = ms_per_iter(name)
        parts += m[f"{name}.ms_per_iter"]
    skipped = tracer.total("net.losses.batch_loss_and_grad", TRAIN_CTX, "pass")[2]
    m["net.losses.batch_loss_and_grad.skipped"] = skipped / n_traced if n_traced else 0.0
    m["net.training.evaluate_loss.ms_per_epoch"] = per_call("net.training.evaluate_loss", 1e3)

    untraced_ms, traced_ms = _mean(ops_u) * 1e3, _mean(ops_t) * 1e3
    m["trace.overhead_pct"] = (traced_ms / untraced_ms - 1) * 100 if untraced_ms and traced_ms else 0.0
    m["trace.attributed_pct"] = parts / untraced_ms * 100 if iters and untraced_ms else 0.0
    # the step's own time: zero_grad, finiteness checks, loop overhead
    m["net.training.step_residual_ms"] = traced_ms - parts if iters and traced_ms else 0.0
    return m


def measure(tf, name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            work_dir: Path, per_layer_names: list[str]) -> dict:
    workload = WORKLOADS[name](tf, seed, smoke, work_dir)
    tracer = Tracer() if trace else None
    try:
        setups, passes, computed = run_passes(tf, workload, seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    results = [r for _, r in passes]
    untraced = [r for traced, r in passes if not traced]
    traced = [r for t, r in passes if t]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    ops_u = [op for r in untraced for op in r.ops]
    report = {
        "workload": name,
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_reps": len(setups),
        "op_samples": len(ops_u),
        "attempted": attempted,
        "failed": failed,
        "setup_s": [round(s, 6) for s, _ in setups],
        "pass_s": [
            [int(t), round(r.produce_s, 6), round(r.consume_s, 6), len(r.ops),
             *(round(_percentile(r.ops, q) * 1e3, 5) for q in (10, 50, 90))]
            for t, r in passes
        ],
    }
    if not trace:
        report["metrics"] = end_to_end(setups, untraced, attempted, failed)
        return report

    ops_t = [op for r in traced for op in r.ops]
    metrics = dict.fromkeys(per_layer_names, 0.0)
    stage_keys = {k for r in untraced for k in r.stage} | {k for _, st in setups for k in st}
    for key in stage_keys:
        metrics[key] = _median(
            [r.stage[key] for r in untraced if key in r.stage]
            + [st[key] for _, st in setups if key in st]
        )
    if workload.uses_steps:
        metrics["train_step_ms_p50"] = _percentile(ops_u, 50) * 1e3
        metrics["train_step_ms_p90"] = _percentile(ops_u, 90) * 1e3
    metrics["fail_ratio"] = failed / attempted
    metrics.update(results[0].computed)
    metrics.update(computed)
    metrics.update(span_metrics(tracer, len(setups), len(traced), ops_u, ops_t))
    report["metrics"] = metrics
    report["computed"] = [k for k in COMPUTED if k in metrics]
    report["spans"] = {
        f"{phase}|{ctx}|{span}": [n, round(total * 1e3, 3), items]
        for (phase, ctx, span), (n, total, items) in sorted(tracer.stats.items())
    }
    return report
