"""The package names the benchmark in perfbench/ reads.

This suite does not collect perfbench/, so without these checks a rename or
deletion in the package would fail only the benchmark run. The benchmark's
own Tracer is installed on the package's modules and uninstalled again,
which must leave every attribute as it was, every `tf.<module>.<name>`
that perfbench's code names must exist, every layer of the nets it
trains must have a name its per-layer split lists, and the spans it times
each training step by must fire on every step.
"""

import ast
import importlib.util
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tactile_force.cli import TRAIN_CONFIG
from tactile_force.net import (
    LossConfig, NetworkConfig, TrainingConfig, build_mlp_net, build_voxel_net,
)
from tactile_force.net.network import FLAT_INPUT_WIDTH
from tactile_force.voxel import DEFAULT_DIMS, N_CHANNELS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """perfbench/<name>.py as a module, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def package():
    """The namespace of package modules perfbench builds; loading its runner
    pins BLAS threads in the environment and puts src/ on the path, so both
    are restored."""
    environ, path = os.environ.copy(), list(sys.path)
    try:
        return load("run").import_package()
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path


def test_tracer_installs_and_restores_every_attribute(package):
    owners = [*package.modules, package.training.AdamOptimizer, package.training.ArraySamples]
    before = [dict(vars(owner)) for owner in owners]
    simulate = package.cli.cmd_simulate
    tracer = load("tracing").Tracer()
    tracer.install(package)
    try:
        assert package.cli.cmd_simulate is not simulate  # it did wrap
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        assert [k for k in saved if now[k] is not saved[k]] == [], owner


def test_every_package_name_the_benchmark_reads_exists(package):
    names = {name for path in sorted(PERFBENCH.glob("*.py"))
             for name in re.findall(r"\btf\.(\w+)\.(\w+)", path.read_text())}
    assert len(names) > 30
    missing = [f"{module}.{attr}" for module, attr in sorted(names)
               if not hasattr(getattr(package, module, None), attr)]
    assert missing == []


def perfbench_layers() -> tuple[str, ...]:
    """perfbench/measure.py's LAYERS, read from its source."""
    tree = ast.parse((PERFBENCH / "measure.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "LAYERS")


def test_every_layer_of_the_benchmarked_nets_is_in_the_per_layer_split():
    """The tracer times every layer by name, but measure.py sums only the
    names LAYERS lists, so a layer renamed away from them would drop out of
    the per-layer split and only lower trace.attributed_pct. The CLI-default
    net (cli_mixed) and the criterion-4 net (train_c4) must match exactly.
    perfbench trains no --no-voxel MLP, whose six hidden layers outnumber
    LAYERS' three fully connected ones, so its layers must only belong to
    the families LAYERS lists (fc_<i>, ln_fc_<i>, fc_out)."""
    layers = set(perfbench_layers())
    grid = (N_CHANNELS, *DEFAULT_DIMS)
    for config in (NetworkConfig(), NetworkConfig(conv2d_channels=128, fc_widths=(256, 128, 64))):
        names = [layer.name for layer in build_voxel_net(config, grid).layers]
        assert [name for name in names if name not in layers] == [], config
    widths = tuple(TRAIN_CONFIG["no_voxel_widths"]) + NetworkConfig().fc_widths
    mlp = build_mlp_net(widths, layer_norm=True)
    families = [re.sub(r"_\d+$", "_0", layer.name) for layer in mlp.layers]
    assert set(families) <= layers


def test_every_training_step_has_its_take_and_loss_spans(package):
    """measure.py divides the time of the batch_take and batch_loss_and_grad
    spans in train()'s context by the steps taken. A traced train() of 2
    epochs of 3 batches must record one loss span per step and one take per
    step plus one per epoch, the gather of its shuffle, so that neither
    per-step metric silently reads zero."""
    tracing = load("tracing")
    rng = np.random.default_rng(0)
    forces = rng.normal(size=(30, 3)) + [0.0, 0.0, 2.0]
    samples = package.training.ArraySamples(
        inputs=rng.normal(size=(30, FLAT_INPUT_WIDTH)), f_3d=forces,
        s_n=forces / np.linalg.norm(forces, axis=1, keepdims=True),
        r_wb=np.tile(np.eye(3), (30, 1, 1)), source_tags=np.array(["rigid_ft"] * 30),
    )
    train_set, val_set = samples.take(np.arange(24)), samples.take(np.arange(24, 30))
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        report = package.training.train(
            build_mlp_net((4,), seed=0), train_set, val_set, LossConfig(),
            TrainingConfig(max_epochs=2, batch_size=8),
        )
    finally:
        tracer.uninstall()
    assert report.iterations == 6
    assert tracer.total("net.losses.batch_loss_and_grad", tracing.TRAIN_CTX)[0] == 6
    assert tracer.total("net.training.batch_take", tracing.TRAIN_CTX)[0] == 6 + 2


@pytest.mark.parametrize("name", ["train_c4", "label_planar", "cli_mixed"])
def test_each_workload_sets_up_and_passes_in_process(package, tmp_path, name):
    """The benchmark reads more of the package than names: len() of what
    the generators and the samples-file functions take or return, a split's
    samples by split(name), and rows' .e. Each workload, at its smoke size,
    must set up, run one pass with every check passing (an ok_ratio of 1),
    and compute its traced-run counts."""
    path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))  # workloads imports tracing by its name
    try:
        workloads = load("workloads")
    finally:
        sys.path[:] = path
    workload = workloads.WORKLOADS[name](package, seed=3, smoke=True, work_dir=tmp_path)
    clock = workloads.StepClock(package.training) if workload.uses_steps else None
    try:
        workload.setup()
        result = workload.run_pass(0, clock)
        computed = workload.computed()
    finally:
        if clock:
            clock.close()
        workload.close()
    assert result.attempted > 0 and result.failed == 0 and result.ops
    assert all(np.isfinite(value) for value in computed.values())
