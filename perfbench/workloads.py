"""The three benchmark workloads.

Each workload generates its inputs from the seed in `setup()` and then runs
passes of its flow until the run's time is up. A pass has a produce stage
(train a model, simulate episodes) and a consume stage (predict, infer,
evaluate), and records its unit operations, one timestamp each:

- train_c4 and cli_mixed: a training step, timestamped when
  `AdamOptimizer.step` returns;
- label_planar: one closed-form force inference on a stored step.

Workloads call the package through module attributes (`tf.training.train`,
not an imported name) so that the tracer's patches reach the calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Patches

HERE = Path(__file__).resolve().parent
CLI_SIMULATE_CONFIG = HERE / "cli_simulate.json"
CLI_TRAIN_CONFIG = HERE / "cli_train.json"
ROUND_TRIP_TOL_N = 1e-3  # criterion 1
PREDICT_CHUNK = 512


@dataclass
class PassResult:
    produce_s: float = 0.0
    consume_s: float = 0.0
    ops: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stage: dict[str, float] = field(default_factory=dict)
    computed: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


class StepClock:
    """Takes one timestamp per training step: when `AdamOptimizer.step` returns."""

    def __init__(self, training):
        self.stamps: list[float] = []
        original, stamps = training.AdamOptimizer.step, self.stamps

        def step(optimizer, lr):
            original(optimizer, lr)
            stamps.append(time.perf_counter())

        self._patches = Patches()
        self._patches.set(training.AdamOptimizer, "step", step)

    def close(self) -> None:
        self._patches.restore()

    def take_intervals(self, steps_per_epoch: int) -> list[float]:
        """Step durations since the last call, leaving out each epoch's first
        step, whose interval also covers the previous epoch's validation."""
        stamps = self.stamps
        out = [stamps[j] - stamps[j - 1] for j in range(1, len(stamps)) if j % steps_per_epoch]
        stamps.clear()
        return out


def conv3d_0_counts(inputs: np.ndarray, batch: int, out_channels: int) -> dict[str, float]:
    """Computed work of the first convolution (kernel = stride = 2).

    Multiply-adds per training iteration cover the forward pass, the weight
    gradient and the input gradient, each one (windows x out x in x 8)
    contraction per sample. The useful fraction is the share of them that
    reads a non-zero input cell.
    """
    _, c, *dims = inputs.shape
    out = [(d - 2) // 2 + 1 for d in dims]
    windows = math.prod(out)
    covered = inputs[:, :, : 2 * out[0], : 2 * out[1], : 2 * out[2]]
    return {
        "net.layers.conv3d_0.mmac_per_iter": 3 * batch * windows * out_channels * c * 8 / 1e6,
        "net.layers.conv3d_0.useful_frac": np.count_nonzero(covered) / covered.size,
    }


def voxel_counts(inputs: np.ndarray, split_sizes: dict[str, int]) -> dict[str, float]:
    """Computed size of the dense voxel inputs."""
    per_sample = inputs.nbytes / inputs.shape[0]
    counts = {
        "dataset.featurize_voxel.bytes_per_sample": per_sample,
        "dataset.featurize_voxel.nonzero_frac": np.count_nonzero(inputs) / inputs.size,
    }
    for split, n in split_sizes.items():
        counts[f"dataset.voxel_bytes.{split}"] = per_sample * n
    return counts


class Workload:
    """Set-up, passes, and the counts computed once after a traced run."""

    name = ""
    uses_steps = False  # ops are training steps, timed by a StepClock

    def computed(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def _medians(tf, f_true, preds, tags) -> tuple[float, float]:
    rows, _ = tf.metrics.evaluate_pairs(f_true, preds, tags)
    summary = tf.metrics.summarize_rows(rows)
    return summary["direction_pct"]["median"], summary["magnitude_pct"]["median"]


class TrainC4(Workload):
    """Criterion-4 training: 60 x 200 rigid-ft samples, the large voxel net."""

    name = "train_c4"
    uses_steps = True

    def __init__(self, tf, seed: int, smoke: bool, work_dir: Path):
        self.tf, self.seed = tf, seed
        self.n_trials, self.per_trial = (10, 80) if smoke else (60, 200)
        self.net_config = tf.network.NetworkConfig(
            conv2d_channels=128, fc_widths=(256, 128, 64), seed=0
        )
        self.train_config = tf.training.TrainingConfig(
            max_epochs=3, batch_size=128, base_lr=2e-3, decay_factor=0.9999, seed=0
        )
        self.data = None

    def setup(self) -> dict[str, float]:
        tf = self.tf
        self.data = None
        geometry = tf.sensor.SurfaceGeometry()
        layout = tf.sensor.default_electrode_layout(geometry)
        sensor = tf.synthetic.SensorForwardModel(layout=layout)
        records = tf.synthetic.make_ft_samples(
            sensor, geometry, "rigid_ft", n_trials=self.n_trials,
            samples_per_trial=self.per_trial, seed=self.seed,
            force_range=(0.5, 5.0), cone_angle_deg=45.0,
        )
        splits = tf.dataset.make_dataset(records, seed=self.seed)
        spec = tf.voxel.GridSpec.for_geometry(geometry)
        t0 = time.perf_counter()
        sets = {
            name: tf.dataset.featurize_voxel(splits.split(name), layout, spec)
            for name in ("train", "val", "test")
        }
        featurize_s = time.perf_counter() - t0
        e = {name: np.stack([r.e for r in splits.split(name)]) for name in ("train", "test")}
        self.data = (layout, spec, e, sets)
        return {"featurize_us_per_sample": featurize_s / len(records) * 1e6}

    def steps_per_epoch(self) -> int:
        return math.ceil(len(self.data[3]["train"]) / self.train_config.batch_size)

    def run_pass(self, index: int, clock: StepClock) -> PassResult:
        tf = self.tf
        layout, spec, e, sets = self.data
        train_set, test_set = sets["train"], sets["test"]
        res = PassResult()
        net = tf.network.build_voxel_net(self.net_config, input_shape=(2,) + spec.dims)
        loss_config = tf.losses.LossConfig(beta=1.0)
        t0 = time.perf_counter()
        report = tf.training.train(net, train_set, sets["val"], loss_config, self.train_config)
        t_train = time.perf_counter()
        linear = tf.baselines.linear_fit(e["train"], train_set.f_3d, layout)
        t1 = time.perf_counter()
        preds = np.concatenate([
            net.forward(test_set.inputs[i : i + PREDICT_CHUNK])
            for i in range(0, len(test_set), PREDICT_CHUNK)
        ])
        t_pred = time.perf_counter()
        lin_preds = tf.baselines.linear_predict(linear, e["test"])
        net_dir, net_mag = _medians(tf, test_set.f_3d, preds, test_set.source_tags)
        lin_dir, lin_mag = _medians(tf, test_set.f_3d, lin_preds, test_set.source_tags)
        t2 = time.perf_counter()
        returned_val, _ = tf.training.evaluate_loss(net, sets["val"], loss_config)

        res.produce_s, res.consume_s = t1 - t0, t2 - t1
        res.ops = clock.take_intervals(self.steps_per_epoch())
        losses = report.train_losses + report.val_losses + [returned_val]
        # train() returns the best-validation parameters; under the warm-up
        # learning rate the last epoch's validation loss can rise above the
        # first's while training still progresses, so the gate evaluates the
        # returned model
        res.check(
            all(math.isfinite(x) for x in losses)
            and returned_val < report.val_losses[0]
            and report.train_losses[-1] < report.train_losses[0]
            and bool(np.all(np.isfinite(preds)))
            and bool(np.all(np.isfinite(lin_preds)))
        )
        samples = self.train_config.max_epochs * len(train_set)
        res.stage = {
            "train_samples_per_s": samples / (t_train - t0),
            "predict_samples_per_s": len(test_set) / (t_pred - t1),
        }
        res.computed = {
            "direction_median_pct": net_dir,
            "magnitude_median_pct": net_mag,
            "baselines.linear.direction_median_pct": lin_dir,
            "baselines.linear.magnitude_median_pct": lin_mag,
        }
        return res

    def computed(self) -> dict[str, float]:
        _, _, _, sets = self.data
        sizes = {name: len(s) for name, s in sets.items()}
        return {
            **voxel_counts(sets["train"].inputs, sizes),
            **conv3d_0_counts(
                sets["train"].inputs, self.train_config.batch_size,
                self.net_config.conv3d_channels[0],
            ),
        }

    def close(self) -> None:
        self.data = None


class LabelPlanar(Workload):
    """Long planar pushes, labelled and then re-inferred step by step."""

    name = "label_planar"

    def __init__(self, tf, seed: int, smoke: bool, work_dir: Path):
        self.tf, self.seed = tf, seed
        self.steps = 600 if smoke else 4000

    def setup(self) -> dict[str, float]:
        """Sensor model, then one full-length episode simulated and inferred,
        so that set-up time follows the simulator's per-step cost at the
        episode length the passes use, and first-call costs land here."""
        tf = self.tf
        self.geometry = tf.sensor.SurfaceGeometry()
        self.sensor = tf.synthetic.SensorForwardModel(
            layout=tf.sensor.default_electrode_layout(self.geometry)
        )
        self._label_and_infer(self.steps, seed=self.seed * 1000)
        return {}

    def _label_and_infer(self, steps: int, seed: int, ops: list | None = None):
        """Simulate one labelled episode, then infer the force on every step."""
        tf = self.tf
        t0 = time.perf_counter()
        episodes, records = tf.synthetic.make_planar_trials(
            self.sensor, self.geometry, n_trials=1, steps=steps, seed=seed
        )
        t1 = time.perf_counter()
        episode = episodes[0]
        grid = tf.mechanics.ParticleGrid.uniform_rectangle(episode.half_extents, episode.params)
        forces = np.empty((episode.n_steps, 2))
        infer = tf.mechanics.infer_force_with_friction
        prev = time.perf_counter()
        for i in range(episode.n_steps):
            forces[i] = infer(
                episode.motion_at(i), episode.contact_points[i], grid, episode.params
            ).force.components
            now = time.perf_counter()
            if ops is not None:
                ops.append(now - prev)
            prev = now
        return episode, records, forces, (t0, t1, prev)

    def run_pass(self, index: int, clock: StepClock) -> PassResult:
        res = PassResult()
        episode, records, forces, (t0, t1, t2) = self._label_and_infer(
            self.steps, seed=self.seed * 1000 + 1 + index, ops=res.ops
        )
        moving = ~episode.static_flags
        errors = np.linalg.norm(forces - episode.applied_forces, axis=1)[moving]
        res.attempted = episode.n_steps
        res.failed = int(np.count_nonzero(~(errors < ROUND_TRIP_TOL_N)))
        res.check(len(records) > 0)
        res.produce_s, res.consume_s = t1 - t0, t2 - t1
        res.stage = {
            "simulate_steps_per_s": episode.n_steps / (t1 - t0),
            "infer_steps_per_s": episode.n_steps / (t2 - t1),
        }
        res.computed = {
            "mechanics.episode_steps": episode.n_steps,
            "mechanics.static_step_ratio": float(np.mean(episode.static_flags)),
            "synthetic.make_planar_trials.label_ratio": len(records) / episode.n_steps,
        }
        return res


class CliMixed(Workload):
    """The README's CLI flow on a mixed rigid/ball/planar dataset.

    Set-up runs `simulate`, which writes the dataset, and `eval` of the
    oracle, which reads it back through the eval path. Every pass then reads:
    `infer` on one episode, `train` of the CLI-default voxel net and of the
    linear model, and `eval` of the checkpoint, the linear model and the
    oracle. The configs are copied into the run directory so that the
    self-test can shrink them.
    """

    name = "cli_mixed"
    uses_steps = True

    def __init__(self, tf, seed: int, smoke: bool, work_dir: Path):
        self.tf, self.seed = tf, seed
        self.root = work_dir / "cli_mixed"
        self.data = self.root / "data"
        self.sim_config = json.loads(CLI_SIMULATE_CONFIG.read_text())
        self.train_config = json.loads(CLI_TRAIN_CONFIG.read_text())
        if smoke:
            sources = self.sim_config["sources"]
            sources["planar_pushing"].update(trials=3, steps=150)
            sources["rigid_ft"].update(trials=3, samples_per_trial=40)
            sources["ball_ft"].update(trials=3, samples_per_trial=40)
            self.train_config["training"].update(max_epochs=2, batch_size=32)
        self.root.mkdir(parents=True, exist_ok=True)
        self.sim_path = self.root / "simulate.json"
        self.train_path = self.root / "train.json"
        self.sim_path.write_text(json.dumps(self.sim_config))
        self.train_path.write_text(json.dumps(self.train_config))

    def _main(self, argv: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.tf.cli.main([str(a) for a in argv])

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        rc = self._main(["simulate", "--config", self.sim_path, "--out", self.data,
                         "--seed", self.seed])
        simulate_s = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"tactile-force simulate exited {rc}")
        rc = self._main(["eval", "--manifest", self.data / "dataset_manifest.json",
                         "--model-kind", "oracle", "--out", self.root / "setup_oracle"])
        if rc != 0:
            raise RuntimeError(f"tactile-force eval of the oracle exited {rc}")
        manifest = json.loads((self.data / "dataset_manifest.json").read_text())
        self.counts = manifest["counts"]
        return {"cli_simulate_s": simulate_s}

    def steps_per_epoch(self) -> int:
        return math.ceil(self.counts["train"] / self.train_config["training"]["batch_size"])

    def run_pass(self, index: int, clock: StepClock) -> PassResult:
        res = PassResult()
        data, out = self.data, self.root / f"pass{index}"
        manifest = data / "dataset_manifest.json"
        episode = sorted((data / "episodes").glob("*.jsonl"))[0]
        calls = {
            "infer": ["infer", "--episode", episode, "--params", data / "params.json",
                      "--out", out / "infer.csv"],
            "train": ["train", "--manifest", manifest, "--out", out / "model",
                      "--config", self.train_path, "--seed", self.seed],
            "train_linear": ["train", "--manifest", manifest, "--out", out / "linear",
                             "--model", "linear"],
            "eval": ["eval", "--manifest", manifest, "--model", out / "model" / "checkpoint.npz",
                     "--out", out / "eval"],
            "eval_linear": ["eval", "--manifest", manifest, "--model-kind", "linear",
                            "--model", out / "linear" / "linear_model.json",
                            "--out", out / "eval_linear"],
            "eval_oracle": ["eval", "--manifest", manifest, "--model-kind", "oracle",
                            "--out", out / "eval_oracle"],
        }
        seconds = {}
        for name, argv in calls.items():
            t0 = time.perf_counter()
            rc = self._main(argv)
            seconds[name] = time.perf_counter() - t0
            res.check(rc == 0)
        res.ops = clock.take_intervals(self.steps_per_epoch())

        summaries = {}
        for name in ("eval", "eval_linear", "eval_oracle"):
            path = out / name / "summary.json"
            summaries[name] = json.loads(path.read_text())["overall"] if path.exists() else None
        oracle = summaries["eval_oracle"]
        res.check(
            oracle is not None
            and oracle["direction_pct"]["median"] == 0.0
            and oracle["magnitude_pct"]["median"] == 0.0
        )
        eval_s = seconds["eval"] + seconds["eval_linear"] + seconds["eval_oracle"]
        res.produce_s = seconds["train"] + seconds["train_linear"]
        res.consume_s = seconds["infer"] + eval_s
        res.stage = {"cli_infer_s": seconds["infer"], "cli_train_s": seconds["train"],
                     "cli_eval_s": eval_s}
        for key, prefix in (("eval", ""), ("eval_linear", "baselines.linear.")):
            if summaries[key] is not None:
                res.computed[f"{prefix}direction_median_pct"] = summaries[key]["direction_pct"]["median"]
                res.computed[f"{prefix}magnitude_median_pct"] = summaries[key]["magnitude_pct"]["median"]
        infer_csv = out / "infer.csv"
        if infer_csv.exists():
            with open(infer_csv) as fh:
                static = [int(row["static_friction"]) for row in csv.DictReader(fh)]
            res.computed["mechanics.episode_steps"] = len(static)
            res.computed["mechanics.static_step_ratio"] = float(np.mean(static))
        shutil.rmtree(out, ignore_errors=True)
        return res

    def computed(self) -> dict[str, float]:
        tf = self.tf
        splits, _ = tf.dataset.load_manifest_splits(self.data / "dataset_manifest.json")
        geometry = tf.sensor.SurfaceGeometry()
        layout = tf.sensor.default_electrode_layout(geometry)
        spec = tf.voxel.GridSpec.for_geometry(geometry)
        train = tf.dataset.featurize_voxel(splits["train"], layout, spec)
        # the CLI's own resolution of its default network
        net = tf.cli._train_configs(self.train_config, self.seed)[0]
        return {
            **voxel_counts(train.inputs, {k: len(v) for k, v in splits.items()}),
            **conv3d_0_counts(
                train.inputs, self.train_config["training"]["batch_size"], net.conv3d_channels[0]
            ),
        }

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainC4, LabelPlanar, CliMixed)}
