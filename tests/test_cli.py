"""End-to-end CLI tests: file outputs, determinism, exit codes, cross-checks."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tactile_force import __version__, cli
from tactile_force.baselines import LinearModel, linear_predict
from tactile_force.cli import main
from solver_oracles import _solve_grid
from tactile_force.dataset import featurization_record, featurize_voxel, load_manifest_splits
from tactile_force.errors import (
    ConfigError,
    DataIntegrityError,
    DegenerateInputError,
    LayoutCollisionError,
    NumericalError,
    OutOfBoundsError,
    SchemaError,
    TactileForceError,
)
from tactile_force.mechanics import ParticleGrid, PlanarMotion, PushParams, force_targets
from tactile_force.metrics import evaluate_pairs, summarize
from tactile_force.net import build_voxel_net, load_checkpoint
from tactile_force.net.losses import MAGNITUDE_FLOOR_N
from tactile_force.sensor import ElectrodeLayout, SurfaceGeometry, default_electrode_layout
from tactile_force.voxel import N_CHANNELS, GridSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def run(args):
    return main([str(a) for a in args])


def write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def sim_config():
    return {
        "seed": 7,
        "params": {"m": 0.65, "mu_s": 0.1, "n": 80, "k": 10},
        "box_half_extents": [0.1, 0.075],
        "sources": {
            "planar_pushing": {"trials": 3, "steps": 150},
            "rigid_ft": {"trials": 4, "samples_per_trial": 20},
            "ball_ft": {"trials": 4, "samples_per_trial": 20},
        },
    }


@pytest.fixture
def sim_dir(tmp_path, sim_config):
    config = write_config(tmp_path / "config.json", sim_config)
    out = tmp_path / "run"
    assert run(["simulate", "--config", config, "--out", out]) == 0
    return out


class TestSimulate:
    def test_writes_one_episode_file_per_planar_trial(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "seed": 7,
                "params": {"m": 0.65},
                "sources": {
                    "planar_pushing": {"trials": 3, "steps": 100},
                    "rigid_ft": {"trials": 3, "samples_per_trial": 10},
                },
            },
        )
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        episodes = sorted((out / "episodes").glob("*.jsonl"))
        assert len(episodes) == 3  # one episode file per planar trial
        assert (out / "samples.jsonl").exists()
        assert (out / "dataset_manifest.json").exists()
        assert (out / "run_manifest.json").exists()

    def test_byte_identical_given_same_config(self, tmp_path, sim_config):
        config = write_config(tmp_path / "c.json", sim_config)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", config, "--out", out_a]) == 0
        assert run(["simulate", "--config", config, "--out", out_b]) == 0
        for name in ["samples.jsonl", "dataset_manifest.json"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for ep_a in sorted((out_a / "episodes").glob("*.jsonl")):
            ep_b = out_b / "episodes" / ep_a.name
            assert ep_a.read_bytes() == ep_b.read_bytes()

    def test_missing_mass_exits_2_naming_field(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            {"params": {"mu_s": 0.1}, "sources": {"planar_pushing": {"trials": 1}}},
        )
        code = run(["simulate", "--config", config, "--out", tmp_path / "o"])
        assert code == 2
        assert "'m'" in capsys.readouterr().err

    def test_non_numeric_mass_exits_2_naming_field(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            {"params": {"m": "heavy"}, "sources": {"planar_pushing": {"trials": 1}}},
        )
        assert run(["simulate", "--config", config, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err and "'m'" in err

    def test_config_error_leaves_no_partial_output(self, tmp_path, capsys):
        """A bad value of a source simulated after the planar trials is
        reported before anything is simulated or written."""
        config = write_config(
            tmp_path / "c.json",
            {"params": {"m": 0.65},
             "sources": {"planar_pushing": {"trials": 2, "steps": 50},
                         "rigid_ft": {"trials": "x"}}},
        )
        out = tmp_path / "o"
        assert run(["simulate", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sources.rigid_ft.trials" in err
        assert not out.exists()  # so no episodes/ and no params.json either

    @pytest.mark.parametrize("dotted", [
        "sensor.gian",
        "sources.rigid-ft",
        "sources.planar_pushing.step",
        "sources.rigid_ft.samples_per_trail",
        "sources.ball_ft.cone_deg",
        "split.test",
    ])
    def test_unknown_key_exits_2_naming_file_and_key(self, tmp_path, capsys, sim_config, dotted):
        """A misspelt key in the sensor, sources, source or split block is an
        error, not a setting silently left at its default."""
        config = write_config(tmp_path / "c.json", with_value(sim_config, dotted, 5))
        out = tmp_path / "o"
        assert run(["simulate", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err and f"'{dotted}'" in err
        assert not out.exists()

    def test_no_sources_exits_2(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"params": {"m": 1.0}, "sources": {}})
        assert run(["simulate", "--config", config, "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sources, field", [
        ({"rigid_ft": {"trials": 3, "samples_per_trial": 0}}, "sources.rigid_ft.samples_per_trial"),
        ({"planar_pushing": {"trials": 3, "steps": 0}}, "sources.planar_pushing.steps"),
        ({"rigid_ft": {"trials": -2}}, "sources.rigid_ft.trials"),
        ({"planar_pushing": {"trials": 3, "dt": -0.01}}, "sources.planar_pushing.dt"),
        ({"planar_pushing": {"trials": 3, "dt": float("nan")}}, "sources.planar_pushing.dt"),
    ])
    def test_impossible_count_exits_2_naming_file_and_field(self, tmp_path, capsys, sources, field):
        config = write_config(tmp_path / "c.json", {"params": {"m": 0.65}, "sources": sources})
        out = tmp_path / "o"
        assert run(["simulate", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err and repr(field) in err
        assert ("must be a positive finite number" if field.endswith(".dt") else "must be at least") in err
        assert not out.exists()

    def test_push_too_short_to_label_exits_2_naming_file_source_and_steps(self, tmp_path, capsys):
        """Trials that run but label no step are not reported as no trials,
        nor dropped when another source yields samples."""
        for others in ({}, {"rigid_ft": {"trials": 3, "samples_per_trial": 10}}):
            config = write_config(
                tmp_path / "c.json",
                {"params": {"m": 0.65},
                 "sources": {"planar_pushing": {"trials": 3, "steps": 40}, **others}},
            )
            out = tmp_path / "o"
            assert run(["simulate", "--config", config, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and str(config) in err
            assert "'planar_pushing'" in err and "40 steps" in err and "no step was labelled" in err
            assert not out.exists()


class TestInfer:
    def test_roundtrip_against_stored_forces(self, sim_dir, tmp_path):
        episode = sorted((sim_dir / "episodes").glob("*.jsonl"))[0]
        out_csv = tmp_path / "inferred.csv"
        assert run(
            [
                "infer", "--episode", episode, "--params", sim_dir / "params.json",
                "--out", out_csv,
            ]
        ) == 0
        truth = [json.loads(line) for line in episode.read_text().splitlines()]
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(truth)
        for row, true_row in zip(rows, truth):
            inferred = np.array([float(row["fx"]), float(row["fy"])])
            np.testing.assert_allclose(inferred, true_row["f_true"], atol=1e-3)

    @staticmethod
    def infer_and_grid_oracle(episode, params_path, out_csv):
        """(fx, fy) rows that `infer` writes, and the grid-scan oracle's
        minimizers of the same objectives."""
        assert run(["infer", "--episode", episode, "--params", params_path,
                    "--out", out_csv]) == 0
        with open(out_csv) as fh:
            inferred = [(float(r["fx"]), float(r["fy"])) for r in csv.DictReader(fh)]
        config = json.loads(Path(params_path).read_text())
        params = PushParams.from_config(config)
        grid = ParticleGrid.uniform_rectangle(config["box_half_extents"], params)
        oracle = []
        for line in episode.read_text().splitlines():
            row = json.loads(line)
            motion = PlanarMotion(
                **{k: row[k] for k in ("pose", "v", "omega", "v_dot", "omega_dot")}
            )
            a, b, _ = force_targets(motion, grid, params)
            oracle.append(_solve_grid(np.array(row["contact_point"]), a, b, params.k))
        return np.array(inferred), np.array(oracle)

    def test_grid_oracle_agrees_with_closed_form(self, sim_dir, tmp_path):
        episode = sorted((sim_dir / "episodes").glob("*.jsonl"))[0]
        inferred, oracle = self.infer_and_grid_oracle(
            episode, sim_dir / "params.json", tmp_path / "inferred.csv"
        )
        np.testing.assert_allclose(inferred, oracle, atol=1e-3)

    def test_params_file_without_inertia_takes_the_box_inertia(self, sim_dir, tmp_path):
        """The params file is read as simulate reads its config: the box the
        simulation config gave only a mass for infers the same forces."""
        episode = sorted((sim_dir / "episodes").glob("*.jsonl"))[0]
        params = json.loads((sim_dir / "params.json").read_text())
        del params["inertia"]
        no_inertia = write_config(tmp_path / "no_inertia.json", params)
        for path, out in ((sim_dir / "params.json", "a.csv"), (no_inertia, "b.csv")):
            assert run(["infer", "--episode", episode, "--params", path,
                        "--out", tmp_path / out]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_zero_friction_params_match_frictionless_oracle(self, sim_dir, tmp_path):
        episode = sorted((sim_dir / "episodes").glob("*.jsonl"))[0]
        params = json.loads((sim_dir / "params.json").read_text())
        params["mu_s"] = 0.0
        zero_mu = write_config(tmp_path / "zero_mu.json", params)
        inferred, _ = self.infer_and_grid_oracle(episode, zero_mu, tmp_path / "zero.csv")
        p = PushParams.from_config(params)
        oracle = []
        for line in episode.read_text().splitlines():
            row = json.loads(line)
            # Newton-Euler targets with no support friction
            a = p.m * np.array(row["v_dot"])
            b = p.inertia * row["omega_dot"]
            oracle.append(_solve_grid(np.array(row["contact_point"]), a, b, p.k))
        np.testing.assert_allclose(inferred, oracle, atol=1e-3)

    @pytest.mark.parametrize("flag", [["--method", "closed_form"], ["--frictionless"]])
    def test_removed_solver_flags_exit_2(self, sim_dir, tmp_path, flag):
        episode = sorted((sim_dir / "episodes").glob("*.jsonl"))[0]
        code = exit_code(["infer", "--episode", episode, "--params", sim_dir / "params.json",
                          *flag, "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_missing_motion_field_exits_3(self, sim_dir, tmp_path):
        broken = tmp_path / "broken.jsonl"
        rows = [json.loads(line) for line in
                sorted((sim_dir / "episodes").glob("*.jsonl"))[0].read_text().splitlines()]
        for row in rows:
            del row["omega_dot"]
        broken.write_text("\n".join(json.dumps(r) for r in rows))
        code = run(
            ["infer", "--episode", broken, "--params", sim_dir / "params.json",
             "--out", tmp_path / "x.csv"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "target, key, value, code",
        [
            ("row", "pose", "abc", 3),
            ("row", "pose", [0.0, 0.0], 3),
            ("row", "omega", None, 3),
            ("row", "contact_point", [0.1], 3),
            ("row", None, [1, 2, 3], 3),
            ("params", "m", "heavy", 2),
            ("params", "box_half_extents", [0.1], 2),
            ("params", "box_half_extents", None, 2),
            ("params", None, 5, 2),
            ("row", "t", "1,2", 3),
            ("row", "t", [3, 4], 3),
        ],
    )
    def test_bad_input_exits_2_or_3_naming_file_and_field(
        self, sim_dir, tmp_path, capsys, target, key, value, code
    ):
        """A bad episode row is a data error naming the file, line and field;
        a bad params file a config error naming the file and field."""
        episode = sorted((sim_dir / "episodes").glob("*.jsonl"))[0]
        rows = [json.loads(line) for line in episode.read_text().splitlines()]
        params = json.loads((sim_dir / "params.json").read_text())
        if target == "row":
            rows[2] = value if key is None else {**rows[2], key: value}
        else:
            params = value if key is None else {**params, key: value}
        bad_episode = tmp_path / "episode.jsonl"
        bad_episode.write_text("".join(json.dumps(r) + "\n" for r in rows))
        bad_params = write_config(tmp_path / "params.json", params)
        assert exit_code(["infer", "--episode", bad_episode, "--params", bad_params,
                          "--out", tmp_path / "inferred" / "x.csv"]) == code
        assert not (tmp_path / "inferred").exists()
        err = capsys.readouterr().err
        if target == "row":
            assert err.startswith("data error:") and str(bad_episode) in err
            assert "line 3" in err
        else:
            assert err.startswith("config error:") and str(bad_params) in err
        if key is not None:
            assert f"'{key}'" in err


TINY_TRAIN_CONFIG = {
    "network": {"conv3d_channels": [2, 4], "conv2d_channels": 8, "fc_widths": [16]},
    "training": {"max_epochs": 2, "batch_size": 64, "base_lr": 1e-3},
    "mlp": {"hidden_widths": [16, 16]},
}


class TestTrainEval:
    def test_train_eval_pipeline(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "train.json", TINY_TRAIN_CONFIG)
        manifest = sim_dir / "dataset_manifest.json"
        model_dir = tmp_path / "model"
        assert run(
            ["train", "--manifest", manifest, "--out", model_dir,
             "--sources", "mixed", "--config", config, "--seed", "3"]
        ) == 0
        assert (model_dir / "checkpoint.npz").exists()
        assert (model_dir / "curves.csv").exists()

        eval_dir = tmp_path / "eval"
        assert run(
            ["eval", "--manifest", manifest, "--model", model_dir / "checkpoint.npz",
             "--out", eval_dir]
        ) == 0
        summary = json.loads((eval_dir / "summary.json").read_text())
        assert summary["model"]["ablation"] == {"voxel": True, "alpha": True}
        assert "direction_pct" in summary["overall"]

        # the checkpoint keeps what training counted
        metadata = load_checkpoint(model_dir / "checkpoint.npz")[1]["metadata"]
        splits, _ = load_manifest_splits(manifest)
        training = TINY_TRAIN_CONFIG["training"]
        batches = -(-len(splits["train"]) // training["batch_size"])
        below = {
            name: sum(np.linalg.norm(r.f_3d) < MAGNITUDE_FLOOR_N for r in splits[name])
            for name in ("train", "val")
        }
        assert metadata["iterations"] == training["max_epochs"] * batches
        assert metadata["skipped_train"] == training["max_epochs"] * below["train"]
        assert metadata["skipped_val"] == below["val"]

    def test_deterministic_checkpoint(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "train.json", TINY_TRAIN_CONFIG)
        manifest = sim_dir / "dataset_manifest.json"
        hashes = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run(
                ["train", "--manifest", manifest, "--out", out,
                 "--config", config, "--seed", "11"]
            ) == 0
            hashes.append((out / "checkpoint.npz").read_bytes())
        assert hashes[0] == hashes[1]

    def test_sources_filter(self, tmp_path):
        sim_config = write_config(
            tmp_path / "sim.json",
            {
                "seed": 5,
                "params": {"m": 0.65},
                "sources": {"rigid_ft": {"trials": 10, "samples_per_trial": 15}},
            },
        )
        data_dir = tmp_path / "data"
        assert run(["simulate", "--config", sim_config, "--out", data_dir]) == 0
        config = write_config(tmp_path / "train.json", TINY_TRAIN_CONFIG)
        out = tmp_path / "rigid_only"
        assert run(
            ["train", "--manifest", data_dir / "dataset_manifest.json", "--out", out,
             "--sources", "rigid-ft", "--config", config, "--model", "mlp-baseline"]
        ) == 0
        ckpt_meta = json.loads(
            bytes(np.load(out / "checkpoint.npz")["meta"]).decode()
        )
        assert ckpt_meta["metadata"]["sources"] == ["rigid_ft"]

    def test_unknown_source_exits_2(self, sim_dir, tmp_path):
        code = run(
            ["train", "--manifest", sim_dir / "dataset_manifest.json",
             "--out", tmp_path / "x", "--sources", "bogus"]
        )
        assert code == 2

    def test_overlapping_split_exits_3(self, sim_dir, tmp_path):
        manifest = json.loads((sim_dir / "dataset_manifest.json").read_text())
        manifest["splits"]["val"] = manifest["splits"]["train"][:1]
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        # keep samples file reachable next to the tampered manifest
        (tmp_path / "samples.jsonl").write_bytes((sim_dir / "samples.jsonl").read_bytes())
        code = run(["train", "--manifest", bad, "--out", tmp_path / "x"])
        assert code == 3

    def test_linear_model_train_and_eval(self, sim_dir, tmp_path):
        model_dir = tmp_path / "linear"
        assert run(
            ["train", "--manifest", sim_dir / "dataset_manifest.json",
             "--out", model_dir, "--model", "linear"]
        ) == 0
        eval_dir = tmp_path / "linear_eval"
        assert run(
            ["eval", "--manifest", sim_dir / "dataset_manifest.json",
             "--model", model_dir / "linear_model.json", "--model-kind", "linear",
             "--out", eval_dir]
        ) == 0
        assert (eval_dir / "per_sample.csv").exists()

    def test_oracle_model_gives_zero_medians(self, sim_dir, tmp_path):
        eval_dir = tmp_path / "oracle"
        assert run(
            ["eval", "--manifest", sim_dir / "dataset_manifest.json",
             "--model-kind", "oracle", "--out", eval_dir]
        ) == 0
        summary = json.loads((eval_dir / "summary.json").read_text())
        assert summary["overall"]["direction_pct"]["median"] == 0.0
        assert summary["overall"]["magnitude_pct"]["median"] == 0.0

    def test_custom_layout_file(self, tmp_path):
        from tactile_force.sensor import default_electrode_layout

        layout_path = tmp_path / "layout.json"
        write_config(layout_path, default_electrode_layout().to_dict())
        config = write_config(
            tmp_path / "c.json",
            {
                "seed": 3,
                "params": {"m": 0.65},
                "layout_file": str(layout_path),
                "sources": {"rigid_ft": {"trials": 3, "samples_per_trial": 5}},
            },
        )
        assert run(["simulate", "--config", config, "--out", tmp_path / "o"]) == 0

    def test_summary_matches_recomputation_from_csv(self, sim_dir, tmp_path):
        eval_dir = tmp_path / "oracle2"
        assert run(
            ["eval", "--manifest", sim_dir / "dataset_manifest.json",
             "--model-kind", "oracle", "--split", "train", "--out", eval_dir]
        ) == 0
        with open(eval_dir / "per_sample.csv") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((eval_dir / "summary.json").read_text())
        for metric in ("direction_pct", "magnitude_pct", "magnitude_l1"):
            recomputed = summarize([float(r[metric]) for r in rows]).to_dict()
            assert summary["overall"][metric] == recomputed


def exit_code(args):
    """The CLI's exit code, counting argparse's usage exit."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


def per_sample_rows(eval_dir):
    with open(eval_dir / "per_sample.csv") as fh:
        return [
            (float(r["direction_pct"]), float(r["magnitude_pct"]),
             float(r["magnitude_l1"]), r["source_tag"])
            for r in csv.DictReader(fh)
        ]


def scored_rows(records, preds):
    rows, _ = evaluate_pairs(
        np.stack([r.f_3d for r in records]), preds, [r.source_tag for r in records]
    )
    return [(r.direction_pct, r.magnitude_pct, r.magnitude_l1, r.source_tag) for r in rows]


class TestSelfDescribingModels:
    """Eval featurizes from the model file alone, never from a config."""

    def train(self, sim_dir, tmp_path, name, config, *extra):
        path = write_config(tmp_path / f"{name}.json", {**TINY_TRAIN_CONFIG, **config})
        out = tmp_path / name
        assert run(
            ["train", "--manifest", sim_dir / "dataset_manifest.json", "--out", out,
             "--config", path, "--seed", "3", *extra]
        ) == 0
        return out

    def evaluate(self, sim_dir, tmp_path, model, *extra):
        out = tmp_path / f"eval_{model.parent.name}"
        code = exit_code(
            ["eval", "--manifest", sim_dir / "dataset_manifest.json", "--model", model,
             "--out", out, *extra]
        )
        return code, out

    def test_other_grid_dims_need_no_config_at_eval(self, sim_dir, tmp_path):
        spec = GridSpec.for_geometry(SurfaceGeometry(), dims=(16, 16, 8))
        model_dir = self.train(sim_dir, tmp_path, "dims", {"grid": spec.to_config()})
        code, eval_dir = self.evaluate(sim_dir, tmp_path, model_dir / "checkpoint.npz")
        assert code == 0
        summary = json.loads((eval_dir / "summary.json").read_text())
        assert summary["model"]["kind"] == "voxel_net"
        assert summary["model"]["ablation"] == {"voxel": True, "alpha": True}

    def test_eval_scores_features_on_the_trained_grid(self, sim_dir, tmp_path):
        geometry = SurfaceGeometry()
        default = GridSpec.for_geometry(geometry)
        # same dims, bounds shifted half a cell along y (widening them makes two electrodes
        # share a cell)
        shift = default.cell_size * [0.0, 0.5, 0.0]
        spec = GridSpec(default.dims, default.bounds_min + shift, default.bounds_max + shift)
        model_dir = self.train(sim_dir, tmp_path, "bounds", {"grid": spec.to_config()})
        code, eval_dir = self.evaluate(sim_dir, tmp_path, model_dir / "checkpoint.npz")
        assert code == 0

        records = load_manifest_splits(sim_dir / "dataset_manifest.json")[0]["test"]
        layout = default_electrode_layout(geometry)
        model, _ = load_checkpoint(model_dir / "checkpoint.npz")
        preds = model.forward(featurize_voxel(records, layout, spec).inputs)
        assert per_sample_rows(eval_dir) == scored_rows(records, preds)
        # the bounds matter: the default grid gives other predictions
        assert not np.array_equal(
            preds, model.forward(featurize_voxel(records, layout, default).inputs)
        )

    def test_eval_uses_the_trained_layout_file(self, sim_dir, tmp_path):
        default = default_electrode_layout()
        layout = ElectrodeLayout(positions=default.positions[::-1], normals=default.normals[::-1])
        layout_path = tmp_path / "reversed_layout.json"
        write_config(layout_path, layout.to_dict())
        layout = ElectrodeLayout.from_dict(json.loads(layout_path.read_text()))  # contiguous, as eval reads it
        config = {"layout_file": str(layout_path)}
        voxel_dir = self.train(sim_dir, tmp_path, "voxel", config)
        linear_dir = self.train(sim_dir, tmp_path, "linear", config, "--model", "linear")
        layout_path.unlink()  # eval must not need the file

        records = load_manifest_splits(sim_dir / "dataset_manifest.json")[0]["test"]
        code, eval_dir = self.evaluate(sim_dir, tmp_path, voxel_dir / "checkpoint.npz")
        assert code == 0
        model, _ = load_checkpoint(voxel_dir / "checkpoint.npz")
        spec = GridSpec.for_geometry(SurfaceGeometry())
        preds = model.forward(featurize_voxel(records, layout, spec).inputs)
        assert per_sample_rows(eval_dir) == scored_rows(records, preds)

        code, eval_dir = self.evaluate(
            sim_dir, tmp_path, linear_dir / "linear_model.json", "--model-kind", "linear"
        )
        assert code == 0
        scale = json.loads((linear_dir / "linear_model.json").read_text())["S"]
        linear = LinearModel(scale=np.array(scale), layout=layout)
        preds = np.stack([linear_predict(linear, r.e) for r in records])
        assert per_sample_rows(eval_dir) == scored_rows(records, preds)

    def test_eval_config_flag_exits_2(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "c.json", TINY_TRAIN_CONFIG)
        code = exit_code(
            ["eval", "--manifest", sim_dir / "dataset_manifest.json", "--model-kind", "oracle",
             "--config", config, "--out", tmp_path / "e"]
        )
        assert code == 2

    def test_checkpoint_without_featurization_exits_2(self, sim_dir, tmp_path, capsys):
        model_dir = self.train(sim_dir, tmp_path, "mlp", {}, "--model", "mlp-baseline")
        path = model_dir / "checkpoint.npz"
        rewrite_checkpoint_meta(path, lambda meta: meta.pop("featurization"))
        code, _ = self.evaluate(sim_dir, tmp_path, path)
        assert code == 2
        assert "'featurization'" in capsys.readouterr().err

    def test_checkpoint_on_a_grid_the_net_does_not_tile_exits_2(self, sim_dir, tmp_path, capsys):
        """A checkpoint recording the former default 15x15x7 grid is not
        scored: its net never saw most of the grid."""
        model_dir = self.train(sim_dir, tmp_path, "voxel", {})
        path = model_dir / "checkpoint.npz"
        old = GridSpec.for_geometry(SurfaceGeometry(), dims=(15, 15, 7)).to_config()

        def to_old_grid(meta):
            meta["args"]["input_shape"] = [2, 15, 15, 7]
            meta["featurization"]["grid"] = old

        rewrite_checkpoint_meta(path, to_old_grid)
        capsys.readouterr()
        code, eval_dir = self.evaluate(sim_dir, tmp_path, path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: checkpoint {path}: voxel grid 15x15x7")
        assert "x and y must be positive multiples of 8 and z of 4" in err
        assert not eval_dir.exists()

    def test_linear_model_without_layout_exits_2(self, sim_dir, tmp_path, capsys):
        model_dir = self.train(sim_dir, tmp_path, "linear", {}, "--model", "linear")
        path = model_dir / "linear_model.json"
        path.write_text(json.dumps({"S": json.loads(path.read_text())["S"]}))
        code, _ = self.evaluate(sim_dir, tmp_path, path, "--model-kind", "linear")
        assert code == 2
        assert "'layout'" in capsys.readouterr().err


class TestReadme:
    def test_train_config_example_builds_and_shows_the_defaults(self):
        """The README's training config resolves through the calls `train`
        makes before it reads data, and holds the defaults it says it shows."""
        block = re.search(r"```json\n(.*?)```", README.read_text(), flags=re.S).group(1)
        config = json.loads(block)
        configs = cli._train_configs(config, 0)
        layout, geometry = cli._layout_and_geometry(config, README)
        featurization = featurization_record(True, layout, geometry, config["grid"])
        build_voxel_net(configs[0], (N_CHANNELS, *featurization["grid"]["dims"]))
        assert [c.to_dict() for c in configs] == [c.to_dict() for c in cli._train_configs({}, 0)]
        shown, default = GridSpec.from_config(config["grid"]), GridSpec.for_geometry(geometry)
        assert shown.dims == default.dims
        np.testing.assert_allclose(shown.bounds_min, default.bounds_min, rtol=1e-12)
        np.testing.assert_allclose(shown.bounds_max, default.bounds_max, rtol=1e-12)


def rewrite_checkpoint_meta(path, edit):
    """Apply edit, in place, to the metadata blob of the checkpoint at path."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def with_value(config: dict, dotted: str, value) -> dict:
    """A copy of config with the value at a dotted key path replaced."""
    head, _, rest = dotted.partition(".")
    if not rest:
        return {**config, head: value}
    return {**config, head: with_value(config.get(head, {}), rest, value)}


class TestConfigValueTypes:
    @pytest.mark.parametrize("command, field, value", [
        ("simulate", "sources.rigid_ft.trials", "x"),
        ("simulate", "sources.planar_pushing.steps", 150.0),
        ("simulate", "sensor.gain", "x"),
        ("simulate", "geometry.radius_m", "x"),
        ("simulate", "sources.ball_ft.cap_only", 1),
        ("train", "training.batch_size", "x"),
        ("train", "training.max_epochs", 1.5),
        ("train", "network.fc_widths", ["x"]),
        ("train", "loss.beta", "x"),
        ("train", "loss.beta", True),
        ("train", "seed", "x"),
    ])
    def test_wrong_type_exits_2_naming_file_and_field(
        self, sim_dir, sim_config, tmp_path, capsys, command, field, value
    ):
        if command == "simulate":
            if field.startswith("geometry"):
                sim_config = {**sim_config, "geometry": {"half_cylinder_length_m": 0.015}}
            config = write_config(tmp_path / "bad.json", with_value(sim_config, field, value))
            args = ["simulate", "--config", config, "--out", tmp_path / "o"]
        else:
            config = write_config(tmp_path / "bad.json", with_value(TINY_TRAIN_CONFIG, field, value))
            args = ["train", "--manifest", sim_dir / "dataset_manifest.json",
                    "--out", tmp_path / "m", "--config", config]
        capsys.readouterr()
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err
        assert field.rpartition(".")[2] in err
        assert not (tmp_path / "m").exists() and not (tmp_path / "o").exists()


class TestFeaturizationErrors:
    def train(self, sim_dir, tmp_path, config):
        path = write_config(tmp_path / "train.json", {**TINY_TRAIN_CONFIG, **config})
        return exit_code(
            ["train", "--manifest", sim_dir / "dataset_manifest.json", "--out", tmp_path / "m",
             "--config", path]
        )

    def test_grid_too_coarse_for_layout_exits_2(self, sim_dir, tmp_path, capsys):
        default = GridSpec.for_geometry(SurfaceGeometry())
        center = (default.bounds_min + default.bounds_max) / 2
        half = 3 * (default.bounds_max - default.bounds_min) / 2  # 3x wider cells
        coarse = GridSpec(default.dims, center - half, center + half)
        assert self.train(sim_dir, tmp_path, {"grid": coarse.to_config()}) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert re.search(r"electrodes \d+ and \d+ both bin to voxel \(\d+, \d+, \d+\)", err)

    def test_non_finite_contact_point_exits_3_naming_trial(self, sim_dir, tmp_path, capsys):
        trial = tamper_train_record(sim_dir, "s_c", [float("nan"), 0.0, 0.0])
        assert self.train(sim_dir, tmp_path, {}) == 3
        assert f"'{trial}'" in capsys.readouterr().err

    def test_grid_without_bounds_exits_2(self, sim_dir, tmp_path, capsys):
        assert self.train(sim_dir, tmp_path, {"grid": {"dims": [15, 15, 7]}}) == 2
        assert "'bounds'" in capsys.readouterr().err

    def test_grid_the_net_does_not_tile_exits_2(self, sim_dir, tmp_path, capsys):
        """The former default grid: every convolution would drop its last
        slice."""
        grid = GridSpec.for_geometry(SurfaceGeometry(), dims=(15, 15, 7)).to_config()
        assert self.train(sim_dir, tmp_path, {"grid": grid}) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "x and y must be positive multiples of 8 and z of 4" in err
        assert not (tmp_path / "m").exists()

    def test_grid_with_two_dims_exits_2(self, sim_dir, tmp_path, capsys):
        grid = GridSpec.for_geometry(SurfaceGeometry()).to_config()
        grid["dims"] = [15, 15]
        assert self.train(sim_dir, tmp_path, {"grid": grid}) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "content", [None, "{not json", '{"positions": [[0, 0, 0]]}', "[1, 2]"]
    )
    def test_unreadable_layout_file_exits_2_naming_it(self, sim_dir, tmp_path, capsys, content):
        layout_path = tmp_path / "layout.json"
        if content is not None:
            layout_path.write_text(content)
        assert self.train(sim_dir, tmp_path, {"layout_file": str(layout_path)}) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: layout file")
        assert str(layout_path) in err


def tamper_train_record(sim_dir, field, value):
    """Set one field of a train-split record in the samples file; returns
    that record's trial id."""
    manifest = json.loads((sim_dir / "dataset_manifest.json").read_text())
    samples = sim_dir / manifest["samples_file"]
    records = [json.loads(line) for line in samples.read_text().splitlines()]
    trial = manifest["splits"]["train"][0]
    bad = next(r for r in records if r["trial_id"] == trial)
    bad[field] = value
    samples.write_text("".join(json.dumps(r) + "\n" for r in records))
    return trial


class TestDataFileErrors:
    """Malformed data files end with exit 2 or 3 and a message naming the
    trial or file, never a traceback."""

    @pytest.mark.parametrize(
        "field, size", [("e", 18), ("s_c", 2), ("s_n", 2), ("f_3d", 2), ("R_wb", 8)]
    )
    def test_wrong_shape_record_field_exits_3_naming_trial(
        self, sim_dir, tmp_path, capsys, field, size
    ):
        trial = tamper_train_record(sim_dir, field, [0.5] * size)
        manifest = sim_dir / "dataset_manifest.json"
        config = write_config(tmp_path / "train.json", TINY_TRAIN_CONFIG)
        for args in (
            ["train", "--manifest", manifest, "--out", tmp_path / "m", "--config", config,
             "--model", "mlp-baseline"],
            ["eval", "--manifest", manifest, "--model-kind", "oracle", "--out", tmp_path / "e"],
        ):
            assert exit_code(args) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:")
            assert f"'{trial}'" in err and f"'{field}'" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("damage", ["truncated", "not_an_object", "short_e"])
    def test_malformed_samples_line_exits_3_naming_file_and_line(
        self, sim_dir, tmp_path, capsys, command, damage
    ):
        """A cut-off last line, a line that is not an object and a record
        with a wrong-shape field each name the samples file and the line,
        counting the blank lines that are skipped."""
        manifest = sim_dir / "dataset_manifest.json"
        samples = sim_dir / json.loads(manifest.read_text())["samples_file"]
        lines = samples.read_text().splitlines()
        lines.insert(2, "")
        n = len(lines) if damage == "truncated" else 6
        if damage == "truncated":
            lines[n - 1] = lines[n - 1][: len(lines[n - 1]) // 2]
        elif damage == "not_an_object":
            lines[n - 1] = "[1, 2]"
        else:
            lines[n - 1] = json.dumps({**json.loads(lines[n - 1]), "e": [0.5] * 18})
        samples.write_text("\n".join(lines))
        out = tmp_path / "out"
        args = {
            "train": ["train", "--manifest", manifest, "--out", out, "--model", "linear"],
            "eval": ["eval", "--manifest", manifest, "--model-kind", "oracle", "--out", out],
        }[command]
        assert exit_code(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"samples file {samples} line {n}:" in err
        assert not out.exists()

    def test_samples_file_not_utf8_exits_3_naming_it(self, sim_dir, tmp_path, capsys):
        manifest = sim_dir / "dataset_manifest.json"
        samples = sim_dir / json.loads(manifest.read_text())["samples_file"]
        with open(samples, "ab") as fh:
            fh.write(b"\xff\xfe not text\n")
        out = tmp_path / "out"
        assert exit_code(["eval", "--manifest", manifest, "--model-kind", "oracle",
                          "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"samples file {samples}: not UTF-8 text" in err
        assert not out.exists()

    def train(self, manifest, tmp_path):
        return exit_code(["train", "--manifest", manifest, "--out", tmp_path / "m"])

    def test_missing_manifest_exits_2_naming_it(self, tmp_path, capsys):
        manifest = tmp_path / "nowhere" / "dataset_manifest.json"
        assert self.train(manifest, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(manifest) in err

    def test_splits_not_a_mapping_exits_3_naming_manifest(self, sim_dir, tmp_path, capsys):
        manifest = sim_dir / "dataset_manifest.json"
        data = json.loads(manifest.read_text())
        data["splits"] = list(data["splits"]["train"])
        manifest.write_text(json.dumps(data))
        assert self.train(manifest, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(manifest) in err

    def test_split_not_a_list_exits_3_naming_manifest_and_split(
        self, sim_dir, tmp_path, capsys
    ):
        manifest = sim_dir / "dataset_manifest.json"
        data = json.loads(manifest.read_text())
        data["splits"]["train"] = "abc"
        manifest.write_text(json.dumps(data))
        assert self.train(manifest, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(manifest) in err and "'train'" in err

    def test_missing_samples_file_exits_3_naming_it(self, sim_dir, tmp_path, capsys):
        manifest = sim_dir / "dataset_manifest.json"
        samples = sim_dir / json.loads(manifest.read_text())["samples_file"]
        samples.unlink()
        assert self.train(manifest, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(samples) in err


def run_manifest(out_dir: Path) -> dict:
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["tool_version"] == __version__ and manifest["duration_s"] >= 0
    for name in manifest["outputs"]:
        assert (out_dir / name).exists()
    return manifest


class TestRunManifest:
    """Every command's manifest holds every parsed flag, with the seed the
    run used, so the run can be rebuilt from it."""

    def test_simulate_records_the_config_seed(self, sim_dir, tmp_path):
        manifest = run_manifest(sim_dir)
        assert manifest["command"] == "simulate"
        assert manifest["arguments"] == {
            "config": str(tmp_path / "config.json"), "out": str(sim_dir), "seed": 7,
        }
        assert manifest["outputs"][-2:] == ["samples.jsonl", "dataset_manifest.json"]

    def test_infer_records_its_flags(self, sim_dir, tmp_path):
        episode = sorted((sim_dir / "episodes").glob("*.jsonl"))[0]
        out = tmp_path / "inferred" / "x.csv"
        assert run(["infer", "--episode", episode, "--params", sim_dir / "params.json",
                    "--out", out]) == 0
        manifest = run_manifest(out.parent)
        assert manifest["command"] == "infer" and manifest["outputs"] == ["x.csv"]
        assert manifest["arguments"] == {
            "episode": str(episode), "params": str(sim_dir / "params.json"), "out": str(out),
        }

    @pytest.mark.parametrize("model, seed_flag, resolved, outputs", [
        ("voxel", [], 5, ["checkpoint.npz", "curves.csv"]),
        ("linear", ["--seed", "11"], 11, ["linear_model.json"]),
    ])
    def test_train_records_every_flag_and_the_resolved_seed(
        self, sim_dir, tmp_path, model, seed_flag, resolved, outputs
    ):
        config = write_config(tmp_path / "train.json", {**TINY_TRAIN_CONFIG, "seed": 5})
        manifest_path = sim_dir / "dataset_manifest.json"
        out = tmp_path / "m"
        assert run(["train", "--manifest", manifest_path, "--out", out, "--model", model,
                    "--config", config, *seed_flag]) == 0
        manifest = run_manifest(out)
        assert manifest["command"] == "train" and manifest["outputs"] == outputs
        assert manifest["arguments"] == {
            "manifest": str(manifest_path), "out": str(out), "sources": "mixed", "model": model,
            "no_voxel": False, "no_alpha": False, "config": str(config), "seed": resolved,
            "log_every": 0,
        }

    def test_eval_records_every_flag(self, sim_dir, tmp_path):
        manifest_path = sim_dir / "dataset_manifest.json"
        out = tmp_path / "e"
        assert run(["eval", "--manifest", manifest_path, "--model-kind", "oracle",
                    "--split", "val", "--out", out]) == 0
        manifest = run_manifest(out)
        assert manifest["command"] == "eval"
        assert manifest["outputs"] == ["per_sample.csv", "summary.json"]
        assert manifest["arguments"] == {
            "manifest": str(manifest_path), "model": None, "model_kind": "oracle",
            "split": "val", "sources": "mixed", "out": str(out),
        }


# the exit code and message prefix of each package error
ERROR_EXITS = {
    ConfigError: (2, "config error"),
    SchemaError: (3, "data error"),
    DegenerateInputError: (3, "data error"),
    OutOfBoundsError: (3, "data error"),
    LayoutCollisionError: (3, "data error"),
    DataIntegrityError: (3, "data error"),
    NumericalError: (4, "numerical failure"),
}


def test_error_exits_cover_every_package_error():
    assert set(ERROR_EXITS) == set(TactileForceError.__subclasses__())


@pytest.mark.parametrize("error", list(ERROR_EXITS), ids=lambda cls: cls.__name__)
def test_main_exits_with_the_error_class_code_and_prefix(tmp_path, capsys, monkeypatch, error):
    def failing_command(args):
        raise error("it broke")

    monkeypatch.setattr(cli, "cmd_eval", failing_command)
    code, prefix = ERROR_EXITS[error]
    assert (error.exit_code, error.prefix) == (code, prefix)
    out = tmp_path / "e"
    assert run(["eval", "--manifest", tmp_path / "m.json", "--model-kind", "oracle",
                "--out", out]) == code
    assert capsys.readouterr().err == f"{prefix}: it broke\n"
    assert not out.exists()
