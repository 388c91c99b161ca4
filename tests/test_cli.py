"""End-to-end CLI tests: file outputs, determinism, exit codes, cross-checks."""

import csv
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tactile_force import __version__, cli
from tactile_force.baselines import LinearModel, linear_predict
from tactile_force.cli import main
from solver_oracles import _solve_grid
from tactile_force.dataset import (
    DatasetSplits, featurization_record, featurize_voxel, load_manifest_splits, write_manifest,
    write_samples_jsonl,
)
from tactile_force.errors import (
    ConfigError,
    DataIntegrityError,
    DegenerateInputError,
    LayoutCollisionError,
    NumericalError,
    OutOfBoundsError,
    SchemaError,
    TactileForceError,
    read_config,
)
from tactile_force.mechanics import ParticleGrid, PlanarMotion, force_targets
from tactile_force.metrics import evaluate_pairs, summarize
from tactile_force.net import (
    NetworkConfig, build_mlp_net, build_voxel_net, load_checkpoint, save_checkpoint,
)
from tactile_force.net.losses import MAGNITUDE_FLOOR_N
from tactile_force.sensor import ElectrodeLayout, SurfaceGeometry, default_electrode_layout
from tactile_force.synthetic import SensorForwardModel, make_ft_samples
from tactile_force.voxel import N_CHANNELS, GridSpec

README = Path(__file__).resolve().parent.parent / "README.md"
PERFBENCH = README.parent / "perfbench"


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

    def test_planar_sample_step_names_its_episode_row(self, sim_dir):
        """A planar line's step is the row of its episode file whose applied
        force, rotated into the sensor frame, is the line's f_3d; an F/T
        line has no step."""
        lines = [json.loads(line) for line in (sim_dir / "samples.jsonl").read_text().splitlines()]
        planar = [d for d in lines if d["source_tag"] == "planar_pushing"]
        assert planar and all("step" not in d for d in lines if d not in planar)
        episodes = {}
        for d in planar:
            if d["trial_id"] not in episodes:
                path = sim_dir / "episodes" / f"{d['trial_id']}.jsonl"
                episodes[d["trial_id"]] = [json.loads(row) for row in path.read_text().splitlines()]
            f_true = episodes[d["trial_id"]][d["step"]]["f_true"]
            r_wb = np.array(d["R_wb"]).reshape(3, 3)
            np.testing.assert_allclose(d["f_3d"], r_wb.T @ [*f_true, 0.0], rtol=0, atol=1e-9)

    def test_missing_mass_exits_2_naming_field(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            {"params": {"mu_s": 0.1}, "sources": {"planar_pushing": {"trials": 1}}},
        )
        code = run(["simulate", "--config", config, "--out", tmp_path / "o"])
        assert code == 2
        assert "missing field 'params.m'" in capsys.readouterr().err

    def test_non_numeric_mass_exits_2_naming_field(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            {"params": {"m": "heavy"}, "sources": {"planar_pushing": {"trials": 1}}},
        )
        assert run(["simulate", "--config", config, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err and "'params.m'" in err

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
        "sourcs",
        "params.mu",
        "geometry.radius",
        "sensor.gian",
        "sensor.gain",
        "sensor.decay_length",
        "sensor.normal_sensitivity",
        "sensor.shear_sensitivity",
        "sensor.directional_shear_sensitivity",
        "sensor.anisotropic_shear_sensitivity",
        "params.g",
        "sources.rigid-ft",
        "sources.planar_pushing.step",
        "sources.rigid_ft.samples_per_trail",
        "sources.ball_ft.cone_deg",
        "split.test",
    ])
    def test_unknown_key_exits_2_naming_file_and_key(self, tmp_path, capsys, sim_config, dotted):
        """A misspelt key at any level of the config is an error, not a
        setting silently left at its default."""
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

    def test_split_fractions_summing_above_one_exit_2_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        """Fractions that leave the test split only the trial each source
        must give it are an error naming both keys, raised before any
        source is simulated."""
        def simulated(*args, **kwargs):
            raise AssertionError("simulated before the config was checked")

        monkeypatch.setattr(cli, "make_ft_samples", simulated)
        config = write_config(tmp_path / "c.json", {"sources": {"rigid_ft": {"trials": 20}},
                                                    "split": {"train": 0.9, "val": 0.9}})
        assert run(["simulate", "--config", config, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {config}:")
        assert "'split.train'" in err and "'split.val'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sources, field", [
        ({"rigid_ft": {"trials": 3, "samples_per_trial": 0}}, "sources.rigid_ft.samples_per_trial"),
        ({"planar_pushing": {"trials": 3, "steps": 0}}, "sources.planar_pushing.steps"),
        ({"rigid_ft": {"trials": -2}}, "sources.rigid_ft.trials"),
        # the rule holds whether or not the source has trials
        ({"planar_pushing": {"steps": 0}, "rigid_ft": {"trials": 3}}, "sources.planar_pushing.steps"),
        ({"ball_ft": {"trials": 0, "samples_per_trial": -1}, "rigid_ft": {"trials": 3}},
         "sources.ball_ft.samples_per_trial"),
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

    def test_source_of_zero_forces_exits_2_naming_file_and_source(self, tmp_path, capsys):
        """A source whose every sample is filtered out as forceless is not
        dropped from the dataset in silence."""
        config = write_config(tmp_path / "c.json", {"sources": {
            "rigid_ft": {"trials": 3, "samples_per_trial": 5, "force_range": [0.0, 0.0]},
            "ball_ft": {"trials": 3, "samples_per_trial": 5},
        }})
        out = tmp_path / "o"
        assert run(["simulate", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err
        assert "'rigid_ft'" in err and "zero force" in err
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
        params, half_extents = cli._read_push_params("params", json.loads(Path(params_path).read_text()))
        grid = ParticleGrid.uniform_rectangle(half_extents, params)
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
        p, _ = cli._read_push_params("params", params)
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

    @pytest.mark.parametrize("content, code, message", [
        (None, 2, "config error: episode file not found: "),
        ("", 3, "data error: episode file "),
        ("\n\n", 3, "data error: episode file "),
    ])
    def test_missing_or_empty_episode_file_exits_naming_it(
        self, sim_dir, tmp_path, capsys, content, code, message
    ):
        """A missing episode file is a usage error, and one without a row
        (blank lines are skipped) a data error."""
        episode = tmp_path / "episode.jsonl"
        if content is not None:
            episode.write_text(content)
        out = tmp_path / "inferred"
        assert run(["infer", "--episode", episode, "--params", sim_dir / "params.json",
                    "--out", out / "x.csv"]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and str(episode) in err
        assert not out.exists()

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
            ("params", "mu", 0.0, 2),
            ("params", "g", 9.81, 2),
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

    def test_source_without_validation_samples_exits_3(self, sim_dir, tmp_path, capsys):
        """A hand-edited manifest whose val split holds no trial of the
        chosen source."""
        manifest = sim_dir / "dataset_manifest.json"
        data = json.loads(manifest.read_text())
        rigid = [t for t in data["splits"]["val"] if t.startswith("rigid_ft")]
        assert rigid
        data["splits"]["train"] += rigid
        data["splits"]["val"] = [t for t in data["splits"]["val"] if t not in rigid]
        del data["counts"]  # which the edit makes stale
        manifest.write_text(json.dumps(data))
        out = tmp_path / "m"
        capsys.readouterr()
        assert run(["train", "--manifest", manifest, "--out", out, "--sources", "rigid-ft"]) == 3
        assert capsys.readouterr().err == "data error: no validation samples for sources ['rigid_ft']\n"
        assert not out.exists()

    def test_batches_below_the_magnitude_floor_are_skipped(self, tmp_path):
        """Forces of at most 0.0105 N leave one train sample above the 0.01
        N floor, so every batch but the one holding it has none: each such
        batch is skipped and counted, whatever the seed's shuffle."""
        sim = write_config(tmp_path / "sim.json", {"seed": 5, "sources": {"rigid_ft": {
            "trials": 4, "samples_per_trial": 20, "force_range": [0.0, 0.0105]}}})
        data_dir = tmp_path / "data"
        assert run(["simulate", "--config", sim, "--out", data_dir]) == 0
        splits, _ = load_manifest_splits(data_dir / "dataset_manifest.json")
        below = {name: sum(np.linalg.norm(r.f_3d) < MAGNITUDE_FLOOR_N for r in splits[name])
                 for name in ("train", "val")}
        assert len(splits["train"]) - below["train"] == 1
        training = {"max_epochs": 5, "batch_size": 12}
        config = write_config(tmp_path / "train.json", {"training": training})
        for seed in (1, 2, 3):
            out = tmp_path / f"m{seed}"
            assert run(["train", "--manifest", data_dir / "dataset_manifest.json", "--out", out,
                        "--config", config, "--seed", seed]) == 0
            metadata = load_checkpoint(out / "checkpoint.npz")[1]["metadata"]
            assert metadata["iterations"] == training["max_epochs"]
            assert metadata["skipped_train"] == training["max_epochs"] * below["train"]
            assert metadata["skipped_val"] == below["val"]

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

    @pytest.mark.parametrize("flags, code, message", [
        (["--model-kind", "oracle", "--sources", "rigid-ft"], 0, ""),
        (["--model-kind", "oracle", "--split", "holdout"], 2, "config error: unknown split 'holdout'"),
        (["--model-kind", "oracle", "--sources", "ball-ft"], 3,
         "data error: no samples in split 'test' for ball-ft"),
        (["--model-kind", "linear"], 2, "config error: --model is required for --model-kind linear"),
    ])
    def test_eval_scores_one_source_and_rejects_what_it_cannot_score(
        self, sim_dir, tmp_path, capsys, flags, code, message
    ):
        """--sources scores one source alone; an unknown split, a source the
        split holds no sample of, and a model kind without its --model are
        errors that write nothing. The test split here has no ball trials."""
        manifest = sim_dir / "dataset_manifest.json"
        data = json.loads(manifest.read_text())
        data["splits"]["test"] = [t for t in data["splits"]["test"] if not t.startswith("ball_ft")]
        del data["counts"]  # which the edit makes stale
        manifest.write_text(json.dumps(data))
        eval_dir = tmp_path / "e"
        capsys.readouterr()
        assert exit_code(["eval", "--manifest", manifest, *flags, "--out", eval_dir]) == code
        assert capsys.readouterr().err.startswith(message)
        if code:
            assert not eval_dir.exists()
            return
        rigid = [r for r in load_manifest_splits(manifest)[0]["test"] if r.source_tag == "rigid_ft"]
        assert per_sample_rows(eval_dir) == scored_rows(rigid, np.stack([r.f_3d for r in rigid]))
        assert list(json.loads((eval_dir / "summary.json").read_text())["per_source"]) == ["rigid_ft"]

    def test_log_every_prints_progress_to_stderr(self, sim_dir, tmp_path, capsys):
        """Each logged epoch is a line on stderr; stdout keeps only the
        closing line."""
        config = write_config(tmp_path / "train.json", TINY_TRAIN_CONFIG)
        capsys.readouterr()
        assert run(["train", "--manifest", sim_dir / "dataset_manifest.json", "--out", tmp_path / "m",
                    "--config", config, "--log-every", "1"]) == 0
        captured = capsys.readouterr()
        epochs = TINY_TRAIN_CONFIG["training"]["max_epochs"]
        progress = captured.err.splitlines()
        assert len(progress) == epochs
        for i, line in enumerate(progress, 1):
            assert re.fullmatch(rf"epoch {i}/{epochs} train \S+ val \S+ lr \S+", line), line
        assert len(captured.out.splitlines()) == 1 and captured.out.startswith("train: best val loss")

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
            recomputed = asdict(summarize([float(r[metric]) for r in rows]))
            assert summary["overall"][metric] == recomputed
        for block in (summary["overall"], *summary["per_source"].values()):
            assert block["direction_median_deg"] == 1.8 * block["direction_pct"]["median"]


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


def value_id(value):
    """The test id of a parameter pytest would otherwise name by its row's
    position: a list of scalars by its items, any other list, dict or array
    by its type, and a type by its name; None leaves a scalar to pytest."""
    if isinstance(value, list) and not any(isinstance(v, (list, dict)) for v in value):
        return f"[{','.join(map(str, value))}]"
    if isinstance(value, np.ndarray):
        return f"{value.dtype}-array"
    if isinstance(value, type):
        return value.__name__
    if isinstance(value, (list, dict)):
        return type(value).__name__
    return None


# the trained electrode positions, with electrode 0 moved outside the grid,
# and onto electrode 1's cell
POSITIONS = default_electrode_layout().positions.tolist()
OUTSIDE_GRID = [[1.0, 1.0, 1.0], *POSITIONS[1:]]
SHARED_CELL = [POSITIONS[1], *POSITIONS[1:]]


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
        model_dir = self.train(sim_dir, tmp_path, "voxel", {})
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

        rewrite_checkpoint_meta(path, lambda meta: meta["featurization"].update(grid=old))
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

    @pytest.mark.parametrize("field, value, named", [
        ("S", "abc", "field 'S'"),
        ("layout", 5, "field 'layout'"),
        ("S", [1.0, 2.0], "field 'S'"),
        ("bias", 0.0, "unknown key 'bias'"),
    ])
    def test_malformed_linear_model_exits_2_naming_file_and_key(
        self, sim_dir, tmp_path, capsys, field, value, named
    ):
        model_dir = self.train(sim_dir, tmp_path, "linear", {}, "--model", "linear")
        path = model_dir / "linear_model.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        capsys.readouterr()
        code, eval_dir = self.evaluate(sim_dir, tmp_path, path, "--model-kind", "linear")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: linear model {path}:") and named in err
        assert not eval_dir.exists()

    @pytest.mark.parametrize("model, dotted, value, named", [
        ("voxel", "featurization.grid.dims", ["8", 8, 4], "field 'featurization.grid.dims[0]'"),
        ("voxel", "featurization.layout", {"positions": []}, "field 'featurization.layout.positions'"),
        ("voxel", "featurization.grid.dims", [0, 8, 4], "field 'featurization.grid.dims[0]'"),
        ("voxel", "kind", "dense", "field 'kind'"),
        ("voxel", "args", None, "missing field 'args'"),
        ("voxel", "args", 5, "field 'args' must be an object"),
        ("voxel", "args.config.fc_widths", "ab", "field 'args.config.fc_widths'"),
        ("voxel", "metadata", [1], "field 'metadata' must be an object"),
        ("mlp-baseline", "args.dropout", 0.5, "unknown key 'args.dropout'"),
        ("mlp-baseline", "args.hidden_widths", "ab", "field 'args.hidden_widths'"),
        ("mlp-baseline", "args.hidden_widths", [16, 0], "field 'args.hidden_widths[1]'"),
        ("mlp-baseline", "metadata", [1], "field 'metadata' must be an object"),
        # a seed the generator rejects
        ("mlp-baseline", "args.seed", -1, "field 'args.seed' must be at least 0"),
        ("voxel", "args.config.seed", -1, "field 'args.config.seed' must be at least 0"),
        # build args the net divides by, sizes arrays with or unpacks
        ("voxel", "args.config.conv2d_channels", 0, "field 'args.config.conv2d_channels'"),
        ("voxel", "args.config.fc_widths", [-1], "field 'args.config.fc_widths[0]'"),
        ("voxel", "args.config.conv3d_channels", [], "field 'args.config.conv3d_channels'"),
        # parameters of another shape than the build args give
        ("voxel", "args.config.fc_widths", [17], "parameter fc_0.weight: shape"),
        # a grid that does not fit the tensors, and a net of the other kind
        ("voxel", "featurization.grid.dims", [16, 16, 8], "parameter ln_conv3d_0.gain: shape"),
        ("voxel", "kind", "mlp_net", "unknown key 'featurization'"),
        # a layout the grid does not fit
        ("voxel", "featurization.layout.positions", OUTSIDE_GRID,
         "grid does not fit the electrode layout: electrode 0 at [1.0, 1.0, 1.0] outside bounds"),
        ("voxel", "featurization.layout.positions", SHARED_CELL,
         "grid does not fit the electrode layout: electrodes 0 and 1 both bin to voxel"),
        ("mlp-baseline", "kind", "voxel_net", "unknown key 'args.hidden_widths'"),
        # keys that only restated the input, and are no longer part of the record
        ("voxel", "args.input_shape", [2, 8, 8, 4], "unknown key 'args.input_shape'"),
        ("voxel", "featurization.kind", "voxel", "unknown key 'featurization.kind'"),
        ("voxel", "args.config.layer_norm_eps", 1e-5, "unknown key 'args.config.layer_norm_eps'"),
        ("mlp-baseline", "args.input_dim", 22, "unknown key 'args.input_dim'"),
        ("mlp-baseline", "args.layer_norm_eps", 1e-5, "unknown key 'args.layer_norm_eps'"),
        ("mlp-baseline", "featurization", {"kind": "flat"}, "unknown key 'featurization'"),
        # entries of the archive ("npz:"): the blob itself, and a tensor
        ("voxel", "npz:meta", np.frombuffer(b"{not json", np.uint8),
         "field 'meta' is not a JSON blob"),
        ("mlp-baseline", "npz:param_0001", None, "missing tensor 'param_0001'"),
        ("mlp-baseline", "npz:param_0001", np.array([{}], dtype=object),
         "tensor 'param_0001': Object arrays cannot be loaded"),
        ("voxel", "npz:meta", None, "missing field 'meta'"),
        ("voxel", "npz:param_0017", None, "state has 17 tensors, model has 18 parameters"),
        # a tensor cast to another dtype ("npz:" with a dtype): neither cast
        # on load nor loaded with its imaginary part dropped
        ("mlp-baseline", "npz:param_0001", np.int64, "tensor 'param_0001' has dtype int64"),
        ("voxel", "npz:param_0002", np.float16, "tensor 'param_0002' has dtype float16"),
        ("voxel", "npz:param_0000", np.complex128, "tensor 'param_0000' has dtype complex128"),
        # a float64 tensor among float32 ones
        ("mlp-baseline", "npz:param_0003", np.float64,
         "tensor 'param_0003' has dtype float64: a checkpoint's tensors are all float32 or all "
         "float64 (param_0000 is float32)"),
        # a lone array where the archive should be
        ("voxel", "npy", np.zeros(3), "not a .npz file"),
    ], ids=value_id)
    def test_malformed_checkpoint_record_exits_2_naming_file_and_key(
        self, sim_dir, tmp_path, capsys, model, dotted, value, named
    ):
        model_dir = self.train(sim_dir, tmp_path, model, {}, "--model", model)
        path = model_dir / "checkpoint.npz"

        def damage(meta):
            if value is None:
                meta.pop(dotted)
            else:
                meta.update(with_value(meta, dotted, value))

        def damage_archive(arrays):
            name = dotted.removeprefix("npz:")
            if value is None:
                arrays.pop(name)
            elif isinstance(value, type):
                arrays[name] = arrays[name].astype(value)
            else:
                arrays[name] = value

        if dotted == "npy":
            with open(path, "wb") as fh:
                np.save(fh, value)
        elif dotted.startswith("npz:"):
            rewrite_checkpoint(path, damage_archive)
        else:
            rewrite_checkpoint_meta(path, damage)
        capsys.readouterr()
        code, eval_dir = self.evaluate(sim_dir, tmp_path, path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: checkpoint {path}:") and named in err
        assert not eval_dir.exists()

    @pytest.mark.parametrize("extra", [[], ["--no-voxel"], ["--model", "mlp-baseline"]])
    def test_checkpoint_in_the_former_format_exits_2(self, sim_dir, tmp_path, capsys, extra):
        """A checkpoint that states its input in the build args and a
        featurization kind, as written before the featurization record
        alone fixed a net's input, is rejected naming the first such key."""
        path = self.train(sim_dir, tmp_path, "m", {}, *extra) / "checkpoint.npz"

        def to_former_format(meta):
            args = meta["args"]
            if "featurization" in meta:
                args["config"]["layer_norm_eps"] = 1e-5
                args["input_shape"] = [N_CHANNELS, *meta["featurization"]["grid"]["dims"]]
                meta["featurization"]["kind"] = "voxel"
            else:
                meta["args"] = {"input_dim": 22, **args, "layer_norm_eps": 1e-5}
                meta["featurization"] = {"kind": "flat"}

        rewrite_checkpoint_meta(path, to_former_format)
        capsys.readouterr()
        code, eval_dir = self.evaluate(sim_dir, tmp_path, path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: checkpoint {path}:")
        assert re.search(r"unknown key '(args\.input_shape|featurization)'", err)
        assert not eval_dir.exists()

    def test_mlp_of_another_width_than_the_flat_features_exits_2(self, sim_dir, tmp_path, capsys):
        """An MLP always reads the flat features, so a first layer of another
        width does not fit the net its record builds."""
        path = self.train(sim_dir, tmp_path, "mlp", {}, "--model", "mlp-baseline") / "checkpoint.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["param_0000"] = arrays["param_0000"][:-1]  # fc_0.weight, (22, width)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        code, eval_dir = self.evaluate(sim_dir, tmp_path, path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: checkpoint {path}:")
        assert "parameter fc_0.weight: shape" in err
        assert not eval_dir.exists()

    @pytest.mark.parametrize("model", ["linear", "mlp-baseline"])
    @pytest.mark.parametrize("flag", ["--no-voxel", "--no-alpha"])
    def test_ablation_flag_that_changes_nothing_exits_2(self, sim_dir, tmp_path, capsys, model, flag):
        """The ablations are of the voxel net: another model would ignore
        the flag, and its run manifest would record it as set."""
        out = tmp_path / "m"
        assert run(["train", "--manifest", sim_dir / "dataset_manifest.json", "--out", out,
                    "--model", model, flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err and model in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, alpha", [
        ([], True),
        (["--no-alpha"], False),
        (["--model", "mlp-baseline"], False),
    ])
    def test_checkpoint_records_the_alpha_weight_the_loss_ran(self, sim_dir, tmp_path, extra, alpha):
        model_dir = self.train(sim_dir, tmp_path, "m", {}, *extra)
        meta = load_checkpoint(model_dir / "checkpoint.npz")[1]
        assert meta["metadata"]["ablation"]["alpha"] is alpha
        assert (meta["loss_config"]["beta"] != 0) is alpha


    @pytest.mark.parametrize("kind, content", [
        ("checkpoint", None),
        ("linear", None),
        ("checkpoint", '{"S": [1, 1, 1]}'),
        ("linear", "{not json"),
        ("linear", "[1, 2]"),
    ])
    def test_unreadable_model_file_exits_2_naming_it(self, sim_dir, tmp_path, capsys, kind, content):
        """A missing model file, a JSON file given as a checkpoint and a
        linear model that is not a JSON object are config errors."""
        path = tmp_path / "models" / "model"
        if content is not None:
            path.parent.mkdir()
            path.write_text(content)
        code, eval_dir = self.evaluate(sim_dir, tmp_path, path, "--model-kind", kind)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
        assert not eval_dir.exists()


class TestReadme:
    def test_train_config_example_builds_and_shows_the_defaults(self):
        """The README's training config reads as `train` reads it, builds a
        net on its grid, and holds the defaults it says it shows."""
        block = re.search(r"```json\n(.*?)```", README.read_text(), flags=re.S).group(1)
        config = read_config(json.loads(block), cli.TRAIN_CONFIG)
        defaults = read_config({}, cli.TRAIN_CONFIG)
        # compared as JSON: a default list is a tuple, a list read from a file a list
        assert json.dumps({**config, "grid": None}) == json.dumps(defaults)
        geometry = SurfaceGeometry()
        featurization = featurization_record(default_electrode_layout(geometry), geometry,
                                             config["grid"])
        build_voxel_net(NetworkConfig(**config["network"]),
                        (N_CHANNELS, *featurization["grid"]["dims"]))
        shown, default = GridSpec.from_config(config["grid"]), GridSpec.for_geometry(geometry)
        assert shown.dims == default.dims
        np.testing.assert_allclose(shown.bounds_min, default.bounds_min, rtol=1e-12)
        np.testing.assert_allclose(shown.bounds_max, default.bounds_max, rtol=1e-12)

    def test_shipped_configs_read(self):
        """README's sim.json and the benchmark's CLI configs, which the
        suite does not otherwise run, pass the readers simulate and train
        use; the simulation configs' params, too."""
        sim_json = re.search(r"cat > sim.json <<'JSON'\n(.*?)\nJSON\n", README.read_text(),
                             flags=re.S).group(1)
        for text in (sim_json, (PERFBENCH / "cli_simulate.json").read_text()):
            config = read_config(json.loads(text), cli.SIMULATE_CONFIG)
            cli._read_push_params("params", {**config["params"],
                                             "box_half_extents": config["box_half_extents"]})
        read_config(json.loads((PERFBENCH / "cli_train.json").read_text()), cli.TRAIN_CONFIG)


def rewrite_checkpoint(path, edit):
    """Apply edit, in place, to the arrays of the checkpoint at path, by name."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def rewrite_checkpoint_meta(path, edit):
    """Apply edit, in place, to the metadata blob of the checkpoint at path."""
    def edit_blob(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode())
        edit(meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

    rewrite_checkpoint(path, edit_blob)


def with_value(config: dict, dotted: str, value) -> dict:
    """A copy of config with the value at a dotted key path replaced."""
    head, _, rest = dotted.partition(".")
    if not rest:
        return {**config, head: value}
    return {**config, head: with_value(config.get(head, {}), rest, value)}


class TestConfigValueTypes:
    @pytest.mark.parametrize("dotted", ["trainig", "network.seed", "mlp.hidden_width"])
    def test_unknown_train_key_exits_2_naming_file_and_key(self, sim_dir, tmp_path, capsys, dotted):
        """A misspelt key at any level of a training config is an error, and
        so is a seed inside a block, which the run seed would override."""
        config = write_config(tmp_path / "c.json", with_value(TINY_TRAIN_CONFIG, dotted, 5))
        out = tmp_path / "m"
        assert run(["train", "--manifest", sim_dir / "dataset_manifest.json", "--out", out,
                    "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err and f"'{dotted}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("dotted, value", [
        ("network.layer_norm_eps", 1e-5),
        ("loss.magnitude_floor", 0.01),
        ("training.warmup_epochs", 2),
        ("training.warmup_doubling_iters", 50),
        ("training.lr_floor", 1e-8),
        ("loss.mode", "case_by_source"),
    ])
    def test_key_of_a_constant_exits_2_naming_file_and_key(
        self, sim_dir, tmp_path, capsys, dotted, value
    ):
        """A knob the program holds constant is not a config key, even when
        set to the constant's value."""
        config = write_config(tmp_path / "c.json", with_value(TINY_TRAIN_CONFIG, dotted, value))
        out = tmp_path / "m"
        assert run(["train", "--manifest", sim_dir / "dataset_manifest.json", "--out", out,
                    "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err
        assert f"unknown key '{dotted}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_negative_seed_flag_exits_2_naming_it(self, sim_dir, sim_config, tmp_path, capsys,
                                                  command):
        out = tmp_path / "o"
        args = {"simulate": ["simulate", "--config", write_config(tmp_path / "c.json", sim_config)],
                "train": ["train", "--manifest", sim_dir / "dataset_manifest.json"]}[command]
        capsys.readouterr()
        assert run([*args, "--out", out, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: --seed must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        ("simulate", "sources.rigid_ft.trials", "x"),
        ("simulate", "sources.planar_pushing.steps", 150.0),
        ("simulate", "sources.rigid_ft.trials", True),
        ("simulate", "sources.ball_ft.samples_per_trial", 2.5),
        ("simulate", "sensor.noise_scale", "x"),
        ("simulate", "geometry.radius_m", "x"),
        ("simulate", "sources.ball_ft.cap_only", 1),
        ("train", "training.batch_size", "x"),
        ("train", "training.max_epochs", 1.5),
        ("train", "network.fc_widths", ["x"]),
        ("train", "loss.beta", "x"),
        ("train", "loss.beta", True),
        ("train", "seed", "x"),
        ("simulate", "seed", -5),
        ("train", "seed", -1),
        ("simulate", "sensor.noise_scale", float("nan")),
        ("simulate", "sources.rigid_ft.force_range", [float("nan"), 1.0]),
        ("simulate", "split.train", float("inf")),
        ("train", "training.base_lr", float("nan")),
        ("simulate", "split.train", 1.5),
        ("simulate", "split.val", -3),
        ("simulate", "sensor.noise_scale", 10**400),  # too large for a float
        ("simulate", "sources.rigid_ft.trials", 10**400),
        # values the code divides by, or sizes arrays with
        ("train", "network.conv3d_channels", [0, 2]),
        ("train", "network.conv3d_channels", [2, -1]),
        ("train", "network.conv2d_channels", 0),
        ("train", "network.fc_widths", [0]),
        ("train --no-voxel", "no_voxel_widths", [0]),
        ("train --model mlp-baseline", "mlp.hidden_widths", []),
        ("train", "training.batch_size", 0),
        ("train", "training.base_lr", 0),
        ("train", "training.decay_factor", 1.5),
        ("simulate", "sensor.noise_scale", -0.05),
        ("simulate", "geometry.radius_m", -1),
        ("simulate", "geometry.half_cylinder_length_m", -0.001),
        ("simulate", "params.mu_s", -0.1),
        ("simulate", "params.k", 0),
        ("train", "network.conv3d_channels", []),
        # forces that point out of the surface
        ("simulate", "sources.rigid_ft.force_range", [-5, -1]),
        ("simulate", "sources.ball_ft.force_range", [0.1, -1.0]),
        ("simulate", "sources.planar_pushing.magnitude_range", [-2.0, 1.0]),
        # ranges whose low end is above the high end, cones beyond the tangent plane
        ("simulate", "sources.rigid_ft.force_range", [5, 1]),
        ("simulate", "sources.ball_ft.force_range", [0.2, 0.1]),
        ("simulate", "sources.planar_pushing.magnitude_range", [2.0, 0.1]),
        ("simulate", "sources.rigid_ft.cone_angle_deg", -10),
        ("simulate", "sources.ball_ft.cone_angle_deg", 120),
        ("simulate", "sources.rigid_ft.cone_angle_deg", 90.000001),
    ], ids=value_id)
    def test_wrong_type_exits_2_naming_file_and_field(
        self, sim_dir, sim_config, tmp_path, capsys, command, field, value
    ):
        """`command` is the subcommand, then any flags."""
        if command == "simulate":
            if field.startswith("geometry"):
                sim_config = {**sim_config, "geometry": {"half_cylinder_length_m": 0.015}}
            config = write_config(tmp_path / "bad.json", with_value(sim_config, field, value))
            args = ["simulate", "--config", config, "--out", tmp_path / "o"]
        else:
            config = write_config(tmp_path / "bad.json", with_value(TINY_TRAIN_CONFIG, field, value))
            args = ["train", "--manifest", sim_dir / "dataset_manifest.json",
                    "--out", tmp_path / "m", "--config", config, *command.split()[1:]]
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
        assert "missing field 'grid.bounds.min'" in capsys.readouterr().err

    @pytest.mark.parametrize("dotted, value, named", [
        ("grid", 5, "field 'grid'"),
        ("grid", [8, 8, 4], "field 'grid'"),
        ("grid.dims", ["8", 8, 4], "field 'grid.dims[0]'"),
        ("grid.bounds.min", "x", "field 'grid.bounds.min'"),
        ("grid.bounds.max", [0.1, 0.1], "field 'grid.bounds.max'"),
        ("grid.dims", [8, 8, 0], "field 'grid.dims[2]'"),
        ("grid.cells", 3, "unknown key 'grid.cells'"),
    ])
    def test_malformed_grid_exits_2_naming_config_and_key(self, sim_dir, tmp_path, capsys, dotted,
                                                          value, named):
        grid = {"grid": GridSpec.for_geometry(SurfaceGeometry()).to_config()}
        assert self.train(sim_dir, tmp_path, with_value(grid, dotted, value)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {tmp_path / 'train.json'}:") and named in err
        assert not (tmp_path / "m").exists()

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


# a samples-file record's field set to a value of the wrong shape, type or
# range, or a key no record has
DAMAGED_FIELDS = {
    "short_e": {"e": [0.5] * 18},
    "in_contact_string": {"in_contact": "false"},
    "source_tag_number": {"source_tag": 5},
    "trial_id_list": {"trial_id": ["x"]},
    "source_tag_unknown": {"source_tag": "rigid-ft"},
    "unknown_key": {"R_bw": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]},
    "step_negative": {"step": -1},
    "step_fraction": {"step": 1.5},
    "step_bool": {"step": True},
    "former_motion_key": {"motion": {"t": 0.0}},
    "e_nan": {"e": [float("nan")] + [0.5] * 18},
    "f_3d_infinity": {"f_3d": [float("inf"), 0.0, 0.0]},
    "s_c_integer_too_large_for_a_float": {"s_c": [10**400, 0, 0]},
}


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

    @pytest.mark.parametrize("field, size, bad", [("e", 19, float("nan")),
                                                  ("f_3d", 3, float("inf")),
                                                  ("R_wb", 9, float("nan"))])
    def test_non_finite_record_field_exits_3_naming_trial(
        self, sim_dir, tmp_path, capsys, field, size, bad
    ):
        """A NaN or infinity is read from a samples file as JSON allows, and
        then rejected: the linear fit would give NaN scales, the voxel net a
        NaN output, and eval would drop a sample of NaN force unscored."""
        trial = tamper_train_record(sim_dir, field, [bad] + [0.5] * (size - 1))
        manifest = sim_dir / "dataset_manifest.json"
        for args in (
            ["train", "--manifest", manifest, "--out", tmp_path / "m", "--model", "linear"],
            ["eval", "--manifest", manifest, "--model-kind", "oracle", "--out", tmp_path / "e"],
        ):
            assert exit_code(args) == 3
            err = capsys.readouterr().err
            assert f"'{trial}': field '{field}' holds a number that is not finite" in err
        assert not (tmp_path / "m" / "linear_model.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("damage", ["truncated", "not_an_object", *DAMAGED_FIELDS])
    def test_malformed_samples_line_exits_3_naming_file_and_line(
        self, sim_dir, tmp_path, capsys, command, damage
    ):
        """A cut-off last line, a line that is not an object and a record
        with a wrong-shape or wrong-type field each name the samples file
        and the line, counting the blank lines that are skipped."""
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
            lines[n - 1] = json.dumps({**json.loads(lines[n - 1]), **DAMAGED_FIELDS[damage]})
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

    def test_manifest_not_json_exits_2_naming_it(self, sim_dir, tmp_path, capsys):
        """Only a manifest's content is data: a file that is not JSON is a
        config error, as a missing one is."""
        manifest = sim_dir / "dataset_manifest.json"
        manifest.write_text("{not json")
        assert self.train(manifest, tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"config error: manifest {manifest}: not valid JSON")
        assert not (tmp_path / "m").exists()

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
        assert err.startswith("data error:") and str(manifest) in err and "'splits.train'" in err

    @pytest.mark.parametrize("dotted, value, named", [
        ("samples_file", 5, "field 'samples_file'"),
        ("splits.val", None, "missing field 'splits.val'"),
        ("splits.train", ["t", 3], "field 'splits.train[1]'"),
        ("split", {}, "unknown key 'split'"),
        ("counts.val", "many", "field 'counts.val'"),
        ("counts", [1, 2, 3], "field 'counts'"),
    ])
    def test_malformed_manifest_exits_3_naming_it_and_key(
        self, sim_dir, tmp_path, capsys, dotted, value, named
    ):
        manifest = sim_dir / "dataset_manifest.json"
        data = with_value(json.loads(manifest.read_text()), dotted, value)
        if value is None:
            del data["splits"]["val"]
        manifest.write_text(json.dumps(data))
        for args in (["train", "--manifest", manifest, "--out", tmp_path / "m"],
                     ["eval", "--manifest", manifest, "--model-kind", "oracle",
                      "--out", tmp_path / "m"]):
            assert exit_code(args) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"data error: manifest {manifest}:") and named in err
            assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_samples_file_short_of_the_manifest_counts_exits_3(
        self, sim_dir, tmp_path, capsys, command
    ):
        """A samples file that lost its last lines still reads, but its
        splits hold fewer force samples than the manifest counts: an error
        naming the split and both counts, and no output."""
        manifest = sim_dir / "dataset_manifest.json"
        samples = sim_dir / "samples.jsonl"
        lines = samples.read_text().splitlines(keepends=True)
        samples.write_text("".join(lines[: len(lines) * 3 // 4]))
        out = tmp_path / "out"
        args = {
            "train": ["train", "--manifest", manifest, "--out", out, "--model", "linear"],
            "eval": ["eval", "--manifest", manifest, "--model-kind", "oracle", "--out", out],
        }[command]
        assert exit_code(args) == 3
        err = capsys.readouterr().err
        found = re.fullmatch(rf"data error: manifest {re.escape(str(manifest))}: split '(\w+)' has "
                             rf"(\d+) force samples in {re.escape(str(samples))}, but the manifest "
                             r"counts (\d+)\n", err)
        assert found, err
        split, n, counted = found[1], int(found[2]), int(found[3])
        assert counted == json.loads(manifest.read_text())["counts"][split] > n
        assert not out.exists()

    def test_missing_samples_file_exits_3_naming_it(self, sim_dir, tmp_path, capsys):
        manifest = sim_dir / "dataset_manifest.json"
        samples = sim_dir / json.loads(manifest.read_text())["samples_file"]
        samples.unlink()
        assert self.train(manifest, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(samples) in err


class TestNonForceSamples:
    """A sample that is not a force sample (not in contact, or with zero
    force) is dropped when a samples file is read, as make_dataset drops it
    when the file is written, so neither train nor eval uses it. The
    manifest here has no counts, which the damage would make stale."""

    @pytest.mark.parametrize("field, value", [("in_contact", False), ("f_3d", [0.0, 0.0, 0.0])])
    def test_dropped_from_train_and_eval(self, sim_dir, tmp_path, capsys, field, value):
        manifest_path = sim_dir / "dataset_manifest.json"
        splits = json.loads(manifest_path.read_text())["splits"]
        samples = sim_dir / "samples.jsonl"
        records = [json.loads(line) for line in samples.read_text().splitlines()]
        test_records = [r for r in records if r["trial_id"] in splits["test"]]
        # five test records, and every rigid-ft training record
        damaged = test_records[:5] + [r for r in records if r["trial_id"] in splits["train"]
                                      and r["source_tag"] == "rigid_ft"]
        for r in damaged:
            r[field] = value
        samples.write_text("".join(json.dumps(r) + "\n" for r in records))
        manifest_path.write_text(json.dumps({
            k: v for k, v in json.loads(manifest_path.read_text()).items() if k != "counts"}))

        read = load_manifest_splits(manifest_path)[0]
        assert sum(len(split) for split in read.values()) == len(records) - len(damaged)
        assert all(r.in_contact and np.linalg.norm(r.f_3d) > 0 for split in read.values() for r in split)

        out = tmp_path / "e"
        assert run(["eval", "--manifest", manifest_path, "--model-kind", "oracle", "--out", out]) == 0
        assert len(per_sample_rows(out)) == len(test_records) - 5
        assert json.loads((out / "summary.json").read_text())["excluded_zero_vectors"] == 0

        capsys.readouterr()
        assert run(["train", "--manifest", manifest_path, "--out", tmp_path / "m",
                    "--sources", "rigid-ft", "--model", "linear"]) == 3
        assert "no training samples for sources ['rigid_ft']" in capsys.readouterr().err


def _failing_writes(monkeypatch):
    """For each writer, a call that raises partway: the samples file and the
    checkpoint after part of them is written."""
    def samples(path):
        lines = []

        def dumps(line):  # the disk fills after the first line
            if lines:
                raise OSError("disk full")
            lines.append(line)
            return "{}"

        monkeypatch.setattr(json, "dumps", dumps)
        write_samples_jsonl(make_ft_samples(
            SensorForwardModel(default_electrode_layout()), SurfaceGeometry(), "rigid_ft", 1, 2,
            seed=0, force_range=(1.0, 2.0)), path)

    def manifest(path):
        splits = DatasetSplits([], [], [], {"train": ["a"], "val": [object()], "test": []})
        write_manifest(splits, "samples.jsonl", path, seed=0)

    def linear_model(path):
        monkeypatch.setattr(ElectrodeLayout, "to_dict", lambda self: {"positions": object()})
        LinearModel(scale=np.ones(3), layout=default_electrode_layout()).to_json(path)

    def checkpoint(path):
        def savez(fh, **arrays):
            fh.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez)
        save_checkpoint(path, build_mlp_net((4,), seed=0))

    return {"samples": samples, "manifest": manifest, "linear_model": linear_model,
            "checkpoint": checkpoint}


class TestAtomicWrites:
    """Every output goes to a temporary file renamed over its target once
    complete, so a write that raises partway leaves the target as it was
    and no temporary file behind."""

    @pytest.mark.parametrize("old", [None, "old content"])
    @pytest.mark.parametrize("writer", ["samples", "manifest", "linear_model", "checkpoint"])
    def test_a_failed_write_leaves_the_target_as_it_was(self, monkeypatch, tmp_path, writer, old):
        write = _failing_writes(monkeypatch)[writer]
        target = tmp_path / "out" / "target"
        target.parent.mkdir()
        if old is not None:
            target.write_text(old)
        with pytest.raises((OSError, TypeError)):
            write(target)
        assert [p.name for p in target.parent.iterdir()] == ([] if old is None else ["target"])
        if old is not None:
            assert target.read_text() == old


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
