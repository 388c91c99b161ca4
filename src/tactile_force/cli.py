"""Command-line pipeline: simulate, infer, train, eval.

Every command reads a config and a seed, writes its outputs atomically
(temp file + rename), and drops a run manifest next to them so the run can
be reproduced from the manifest alone. Exit codes: 0 success, 2 usage or
config error, 3 data-integrity error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import LinearModel, linear_fit, linear_predict
from .dataset import (
    SampleRecord,
    featurization_record,
    featurizer,
    filter_by_sources,
    load_json,
    load_manifest_splits,
    make_dataset,
    write_manifest,
    write_samples_jsonl,
)
from .errors import (
    ConfigError,
    DataIntegrityError,
    DegenerateInputError,
    LayoutCollisionError,
    NumericalError,
    OutOfBoundsError,
    SchemaError,
    check_config_value,
)
from .mechanics import (
    ParticleGrid,
    PlanarMotion,
    PushParams,
    checked_array,
    infer_force_with_friction,
)
from .metrics import evaluate_pairs, summarize_rows
from .net import (
    LossConfig,
    NetworkConfig,
    TrainingConfig,
    build_mlp_net,
    build_voxel_net,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .net.losses import KNOWN_SOURCES, SOURCE_BALL_FT, SOURCE_PLANAR, SOURCE_RIGID_FT
from .sensor import ElectrodeLayout, SurfaceGeometry, default_electrode_layout
from .synthetic import (
    DEFAULT_BOX_HALF_EXTENTS_M,
    DEFAULT_DT_S,
    SensorForwardModel,
    box_inertia,
    make_ft_samples,
    make_planar_trials,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# the SensorForwardModel fields a config's "sensor" block may set
SENSOR_CONFIG_KEYS = ("gain", "decay_length", "normal_sensitivity", "shear_sensitivity",
                      "directional_shear_sensitivity", "noise_scale")


def _normalize_source(name: str) -> str:
    return name.strip().lower().replace("-", "_")


def resolve_sources(flag: str) -> set[str]:
    """Parse the --sources flag: one of the source names or 'mixed'."""
    name = _normalize_source(flag)
    if name == "mixed":
        return set(KNOWN_SOURCES)
    if name in KNOWN_SOURCES:
        return {name}
    raise ConfigError(
        f"unknown source {flag!r}; expected one of rigid-ft, ball-ft, planar-pushing, mixed"
    )


def write_text_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json_atomic(path: Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2) + "\n")


def write_run_manifest(out_dir: Path, command: str, args_dict: dict, outputs: list[str], t0: float) -> None:
    manifest = {
        "command": command,
        "arguments": args_dict,
        "tool_version": __version__,
        "outputs": outputs,
        "duration_s": round(time.monotonic() - t0, 3),
    }
    write_json_atomic(out_dir / "run_manifest.json", manifest)


def _box_half_extents(value) -> tuple[float, float]:
    hx, hy = checked_array("box_half_extents", value, (2,))
    if not (hx > 0 and hy > 0):
        raise SchemaError(f"field 'box_half_extents' must be positive, got {value!r}")
    return float(hx), float(hy)


def _config_value(path, config: dict, dotted: str, default):
    """The config's value at a dotted key path ("sources.rigid_ft.trials"), or
    `default` where it is absent; a value whose type differs from the
    default's, as config_from_dict checks it, or a section that is not an
    object, is a ConfigError naming the file and the field."""
    parent, _, key = dotted.rpartition(".")
    block = _config_value(path, config, parent, {}) if parent else config
    if not isinstance(block, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    value = block.get(key, default)
    try:
        check_config_value(dotted, value, default)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    return value


def _push_params_from_config(config: dict, path) -> tuple[PushParams, tuple[float, float]]:
    params_cfg = dict(_config_value(path, config, "params", {}))
    try:
        half_extents = _box_half_extents(config.get("box_half_extents", DEFAULT_BOX_HALF_EXTENTS_M))
        if "inertia" not in params_cfg and "m" in params_cfg:
            # a uniform box of the configured mass
            m = checked_array("m", params_cfg["m"], ())
            params_cfg["inertia"] = box_inertia(m, half_extents)
        return PushParams.from_config(params_cfg), half_extents
    except SchemaError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


def _layout_and_geometry(config: dict, path):
    section = _config_value(path, config, "geometry", {})
    geometry = SurfaceGeometry()
    if "geometry" in config:
        try:
            geometry = SurfaceGeometry.from_config(section)
        except (SchemaError, ConfigError) as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
    if "layout_file" in config:
        path = config["layout_file"]
        try:
            layout = ElectrodeLayout.from_dict(load_json(path, "layout"))
        except SchemaError as exc:
            raise ConfigError(f"layout file {path}: {exc}") from exc
    else:
        layout = default_electrode_layout(geometry)
    return layout, geometry


def _sensor_model_from_config(config: dict, path) -> tuple[SensorForwardModel, SurfaceGeometry]:
    layout, geometry = _layout_and_geometry(config, path)
    sensor_cfg = _config_value(path, config, "sensor", {})
    defaults = {f.name: f.default for f in dataclasses.fields(SensorForwardModel)}
    settings = {
        k: float(_config_value(path, config, f"sensor.{k}", defaults[k]))
        for k in SENSOR_CONFIG_KEYS if k in sensor_cfg
    }
    return SensorForwardModel(layout=layout, **settings), geometry


def cmd_simulate(args) -> int:
    """Simulate the configured sources into --out. Every config value is read
    and type-checked before anything is simulated, and --out is created only
    once the dataset is complete, so an error leaves no partial output."""
    t0 = time.monotonic()
    config_path = args.config
    config = load_json(config_path, "config")

    def setting(dotted, default):
        return _config_value(config_path, config, dotted, default)

    def count(dotted, default, least):
        value = setting(dotted, default)
        if value < least:
            raise ConfigError(
                f"config {config_path}: field {dotted!r} must be at least {least}, got {value!r}"
            )
        return value

    config_seed = setting("seed", 0)
    seed = args.seed if args.seed is not None else config_seed
    model, geometry = _sensor_model_from_config(config, config_path)

    planar = f"sources.{SOURCE_PLANAR}."
    n_planar = count(planar + "trials", 0, 0)
    if n_planar > 0:
        params, half_extents = _push_params_from_config(config, config_path)
        planar_args = dict(
            n_trials=n_planar,
            steps=count(planar + "steps", 400, 1),
            seed=seed,
            params=params,
            half_extents=half_extents,
            dt=float(setting(planar + "dt", DEFAULT_DT_S)),
            magnitude_range=tuple(setting(planar + "magnitude_range", (0.1, 2.0))),
        )
    ft_defaults = {
        SOURCE_RIGID_FT: {"force_range": (0.5, 10.0), "cap_only": False, "cone_deg": 30.0},
        SOURCE_BALL_FT: {"force_range": (0.1, 5.0), "cap_only": True, "cone_deg": 60.0},
    }
    ft_args = {}
    for tag, defaults in ft_defaults.items():
        source = f"sources.{tag}."
        n_trials = count(source + "trials", 0, 0)
        if n_trials > 0:
            ft_args[tag] = dict(
                source_tag=tag,
                n_trials=n_trials,
                samples_per_trial=count(source + "samples_per_trial", 50, 1),
                seed=seed + (1 if tag == SOURCE_RIGID_FT else 2),
                force_range=tuple(setting(source + "force_range", defaults["force_range"])),
                cone_angle_deg=float(setting(source + "cone_angle_deg", defaults["cone_deg"])),
                cap_only=setting(source + "cap_only", defaults["cap_only"]),
            )
    train_frac = float(setting("split.train", 0.8))
    val_frac = float(setting("split.val", 0.1))

    records: list[SampleRecord] = []
    if n_planar > 0:
        episodes, planar_records = make_planar_trials(model, geometry, **planar_args)
        records.extend(planar_records)
    for kwargs in ft_args.values():
        records.extend(make_ft_samples(model, geometry, **kwargs))
    if not records:
        raise ConfigError("config requested no trials from any source")
    splits = make_dataset(records, train_frac=train_frac, val_frac=val_frac, seed=seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    if n_planar > 0:
        episodes_dir = out_dir / "episodes"
        episodes_dir.mkdir(exist_ok=True)
        for episode in episodes:
            lines = [json.dumps(row) for row in episode.step_dicts()]
            path = episodes_dir / f"{episode.trial_id}.jsonl"
            write_text_atomic(path, "\n".join(lines) + "\n")
            outputs.append(str(path.relative_to(out_dir)))
        params_blob = {**dataclasses.asdict(params), "box_half_extents": list(half_extents)}
        write_json_atomic(out_dir / "params.json", params_blob)
        outputs.append("params.json")
    samples_path = out_dir / "samples.jsonl"
    write_samples_jsonl(records, samples_path)
    write_manifest(splits, "samples.jsonl", out_dir / "dataset_manifest.json", seed)
    outputs.extend(["samples.jsonl", "dataset_manifest.json"])
    write_run_manifest(out_dir, "simulate", {"config": str(args.config), "seed": seed}, outputs, t0)
    print(f"simulate: wrote {len(records)} samples from {len(splits.trial_assignment['train']) + len(splits.trial_assignment['val']) + len(splits.trial_assignment['test'])} trials to {out_dir}")
    return EXIT_OK


def _read_episode_rows(path) -> list[dict]:
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
    except FileNotFoundError as exc:
        raise ConfigError(f"episode file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"episode file {path} is not valid JSON-lines: {exc}") from exc
    if not rows:
        raise SchemaError(f"episode file {path} is empty")
    return rows


def _infer_params(path) -> tuple[PushParams, ParticleGrid]:
    """Push params and friction particles from a params file (as written by
    simulate); a bad or missing field is a ConfigError naming the file."""
    config = load_json(path, "params")
    if not isinstance(config, dict):
        raise ConfigError(f"params file {path} must hold a JSON object")
    try:
        params = PushParams.from_config(config)
        half_extents = _box_half_extents(config["box_half_extents"])
        return params, ParticleGrid.uniform_rectangle(half_extents, params)
    except KeyError as exc:
        raise ConfigError(f"params file {path}: missing field {exc.args[0]!r}") from exc
    except SchemaError as exc:
        raise ConfigError(f"params file {path}: {exc}") from exc


def _episode_step(path, i: int, row) -> tuple[PlanarMotion, np.ndarray]:
    """Motion and contact point of episode row i; a bad row is a SchemaError
    naming the file, the row and the field."""
    try:
        if not isinstance(row, dict):
            raise SchemaError(f"expected a JSON object, got {type(row).__name__}")
        motion = PlanarMotion(**{f.name: row[f.name] for f in dataclasses.fields(PlanarMotion)})
        return motion, checked_array("contact_point", row["contact_point"], (2,))
    except KeyError as exc:
        raise SchemaError(f"episode file {path} row {i}: missing field {exc.args[0]!r}") from exc
    except SchemaError as exc:
        raise SchemaError(f"episode file {path} row {i}: {exc}") from exc


def cmd_infer(args) -> int:
    t0 = time.monotonic()
    rows = _read_episode_rows(args.episode)
    params, grid = _infer_params(args.params)

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["step,t,fx,fy,objective,static_friction"]
    for i, row in enumerate(rows):
        motion, c = _episode_step(args.episode, i, row)
        result = infer_force_with_friction(motion, c, grid, params)
        f = result.force.components
        lines.append(
            f"{i},{row.get('t', i)},{f[0]:.17g},{f[1]:.17g},"
            f"{result.objective:.17g},{int(result.static_friction)}"
        )
    write_text_atomic(out_path, "\n".join(lines) + "\n")
    write_run_manifest(
        out_path.parent,
        "infer",
        {"episode": str(args.episode), "params": str(args.params)},
        [out_path.name],
        t0,
    )
    print(f"infer: wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


MODEL_VOXEL = "voxel"
MODEL_MLP_BASELINE = "mlp-baseline"
MODEL_LINEAR = "linear"


def _train_configs(config: dict, seed: int):
    """The network, training and loss configs of a train config's "network",
    "training" and "loss" sections; a bad field is a ConfigError naming the
    section and the field."""
    configs = []
    for section, cls, extra in (("network", NetworkConfig, {"seed": seed}),
                                ("training", TrainingConfig, {"seed": seed}),
                                ("loss", LossConfig, {})):
        block = config.get(section, {})
        check_config_value(section, block, {})
        try:
            configs.append(cls.from_dict({**block, **extra}))
        except ConfigError as exc:
            raise ConfigError(f"section {section!r}: {exc}") from exc
    return configs


def cmd_train(args) -> int:
    t0 = time.monotonic()
    config = load_json(args.config, "config") if args.config else {}
    config_seed = _config_value(args.config, config, "seed", 0)
    seed = args.seed if args.seed is not None else config_seed
    sources = resolve_sources(args.sources)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    splits, _ = load_manifest_splits(args.manifest)
    train_records = filter_by_sources(splits["train"], sources)
    val_records = filter_by_sources(splits["val"], sources)
    if not train_records:
        raise DataIntegrityError(f"no training samples for sources {sorted(sources)}")
    if not val_records:
        raise DataIntegrityError(f"no validation samples for sources {sorted(sources)}")

    try:
        net_cfg, train_cfg, loss_cfg = _train_configs(config, seed)
    except ConfigError as exc:
        raise ConfigError(f"config {args.config}: {exc}") from exc
    use_alpha = not args.no_alpha
    if not use_alpha:
        loss_cfg = dataclasses.replace(loss_cfg, beta=0.0)

    layout, geometry = _layout_and_geometry(config, args.config)

    if args.model == MODEL_LINEAR:
        e_train = np.stack([r.e for r in train_records])
        f_train = np.stack([r.f_3d for r in train_records])
        model = linear_fit(e_train, f_train, layout)
        model.to_json(out_dir / "linear_model.json")
        write_run_manifest(
            out_dir,
            "train",
            {"manifest": str(args.manifest), "sources": args.sources, "model": args.model, "seed": seed},
            ["linear_model.json"],
            t0,
        )
        print(f"train: fitted linear model S={model.scale.tolist()} -> {out_dir}")
        return EXIT_OK

    voxel = args.model == MODEL_VOXEL and not args.no_voxel
    featurization = featurization_record(voxel, layout, geometry, config.get("grid"))
    if args.model == MODEL_MLP_BASELINE:
        widths = tuple(_config_value(args.config, config, "mlp.hidden_widths", (64, 64)))
        model = build_mlp_net(22, widths, seed=seed, layer_norm=False)
        loss_cfg = dataclasses.replace(loss_cfg, beta=0.0, mode="plain_l2")
    elif args.no_voxel:
        widths = tuple(_config_value(args.config, config, "no_voxel_widths", (64, 64, 64, 64)))
        widths += net_cfg.fc_widths
        model = build_mlp_net(22, widths, seed=seed, layer_norm=True)
    else:
        model = build_voxel_net(net_cfg, input_shape=(2, *featurization["grid"]["dims"]))

    featurize = featurizer(featurization)
    train_samples = featurize(train_records)
    val_samples = featurize(val_records)
    report = train(model, train_samples, val_samples, loss_cfg, train_cfg,
                   log_every=args.log_every)

    ckpt_path = out_dir / "checkpoint.npz"
    save_checkpoint(
        ckpt_path,
        model,
        featurization=featurization,
        loss_config=loss_cfg,
        metadata={
            "sources": sorted(sources),
            "ablation": {"voxel": voxel, "alpha": use_alpha},
            "model": args.model,
            "best_epoch": report.best_epoch,
            "best_val_loss": report.best_val_loss,
            "skipped_train": report.skipped_train,
            "skipped_val": report.skipped_val,
            "iterations": report.iterations,
            "seed": seed,
        },
    )
    curve_lines = ["epoch,train_loss,val_loss"]
    for i, (tr, va) in enumerate(zip(report.train_losses, report.val_losses)):
        curve_lines.append(f"{i},{tr:.9e},{va:.9e}")
    write_text_atomic(out_dir / "curves.csv", "\n".join(curve_lines) + "\n")
    write_run_manifest(
        out_dir,
        "train",
        {
            "manifest": str(args.manifest),
            "sources": args.sources,
            "model": args.model,
            "no_voxel": bool(args.no_voxel),
            "no_alpha": bool(args.no_alpha),
            "config": str(args.config) if args.config else None,
            "seed": seed,
        },
        ["checkpoint.npz", "curves.csv"],
        t0,
    )
    print(
        f"train: best val loss {report.best_val_loss:.5f} at epoch {report.best_epoch} "
        f"-> {ckpt_path}"
    )
    return EXIT_OK


def _predict_records(records, model_kind, model_path):
    """Predictions for the records, with features built only from what the
    model file records about its own inputs."""
    if model_kind == "oracle":
        return np.stack([r.f_3d for r in records]), {"kind": "oracle"}
    if model_kind == "linear":
        model = LinearModel.from_json(model_path)
        preds = np.stack([linear_predict(model, r.e) for r in records])
        return preds, {"kind": "linear", "S": model.scale.tolist()}
    # checkpoint
    model, meta = load_checkpoint(model_path)
    samples = featurizer(meta["featurization"])(records)
    preds = []
    for start in range(0, len(records), 512):
        preds.append(model.forward(samples.inputs[start : start + 512]))
    return np.concatenate(preds, axis=0), {"kind": meta["kind"], **meta.get("metadata", {})}


def cmd_eval(args) -> int:
    t0 = time.monotonic()
    splits, _ = load_manifest_splits(args.manifest)
    if args.split not in splits:
        raise ConfigError(f"unknown split {args.split!r}")
    records = splits[args.split]
    if args.sources != "mixed":
        records = filter_by_sources(records, resolve_sources(args.sources))
    if not records:
        raise DataIntegrityError(f"no samples in split {args.split!r} for {args.sources}")
    if args.model_kind != "oracle" and args.model is None:
        raise ConfigError(f"--model is required for --model-kind {args.model_kind}")

    preds, model_info = _predict_records(records, args.model_kind, args.model)
    f_true = np.stack([r.f_3d for r in records])
    tags = [r.source_tag for r in records]
    rows, excluded = evaluate_pairs(f_true, preds, tags)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_lines = ["direction_pct,magnitude_pct,magnitude_l1,source_tag"]
    for r in rows:
        csv_lines.append(
            f"{r.direction_pct:.17g},{r.magnitude_pct:.17g},{r.magnitude_l1:.17g},{r.source_tag}"
        )
    write_text_atomic(out_dir / "per_sample.csv", "\n".join(csv_lines) + "\n")

    summary = {
        "model": model_info,
        "split": args.split,
        "excluded_zero_vectors": excluded,
        "overall": summarize_rows(rows),
        "per_source": {
            tag: summarize_rows([r for r in rows if r.source_tag == tag])
            for tag in sorted({r.source_tag for r in rows})
        },
    }
    write_json_atomic(out_dir / "summary.json", summary)
    write_run_manifest(
        out_dir,
        "eval",
        {
            "manifest": str(args.manifest),
            "model": str(args.model) if args.model else None,
            "model_kind": args.model_kind,
            "split": args.split,
            "sources": args.sources,
        },
        ["per_sample.csv", "summary.json"],
        t0,
    )
    med = summary["overall"]["direction_pct"]["median"]
    print(f"eval: {len(rows)} samples, median direction error {med:.3f}% -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tactile-force",
        description="Synthetic tactile-force pipeline: simulate, infer, train, eval.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate episodes and the sample dataset")
    p_sim.add_argument("--config", required=True, help="simulation config JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_inf = sub.add_parser(
        "infer",
        help="least-squares force inference on an episode file",
        description=(
            "Recover the contact force from each stored motion step, with the "
            "support friction of the params file, in closed form."
        ),
        epilog=(
            "Output CSV columns: step (row index), t (timestamp, s), "
            "fx, fy (inferred force, N, planar frame), objective (residual "
            "at the solution), static_friction (1 when every support "
            "particle sat below the stationary tolerance)."
        ),
    )
    p_inf.add_argument("--episode", required=True, help="episode JSON-lines file")
    p_inf.add_argument(
        "--params",
        required=True,
        help='push params JSON; "mu_s": 0 gives a frictionless fit',
    )
    p_inf.add_argument("--out", required=True, help="output CSV path")
    p_inf.set_defaults(func=cmd_infer)

    p_tr = sub.add_parser(
        "train",
        help="train a force model on a dataset manifest",
        description="Train the voxel network, an ablation, a baseline, or the linear model.",
        epilog=(
            "curves.csv columns: epoch, train_loss, val_loss "
            "(mean loss over the included samples of each set)."
        ),
    )
    p_tr.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p_tr.add_argument("--out", required=True, help="output directory")
    p_tr.add_argument(
        "--sources",
        default="mixed",
        help="training sources: rigid-ft, ball-ft, planar-pushing, or mixed",
    )
    p_tr.add_argument(
        "--model",
        default=MODEL_VOXEL,
        choices=[MODEL_VOXEL, MODEL_MLP_BASELINE, MODEL_LINEAR],
        help="model family to train",
    )
    p_tr.add_argument("--no-voxel", action="store_true", help="replace voxel encoder with FC layers")
    p_tr.add_argument("--no-alpha", action="store_true", help="disable the alignment loss weight")
    p_tr.add_argument("--config", default=None, help="training config JSON")
    p_tr.add_argument("--seed", type=int, default=None)
    p_tr.add_argument("--log-every", type=int, default=0, help="print losses every N epochs")
    p_tr.set_defaults(func=cmd_train)

    p_ev = sub.add_parser(
        "eval",
        help="evaluate a model on a dataset split",
        description="Per-sample error metrics plus box-plot summaries per source.",
        epilog=(
            "per_sample.csv columns: direction_pct (angular error, % of a "
            "half turn), magnitude_pct (symmetric absolute percentage "
            "magnitude error), magnitude_l1 (absolute magnitude error, N), "
            "source_tag (rigid_ft / ball_ft / planar_pushing)."
        ),
    )
    p_ev.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p_ev.add_argument("--model", default=None, help="checkpoint .npz or linear model JSON")
    p_ev.add_argument(
        "--model-kind",
        default="checkpoint",
        choices=["checkpoint", "linear", "oracle"],
        help="'oracle' predicts the ground truth (harness sanity check)",
    )
    p_ev.add_argument("--split", default="test", help="dataset split to evaluate")
    p_ev.add_argument("--sources", default="mixed", help="restrict to a source, or mixed")
    p_ev.add_argument("--out", required=True, help="output directory")
    p_ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        SchemaError,
        DataIntegrityError,
        OutOfBoundsError,
        LayoutCollisionError,
        DegenerateInputError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
