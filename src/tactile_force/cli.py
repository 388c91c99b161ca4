"""Command-line pipeline: simulate, infer, train, eval.

Every command reads a config and a seed and writes its outputs atomically
(temp file + rename). `main` times the command and drops a run manifest
next to its outputs, holding every parsed flag with the seed as resolved,
so the run can be reproduced from the manifest alone. Exit codes come from
the error classes (`exit_code` in errors.py): 0 success, 2 usage or config
error, 3 data-integrity error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import LinearModel, linear_fit, linear_predict
from .dataset import (
    DEFAULT_TRAIN_FRAC,
    DEFAULT_VAL_FRAC,
    FLAT_INPUT_WIDTH,
    SampleRecord,
    featurization_record,
    featurizer,
    filter_by_sources,
    load_json,
    load_manifest_splits,
    make_dataset,
    read_jsonl,
    write_manifest,
    write_samples_jsonl,
)
from .errors import ConfigError, DataIntegrityError, SchemaError, TactileForceError, check_config_value
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
    DEFAULT_PUSH_MAGNITUDE_RANGE_N,
    SensorForwardModel,
    box_inertia,
    make_ft_samples,
    make_planar_trials,
)
from .voxel import N_CHANNELS

# the SensorForwardModel fields a config's "sensor" block may set
SENSOR_CONFIG_KEYS = ("gain", "decay_length", "normal_sensitivity", "shear_sensitivity",
                      "directional_shear_sensitivity", "noise_scale")
# the keys of each block of a simulation config that is checked for unknown keys
SIMULATE_CONFIG_BLOCKS = {
    "sensor": SENSOR_CONFIG_KEYS,
    "sources": KNOWN_SOURCES,
    f"sources.{SOURCE_PLANAR}": ("trials", "steps", "dt", "magnitude_range"),
    **{f"sources.{tag}": ("trials", "samples_per_trial", "force_range", "cone_angle_deg", "cap_only")
       for tag in (SOURCE_RIGID_FT, SOURCE_BALL_FT)},
    "split": ("train", "val"),
}


def resolve_sources(flag: str) -> set[str]:
    """Parse the --sources flag: one of the source names or 'mixed'."""
    name = flag.strip().lower().replace("-", "_")
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


def _reject_unknown_simulate_keys(path, config: dict) -> None:
    """A ConfigError naming the file and the dotted key for the first key of
    a SIMULATE_CONFIG_BLOCKS block that is not among that block's keys,
    where it would otherwise be a silently ignored setting."""
    for dotted, known in SIMULATE_CONFIG_BLOCKS.items():
        for key in _config_value(path, config, dotted, {}):
            if key not in known:
                raise ConfigError(f"config {path}: unknown key {f'{dotted}.{key}'!r}; "
                                  f"expected one of {', '.join(known)}")


def _resolve_seed(args, config: dict) -> int:
    """--seed, else the config's seed, which is type-checked either way. It
    is stored back in `args`, so the run manifest records the seed used."""
    config_seed = _config_value(args.config, config, "seed", 0)
    if args.seed is None:
        args.seed = config_seed
    return args.seed


def _read_push_params(what: str, config) -> tuple[PushParams, tuple[float, float]]:
    """Push params and box half extents from one object holding the
    PushParams fields and "box_half_extents", as in the params file simulate
    writes; an absent inertia is that of a uniform box of mass m. A bad or
    missing field is a ConfigError naming `what` (the file) and the field."""
    if not isinstance(config, dict):
        raise ConfigError(f"{what} must hold a JSON object")
    try:
        value = config["box_half_extents"]
        hx, hy = checked_array("box_half_extents", value, (2,))
        if not (hx > 0 and hy > 0):
            raise SchemaError(f"field 'box_half_extents' must be positive, got {value!r}")
        half_extents = (float(hx), float(hy))
        if "inertia" not in config and "m" in config:
            config = {**config, "inertia": box_inertia(checked_array("m", config["m"], ()), half_extents)}
        return PushParams.from_config(config), half_extents
    except KeyError as exc:
        raise ConfigError(f"{what}: missing field {exc.args[0]!r}") from exc
    except SchemaError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


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


def cmd_simulate(args) -> tuple[Path, list[str]]:
    """Simulate the configured sources into --out. Every config value is read
    and type-checked before anything is simulated, and --out is created only
    once the dataset is complete, so an error leaves no partial output."""
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

    def positive(dotted, default):
        value = float(setting(dotted, default))
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(
                f"config {config_path}: field {dotted!r} must be a positive finite number, got {value!r}"
            )
        return value

    _reject_unknown_simulate_keys(config_path, config)
    seed = _resolve_seed(args, config)
    model, geometry = _sensor_model_from_config(config, config_path)

    planar = f"sources.{SOURCE_PLANAR}."
    n_planar = count(planar + "trials", 0, 0)
    if n_planar > 0:
        params, half_extents = _read_push_params(f"config {config_path}", {
            **setting("params", {}),
            "box_half_extents": config.get("box_half_extents", DEFAULT_BOX_HALF_EXTENTS_M),
        })
        planar_args = dict(
            n_trials=n_planar,
            steps=count(planar + "steps", 400, 1),
            seed=seed,
            params=params,
            half_extents=half_extents,
            dt=positive(planar + "dt", DEFAULT_DT_S),
            magnitude_range=tuple(setting(planar + "magnitude_range", DEFAULT_PUSH_MAGNITUDE_RANGE_N)),
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
    train_frac = float(setting("split.train", DEFAULT_TRAIN_FRAC))
    val_frac = float(setting("split.val", DEFAULT_VAL_FRAC))

    records: list[SampleRecord] = []
    if n_planar > 0:
        episodes, records = make_planar_trials(model, geometry, **planar_args)
        if not records:  # only a push can run yet label no sample
            raise ConfigError(f"config {config_path}: source {SOURCE_PLANAR!r} ran {n_planar} trials "
                              f"of {planar_args['steps']} steps, and no step was labelled as a contact")
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
    n_trials = sum(len(ids) for ids in splits.trial_assignment.values())
    print(f"simulate: wrote {len(records)} samples from {n_trials} trials to {out_dir}")
    return out_dir, outputs


def _episode_step(path, n: int, row: dict, t_default: int) -> tuple[PlanarMotion, np.ndarray, float]:
    """Motion, contact point and time of the episode row on line n, the time
    defaulting to `t_default`; a bad row is a SchemaError naming the file,
    the line and the field."""
    try:
        motion = PlanarMotion(**{f.name: row[f.name] for f in dataclasses.fields(PlanarMotion)})
        t = float(checked_array("t", row["t"], ())) if "t" in row else t_default
        return motion, checked_array("contact_point", row["contact_point"], (2,)), t
    except KeyError as exc:
        raise SchemaError(f"episode file {path} line {n}: missing field {exc.args[0]!r}") from exc
    except SchemaError as exc:
        raise SchemaError(f"episode file {path} line {n}: {exc}") from exc


def cmd_infer(args) -> tuple[Path, list[str]]:
    try:
        rows = list(read_jsonl(args.episode, "episode file"))
    except FileNotFoundError as exc:
        raise ConfigError(f"episode file not found: {args.episode}") from exc
    if not rows:
        raise SchemaError(f"episode file {args.episode} is empty")
    params, half_extents = _read_push_params(f"params file {args.params}",
                                             load_json(args.params, "params"))
    grid = ParticleGrid.uniform_rectangle(half_extents, params)

    lines = ["step,t,fx,fy,objective,static_friction"]
    for i, (n, row) in enumerate(rows):
        motion, c, t = _episode_step(args.episode, n, row, i)
        result = infer_force_with_friction(motion, c, grid, params)
        f = result.force.components
        lines.append(
            f"{i},{t},{f[0]:.17g},{f[1]:.17g},"
            f"{result.objective:.17g},{int(result.static_friction)}"
        )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_path, "\n".join(lines) + "\n")
    print(f"infer: wrote {len(rows)} rows to {out_path}")
    return out_path.parent, [out_path.name]


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


def cmd_train(args) -> tuple[Path, list[str]]:
    """Train the chosen model into --out, which is created only once the
    data, config, layout and features have been read and checked."""
    config = load_json(args.config, "config") if args.config else {}
    seed = _resolve_seed(args, config)
    sources = resolve_sources(args.sources)
    out_dir = Path(args.out)

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
        out_dir.mkdir(parents=True, exist_ok=True)
        model.to_json(out_dir / "linear_model.json")
        print(f"train: fitted linear model S={model.scale.tolist()} -> {out_dir}")
        return out_dir, ["linear_model.json"]

    voxel = args.model == MODEL_VOXEL and not args.no_voxel
    featurization = featurization_record(voxel, layout, geometry, config.get("grid"))
    if args.model == MODEL_MLP_BASELINE:
        widths = tuple(_config_value(args.config, config, "mlp.hidden_widths", (64, 64)))
        model = build_mlp_net(FLAT_INPUT_WIDTH, widths, seed=seed, layer_norm=False)
        loss_cfg = dataclasses.replace(loss_cfg, beta=0.0, mode="plain_l2")
    elif args.no_voxel:
        widths = tuple(_config_value(args.config, config, "no_voxel_widths", (64, 64, 64, 64)))
        widths += net_cfg.fc_widths
        model = build_mlp_net(FLAT_INPUT_WIDTH, widths, seed=seed, layer_norm=True)
    else:
        model = build_voxel_net(net_cfg, input_shape=(N_CHANNELS, *featurization["grid"]["dims"]))

    featurize = featurizer(featurization)
    train_samples = featurize(train_records)
    val_samples = featurize(val_records)
    report = train(model, train_samples, val_samples, loss_cfg, train_cfg,
                   log_every=args.log_every)

    out_dir.mkdir(parents=True, exist_ok=True)
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
    print(
        f"train: best val loss {report.best_val_loss:.5f} at epoch {report.best_epoch} "
        f"-> {ckpt_path}"
    )
    return out_dir, ["checkpoint.npz", "curves.csv"]


PREDICT_CHUNK = 512  # samples per forward pass at eval


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
    preds = [model.forward(samples.inputs[start : start + PREDICT_CHUNK])
             for start in range(0, len(records), PREDICT_CHUNK)]
    return np.concatenate(preds, axis=0), {"kind": meta["kind"], **meta.get("metadata", {})}


def cmd_eval(args) -> tuple[Path, list[str]]:
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
    med = summary["overall"]["direction_pct"]["median"]
    print(f"eval: {len(rows)} samples, median direction error {med:.3f}% -> {out_dir}")
    return out_dir, ["per_sample.csv", "summary.json"]


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
    """Run one command. Each `cmd_*` returns the directory it wrote into and
    its outputs; main records the run there, and a package error becomes
    its class's exit code and message prefix."""
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        out_dir, outputs = args.func(args)
    except TactileForceError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    manifest = {
        "command": args.command,
        "arguments": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
        "tool_version": __version__,
        "outputs": outputs,
        "duration_s": round(time.monotonic() - t0, 3),
    }
    write_json_atomic(out_dir / "run_manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
