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
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import LinearModel, linear_fit, linear_predict
from .dataset import (
    DEFAULT_TRAIN_FRAC,
    DEFAULT_VAL_FRAC,
    SampleSet,
    check_split,
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
from .errors import (
    ConfigError, Count, DataIntegrityError, Fraction, Items, Positive, PositiveCount, Required,
    SchemaError, TactileForceError, config_tree, read_config,
)
from .files import write_text_atomic
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
from .net.training import FORWARD_BATCH_SIZE
from .sensor import ElectrodeLayout, SurfaceGeometry, default_electrode_layout
from .synthetic import (
    DEFAULT_BOX_HALF_EXTENTS_M,
    DEFAULT_DT_S,
    DEFAULT_PUSH_MAGNITUDE_RANGE_N,
    SensorForwardModel,
    box_inertia,
    cone_angle_mark,
    force_range_mark,
    make_ft_samples,
    make_planar_trials,
)
from .voxel import N_CHANNELS

# the fields of a push's params; "m" and "inertia" have no default, and an
# absent "inertia" is that of a uniform box of mass m (_read_push_params)
PUSH_PARAMS_CONFIG = config_tree(PushParams)
# the pushed box's half extents, two positive numbers
BOX_HALF_EXTENTS_CONFIG = tuple(Positive(h) for h in DEFAULT_BOX_HALF_EXTENTS_M)
# a params file, which simulate writes and infer reads; "m" is required
PARAMS_FILE_CONFIG = {**PUSH_PARAMS_CONFIG, "m": Required(PUSH_PARAMS_CONFIG["m"].example),
                      "box_half_extents": BOX_HALF_EXTENTS_CONFIG}
# the sensor geometry, and the electrode layout file ("" for the default layout)
GEOMETRY_CONFIG = {
    "geometry": {"radius_m": SurfaceGeometry.r,
                 "half_cylinder_length_m": SurfaceGeometry.half_cylinder_length},
    "layout_file": "",
}
# every key of a simulation config, with its default
SIMULATE_CONFIG = {
    "seed": Count(0),
    "params": PUSH_PARAMS_CONFIG,
    "box_half_extents": BOX_HALF_EXTENTS_CONFIG,
    **GEOMETRY_CONFIG,
    "sensor": config_tree(SensorForwardModel, exclude=("layout",)),
    "sources": {
        SOURCE_PLANAR: {"trials": Count(0), "steps": PositiveCount(400), "dt": Positive(DEFAULT_DT_S),
                        "magnitude_range": force_range_mark(*DEFAULT_PUSH_MAGNITUDE_RANGE_N)},
        SOURCE_RIGID_FT: {"trials": Count(0), "samples_per_trial": PositiveCount(50),
                          "force_range": force_range_mark(0.5, 10.0),
                          "cone_angle_deg": cone_angle_mark(30.0), "cap_only": False},
        SOURCE_BALL_FT: {"trials": Count(0), "samples_per_trial": PositiveCount(50),
                         "force_range": force_range_mark(0.1, 5.0),
                         "cone_angle_deg": cone_angle_mark(60.0), "cap_only": True},
    },
    "split": {"train": Fraction(DEFAULT_TRAIN_FRAC), "val": Fraction(DEFAULT_VAL_FRAC)},
}
# every key of a training config, with its default; the run seed sets the
# network's and the training's, and the grid is read by GridSpec.from_config
TRAIN_CONFIG = {
    "seed": Count(0),
    "network": config_tree(NetworkConfig, exclude=("seed",)),
    "training": config_tree(TrainingConfig, exclude=("seed",)),
    "loss": config_tree(LossConfig, exclude=("mode",)),
    "mlp": {"hidden_widths": Items((PositiveCount(64),) * 2)},
    "no_voxel_widths": Items((PositiveCount(64),) * 4),
    "grid": None,
    **GEOMETRY_CONFIG,
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


def write_json_atomic(path: Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2) + "\n")


def _read_config(path, defaults: dict) -> dict:
    """The config file at `path` (None for none) read over `defaults`; an
    error names the file and the dotted key."""
    return read_config({}, defaults) if path is None else load_json(
        path, "config", lambda config: read_config(config, defaults))


def _check_count_flag(flag: str, value: int) -> None:
    """Raise a ConfigError naming the flag unless its value is at least 0."""
    if value < 0:
        raise ConfigError(f"{flag} must be at least 0, got {value}")


def _resolve_seed(args, config: dict) -> int:
    """--seed, which must be at least 0, else the config's seed. It is stored
    back in `args`, so the run manifest records the seed used."""
    if args.seed is None:
        args.seed = config["seed"]
    else:
        _check_count_flag("--seed", args.seed)
    return args.seed


def _read_push_params(what: str, config, name: str = "") -> tuple[PushParams, tuple[float, float]]:
    """Push params and box half extents from a params file, or from a
    simulation config's "params" block (`name`) plus its "box_half_extents":
    "m" is required, and an absent "inertia" is that of a uniform box of
    mass m. A bad or missing field is a ConfigError naming `what` (the file)
    and the dotted key."""
    try:
        values = read_config(config, PARAMS_FILE_CONFIG, name)
        half_extents = tuple(float(h) for h in values.pop("box_half_extents"))
        if values["inertia"] is None:
            values["inertia"] = box_inertia(values["m"], half_extents)
        return PushParams(**{k: v if k == "n" else float(v) for k, v in values.items()}), half_extents
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _layout_and_geometry(config: dict):
    """The electrode layout and sensor geometry of a read config."""
    shape = config["geometry"]
    geometry = SurfaceGeometry(r=float(shape["radius_m"]),
                               half_cylinder_length=float(shape["half_cylinder_length_m"]))
    layout_path = config["layout_file"]
    if not layout_path:
        return default_electrode_layout(geometry), geometry
    return load_json(layout_path, "layout file", ElectrodeLayout.from_dict), geometry


def cmd_simulate(args) -> tuple[Path, list[str]]:
    """Simulate the configured sources into --out. Every config value is read
    and checked before anything is simulated, and --out is created only once
    the dataset is complete, so an error leaves no partial output."""
    config_path = args.config
    config = _read_config(config_path, SIMULATE_CONFIG)
    split = config["split"]
    try:
        check_split(split["train"], split["val"])
    except ConfigError as exc:
        raise ConfigError(f"config {config_path}: {exc}") from exc
    seed = _resolve_seed(args, config)
    layout, geometry = _layout_and_geometry(config)
    model = SensorForwardModel(layout=layout, **{k: float(v) for k, v in config["sensor"].items()})
    planar = config["sources"][SOURCE_PLANAR]
    parts: list[SampleSet] = []
    if planar["trials"] > 0:
        params, half_extents = _read_push_params(f"config {config_path}", {
            **{k: v for k, v in config["params"].items() if v is not None},
            "box_half_extents": config["box_half_extents"]}, "params")
        episodes, samples = make_planar_trials(
            model, geometry, planar["trials"], planar["steps"], seed, params, half_extents,
            planar["dt"], planar["magnitude_range"])
        if not len(samples):  # only a push can run yet label no sample
            raise ConfigError(f"config {config_path}: source {SOURCE_PLANAR!r} ran {planar['trials']} "
                              f"trials of {planar['steps']} steps, and no step was labelled as a contact")
        parts.append(samples)
    for offset, tag in enumerate((SOURCE_RIGID_FT, SOURCE_BALL_FT), 1):
        ft = dict(config["sources"][tag])
        samples = make_ft_samples(model, geometry, tag, ft.pop("trials"), seed=seed + offset, **ft)
        if len(samples) and not samples.is_force().any():  # make_dataset would drop them all
            raise ConfigError(f"config {config_path}: every sample of source {tag!r} has zero force "
                              f"(force_range {ft['force_range']})")
        parts.append(samples)
    records = SampleSet.concatenate(parts)
    if not len(records):
        raise ConfigError(f"config {config_path}: requested no trials from any source")
    splits = make_dataset(records, split["train"], split["val"], seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    if planar["trials"] > 0:
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
    rows = list(read_jsonl(args.episode, "episode file", ConfigError))
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
    """The network, training and loss configs of a train config, raw or read,
    with the run seed."""
    config = read_config(config, TRAIN_CONFIG)
    return [NetworkConfig(**config["network"], seed=seed),
            TrainingConfig(**config["training"], seed=seed),
            LossConfig(**config["loss"])]


def cmd_train(args) -> tuple[Path, list[str]]:
    """Train the chosen model into --out, which is created only once the
    data, config, layout and features have been read and checked."""
    _check_count_flag("--log-every", args.log_every)
    for flag, on in (("--no-voxel", args.no_voxel), ("--no-alpha", args.no_alpha)):
        if on and args.model != MODEL_VOXEL:
            raise ConfigError(f"{flag} applies only to --model {MODEL_VOXEL}, not --model {args.model}")
    config = _read_config(args.config, TRAIN_CONFIG)
    seed = _resolve_seed(args, config)
    sources = resolve_sources(args.sources)
    out_dir = Path(args.out)

    splits, _ = load_manifest_splits(args.manifest)
    train_records = filter_by_sources(splits["train"], sources)
    val_records = filter_by_sources(splits["val"], sources)
    if not len(train_records):
        raise DataIntegrityError(f"no training samples for sources {sorted(sources)}")
    if not len(val_records):
        raise DataIntegrityError(f"no validation samples for sources {sorted(sources)}")

    layout, geometry = _layout_and_geometry(config)
    voxel = args.model == MODEL_VOXEL and not args.no_voxel
    try:
        net_cfg, train_cfg, loss_cfg = _train_configs(config, seed)
        featurization = featurization_record(layout, geometry, config["grid"]) if voxel else None
        featurize = featurizer(featurization)
        if args.model == MODEL_MLP_BASELINE:
            model = build_mlp_net(tuple(config["mlp"]["hidden_widths"]), seed=seed, layer_norm=False)
            loss_cfg = dataclasses.replace(loss_cfg, beta=0.0, mode="plain_l2")
        elif args.no_voxel:
            widths = tuple(config["no_voxel_widths"]) + net_cfg.fc_widths
            model = build_mlp_net(widths, seed=seed, layer_norm=True)
        elif voxel:
            model = build_voxel_net(net_cfg, input_shape=(N_CHANNELS, *featurization["grid"]["dims"]))
    except ConfigError as exc:
        raise ConfigError(f"config {args.config}: {exc}") from exc
    if args.no_alpha:
        loss_cfg = dataclasses.replace(loss_cfg, beta=0.0)

    if args.model == MODEL_LINEAR:
        model = linear_fit(train_records.e, train_records.f_3d, layout)
        out_dir.mkdir(parents=True, exist_ok=True)
        model.to_json(out_dir / "linear_model.json")
        print(f"train: fitted linear model S={model.scale.tolist()} -> {out_dir}")
        return out_dir, ["linear_model.json"]

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
            "ablation": {"voxel": voxel, "alpha": loss_cfg.beta != 0},
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


def _predict_records(records: SampleSet, model_kind, model_path):
    """Predictions for the records, with features built only from what the
    model file records about its own inputs."""
    if model_kind == "oracle":
        return records.f_3d, {"kind": "oracle"}
    if model_kind == "linear":
        model = LinearModel.from_json(model_path)
        # one product per sample: a batched one rounds some rows differently
        preds = np.stack([linear_predict(model, e) for e in records.e])
        return preds, {"kind": "linear", "S": model.scale.tolist()}
    # checkpoint
    model, meta = load_checkpoint(model_path)
    try:
        featurize = featurizer(meta.get("featurization"))
    except (ConfigError, SchemaError) as exc:
        raise ConfigError(f"checkpoint {model_path}: {exc}") from exc
    samples = featurize(records)
    preds = [model.forward(samples.inputs[start : start + FORWARD_BATCH_SIZE])
             for start in range(0, len(records), FORWARD_BATCH_SIZE)]
    return np.concatenate(preds, axis=0), {"kind": meta["kind"], **meta["metadata"]}


def cmd_eval(args) -> tuple[Path, list[str]]:
    splits, _ = load_manifest_splits(args.manifest)
    if args.split not in splits:
        raise ConfigError(f"unknown split {args.split!r}")
    records = splits[args.split]
    if args.sources != "mixed":
        records = filter_by_sources(records, resolve_sources(args.sources))
    if not len(records):
        raise DataIntegrityError(f"no samples in split {args.split!r} for {args.sources}")
    if args.model_kind != "oracle" and args.model is None:
        raise ConfigError(f"--model is required for --model-kind {args.model_kind}")

    preds, model_info = _predict_records(records, args.model_kind, args.model)
    rows, excluded = evaluate_pairs(records.f_3d, preds, records.source_tag.tolist())

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
    overall = summary["overall"]
    print(f"eval: {len(rows)} samples, median direction error "
          f"{overall['direction_pct']['median']:.3f}% ({overall['direction_median_deg']:.3f} deg)"
          f" -> {out_dir}")
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
    p_tr.add_argument("--log-every", type=int, default=0, help="print losses to stderr every N epochs")
    p_tr.set_defaults(func=cmd_train)

    p_ev = sub.add_parser(
        "eval",
        help="evaluate a model on a dataset split",
        description="Per-sample error metrics plus box-plot summaries per source.",
        epilog=(
            "per_sample.csv columns: direction_pct (angular error, % of a "
            "half turn), magnitude_pct (symmetric absolute percentage "
            "magnitude error), magnitude_l1 (absolute magnitude error, N), "
            "source_tag (rigid_ft / ball_ft / planar_pushing). summary.json "
            "gives each metric's box-plot statistics overall and per source, "
            "and the direction median in degrees (direction_median_deg)."
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
