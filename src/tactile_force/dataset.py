"""Sample records, trial-level dataset splits, and file formats.

Samples are stored as JSON-lines, one record per line; a split manifest maps
each of train/val/test to a list of whole trial ids. Splitting never divides
a trial across splits, and only in-contact samples with nonzero force are
retained ("force samples").
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, DataIntegrityError, LayoutCollisionError, OutOfBoundsError, SchemaError,
)
from .net.training import ArraySamples
from .sensor import N_ELECTRODES, ElectrodeLayout, SurfaceGeometry
from .voxel import (
    CHANNEL_CONTACT, CHANNEL_ELECTRODES, N_CHANNELS, GridSpec, VoxelInputs, cell_indices,
    electrode_cells, outside,
)

SPLIT_NAMES = ("train", "val", "test")
DEFAULT_TRAIN_FRAC = 0.8
DEFAULT_VAL_FRAC = 0.1
# shape of each array field of a samples-file record; R_wb is a flat row-major 3x3
RECORD_ARRAY_SHAPES = {"e": (N_ELECTRODES,), "s_c": (3,), "s_n": (3,), "f_3d": (3,), "R_wb": (9,)}


@dataclass(frozen=True)
class SampleRecord:
    """One force sample: tared electrode values plus contact and ground truth.

    s_c / s_n are the sensor-frame contact point and outward normal, f_3d the
    sensor-frame ground-truth force, r_wb the rotation taking sensor-frame
    vectors to the world frame. motion optionally carries the planar source
    state the sample was derived from.
    """

    trial_id: str
    source_tag: str
    e: np.ndarray
    s_c: np.ndarray
    s_n: np.ndarray
    f_3d: np.ndarray
    r_wb: np.ndarray
    in_contact: bool = True
    motion: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        object.__setattr__(self, "s_c", np.asarray(self.s_c, dtype=float))
        object.__setattr__(self, "s_n", np.asarray(self.s_n, dtype=float))
        object.__setattr__(self, "f_3d", np.asarray(self.f_3d, dtype=float))
        object.__setattr__(self, "r_wb", np.asarray(self.r_wb, dtype=float))

    def to_dict(self) -> dict:
        d = {
            "trial_id": self.trial_id,
            "source_tag": self.source_tag,
            "e": self.e.tolist(),
            "s_c": self.s_c.tolist(),
            "s_n": self.s_n.tolist(),
            "f_3d": self.f_3d.tolist(),
            "R_wb": self.r_wb.ravel().tolist(),
            "in_contact": self.in_contact,
        }
        if self.motion is not None:
            d["motion"] = self.motion
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SampleRecord":
        """A samples-file record; a missing or wrong-shape field is a SchemaError."""
        try:
            trial_id = str(d["trial_id"])
            arrays = {name: _array_field(d, name, trial_id) for name in RECORD_ARRAY_SHAPES}
            return cls(
                trial_id=trial_id,
                source_tag=str(d["source_tag"]),
                e=arrays["e"],
                s_c=arrays["s_c"],
                s_n=arrays["s_n"],
                f_3d=arrays["f_3d"],
                r_wb=arrays["R_wb"].reshape(3, 3),
                in_contact=bool(d.get("in_contact", True)),
                motion=d.get("motion"),
            )
        except KeyError as exc:
            raise SchemaError(f"sample record missing field {exc.args[0]!r}") from exc


def _array_field(d: dict, name: str, trial_id: str) -> np.ndarray:
    shape = RECORD_ARRAY_SHAPES[name]
    try:
        array = np.array(d[name], dtype=float)
    except (TypeError, ValueError) as exc:  # not numbers, or a ragged nesting
        raise SchemaError(f"trial {trial_id!r}: field {name!r}: {exc}") from exc
    if array.shape != shape:
        raise SchemaError(
            f"trial {trial_id!r}: field {name!r} has shape {array.shape}, expected {shape}"
        )
    return array


def load_json(path, what: str) -> dict:
    """A JSON file's content; a missing or non-JSON file is a ConfigError
    naming it as `what`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def write_samples_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict()) + "\n")


def read_jsonl(path, what: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file; a
    line that is not a JSON object is a SchemaError naming `what`, the file
    and the line, and so is a file that is not UTF-8 text."""
    with open(path, encoding="utf-8") as fh:
        n = 0
        try:
            for n, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{what} {path} line {n}: not valid JSON: {exc}") from exc
                if not isinstance(row, dict):
                    raise SchemaError(
                        f"{what} {path} line {n}: expected a JSON object, got {type(row).__name__}"
                    )
                yield n, row
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{what} {path}: not UTF-8 text after line {n}: {exc}") from exc


def read_samples_jsonl(path) -> list[SampleRecord]:
    """The records of a samples file; a malformed line is a SchemaError
    naming the file and the line."""
    records = []
    for n, row in read_jsonl(path, "samples file"):
        try:
            records.append(SampleRecord.from_dict(row))
        except SchemaError as exc:
            raise SchemaError(f"samples file {path} line {n}: {exc}") from exc
    return records


@dataclass
class DatasetSplits:
    train: list[SampleRecord]
    val: list[SampleRecord]
    test: list[SampleRecord]
    trial_assignment: dict[str, list[str]] = field(default_factory=dict)
    n_filtered_out: int = 0

    def split(self, name: str) -> list[SampleRecord]:
        return getattr(self, name)


def make_dataset(
    records: list[SampleRecord],
    train_frac: float = DEFAULT_TRAIN_FRAC,
    val_frac: float = DEFAULT_VAL_FRAC,
    seed: int = 0,
) -> DatasetSplits:
    """Filter to force samples and split whole trials into train/val/test.

    The split is stratified by source: each source's trials are shuffled and
    apportioned independently, so every split contains every source (needed
    for per-source training runs). Validation and test each receive at least
    one trial per source; the remainder after the requested fractions goes
    to test. Deterministic for a fixed seed.
    """
    force_samples = [
        r for r in records if r.in_contact and float(np.linalg.norm(r.f_3d)) > 0.0
    ]
    n_filtered = len(records) - len(force_samples)
    trial_source: dict[str, str] = {}
    for r in force_samples:
        previous = trial_source.setdefault(r.trial_id, r.source_tag)
        if previous != r.source_tag:
            raise DataIntegrityError(
                f"trial {r.trial_id!r} mixes sources {previous} and {r.source_tag}"
            )
    by_source: dict[str, list[str]] = {}
    for tid in sorted(trial_source):
        by_source.setdefault(trial_source[tid], []).append(tid)

    rng = np.random.default_rng(seed)
    assignment = {name: [] for name in SPLIT_NAMES}
    for source in sorted(by_source):
        ids = by_source[source]
        n = len(ids)
        if n < 3:
            raise DataIntegrityError(
                f"source {source!r} has {n} trials; need at least 3 to populate every split"
            )
        order = [ids[i] for i in rng.permutation(n)]
        n_val = max(1, int(n * val_frac))
        n_test = max(1, n - int(n * train_frac) - n_val)
        n_train = n - n_val - n_test
        if n_train < 1:
            raise DataIntegrityError(
                f"source {source!r}: {n} trials cannot populate train/val/test"
            )
        assignment["train"].extend(order[:n_train])
        assignment["val"].extend(order[n_train : n_train + n_val])
        assignment["test"].extend(order[n_train + n_val :])
    assignment = {name: sorted(ids) for name, ids in assignment.items()}
    by_split = {name: set(ids) for name, ids in assignment.items()}
    return DatasetSplits(
        train=[r for r in force_samples if r.trial_id in by_split["train"]],
        val=[r for r in force_samples if r.trial_id in by_split["val"]],
        test=[r for r in force_samples if r.trial_id in by_split["test"]],
        trial_assignment=assignment,
        n_filtered_out=n_filtered,
    )


def write_manifest(splits: DatasetSplits, samples_file: str, path, seed: int) -> None:
    manifest = {
        "samples_file": samples_file,
        "seed": seed,
        "splits": splits.trial_assignment,
        "counts": {name: len(splits.split(name)) for name in SPLIT_NAMES},
        "n_filtered_out": splits.n_filtered_out,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_manifest_splits(manifest_path) -> tuple[dict[str, list[SampleRecord]], dict]:
    """Load the samples file referenced by a manifest and group by split.

    Errors name the file: a missing or non-JSON manifest is a ConfigError, a
    malformed one a SchemaError, and a missing samples file or a trial id in
    more than one split a DataIntegrityError.
    """
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path, "manifest")
    try:
        split_ids = {name: manifest["splits"][name] for name in SPLIT_NAMES}
        samples_file = manifest["samples_file"]
    except KeyError as exc:
        raise SchemaError(f"manifest {manifest_path} missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise SchemaError(
            f"manifest {manifest_path}: 'splits' must map train/val/test to lists of trial ids"
        ) from exc
    seen: dict[str, str] = {}
    for name, ids in split_ids.items():
        if not isinstance(ids, list) or not all(isinstance(tid, str) for tid in ids):
            raise SchemaError(
                f"manifest {manifest_path}: split {name!r} must be a list of trial ids, got {ids!r}"
            )
        for tid in ids:
            if tid in seen:
                raise DataIntegrityError(
                    f"trial {tid!r} assigned to both {seen[tid]} and {name}"
                )
            seen[tid] = name
    samples_path = manifest_path.parent / samples_file
    try:
        records = read_samples_jsonl(samples_path)
    except FileNotFoundError as exc:
        raise DataIntegrityError(
            f"manifest {manifest_path}: samples file not found: {samples_path}"
        ) from exc
    splits = {name: [] for name in SPLIT_NAMES}
    for r in records:
        name = seen.get(r.trial_id)
        if name is not None:
            splits[name].append(r)
    return splits, manifest


def filter_by_sources(records: list[SampleRecord], sources: set[str]) -> list[SampleRecord]:
    return [r for r in records if r.source_tag in sources]


FEATURIZE_VOXEL = "voxel"
FEATURIZE_FLAT = "flat"
FLAT_INPUT_WIDTH = N_ELECTRODES + 3  # (e, s_c)


def featurization_record(
    voxel: bool,
    layout: ElectrodeLayout,
    geometry: SurfaceGeometry,
    grid: dict | None = None,
) -> dict:
    """The JSON record of how a model's inputs are built.

    Flat models read (e, s_c) alone: {"kind": "flat"}. Voxel nets also need
    the resolved grid (the `grid` config if given, else the grid covering
    `geometry`) and the electrode layout whose cells the values fill.
    Geometry reaches the inputs only through those two, so it is not stored.
    A malformed grid, or one that puts an electrode out of bounds or two in
    one cell, is a ConfigError.
    """
    if not voxel:
        return {"kind": FEATURIZE_FLAT}
    try:
        spec = GridSpec.from_config(grid) if grid is not None else GridSpec.for_geometry(geometry)
        electrode_cells(layout, spec)
    except SchemaError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    except (OutOfBoundsError, LayoutCollisionError) as exc:
        raise ConfigError(f"grid does not fit the electrode layout: {exc}") from exc
    return {"kind": FEATURIZE_VOXEL, "grid": spec.to_config(), "layout": layout.to_dict()}


def featurizer(record: dict) -> Callable[[list[SampleRecord]], ArraySamples]:
    """The featurize call a featurization record describes."""
    try:
        kind = record["kind"]
        if kind == FEATURIZE_FLAT:
            return featurize_flat
        if kind == FEATURIZE_VOXEL:
            layout = ElectrodeLayout.from_dict(record["layout"])
            spec = GridSpec.from_config(record["grid"])
            return lambda records: featurize_voxel(records, layout, spec)
    except KeyError as exc:
        raise ConfigError(f"featurization record missing field {exc.args[0]!r}") from exc
    raise ConfigError(f"unknown featurization kind {kind!r}")


def featurize_voxel(
    records: list[SampleRecord], layout: ElectrodeLayout, spec: GridSpec
) -> ArraySamples:
    """Encode records into voxel-grid model inputs plus loss context arrays.

    Each sample's inputs are its 19 electrode values, in layout order, and
    its contact cell; their dense array equals stacking `voxel.encode` of
    each record.
    A record whose e or s_c has the wrong shape, or whose contact point is
    not finite or lies outside the grid, is an error naming its trial.
    """
    cells = electrode_cells(layout, spec)
    e = _stack_field(records, "e", (N_ELECTRODES,))
    s_c = _stack_field(records, "s_c", (3,))
    bad = np.flatnonzero(outside(s_c, spec))
    if bad.size:
        r = records[bad[0]]
        raise OutOfBoundsError(
            f"trial {r.trial_id!r}: contact point {r.s_c.tolist()} is not a finite point "
            f"within the grid bounds"
        )
    grid = (N_CHANNELS,) + spec.dims
    electrodes = np.ravel_multi_index((CHANNEL_ELECTRODES,) + cells, grid)
    contact = np.ravel_multi_index((CHANNEL_CONTACT,) + tuple(cell_indices(s_c, spec).T), grid)
    return _with_context(records, VoxelInputs(e, contact, electrodes, grid))


def _stack_field(records: list[SampleRecord], name: str, shape: tuple[int, ...]) -> np.ndarray:
    arrays = [getattr(r, name) for r in records]
    for r, a in zip(records, arrays):
        if a.shape != shape:
            raise SchemaError(f"trial {r.trial_id!r}: {name} has shape {a.shape}, expected {shape}")
    return np.stack(arrays)


def featurize_flat(records: list[SampleRecord]) -> ArraySamples:
    """Concatenate (e, s_c) into flat FLAT_INPUT_WIDTH-dim model inputs."""
    inputs = np.stack([np.concatenate([r.e, r.s_c]) for r in records])
    return _with_context(records, inputs)


def _with_context(records: list[SampleRecord], inputs: np.ndarray | VoxelInputs) -> ArraySamples:
    return ArraySamples(
        inputs=inputs,
        f_3d=np.stack([r.f_3d for r in records]),
        s_n=np.stack([r.s_n for r in records]),
        r_wb=np.stack([r.r_wb for r in records]),
        source_tags=np.array([r.source_tag for r in records]),
    )
