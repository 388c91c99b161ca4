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
    ConfigError, DataIntegrityError, Items, LayoutCollisionError, OutOfBoundsError, Required,
    SchemaError, read_config,
)
from .files import atomic_open, write_text_atomic
from .net.losses import KNOWN_SOURCES
from .net.training import ArraySamples
from .sensor import N_ELECTRODES, ElectrodeLayout, SurfaceGeometry
from .voxel import (
    CHANNEL_CONTACT, CHANNEL_ELECTRODES, N_CHANNELS, GridSpec, VoxelInputs, cell_indices,
    electrode_cells, outside,
)

SPLIT_NAMES = ("train", "val", "test")
DEFAULT_TRAIN_FRAC = 0.8
DEFAULT_VAL_FRAC = 0.1
# a split manifest: the samples file and the trial ids of each split
MANIFEST_RECORD = {"samples_file": Required(""),
                   "splits": {name: Required(Items(("",))) for name in SPLIT_NAMES},
                   "seed": None, "counts": None, "n_filtered_out": None}

# a record's array fields: attribute, file key and shape
_ARRAY_FIELDS = (("e", "e", (N_ELECTRODES,)), ("s_c", "s_c", (3,)), ("s_n", "s_n", (3,)),
                 ("f_3d", "f_3d", (3,)), ("r_wb", "R_wb", (3, 3)))


@dataclass(frozen=True)
class SampleRecord:
    """One force sample: tared electrode values plus contact and ground truth.

    s_c / s_n are the sensor-frame contact point and outward normal, f_3d the
    sensor-frame ground-truth force, r_wb the rotation taking sensor-frame
    vectors to the world frame. step, for a planar sample only, is its row
    in its trial's episode file.
    """

    trial_id: str
    source_tag: str
    e: np.ndarray
    s_c: np.ndarray
    s_n: np.ndarray
    f_3d: np.ndarray
    r_wb: np.ndarray
    in_contact: bool = True
    step: int | None = None

    def __post_init__(self):
        """A SchemaError names a field, by its file key, that lacks its type
        or shape or holds a number that is not finite, or a source not known;
        r_wb may be 9 values row-major, as in files."""
        if not isinstance(self.trial_id, str):
            raise SchemaError(f"field 'trial_id' must be a string, got {self.trial_id!r}")
        if not isinstance(self.in_contact, bool):
            raise SchemaError(f"field 'in_contact' must be true or false, got {self.in_contact!r}")
        if self.source_tag not in KNOWN_SOURCES:
            raise SchemaError(f"trial {self.trial_id!r}: unknown source_tag {self.source_tag!r}")
        if self.step is not None and (type(self.step) is not int or self.step < 0):
            raise SchemaError(f"trial {self.trial_id!r}: field 'step' must be an integer of at "
                              f"least 0, got {self.step!r}")
        for name, key, shape in _ARRAY_FIELDS:
            try:
                array = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:  # not numbers, ragged, too large
                raise SchemaError(f"trial {self.trial_id!r}: field {key!r}: {exc}") from exc
            if array.shape != shape and (name != "r_wb" or array.shape != (9,)):
                raise SchemaError(f"trial {self.trial_id!r}: field {key!r} has shape "
                                  f"{array.shape}, expected {shape}")
            object.__setattr__(self, name, array.reshape(shape) if name == "r_wb" else array)
        # one check over every number; the field is looked for only on failure
        if not np.isfinite(np.concatenate((self.e, self.s_c, self.s_n, self.f_3d, self.r_wb),
                                          axis=None)).all():
            key = next(key for name, key, _ in _ARRAY_FIELDS
                       if not np.isfinite(getattr(self, name)).all())
            raise SchemaError(f"trial {self.trial_id!r}: field {key!r} holds a number that is not "
                              "finite")

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
        if self.step is not None:
            d["step"] = self.step
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SampleRecord":
        """A samples-file record; a missing or unknown field, or one of the
        wrong type or shape or not finite, is a SchemaError."""
        d = dict(d)
        try:
            record = cls(trial_id=d.pop("trial_id"), source_tag=d.pop("source_tag"), e=d.pop("e"),
                         s_c=d.pop("s_c"), s_n=d.pop("s_n"), f_3d=d.pop("f_3d"), r_wb=d.pop("R_wb"),
                         in_contact=d.pop("in_contact", True), step=d.pop("step", None))
        except KeyError as exc:
            raise SchemaError(f"sample record missing field {exc.args[0]!r}") from exc
        if d:
            raise SchemaError(f"trial {record.trial_id!r}: unknown key {min(d)!r}")
        return record


def load_json(path, what: str, read=lambda data: data, error=ConfigError):
    """`read` of a JSON file's content. Every error names the file as `what`:
    a missing or non-JSON file is a ConfigError, and a ConfigError or
    SchemaError that `read` raises an `error`."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} {path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path}: not valid JSON: {exc}") from exc
    try:
        return read(data)
    except (ConfigError, SchemaError) as exc:
        raise error(f"{what} {path}: {exc}") from exc


def write_samples_jsonl(records, path) -> None:
    with atomic_open(path) as fh:
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


def is_force_sample(record: SampleRecord) -> bool:
    return record.in_contact and float(record.f_3d @ record.f_3d) > 0.0


def check_split(train_frac: float, val_frac: float) -> None:
    """Raise a ConfigError unless the train and val trial fractions leave
    some trials for test: they must sum to at most 1."""
    if train_frac + val_frac > 1:
        raise ConfigError(f"fields 'split.train' and 'split.val' sum to {train_frac + val_frac}, "
                          f"above 1")


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
    to test. Deterministic for a fixed seed. Fractions summing to more than
    1 are a ConfigError (check_split).
    """
    check_split(train_frac, val_frac)
    force_samples = [r for r in records if is_force_sample(r)]
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
    write_text_atomic(path, json.dumps(manifest, indent=2))


def load_manifest_splits(manifest_path) -> tuple[dict[str, list[SampleRecord]], dict]:
    """Load the samples file a manifest references and group its force samples by split.

    Errors name the file: a missing or non-JSON manifest is a ConfigError, one
    not a MANIFEST_RECORD a SchemaError naming the dotted key, and a missing
    samples file or a trial id in more than one split a DataIntegrityError.
    """
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path, "manifest", lambda m: read_config(m, MANIFEST_RECORD),
                         SchemaError)
    seen: dict[str, str] = {}
    for name, ids in manifest["splits"].items():
        for tid in ids:
            if tid in seen:
                raise DataIntegrityError(f"trial {tid!r} assigned to both {seen[tid]} and {name}")
            seen[tid] = name
    samples_path = manifest_path.parent / manifest["samples_file"]
    try:
        records = read_samples_jsonl(samples_path)
    except FileNotFoundError as exc:
        raise DataIntegrityError(
            f"manifest {manifest_path}: samples file not found: {samples_path}"
        ) from exc
    splits = {name: [] for name in SPLIT_NAMES}
    for r in records:
        name = seen.get(r.trial_id)
        if name is not None and is_force_sample(r):
            splits[name].append(r)
    return splits, manifest


def filter_by_sources(records: list[SampleRecord], sources: set[str]) -> list[SampleRecord]:
    return [r for r in records if r.source_tag in sources]


def featurization_record(
    layout: ElectrodeLayout,
    geometry: SurfaceGeometry,
    grid: dict | None = None,
) -> dict:
    """The JSON record of how a voxel net's inputs are built: the resolved
    grid (the `grid` config if given, else the grid covering `geometry`)
    and the electrode layout whose cells the values fill. Geometry reaches
    the inputs only through those two, so it is not stored. A malformed
    grid is a ConfigError; whether the layout fits it is featurizer's check.
    """
    try:
        spec = GridSpec.from_config(grid) if grid is not None else GridSpec.for_geometry(geometry)
    except SchemaError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    return {"grid": spec.to_config(), "layout": layout.to_dict()}


def featurizer(record: dict | None) -> Callable[[list[SampleRecord]], ArraySamples]:
    """The featurize call of a featurization record, whose keys
    featurization_record wrote or load_checkpoint has read: featurize_voxel
    on its grid and layout, or for an MLP, which has none, featurize_flat.
    A grid that puts an electrode out of bounds or two in one cell is a
    ConfigError."""
    if record is None:
        return featurize_flat
    layout = ElectrodeLayout.from_dict(record["layout"], "featurization.layout")
    spec = GridSpec.from_config(record["grid"], "featurization.grid")
    try:
        electrode_cells(layout, spec)
    except (OutOfBoundsError, LayoutCollisionError) as exc:
        raise ConfigError(f"grid does not fit the electrode layout: {exc}") from exc
    return lambda records: featurize_voxel(records, layout, spec)


def featurize_voxel(
    records: list[SampleRecord], layout: ElectrodeLayout, spec: GridSpec
) -> ArraySamples:
    """Encode records into voxel-grid model inputs plus loss context arrays.

    Each sample's inputs are its 19 electrode values, in layout order, and
    its contact cell; their dense array equals stacking `voxel.encode` of
    each record.
    A record whose contact point lies outside the grid is an error naming
    its trial; a record's numbers are all finite.
    """
    cells = electrode_cells(layout, spec)
    e = np.stack([r.e for r in records])
    s_c = np.stack([r.s_c for r in records])
    bad = np.flatnonzero(outside(s_c, spec))
    if bad.size:
        r = records[bad[0]]
        raise OutOfBoundsError(
            f"trial {r.trial_id!r}: contact point {r.s_c.tolist()} is not within the grid bounds"
        )
    grid = (N_CHANNELS,) + spec.dims
    electrodes = np.ravel_multi_index((CHANNEL_ELECTRODES,) + cells, grid)
    contact = np.ravel_multi_index((CHANNEL_CONTACT,) + tuple(cell_indices(s_c, spec).T), grid)
    return _with_context(records, VoxelInputs(e, contact, electrodes, grid))


def featurize_flat(records: list[SampleRecord]) -> ArraySamples:
    """Concatenate (e, s_c) into flat model inputs, network.FLAT_INPUT_WIDTH
    values wide."""
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
