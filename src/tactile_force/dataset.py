"""Sample sets, trial-level dataset splits, and file formats.

A SampleSet holds its samples as columns, one array per field. Building one
converts each column to its type and checks it as an array; only a set that
fails is read row by row, by the one statement of a sample's rules, to name
its first bad row. Samples are stored as JSON-lines, one sample per line,
read and written a block of lines at a time; a split manifest maps each of
train/val/test to a list of whole trial ids. Splitting never divides a trial
across splits, and only in-contact samples with nonzero force are retained
("force samples").
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, Count, DataIntegrityError, Items, LayoutCollisionError, Optional, OutOfBoundsError,
    Required, SchemaError, read_config,
)
from .files import atomic_open, open_input, write_text_atomic
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
# a split manifest: the samples file, the trial ids of each split and, if
# given, the force samples each split holds
MANIFEST_RECORD = {"samples_file": Required(""),
                   "splits": {name: Required(Items(("",))) for name in SPLIT_NAMES},
                   "seed": None,
                   "counts": Optional({name: Required(Count(0)) for name in SPLIT_NAMES}),
                   "n_filtered_out": None}

# a set's columns, in the order of a samples line's keys
COLUMNS = ("trial_id", "source_tag", "e", "s_c", "s_n", "f_3d", "r_wb", "in_contact", "step")
# the number columns: attribute, file key and the shape of one row
_ARRAY_FIELDS = (("e", "e", (N_ELECTRODES,)), ("s_c", "s_c", (3,)), ("s_n", "s_n", (3,)),
                 ("f_3d", "f_3d", (3,)), ("r_wb", "R_wb", (3, 3)))
# a samples line's keys: the file key of each column, and the value an absent
# optional key reads as
_FILE_KEYS = {"R_wb" if name == "r_wb" else name: name for name in COLUMNS}
_REQUIRED_KEYS = tuple(_FILE_KEYS)[:7]
_ABSENT = {"in_contact": True, "step": None}
# a step must fit a 64-bit integer
_STEP_LIMIT = 2**63
# the lines of a samples file read, checked or written at a time
_BLOCK_LINES = 512

# one sample of a set: its columns' values at one row, unchecked
SampleRow = namedtuple("SampleRow", COLUMNS)


class SampleError(SchemaError):
    """A set column that fails its check: the message of its first bad row, `row`."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _first(bad) -> int | None:
    """The first row whose entry of a bool array is true, or None."""
    i = int(np.argmax(bad)) if len(bad) else 0
    return i if len(bad) and bad[i] else None


def sample_error(row: SampleRow) -> str | None:
    """The message of the first rule a sample breaks, or None: the one
    statement of a sample's rules. `row` holds Python values, step None
    where it has none. A field that lacks its type or shape is named by its
    file key, and so is one holding a number that is not finite; r_wb may
    hold 9 values row-major, as in files."""
    if not isinstance(row.trial_id, str):
        return f"field 'trial_id' must be a string, got {row.trial_id!r}"
    if not isinstance(row.in_contact, bool):
        return f"field 'in_contact' must be true or false, got {row.in_contact!r}"
    trial = f"trial {row.trial_id!r}"
    if row.source_tag not in KNOWN_SOURCES:
        return f"{trial}: unknown source_tag {row.source_tag!r}"
    step = row.step
    if step is not None and (type(step) is not int or not 0 <= step < _STEP_LIMIT):
        rule = "below 2**63" if type(step) is int and step > 0 else "of at least 0"
        return f"{trial}: field 'step' must be an integer {rule}, got {step!r}"
    not_finite = None
    for name, key, shape in _ARRAY_FIELDS:
        try:
            array = np.asarray(getattr(row, name), dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # not numbers, ragged, too large
            return f"{trial}: field {key!r}: {exc}"
        if array.shape != shape and (name != "r_wb" or array.shape != (9,)):
            return f"{trial}: field {key!r} has shape {array.shape}, expected {shape}"
        if not_finite is None and not np.isfinite(array).all():
            not_finite = key
    return None if not_finite is None else (f"{trial}: field {not_finite!r} holds a number "
                                            "that is not finite")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Force samples as columns: tared electrode values plus contact and
    ground truth, one row per sample.

    trial_id and source_tag are strings; e is (n, 19), s_c, s_n and f_3d
    (n, 3), r_wb (n, 3, 3), all float64: the sensor-frame contact point and
    outward normal, the sensor-frame ground-truth force, and the rotation
    taking sensor-frame vectors to the world frame. in_contact is bool (all
    true if None), and step, for a planar sample only, is its row in its
    trial's episode file, -1 where a sample has none (step None is -1 for
    all; an array of any integer dtype holds -1, and a sequence None).

    Building a set converts each column to its type, r_wb from 9 values
    row-major too, as in files, and checks three rules as arrays: every
    source is known, every step at least -1, every number finite. A column
    that does not convert or breaks a rule is read row by row with
    `sample_error`, and the SampleError names the first bad row's trial and
    the field by its file key with that row's message. A set's slices,
    masks and joins are sets of checked rows, and are not checked again.
    """

    trial_id: np.ndarray
    source_tag: np.ndarray
    e: np.ndarray
    s_c: np.ndarray
    s_n: np.ndarray
    f_3d: np.ndarray
    r_wb: np.ndarray
    in_contact: np.ndarray | None = None
    step: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.trial_id)
        given = {}
        for name in COLUMNS:
            values = getattr(self, name)
            if values is None:  # in_contact all true, or no step
                values = np.full(n, True if name == "in_contact" else -1)
            elif len(values) != n:
                raise SchemaError(f"field {name!r} has {len(values)} rows for {n} trial ids")
            elif isinstance(values, np.ndarray) and values.dtype == object:
                values = values.tolist()  # read as the sequence of its values
            given[name] = values
        columns = {"trial_id": _typed(given["trial_id"], str),
                   "source_tag": _typed(given["source_tag"], str),
                   "in_contact": _typed(given["in_contact"], bool), "step": _steps(given["step"]),
                   **{name: _numbers(given[name], n, shape) for name, _, shape in _ARRAY_FIELDS}}
        if (any(column is None for column in columns.values())
                or not np.isin(columns["source_tag"], KNOWN_SOURCES).all()
                or (columns["step"] < -1).any()
                or not all(np.isfinite(columns[name]).all() for name, _, _ in _ARRAY_FIELDS)):
            # a column that does not convert or breaks a rule has a row that breaks one
            messages = map(sample_error, _rows(given))
            row, message = next((row, m) for row, m in enumerate(messages) if m is not None)
            raise SampleError(row, message)
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.trial_id)

    def __iter__(self):
        """The rows, as SampleRow views of the columns."""
        return map(tuple.__new__, repeat(SampleRow), zip(*(getattr(self, c) for c in COLUMNS)))

    def __getitem__(self, key):
        """The row at an integer; the set of the rows a slice, a bool mask or
        an index array selects."""
        if isinstance(key, (int, np.integer)):
            return SampleRow(*(getattr(self, c)[key] for c in COLUMNS))
        return self._of({c: getattr(self, c)[key] for c in COLUMNS})

    @classmethod
    def _of(cls, columns: dict) -> "SampleSet":
        """A set of columns of checked rows, not checked again."""
        samples = object.__new__(cls)
        for name, column in columns.items():
            object.__setattr__(samples, name, column)
        return samples

    @classmethod
    def concatenate(cls, sets) -> "SampleSet":
        """The rows of the sets, in order; there must be at least one."""
        return cls._of({c: np.concatenate([getattr(s, c) for s in sets]) for c in COLUMNS})

    def is_force(self) -> np.ndarray:
        """Which rows are force samples: in contact, with a nonzero force."""
        return self.in_contact & (np.einsum("ni,ni->n", self.f_3d, self.f_3d) > 0.0)


def _rows(given: dict):
    """The rows of the given columns as SampleRows of Python values; a step
    of -1 in an integer array is None."""
    lists = {name: values.tolist() if isinstance(values, np.ndarray) else values
             for name, values in given.items()}
    if isinstance(given["step"], np.ndarray) and given["step"].dtype.kind in "iu":
        lists["step"] = [None if v == -1 else v for v in lists["step"]]
    return map(SampleRow._make, zip(*lists.values()))


def _typed(values, kind: type):
    """A column of strings or of bools (`kind`), or None unless every value
    is one."""
    if isinstance(values, np.ndarray) and values.dtype.kind == np.dtype(kind).kind:
        return values if values.ndim == 1 else None
    if not all(issubclass(t, kind) for t in set(map(type, values))):
        return None
    column = np.array(values, dtype=kind)
    if column.tolist() != list(values):  # a numpy string drops a trailing NUL; Python's keep it
        column = np.array(values, dtype=object)
    return column


def _steps(values):
    """The step column as int64, or None: an array of any integer dtype,
    whose values must fit, or a sequence of integers and None, where a
    sample has no step."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        fits = values.ndim == 1 and (values < _STEP_LIMIT).all()
        return values.astype(np.int64) if fits else None
    # a sequence marks a sample without a step by None, never by -1
    if not set(map(type, values)) <= {int, type(None)} or -1 in values:
        return None
    try:
        return np.array([-1 if v is None else v for v in values], dtype=np.int64)
    except OverflowError:  # at or above 2**63, or far below 0
        return None


def _numbers(values, n: int, shape: tuple):
    """A float column of rows of `shape`, or None. r_wb rows may hold 9
    values row-major, and in a sequence rows of both forms may mix."""
    try:
        try:
            column = np.asarray(values, dtype=float)
        except ValueError:
            if shape != (3, 3):
                raise
            rows = (np.asarray(row, dtype=float) for row in values)  # ragged: rows of both forms
            column = np.array([row.reshape(9) if row.shape == shape else row for row in rows])
    except (TypeError, ValueError, OverflowError):
        return None
    if shape == (3, 3) and column.shape == (n, 9) or not n:
        column = column.reshape((n,) + shape)
    return column if column.shape == (n,) + shape else None


def load_json(path, what: str, read=lambda data: data, error=ConfigError):
    """`read` of a JSON file's content. Every error names the file as `what`:
    a file that cannot be opened or is not JSON is a ConfigError, and a
    ConfigError or SchemaError that `read` raises an `error`."""
    with open_input(path, what, ConfigError) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{what} {path}: not valid JSON: {exc}") from exc
    try:
        return read(data)
    except (ConfigError, SchemaError) as exc:
        raise error(f"{what} {path}: {exc}") from exc


def write_samples_jsonl(samples: SampleSet, path) -> None:
    """One line per sample, its keys in column order; a planar sample's
    line alone has a step."""
    with atomic_open(path) as fh:
        for start in range(0, len(samples), _BLOCK_LINES):
            block = samples[start : start + _BLOCK_LINES]
            for values in zip(*(column.tolist() for column in (
                    block.trial_id, block.source_tag, block.e, block.s_c, block.s_n, block.f_3d,
                    block.r_wb.reshape(-1, 9), block.in_contact, block.step))):
                line = dict(zip(_FILE_KEYS, values))
                if line["step"] < 0:
                    del line["step"]
                fh.write(json.dumps(line) + "\n")


def read_jsonl(path, what: str, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file; a
    file that cannot be opened is an `error` naming `what` and the file, and
    a line that is not a JSON object a SchemaError naming them and the line,
    as is a file that is not UTF-8 text."""
    with open_input(path, what, error, encoding="utf-8") as fh:
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


def read_samples_jsonl(path) -> SampleSet:
    """The samples of a samples file, read and checked a block of lines at
    a time. A file that cannot be opened is a DataIntegrityError naming it,
    and a malformed line a SchemaError naming the file and the line: one
    missing a field or holding a key no sample has, or one the set check
    rejects. As when lines were checked one at a time, the first bad line
    is named."""
    lines = read_jsonl(path, "samples file", DataIntegrityError)
    blocks = [_samples_block(path, lines)]
    while len(blocks[-1]) == _BLOCK_LINES:
        blocks.append(_samples_block(path, lines))
    return SampleSet.concatenate(blocks)


def _samples_block(path, lines: Iterator[tuple[int, dict]]) -> SampleSet:
    """The samples of the next block of lines. A line missing a field or
    holding an unknown key, or one that is not a JSON object, is raised
    once the lines before it, and the fields of a line with an unknown key,
    pass the set check."""
    columns, numbers, error = {name: [] for name in COLUMNS}, [], None
    try:
        for n, row in islice(lines, _BLOCK_LINES):
            missing = next((key for key in _REQUIRED_KEYS if key not in row), None)
            if missing is not None:
                error = SchemaError(f"samples file {path} line {n}: sample record missing field "
                                    f"{missing!r}")
                break
            numbers.append(n)
            for key, name in _FILE_KEYS.items():
                columns[name].append(row.get(key, _ABSENT.get(name)))
            unknown = row.keys() - _FILE_KEYS.keys()
            if unknown:
                error = SchemaError(f"samples file {path} line {n}: trial {row['trial_id']!r}: "
                                    f"unknown key {min(unknown)!r}")
                break
    except SchemaError as exc:
        error = exc
    try:
        samples = SampleSet(**columns)
    except SampleError as exc:
        raise SchemaError(f"samples file {path} line {numbers[exc.row]}: {exc}") from exc
    if error is not None:
        raise error
    return samples


def check_split(train_frac: float, val_frac: float) -> None:
    """Raise a ConfigError unless the train and val trial fractions leave
    some trials for test: they must sum to at most 1."""
    if train_frac + val_frac > 1:
        raise ConfigError(f"fields 'split.train' and 'split.val' sum to {train_frac + val_frac}, "
                          f"above 1")


@dataclass
class DatasetSplits:
    train: SampleSet
    val: SampleSet
    test: SampleSet
    trial_assignment: dict[str, list[str]] = field(default_factory=dict)
    n_filtered_out: int = 0

    def split(self, name: str) -> SampleSet:
        return getattr(self, name)


def _by_split(samples: SampleSet, assignment: dict[str, list[str]]) -> dict[str, SampleSet]:
    """The samples of each split's trials, looked up once per trial."""
    split_of = {tid: i for i, name in enumerate(SPLIT_NAMES) for tid in assignment[name]}
    trials, inverse = np.unique(samples.trial_id, return_inverse=True)
    code = np.array([split_of.get(tid, -1) for tid in trials.tolist()], dtype=int)[inverse]
    return {name: samples[code == i] for i, name in enumerate(SPLIT_NAMES)}


def make_dataset(
    samples: SampleSet,
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
    force = samples.is_force()
    force = samples if force.all() else samples[force]
    trials, first, inverse = np.unique(force.trial_id, return_index=True, return_inverse=True)
    sources = force.source_tag[first]
    mixed = _first(force.source_tag != sources[inverse])
    if mixed is not None:
        raise DataIntegrityError(f"trial {force.trial_id[mixed].item()!r} mixes sources "
                                 f"{sources[inverse[mixed]]} and {force.source_tag[mixed]}")
    by_source: dict[str, list[str]] = {}
    for tid, source in zip(trials.tolist(), sources.tolist()):
        by_source.setdefault(source, []).append(tid)

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
    return DatasetSplits(
        **_by_split(force, assignment),
        trial_assignment=assignment,
        n_filtered_out=len(samples) - len(force),
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


def load_manifest_splits(manifest_path) -> tuple[dict[str, SampleSet], dict]:
    """Load the samples file a manifest references and group its force samples by split.

    Errors name the file: a missing or non-JSON manifest is a ConfigError, one
    not a MANIFEST_RECORD a SchemaError naming the dotted key, and a missing
    samples file, a trial id in more than one split or a split whose force
    samples are not as many as the manifest's counts say a DataIntegrityError.
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
    samples = read_samples_jsonl(samples_path)
    splits = _by_split(samples[samples.is_force()], manifest["splits"])
    counts = manifest["counts"]
    for name, split in splits.items():
        if counts is not None and len(split) != counts[name]:
            raise DataIntegrityError(
                f"manifest {manifest_path}: split {name!r} has {len(split)} force samples in "
                f"{samples_path}, but the manifest counts {counts[name]}"
            )
    return splits, manifest


def filter_by_sources(samples: SampleSet, sources: set[str]) -> SampleSet:
    return samples[np.isin(samples.source_tag, sorted(sources))]


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


def featurizer(record: dict | None) -> Callable[[SampleSet], ArraySamples]:
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
    return lambda samples: featurize_voxel(samples, layout, spec)


def featurize_voxel(samples: SampleSet, layout: ElectrodeLayout, spec: GridSpec) -> ArraySamples:
    """Encode samples into voxel-grid model inputs plus loss context arrays.

    Each sample's inputs are its 19 electrode values, in layout order, and
    its contact cell; their dense array equals stacking `voxel.encode` of
    each sample.
    A sample whose contact point lies outside the grid is an error naming
    its trial; a set's numbers are all finite.
    """
    cells = electrode_cells(layout, spec)
    bad = _first(outside(samples.s_c, spec))
    if bad is not None:
        raise OutOfBoundsError(f"trial {samples.trial_id[bad].item()!r}: contact point "
                               f"{samples.s_c[bad].tolist()} is not within the grid bounds")
    grid = (N_CHANNELS,) + spec.dims
    electrodes = np.ravel_multi_index((CHANNEL_ELECTRODES,) + cells, grid)
    contact = np.ravel_multi_index((CHANNEL_CONTACT,) + tuple(cell_indices(samples.s_c, spec).T),
                                   grid)
    return _with_context(samples, VoxelInputs(samples.e, contact, electrodes, grid))


def featurize_flat(samples: SampleSet) -> ArraySamples:
    """Concatenate (e, s_c) into flat model inputs, network.FLAT_INPUT_WIDTH
    values wide."""
    return _with_context(samples, np.concatenate([samples.e, samples.s_c], axis=1))


def _with_context(samples: SampleSet, inputs: np.ndarray | VoxelInputs) -> ArraySamples:
    return ArraySamples(inputs=inputs, f_3d=samples.f_3d, s_n=samples.s_n, r_wb=samples.r_wb,
                        source_tags=samples.source_tag)
