"""Samples one record at a time: the per-sample record whose checks, run
on every sample as it was built, held the rules a samples line must keep,
kept as the test oracle of dataset.SampleSet's column check.

A SampleSet checks each column once; on a failure it must raise the
message this record raises for the first bad row. `sample_set` builds a
set from rows given as dicts of a sample's Python values, the form a
samples line has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tactile_force.dataset import COLUMNS, SampleSet
from tactile_force.errors import SchemaError
from tactile_force.net.losses import KNOWN_SOURCES
from tactile_force.sensor import N_ELECTRODES

# a record's array fields: attribute, file key and shape
_ARRAY_FIELDS = (("e", "e", (N_ELECTRODES,)), ("s_c", "s_c", (3,)), ("s_n", "s_n", (3,)),
                 ("f_3d", "f_3d", (3,)), ("r_wb", "R_wb", (3, 3)))
# the fields a row may leave out
ROW_DEFAULTS = {"in_contact": True, "step": None}


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


def first_bad_row(rows, read=lambda row: SampleRecord(**{**ROW_DEFAULTS, **row})
                  ) -> tuple[int, str] | None:
    """The first row that `read`, by default the record, rejects, and its
    message; None if it rejects none."""
    for i, row in enumerate(rows):
        try:
            read(row)
        except SchemaError as exc:
            return i, str(exc)
    return None


def sample_set(rows) -> SampleSet:
    """The set of the rows, each a dict of one sample's fields."""
    rows = [{**ROW_DEFAULTS, **row} for row in rows]
    return SampleSet(**{name: [row[name] for row in rows] for name in COLUMNS})
