"""The sample set: its column check against the per-sample record, its rows,
and its samples file."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sample_oracles import SampleRecord, first_bad_row, sample_set
from tactile_force.dataset import (
    COLUMNS, SampleError, SampleSet, read_samples_jsonl, write_samples_jsonl,
)
from tactile_force.errors import SchemaError
from tactile_force.net.losses import KNOWN_SOURCES

# the number fields: attribute, file key and the shape of one row
NUMBER_FIELDS = {"e": (19,), "s_c": (3,), "s_n": (3,), "f_3d": (3,), "r_wb": (3, 3)}
numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**6, 10**6))


def number_rows(shape):
    """A row of numbers of `shape` as nested lists; r_wb also flat, as files hold it."""
    flat = st.lists(numbers, min_size=math.prod(shape), max_size=math.prod(shape))
    nested = flat.map(lambda v: np.reshape(v, shape).tolist())
    return st.one_of(flat, nested) if shape == (3, 3) else nested


@st.composite
def rows(draw, min_size=1):
    """Valid rows: dicts of one sample's fields as Python values."""
    return [dict(trial_id=draw(st.text(max_size=6)), source_tag=draw(st.sampled_from(KNOWN_SOURCES)),
                 in_contact=draw(st.booleans()),
                 step=draw(st.one_of(st.none(), st.integers(0, 2**63 - 1))),
                 **{name: draw(number_rows(shape)) for name, shape in NUMBER_FIELDS.items()})
            for _ in range(draw(st.integers(min_size, 5)))]


def malformed_numbers(draw, value, shape):
    """`value` with one number not finite or not a number, or of another shape."""
    try:
        flat = np.ravel(np.asarray(value, dtype=float)).tolist()
    except (TypeError, ValueError, OverflowError):  # a value already malformed
        flat = [0.0] * math.prod(shape)
    kind = draw(st.sampled_from(["not_finite", "not_a_number", "shape", "row"]))
    if kind == "row":
        return draw(st.sampled_from([None, "x", {}, 1.5]))
    if kind == "shape":
        size = draw(st.integers(0, 25).filter(lambda k: k != math.prod(shape)))
        return draw(st.lists(numbers, min_size=size, max_size=size))
    flat[draw(st.integers(0, len(flat) - 1))] = draw(
        st.sampled_from([math.nan, math.inf, -math.inf, None]) if kind == "not_finite"
        else st.sampled_from(["x", {}, [1.0, 2.0], 10**400]))
    return flat


MALFORMED = {
    "trial_id": st.one_of(st.integers(), st.none(), st.floats(), st.booleans(),
                          st.lists(st.text(max_size=2), max_size=2)),
    "source_tag": st.one_of(st.text(max_size=10).filter(lambda t: t not in KNOWN_SOURCES),
                            st.integers(), st.none()),
    "in_contact": st.one_of(st.integers(), st.none(), st.floats(), st.text(max_size=4)),
    "step": st.one_of(st.integers(max_value=-1), st.booleans(), st.floats(),
                      st.text(max_size=2)),
}


def columns_of(rows, as_arrays: bool) -> dict:
    """The set arguments of rows: lists of their values, or for a number
    column that converts, the float array the generators pass."""
    columns = {name: [row[name] for row in rows] for name in COLUMNS}
    if as_arrays:
        for name, shape in NUMBER_FIELDS.items():
            try:
                array = np.array(columns[name], dtype=float)
            except (TypeError, ValueError, OverflowError):
                continue
            if array.shape[1:] == shape or name == "r_wb" and array.shape[1:] == (9,):
                columns[name] = array
    return columns


class TestSetCheck:
    @settings(max_examples=150, deadline=None)
    @given(rows(), st.data(), st.booleans())
    def test_the_first_bad_row_raises_the_records_message(self, good, data, as_arrays):
        """One to three values made malformed, at random rows and fields:
        the set raises the message the per-sample record raises on the
        first row it rejects, and names that row; its number columns may be
        lists of rows or float arrays."""
        bad = [dict(row) for row in good]
        for _ in range(data.draw(st.integers(1, 3))):
            row = bad[data.draw(st.integers(0, len(bad) - 1))]
            name = data.draw(st.sampled_from(COLUMNS))
            row[name] = (malformed_numbers(data.draw, row[name], NUMBER_FIELDS[name])
                         if name in NUMBER_FIELDS else data.draw(MALFORMED[name]))
        expected = first_bad_row(bad)
        assert expected is not None
        with pytest.raises(SampleError) as info:
            SampleSet(**columns_of(bad, as_arrays))
        assert (info.value.row, str(info.value)) == expected

    def test_every_pair_of_damages_raises_the_records_message(self):
        """Two damages from a fixed list, at every order of rows and fields:
        each check's place in the order, and the finite check's reading of
        the rows before a later bad one in the same column, decide the
        message as the record's field order does."""
        damages = {"trial_id": ("trial_id", 5), "in_contact": ("in_contact", "yes"),
                   "source_tag": ("source_tag", "rigid-ft"), "step": ("step", -3),
                   "e_shape": ("e", [0.5] * 18), "e_nan": ("e", [math.nan] + [0.5] * 18),
                   "e_text": ("e", ["x"] + [0.5] * 18), "s_c_inf": ("s_c", [0.0, math.inf, 0.0]),
                   "R_wb_short": ("r_wb", [1.0] * 8), "f_3d_none": ("f_3d", None)}
        good = [dict(trial_id=f"t{i}", source_tag="rigid_ft", e=[0.5] * 19, s_c=[0.0] * 3,
                     s_n=[0.0, 0.0, 1.0], f_3d=[1.0, 0.0, 0.0], r_wb=[1.0] * 9,
                     in_contact=True, step=None) for i in range(3)]
        for first, second in itertools.product(damages.values(), repeat=2):
            for at in [(1, 1), (1, 2), (2, 1)]:
                bad = [dict(row) for row in good]
                for (name, value), row in zip((first, second), at):
                    bad[row][name] = value
                expected = first_bad_row(bad)
                for as_arrays in (False, True):
                    with pytest.raises(SampleError) as info:
                        SampleSet(**columns_of(bad, as_arrays))
                    assert (info.value.row, str(info.value)) == expected, (first, second, at)

    @settings(max_examples=40, deadline=None)
    @given(rows(min_size=0), st.booleans())
    def test_valid_rows_give_the_records_columns(self, good, as_arrays):
        samples = SampleSet(**columns_of(good, as_arrays))
        records = [SampleRecord(**row) for row in good]
        assert len(samples) == len(records)
        assert samples.trial_id.tolist() == [r.trial_id for r in records]
        assert samples.source_tag.tolist() == [r.source_tag for r in records]
        assert samples.in_contact.tolist() == [r.in_contact for r in records]
        assert samples.step.tolist() == [-1 if r.step is None else r.step for r in records]
        for name, shape in NUMBER_FIELDS.items():
            column = getattr(samples, name)
            assert column.dtype == float and column.shape == (len(records),) + shape
            np.testing.assert_array_equal(
                column, np.array([getattr(r, name) for r in records]).reshape(column.shape))

    def test_an_array_step_of_minus_one_has_none_and_below_it_is_rejected(self):
        row = dict(trial_id="t", source_tag="rigid_ft", e=[0.0] * 19, s_c=[0.0] * 3,
                   s_n=[0.0, 0.0, 1.0], f_3d=[1.0] * 3, r_wb=np.eye(3).tolist())
        base = sample_set([row, row])
        columns = {name: getattr(base, name) for name in COLUMNS if name != "step"}
        assert SampleSet(**columns, step=np.array([-1, 4])).step.tolist() == [-1, 4]
        with pytest.raises(SampleError, match="field 'step' must be an integer of at least 0, "
                                              "got -2") as info:
            SampleSet(**columns, step=np.array([3, -2]))
        assert info.value.row == 1
        with pytest.raises(SampleError, match="field 'step' must be an integer below 2\\*\\*63"):
            sample_set([{**row, "step": 2**63}])

    def test_columns_of_other_lengths_are_rejected(self):
        with pytest.raises(SchemaError, match="field 'e' has 1 rows for 2 trial ids"):
            SampleSet(trial_id=["a", "b"], source_tag=["rigid_ft"] * 2, e=np.zeros((1, 19)),
                      s_c=np.zeros((2, 3)), s_n=np.zeros((2, 3)), f_3d=np.zeros((2, 3)),
                      r_wb=np.zeros((2, 3, 3)))


def make_rows(n: int) -> list[dict]:
    rng = np.random.default_rng(n)
    return [dict(trial_id=f"t{i // 2}", source_tag=KNOWN_SOURCES[i % 3], e=rng.normal(size=19),
                 s_c=rng.normal(size=3), s_n=rng.normal(size=3),
                 f_3d=rng.normal(size=3) * (i % 4 != 1), r_wb=rng.normal(size=(3, 3)),
                 in_contact=i % 5 != 3, step=i if i % 3 == 2 else None)
            for i in range(n)]


class TestRows:
    def test_rows_slices_masks_and_joins(self):
        rows = make_rows(7)
        samples = sample_set(rows)
        assert len(samples) == 7
        for row, view in zip(rows, samples):
            assert view.trial_id == row["trial_id"] and view.source_tag == row["source_tag"]
            np.testing.assert_array_equal(view.e, row["e"])
            np.testing.assert_array_equal(view.r_wb, row["r_wb"])
            assert view.step == (-1 if row["step"] is None else row["step"])
        assert samples[-1].trial_id == "t3"
        picked = samples[np.array([5, 0])]
        assert isinstance(picked, SampleSet) and picked.trial_id.tolist() == ["t2", "t0"]
        assert samples[1:3].s_c.tolist() == samples.s_c[1:3].tolist()
        joined = SampleSet.concatenate([samples[:2], samples[2:]])
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(joined, name), getattr(samples, name))

    def test_force_samples_are_in_contact_with_a_nonzero_force(self):
        rows = make_rows(20)
        expected = [r["in_contact"] and bool(np.any(r["f_3d"] != 0)) for r in rows]
        assert sample_set(rows).is_force().tolist() == expected
        assert 0 < sum(expected) < 20


class TestSamplesFile:
    @settings(max_examples=50, deadline=None)
    @given(rows(min_size=0))
    def test_written_read_and_written_again_is_the_same(self, tmp_path_factory, good):
        """A set written and read back has the same columns, and writing
        it again gives the same bytes."""
        path = tmp_path_factory.mktemp("samples") / "samples.jsonl"
        samples = sample_set(good)
        write_samples_jsonl(samples, path)
        first = path.read_bytes()
        read = read_samples_jsonl(path)
        for name in COLUMNS:
            assert getattr(read, name).tolist() == getattr(samples, name).tolist(), name
        write_samples_jsonl(read, path)
        assert path.read_bytes() == first

    @settings(max_examples=80, deadline=None)
    @given(rows(), st.data())
    def test_the_first_bad_line_is_named_as_the_record_names_it(self, tmp_path_factory, good,
                                                                data):
        """Lines with a malformed value, a missing field or an unknown key:
        the reader names the first line the per-sample record rejects, with
        its message."""
        lines = [{**{k: v for k, v in row.items() if k != "r_wb"}, "R_wb": row["r_wb"]}
                 for row in good]
        for line in lines:
            if line["step"] is None:
                del line["step"]
        for _ in range(data.draw(st.integers(1, 3))):
            line = lines[data.draw(st.integers(0, len(lines) - 1))]
            damage = data.draw(st.sampled_from(["missing", "unknown", "in_contact", "e"]))
            if damage == "missing":
                line.pop(data.draw(st.sampled_from(sorted(line))))
            elif damage == "unknown":
                line[data.draw(st.sampled_from(["R_bw", "motion", "zz"]))] = 0
            elif damage == "in_contact":
                line["in_contact"] = data.draw(MALFORMED["in_contact"])
            else:
                line["e"] = malformed_numbers(data.draw, line.get("e"), (19,))
        path = tmp_path_factory.mktemp("samples") / "samples.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        expected = first_bad_row([json.loads(json.dumps(line)) for line in lines],
                                 SampleRecord.from_dict)
        if expected is None:  # a damage that left every line valid
            read_samples_jsonl(path)
            return
        with pytest.raises(SchemaError) as info:
            read_samples_jsonl(path)
        assert str(info.value) == f"samples file {path} line {expected[0] + 1}: {expected[1]}"
