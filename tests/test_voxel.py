"""Tests for voxel binning and the two-channel grid encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_oracles import cell_center
from sample_oracles import sample_set
from tactile_force.dataset import featurize_voxel
from tactile_force.errors import LayoutCollisionError, OutOfBoundsError, SchemaError
from tactile_force.sensor import ElectrodeLayout, SurfaceGeometry, default_electrode_layout
from tactile_force.voxel import (
    CHANNEL_CONTACT,
    CHANNEL_ELECTRODES,
    DEFAULT_DIMS,
    GridSpec,
    VoxelInputs,
    encode,
    voxel_index,
)


@pytest.fixture
def geometry():
    return SurfaceGeometry()


@pytest.fixture
def layout(geometry):
    return default_electrode_layout(geometry)


@pytest.fixture
def spec(geometry):
    return GridSpec.for_geometry(geometry)


class TestVoxelIndex:
    def test_min_corner(self, spec):
        assert voxel_index(spec.bounds_min, spec) == (0, 0, 0)

    def test_max_corner_clamped_to_last_cell(self, spec):
        assert voxel_index(spec.bounds_max, spec) == tuple(d - 1 for d in DEFAULT_DIMS)

    def test_cell_center_roundtrip(self, spec):
        nx, ny, nz = DEFAULT_DIMS
        for idx in [(0, 0, 0), (nx // 2, ny // 4, nz // 2), (nx - 1, ny - 1, nz - 1),
                    (1, ny - 2, nz - 2)]:
            assert voxel_index(cell_center(spec, idx), spec) == idx

    def test_out_of_bounds_rejected(self, spec):
        with pytest.raises(OutOfBoundsError):
            voxel_index(spec.bounds_max + 1e-6, spec)
        with pytest.raises(OutOfBoundsError):
            voxel_index(spec.bounds_min - 1e-6, spec)

    def test_default_dims(self, spec):
        assert spec.dims == DEFAULT_DIMS

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, spec, bad):
        point = cell_center(spec, (1, 1, 1))
        point[1] = bad
        with pytest.raises(OutOfBoundsError):
            voxel_index(point, spec)


class TestEncode:
    def test_zero_input_no_contact(self, layout, spec):
        grid = encode(np.zeros(19), None, layout, spec)
        assert grid.shape == (2, *DEFAULT_DIMS)
        assert np.all(grid == 0.0)

    def test_single_electrode_single_cell(self, layout, spec):
        e = np.zeros(19)
        e[3] = 1.0
        grid = encode(e, None, layout, spec)
        channel = grid[CHANNEL_ELECTRODES]
        assert np.count_nonzero(channel) == 1
        assert channel[voxel_index(layout.positions[3], spec)] == 1.0

    def test_mass_conservation_oracle(self, layout, spec):
        rng = np.random.default_rng(19)
        for _ in range(20):
            e = rng.normal(size=19)
            s_c = layout.positions[rng.integers(0, 19)]
            grid = encode(e, s_c, layout, spec)
            np.testing.assert_allclose(grid[CHANNEL_ELECTRODES].sum(), e.sum(), atol=1e-12)
            np.testing.assert_allclose(grid[CHANNEL_CONTACT].sum(), 1.0)

    def test_contact_channel_one_hot(self, layout, spec):
        grid = encode(np.zeros(19), np.array([0.004, 0.001, 0.01]), layout, spec)
        contact = grid[CHANNEL_CONTACT]
        assert np.count_nonzero(contact) == 1
        assert contact.max() == 1.0

    def test_linearity_in_electrode_values(self, layout, spec):
        rng = np.random.default_rng(29)
        e1, e2 = rng.normal(size=19), rng.normal(size=19)
        a, b = 1.7, -0.4
        s_c = layout.positions[5]
        combined = encode(a * e1 + b * e2, s_c, layout, spec)
        separate = a * encode(e1, s_c, layout, spec) + b * encode(e2, s_c, layout, spec)
        np.testing.assert_allclose(
            combined[CHANNEL_ELECTRODES], separate[CHANNEL_ELECTRODES], atol=1e-12
        )

    def test_permutation_invariance(self, layout, spec):
        rng = np.random.default_rng(37)
        e = rng.normal(size=19)
        perm = rng.permutation(19)
        permuted_layout = ElectrodeLayout(
            positions=layout.positions[perm], normals=layout.normals[perm]
        )
        grid_a = encode(e, None, layout, spec)
        grid_b = encode(e[np.argsort(perm)], None, permuted_layout, spec)
        # permuting electrodes and layout together leaves the grid unchanged
        grid_c = encode(e[perm], None, permuted_layout, spec)
        np.testing.assert_array_equal(grid_a, grid_c)

    def test_at_most_19_nonzero_cells(self, layout, spec):
        rng = np.random.default_rng(41)
        grid = encode(rng.normal(size=19), None, layout, spec)
        assert np.count_nonzero(grid[CHANNEL_ELECTRODES]) <= 19

    def test_unique_voxel_per_electrode_under_default_layout(self, layout, spec):
        indices = {voxel_index(p, spec) for p in layout.positions}
        assert len(indices) == 19

    def test_electrode_outside_bounds_named(self, layout):
        tiny = GridSpec(
            dims=(15, 15, 7),
            bounds_min=np.array([-0.001, -0.001, 0.0]),
            bounds_max=np.array([0.001, 0.001, 0.001]),
        )
        with pytest.raises(OutOfBoundsError, match="electrode"):
            encode(np.zeros(19), None, layout, tiny)

    def test_collision_detected(self, layout, geometry):
        coarse = GridSpec(
            dims=(2, 2, 2),
            bounds_min=np.array([-0.01, -0.01, -0.005]),
            bounds_max=np.array([0.01, 0.01, 0.025]),
        )
        with pytest.raises(LayoutCollisionError):
            encode(np.zeros(19), None, layout, coarse)

    def test_wrong_electrode_count(self, layout, spec):
        with pytest.raises(SchemaError):
            encode(np.zeros(18), None, layout, spec)


class TestGridSpec:
    def test_config_roundtrip(self, spec):
        loaded = GridSpec.from_config(spec.to_config())
        assert loaded.dims == spec.dims
        np.testing.assert_allclose(loaded.bounds_min, spec.bounds_min)
        np.testing.assert_allclose(loaded.bounds_max, spec.bounds_max)

    def test_bounds_cover_geometry_with_margin(self, geometry, spec):
        lo, hi = geometry.tight_bounds()
        assert np.all(spec.bounds_min < lo)
        assert np.all(spec.bounds_max > hi)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(SchemaError):
            GridSpec(
                dims=(15, 15, 7),
                bounds_min=np.array([0.0, 0.0, 0.0]),
                bounds_max=np.array([1.0, -1.0, 1.0]),
            )


def record(trial_id, e, s_c):
    return dict(trial_id=trial_id, source_tag="rigid_ft", e=e, s_c=s_c, s_n=[0.0, 0.0, 1.0],
                f_3d=[0.0, 0.0, 1.0], r_wb=np.eye(3))


class TestFeaturizeVoxel:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           dims=st.sampled_from([(15, 15, 7), (13, 13, 9)]))
    def test_equals_stacked_encode(self, seed, n, dims):
        geometry = SurfaceGeometry()
        layout = default_electrode_layout(geometry)
        spec = GridSpec.for_geometry(geometry, dims=dims)
        rng = np.random.default_rng(seed)
        corners = [spec.bounds_max, spec.bounds_min, cell_center(spec, (1, 2, 3)) - spec.cell_size / 2]
        points = rng.uniform(spec.bounds_min, spec.bounds_max, size=(n, 3))
        points[: len(corners)] = corners[:n]
        e = rng.normal(size=(n, 19))
        e[0, 0] = -0.0  # kept, as encode keeps it
        records = sample_set(record(f"t{i}", e[i], p) for i, p in enumerate(points))
        expected = np.stack([encode(r.e, r.s_c, layout, spec) for r in records])
        inputs = np.asarray(featurize_voxel(records, layout, spec).inputs)
        assert inputs.dtype == expected.dtype and inputs.shape == expected.shape
        assert inputs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dims", [DEFAULT_DIMS, (13, 13, 9)])
    def test_stores_twenty_cells_per_sample(self, geometry, layout, dims):
        """19 electrode values and one contact cell index of 8 bytes each per
        sample, and the 19 electrode cell indices once: a return to dense
        grids or to per-sample electrode cells would show here."""
        spec = GridSpec.for_geometry(geometry, dims=dims)
        records = sample_set(record(f"t{i}", np.arange(19.0) + i, cell_center(spec, (1, 2, 3)))
                             for i in range(5))
        inputs = featurize_voxel(records, layout, spec).inputs
        assert inputs.shape == (5, 2) + dims
        assert inputs.nbytes == 5 * 20 * 8 + 19 * 8

    def test_contact_point_outside_the_grid_names_trial(self, layout, spec):
        s_c = cell_center(spec, (2, 2, 2))
        s_c[2] = 1.0
        records = sample_set([record("ok", np.zeros(19), cell_center(spec, (1, 1, 1))),
                              record("trial_7", np.zeros(19), s_c)])
        with pytest.raises(OutOfBoundsError, match="'trial_7'"):
            featurize_voxel(records, layout, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_contact_point_names_trial(self, spec, bad):
        """A set checks that its numbers are finite, so featurize_voxel
        is never given a non-finite contact point."""
        s_c = cell_center(spec, (2, 2, 2))
        s_c[2] = bad
        with pytest.raises(SchemaError, match="'trial_7': field 's_c' holds a number that is not finite"):
            sample_set([record("ok", np.zeros(19), cell_center(spec, (1, 1, 1))),
                        record("trial_7", np.zeros(19), s_c)])

    def test_wrong_electrode_count_names_trial(self, spec):
        """A set checks its shapes, so featurize_voxel is never given a
        wrong one."""
        with pytest.raises(SchemaError, match="'short'"):
            sample_set([record("short", np.zeros(18), cell_center(spec, (1, 1, 1)))])


@st.composite
def featurized_batches(draw):
    """featurize_voxel inputs of one to five samples at random contact
    points, on two grids, and the stacked `encode` of the same records."""
    geometry = SurfaceGeometry()
    layout = default_electrode_layout(geometry)
    spec = GridSpec.for_geometry(geometry, dims=draw(st.sampled_from([DEFAULT_DIMS, (13, 13, 9)])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(spec.bounds_min, spec.bounds_max, size=(draw(st.integers(1, 5)), 3))
    records = sample_set(record(f"t{i}", rng.normal(size=19), p) for i, p in enumerate(points))
    dense = np.stack([encode(r.e, r.s_c, layout, spec) for r in records])
    return featurize_voxel(records, layout, spec).inputs, dense, rng


class TestVoxelCells:
    @settings(max_examples=80, deadline=None)
    @given(featurized_batches(), st.data())
    def test_row_selection_equals_dense_indexing(self, batch, data):
        inputs, x, rng = batch
        n = x.shape[0]
        start, stop = sorted(data.draw(st.lists(st.integers(-n - 1, n + 1), min_size=2,
                                                max_size=2)))
        step = data.draw(st.sampled_from([None, 1, 2, -1]))
        keys = [slice(start, stop, step), rng.integers(-n, n, size=3), np.zeros(0, dtype=int),
                rng.random(n) < 0.5]
        for key in keys:
            picked = inputs[key]
            assert isinstance(picked, VoxelInputs)
            assert np.asarray(picked).tobytes() == x[key].tobytes()
            assert picked.shape == x[key].shape
        i = int(rng.integers(-n, n))
        assert np.asarray(inputs[i]).tobytes() == x[i].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(featurized_batches(), st.data())
    def test_tuple_key_equals_dense_indexing(self, batch, data):
        inputs, x, _ = batch
        key = (slice(None),) + tuple(
            slice(None, data.draw(st.integers(0, d))) for d in x.shape[1:]
        )
        np.testing.assert_array_equal(inputs[key], x[key])
        point = tuple(data.draw(st.integers(0, d - 1)) for d in x.shape)
        assert inputs[point] == x[point]

    def test_perfbench_crop_of_featurized_inputs(self, layout, spec):
        """The 5-D crop the benchmark takes to count the first layer's
        covered non-zeros."""
        records = sample_set(record(f"t{i}", np.arange(19.0) + 1, cell_center(spec, (i, 2, 3)))
                             for i in range(spec.dims[0]))
        inputs = featurize_voxel(records, layout, spec).inputs
        dense = np.stack([encode(r.e, r.s_c, layout, spec) for r in records])
        crop = (slice(None), slice(None)) + tuple(slice(d - 1) for d in spec.dims)
        np.testing.assert_array_equal(inputs[crop], dense[crop])
        assert np.count_nonzero(inputs) == np.count_nonzero(dense)

    @settings(max_examples=60, deadline=None)
    @given(featurized_batches())
    def test_shape_size_and_nbytes(self, batch):
        inputs, x, _ = batch
        assert inputs.shape == x.shape and inputs.ndim == x.ndim and inputs.size == x.size
        assert len(inputs) == len(x)
        assert inputs.nbytes == 8 * (20 * len(x) + 19)

    @pytest.mark.parametrize("cells, values", [
        ((np.array([0, 1]), np.array([4])), np.ones((1, 2))),  # contact outside the grid
        ((np.array([-1, 1]), np.array([3])), np.ones((1, 2))),  # electrode outside the grid
        ((np.array([0, 1]), np.array([3])), np.ones((1, 1))),  # one value, two electrodes
        ((np.array([0, 0]), np.array([3])), np.ones((1, 2))),  # two electrodes in one cell
        ((np.array([0, 1]), np.array([3, 3])), np.ones((1, 2))),  # two contacts, one sample
    ])
    def test_malformed_cells_rejected(self, cells, values):
        electrodes, contact = cells
        with pytest.raises(SchemaError):
            VoxelInputs(values, contact, electrodes, (2, 2))
