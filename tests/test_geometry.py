"""Tests for the cell grid and rotation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.nblist import build_nblist
from repro.geometry import CellGrid, random_rotation, rotation_matrix
from repro.molecule.molecule import from_arrays


def brute_force_radius(points, center, radius):
    d2 = np.sum((points - center) ** 2, axis=1)
    return np.flatnonzero(d2 < radius * radius)


class TestCellGrid:
    def test_query_matches_brute_force(self, rng):
        pts = rng.uniform(-10, 10, size=(500, 3))
        grid = CellGrid(pts, cell_size=3.0)
        for _ in range(20):
            center = rng.uniform(-12, 12, size=3)
            radius = float(rng.uniform(0.5, 6.0))
            got = np.sort(grid.query_radius(center, radius))
            want = np.sort(brute_force_radius(pts, center, radius))
            np.testing.assert_array_equal(got, want)

    def test_candidates_is_superset(self, rng):
        pts = rng.uniform(0, 5, size=(200, 3))
        grid = CellGrid(pts, cell_size=1.0)
        center = np.array([2.5, 2.5, 2.5])
        cand = set(grid.candidates(center, 1.5).tolist())
        true = set(brute_force_radius(pts, center, 1.5).tolist())
        assert true <= cand

    def test_empty_result_far_away(self, rng):
        pts = rng.uniform(0, 1, size=(50, 3))
        grid = CellGrid(pts, cell_size=1.0)
        assert len(grid.query_radius([100, 100, 100], 2.0)) == 0

    def test_single_point(self):
        grid = CellGrid(np.array([[1.0, 2.0, 3.0]]), cell_size=1.0)
        assert grid.query_radius([1, 2, 3], 0.5).tolist() == [0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CellGrid(np.zeros((3, 2)), cell_size=1.0)
        with pytest.raises(ValueError):
            CellGrid(np.zeros((3, 3)), cell_size=0.0)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.3, max_value=4.0),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_query_equals_brute_force(self, n, radius, seed):
        r = np.random.default_rng(seed)
        pts = r.uniform(-5, 5, size=(n, 3))
        grid = CellGrid(pts, cell_size=1.5)
        center = r.uniform(-6, 6, size=3)
        got = np.sort(grid.query_radius(center, radius))
        want = np.sort(brute_force_radius(pts, center, radius))
        np.testing.assert_array_equal(got, want)


#: Cell edge of the pair-search properties; lattice steps are half of it,
#: so lattice points sit exactly on cell faces and two steps apart are
#: exactly one cell edge apart.
EDGE = 1.5


@st.composite
def clouds(draw, max_points=40):
    """Small point sets on a half-cell lattice: coincident points, points
    exactly one cell edge apart, a single point -- optionally jittered
    off the lattice, with mixed radii."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    steps = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * 3),
                          min_size=n, max_size=n))
    pts = np.array(steps, dtype=np.float64) * (EDGE / 2)
    r = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    if draw(st.booleans()):
        pts += r.uniform(-0.3, 0.3, size=pts.shape)
    return pts, r.choice([0.6, 1.0, 1.5, 1.7, 1.85], size=n)


#: Query radii: below, at and above one and two cell edges.
RADII = st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 2.25, 3.0, 3.5])


def all_pairs(points, queries, keep, *, self_pairs=False):
    """Brute force: every (q, j) that ``keep`` accepts, sorted; with
    ``self_pairs`` (queries are the points) never ``q == j``."""
    q, j = np.divmod(np.arange(len(queries) * len(points)), len(points))
    mask = keep(q, j)
    if self_pairs:
        mask &= q != j
    return q[mask], j[mask]


class TestPairs:
    @given(clouds(), RADII)
    @settings(max_examples=60, deadline=None)
    def test_self_pairs_equal_brute_force(self, cloud, radius):
        pts, _ = cloud

        def within(q, j):
            return np.sum((pts[j] - pts[q]) ** 2, axis=1) < radius * radius

        got = CellGrid(pts, cell_size=EDGE).pairs(radius, within)
        want = all_pairs(pts, pts, within, self_pairs=True)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    @given(clouds(), clouds(max_points=20), RADII)
    @settings(max_examples=40, deadline=None)
    def test_query_pairs_equal_brute_force(self, cloud, other, radius):
        pts, _ = cloud
        queries, _ = other
        queries = queries + 0.4   # partly outside the grid's box

        def within(q, j):
            return np.sum((pts[j] - queries[q]) ** 2, axis=1) < radius * radius

        got = CellGrid(pts, cell_size=EDGE).pairs(radius, within,
                                                  queries=queries)
        want = all_pairs(pts, queries, within)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @given(clouds())
    @settings(max_examples=60, deadline=None)
    def test_overlapping_spheres_equal_brute_force(self, cloud):
        """The surface sampler's query: spheres that reach each other."""
        pts, radii = cloud
        rmax = float(radii.max())

        def overlaps(q, j):
            return (np.linalg.norm(pts[j] - pts[q], axis=1)
                    < radii[q] + radii[j])

        got = CellGrid(pts, cell_size=2.0 * rmax).pairs(2.0 * rmax,
                                                         overlaps)
        want = all_pairs(pts, pts, overlaps, self_pairs=True)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @given(clouds(), RADII)
    @settings(max_examples=60, deadline=None)
    def test_nblist_equals_per_atom_loop(self, cloud, cutoff):
        """Sorted neighbours per atom, ``i < j``, ``d2 < cutoff**2``."""
        pts, radii = cloud
        nb = build_nblist(from_arrays(pts, radii=radii), cutoff)
        n = len(pts)
        offsets = np.zeros(n + 1, dtype=np.int64)
        chunks = []
        for i in range(n):
            cand = np.arange(i + 1, n)
            d2 = np.sum((pts[cand] - pts[i]) ** 2, axis=1)
            chunks.append(cand[d2 < cutoff * cutoff])
            offsets[i + 1] = offsets[i] + len(chunks[-1])
        assert nb.offsets.dtype == nb.neighbors.dtype == np.int64
        np.testing.assert_array_equal(nb.offsets, offsets)
        np.testing.assert_array_equal(nb.neighbors, np.concatenate(chunks))

    def test_empty_grid_has_no_pairs(self):
        grid = CellGrid(np.empty((0, 3)), cell_size=1.0)
        q, j = grid.pairs(1.0, lambda q, j: q >= 0, queries=np.zeros((2, 3)))
        assert len(q) == len(j) == 0
        assert len(grid.candidates([0.0, 0.0, 0.0], 1.0)) == 0


class TestRotations:
    def test_rotation_matrix_orthogonal(self):
        rot = rotation_matrix([1, 2, 3], 0.7)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_rotation_about_axis_fixes_axis(self):
        axis = np.array([0.0, 0.0, 2.0])
        rot = rotation_matrix(axis, 1.3)
        np.testing.assert_allclose(rot @ axis, axis, atol=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_matrix([0, 0, 0], 1.0)

    def test_random_rotation_proper(self, rng):
        for _ in range(10):
            rot = random_rotation(rng)
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-10)
            assert np.linalg.det(rot) == pytest.approx(1.0)
