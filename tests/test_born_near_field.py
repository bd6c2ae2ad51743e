"""The Born near field against direct-difference sums.

:func:`repro.plan.born_flat_values` evaluates each near tile as two GEMMs
over a centred expansion of R^2 (docs/ALGORITHMS.md §6c).  These tests
hold it to an independent oracle: for every near slot, the
``math.fsum`` of float64 terms ``(s - t).wn / |s - t|^power`` built from
direct coordinate differences.  The bound is 1e-12 of the slot's sum of
term magnitudes, over a whole plan and over one row range.

The guard tests place surface points exactly on atom centres.  A
coincident pair's term is undefined; every kernel must drop it and leave
every other term alone.  The plan kernel, the naive ``surface_integral``
and the per-leaf ``pairwise_r6_exact`` share one guard rule
(``repro.core.integrals``), so all three are held to the same oracle.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.born import QuadTreeData, approx_integrals_perleaf
from repro.core.driver import PolarizationEnergyCalculator
from repro.core.integrals import surface_integral
from repro.molecule.generators import protein_blob
from repro.plan import build_born_plan, execute_born_plan
from repro.plan.executor import born_flat_values, born_spans


def direct_terms(targets, points, normals, weights, power):
    """``(targets, points)`` terms ``(s - t).wn / |s - t|^power`` from
    direct differences; non-finite (coincident) terms are dropped."""
    wn = weights[:, None] * normals
    d = points[None, :, :] - targets[:, None, :]
    r2 = (d * d).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (d * wn[None]).sum(axis=2) / r2 ** (power // 2)
    terms[~np.isfinite(terms)] = 0.0
    return terms


def direct_near(plan, atoms, quad, lo, hi):
    """``(fsum, sum of |terms|)`` of every near slot of rows ``[lo, hi)``,
    from direct differences."""
    sums, mags = [], []
    for t in range(lo, hi):
        qs, qe = plan.target_point_start[t], plan.target_point_end[t]
        ids = plan.near_points[plan.near_point_start[t]:
                               plan.near_point_start[t + 1]]
        terms = direct_terms(atoms.tree.sorted_points[ids],
                             quad.sorted_points[qs:qe],
                             quad.sorted_normals[qs:qe],
                             quad.sorted_weights[qs:qe], plan.power)
        sums.extend(math.fsum(row) for row in terms.tolist())
        mags.extend(np.abs(terms).sum(axis=1).tolist())
    return np.array(sums), np.array(mags)


def direct_atom_near(plan, atoms, quad):
    """``(fsum, sum of |terms|)`` per sorted atom over all its near slots
    -- the oracle of the per-leaf loop's ``s_atom``."""
    per_atom = [[] for _ in range(atoms.tree.npoints)]
    for t in range(plan.nrows):
        qs, qe = plan.target_point_start[t], plan.target_point_end[t]
        ids = plan.near_points[plan.near_point_start[t]:
                               plan.near_point_start[t + 1]]
        terms = direct_terms(atoms.tree.sorted_points[ids],
                             quad.sorted_points[qs:qe],
                             quad.sorted_normals[qs:qe],
                             quad.sorted_weights[qs:qe], plan.power)
        for a, row in zip(ids.tolist(), terms.tolist()):
            per_atom[a].extend(row)
    return (np.array([math.fsum(ts) for ts in per_atom]),
            np.array([math.fsum(abs(x) for x in ts) for ts in per_atom]))


def near_values(plan, atoms, quad, lo, hi):
    far_span, near_span = born_spans(plan, lo, hi)
    far = np.empty(far_span.stop - far_span.start)
    near = np.empty(near_span.stop - near_span.start)
    born_flat_values(plan, atoms, quad, far, near, row_range=(lo, hi))
    return near


def assert_within(got, want, mags):
    err = np.abs(got - want)
    assert np.all(err <= 1e-12 * mags), (
        f"worst slot error {np.max(err / np.maximum(mags, 1e-300)):.2e} "
        f"of its sum of |terms|")


@pytest.fixture(scope="module",
                params=[(400, 7, 6), (1500, 1, 6), (400, 7, 4)],
                ids=["blob400-r6", "blob1500-r6", "blob400-r4"])
def case(request):
    natoms, seed, power = request.param
    calc = PolarizationEnergyCalculator(protein_blob(natoms, seed=seed))
    atoms, quad = calc.atom_tree(), calc.quad_tree()
    plan = build_born_plan(atoms, quad, calc.params.eps_born,
                           mac_variant=calc.params.born_mac_variant,
                           power=power)
    want, mags = direct_near(plan, atoms, quad, 0, plan.nrows)
    return plan, atoms, quad, want, mags


class TestNearFieldAccuracy:
    def test_whole_plan(self, case):
        plan, atoms, quad, want, mags = case
        got = near_values(plan, atoms, quad, 0, plan.nrows)
        assert got.shape == want.shape
        assert_within(got, want, mags)

    def test_row_range(self, case):
        """A range writes the same numbers as the whole plan does for its
        rows, bit for bit, and they meet the same bound."""
        plan, atoms, quad, want, mags = case
        lo, hi = plan.nrows // 3, 2 * plan.nrows // 3
        got = near_values(plan, atoms, quad, lo, hi)
        span = born_spans(plan, lo, hi)[1]
        assert_within(got, want[span], mags[span])
        whole = near_values(plan, atoms, quad, 0, plan.nrows)
        assert np.array_equal(got, whole[span])


def _blob(natoms, seed):
    calc = PolarizationEnergyCalculator(protein_blob(natoms, seed=seed))
    return calc, calc.atom_tree(), calc.prepare_surface()


@pytest.fixture(scope="module")
def blob150():
    return _blob(150, 31)


@pytest.fixture(scope="module")
def blob400():
    return _blob(400, 7)


def _coincident(calc, surface, atom_ids, leaf_cap):
    """The surface with points 0, 1, ... moved onto the given atoms'
    centres, in a quadrature tree of ``leaf_cap`` points per leaf."""
    points = surface.points.copy()
    points[:len(atom_ids)] = calc.molecule.positions[atom_ids]
    moved = dataclasses.replace(surface, points=points)
    return QuadTreeData.build(moved, leaf_cap=leaf_cap)


@pytest.mark.parametrize("power", [6, 4])
class TestCoincidentGuard:
    def test_matches_per_leaf_reference(self, blob150, power):
        """One point per quadrature leaf: each point is its leaf's
        centroid, so both kernels see a coincident pair's R^2 as exactly
        0 and drop it.  The plan path must match the per-leaf loop."""
        calc, atoms, surface = blob150
        quad = _coincident(calc, surface, [0, 75, 149], leaf_cap=1)
        eps = calc.params.eps_born
        plan = build_born_plan(atoms, quad, eps, power=power)
        got = execute_born_plan(plan, atoms, quad)
        ref = approx_integrals_perleaf(atoms, quad, quad.tree.leaves, eps,
                                       power=power)
        assert np.all(np.isfinite(got.s_atom))
        assert np.array_equal(got.s_node, ref.s_node)
        assert (np.linalg.norm(got.s_atom - ref.s_atom)
                <= 1e-12 * np.linalg.norm(ref.s_atom))

    def test_every_atom_in_shared_leaves(self, blob400, power):
        """Quadrature leaves of the calculator's size: a coincident pair's
        expanded R^2 is a rounding residual of either sign, not 0.  The
        guard must catch it wherever the point lands -- here on every
        atom."""
        calc, atoms, surface = blob400
        atom_ids = np.arange(len(calc.molecule))
        quad = _coincident(calc, surface, atom_ids,
                           leaf_cap=calc.params.quad_leaf_cap)
        plan = build_born_plan(atoms, quad, calc.params.eps_born,
                               power=power)
        got = execute_born_plan(plan, atoms, quad)
        assert np.all(np.isfinite(got.s_atom))
        want, mags = direct_near(plan, atoms, quad, 0, plan.nrows)
        assert_within(near_values(plan, atoms, quad, 0, plan.nrows),
                      want, mags)

    def test_naive_on_every_atom(self, blob400, power):
        """The naive all-pairs kernel on the same surface: each atom's
        integral matches the fsum of its direct terms."""
        calc, _, surface = blob400
        points = surface.points.copy()
        points[:len(calc.molecule)] = calc.molecule.positions
        got = surface_integral(points, surface.normals, surface.weights,
                               calc.molecule.positions, power=power)
        terms = direct_terms(calc.molecule.positions, points,
                             surface.normals, surface.weights, power)
        want = np.array([math.fsum(row) for row in terms.tolist()])
        assert_within(got, want, np.abs(terms).sum(axis=1))

    def test_per_leaf_on_every_atom(self, blob400, power):
        """The per-leaf reference loop on the same setup: each atom's
        near-field sum matches the fsum of its direct terms."""
        calc, atoms, surface = blob400
        quad = _coincident(calc, surface, np.arange(len(calc.molecule)),
                           leaf_cap=calc.params.quad_leaf_cap)
        eps = calc.params.eps_born
        plan = build_born_plan(atoms, quad, eps, power=power)
        got = approx_integrals_perleaf(atoms, quad, quad.tree.leaves, eps,
                                       power=power)
        want, mags = direct_atom_near(plan, atoms, quad)
        assert_within(got.s_atom, want, mags)
