"""Cover property of the E_pol near field's kept tiles.

The executor evaluates each mirrored near-tile pair once, in one of its
two rows, with doubled charges (``repro.plan.executor._kept_tiles``).
Over random molecules, whole-tree plans, leaf-subset plans (whose near
leaves may have no row) and plans with a deliberately unmirrored tile:

* the kept tiles, counted with their weights, cover every ordered near
  pair of the plan exactly once, and nothing else;
* the kernel's near sum equals a brute-force ``f_GB`` sum over the
  plan's ordered near pairs to 1e-12, relative to the sum of the terms'
  magnitudes (charges of both signs can cancel).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.born import AtomTreeData
from repro.core.energy import EnergyContext
from repro.core.gbmodels import f_gb
from repro.molecule.generators import protein_blob
from repro.plan import InteractionPlan, build_epol_plan, epol_row_terms
from repro.plan.executor import _kept_tiles


def _drop_near_leaf(plan: InteractionPlan, atoms: AtomTreeData,
                    entry: int) -> InteractionPlan:
    """``plan`` without near-leaf ``entry`` (its mirror entry stays, so
    that tile becomes unmirrored)."""
    tree = atoms.tree
    row = int(np.searchsorted(plan.near_leaf_start, entry, side="right")) - 1
    first = int(plan.near_leaf_start[row])
    before = plan.near_leaves[first:entry]
    offset = int(plan.near_point_start[row]) + int(
        (tree.point_end[before] - tree.point_start[before]).sum())
    leaf = plan.near_leaves[entry]
    size = int(tree.point_end[leaf] - tree.point_start[leaf])
    arrays = dict(plan.as_arrays())
    arrays["near_leaves"] = np.delete(plan.near_leaves, entry)
    arrays["near_leaf_start"] = plan.near_leaf_start.copy()
    arrays["near_leaf_start"][row + 1:] -= 1
    arrays["near_points"] = np.delete(plan.near_points,
                                      np.arange(offset, offset + size))
    arrays["near_point_start"] = plan.near_point_start.copy()
    arrays["near_point_start"][row + 1:] -= size
    out = InteractionPlan.from_arrays(plan.meta(), arrays)
    out.validate()
    return out


def _near_pairs(plan: InteractionPlan):
    """Every ordered near pair ``(u, v)`` of the plan, row by row."""
    for t in range(plan.nrows):
        near = plan.near_points[plan.near_point_start[t]:
                                plan.near_point_start[t + 1]]
        yield near, np.arange(plan.target_point_start[t],
                              plan.target_point_end[t])


@st.composite
def _plans(draw):
    natoms = draw(st.integers(min_value=8, max_value=160))
    molecule = protein_blob(natoms, seed=draw(st.integers(0, 2 ** 31 - 1)))
    atoms = AtomTreeData.build(
        molecule, leaf_cap=draw(st.integers(min_value=2, max_value=16)),
        sfc=draw(st.sampled_from(["morton", "hilbert"])),
        compress=draw(st.booleans()))
    eps = draw(st.sampled_from([0.3, 0.9, 2.0]))
    leaves = atoms.tree.leaves
    kind = draw(st.sampled_from(["whole", "subset", "unmirrored"]))
    if kind == "subset":
        keep = np.array(draw(st.lists(st.booleans(), min_size=leaves.size,
                                      max_size=leaves.size)), dtype=bool)
        keep[draw(st.integers(0, leaves.size - 1))] = True
        plan = build_epol_plan(atoms, eps, v_leaves=leaves[keep])
    else:
        plan = build_epol_plan(atoms, eps)
        rows = np.repeat(np.arange(plan.nrows), plan.near_leaf_counts)
        off_diagonal = np.flatnonzero(plan.near_leaves
                                      != plan.target_leaves[rows])
        if kind == "unmirrored" and off_diagonal.size:
            entry = off_diagonal[draw(st.integers(0, off_diagonal.size - 1))]
            plan = _drop_near_leaf(plan, atoms, int(entry))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    born = rng.uniform(1.0, 6.0, atoms.tree.npoints)
    return atoms, plan, born, eps


@settings(max_examples=40, deadline=None)
@given(case=_plans())
def test_kept_tiles_cover_every_ordered_near_pair_once(case):
    atoms, plan, _, _ = case
    n = atoms.tree.npoints
    unit = dataclasses.replace(atoms, sorted_charges=np.ones(n))
    kept = _kept_tiles(plan, unit)
    weights = kept.charges
    assert set(np.unique(weights)) <= {1.0, 2.0}
    covered = np.zeros((n, n), dtype=np.int64)
    for t in range(plan.nrows):
        s, e = kept.start[t], kept.start[t + 1]
        v = np.arange(plan.target_point_start[t], plan.target_point_end[t])
        u = kept.points[s:e]
        np.add.at(covered, (u[:, None], v[None, :]), 1)
        twice = u[weights[s:e] == 2.0]
        np.add.at(covered, (v[:, None], twice[None, :]), 1)
    expected = np.zeros((n, n), dtype=np.int64)
    for u, v in _near_pairs(plan):
        np.add.at(expected, (u[:, None], v[None, :]), 1)
    assert expected.max(initial=0) <= 1
    assert np.array_equal(covered, expected)


@settings(max_examples=40, deadline=None)
@given(case=_plans())
def test_near_sum_matches_brute_force(case):
    atoms, plan, born, eps = case
    ctx = EnergyContext.build(atoms, born, eps)
    _, near_terms = epol_row_terms(plan, ctx)
    pos, q = atoms.tree.sorted_points, atoms.sorted_charges
    terms = []
    for u, v in _near_pairs(plan):
        r2 = ((pos[u][:, None, :] - pos[v][None, :, :]) ** 2).sum(axis=2)
        f = f_gb(r2, born[u][:, None] * born[v][None, :])
        terms.append((q[u][:, None] * q[v][None, :] / f).ravel())
    flat = np.concatenate(terms) if terms else np.zeros(0)
    exact = math.fsum(flat)
    scale = math.fsum(np.abs(flat))
    assert abs(math.fsum(near_terms) - exact) <= 1e-12 * scale
