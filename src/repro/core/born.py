"""Octree-based r^6 Born radii: APPROX-INTEGRALS + PUSH-INTEGRALS-TO-ATOMS.

This is paper Fig. 2, in the work-divided form of Fig. 4: the unit of
distributable work is one *leaf of the quadrature-points octree*.  For each
assigned Q leaf the atoms octree is walked from the root; nodes accepted by
the Born MAC receive a single pseudo-point contribution into their ``s_A``
accumulator, and rejected leaves compute the exact (atom x q-point) tile.
``PUSH-INTEGRALS-TO-ATOMS`` then accumulates every atom's ancestor sums
top-down and converts to Born radii.

The decomposition is *exactly additive*: the union of far nodes and near
leaves produced by one walk covers every atom once, so summing the
``(s_node, s_atom)`` pairs produced by different ranks for different Q-leaf
segments reconstructs precisely the serial result -- the invariant behind
the paper's claim that node-based division has P-independent error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..molecule.molecule import Molecule
from ..octree.aggregate import pseudo_normals
from ..octree.build import build_octree
from ..octree.compress import compress as compress_octree
from ..octree.mac import born_mac_multiplier
from ..octree.octree import Octree
from ..octree.traversal import classify_against_ball
from ..runtime.instrument import WorkCounters
from ..surface.sas import SurfaceQuadrature
from .integrals import born_radius_from_integral, pairwise_r6_exact


@dataclass
class AtomTreeData:
    """An atoms octree plus per-point payloads in tree (sorted) order."""

    tree: Octree
    sorted_radii: np.ndarray
    sorted_charges: np.ndarray

    @classmethod
    def build(cls, molecule: Molecule, *, leaf_cap: int,
              sfc: str = "morton",
              compress: bool = False) -> "AtomTreeData":
        tree = build_octree(molecule.positions, leaf_cap=leaf_cap, sfc=sfc)
        if compress:
            tree = compress_octree(tree)
        return cls(tree=tree,
                   sorted_radii=molecule.radii[tree.perm],
                   sorted_charges=molecule.charges[tree.perm])

    def to_original_order(self, sorted_values: np.ndarray) -> np.ndarray:
        """Scatter per-sorted-position values back to original atom ids."""
        out = np.empty_like(sorted_values)
        out[self.tree.perm] = sorted_values
        return out


@dataclass
class QuadTreeData:
    """A quadrature-points octree plus payloads and per-node pseudo-normals."""

    tree: Octree
    sorted_points: np.ndarray
    sorted_normals: np.ndarray
    sorted_weights: np.ndarray
    #: Per-node ``ñ_Q = sum_q w_q n_q`` (paper Fig. 2 preamble).
    node_pseudo_normals: np.ndarray

    @classmethod
    def build(cls, surface: SurfaceQuadrature, *, leaf_cap: int,
              sfc: str = "morton",
              compress: bool = False) -> "QuadTreeData":
        tree = build_octree(surface.points, leaf_cap=leaf_cap, sfc=sfc)
        if compress:
            tree = compress_octree(tree)
        return cls(
            tree=tree,
            sorted_points=tree.sorted_points,
            sorted_normals=surface.normals[tree.perm],
            sorted_weights=surface.weights[tree.perm],
            node_pseudo_normals=pseudo_normals(tree, surface.normals,
                                               surface.weights),
        )


@dataclass
class BornPartial:
    """One rank's additive share of the Born-integral phase.

    ``s_node[v]`` holds far-field sums collected at atoms-tree node ``v``
    (to be pushed to all atoms below), ``s_atom[i]`` holds exact near-field
    sums for the atom at *sorted position* ``i``.  Partials from different
    ranks combine by elementwise addition -- that is the payload of the
    paper's ``MPI_Allreduce`` in Step 3 of Fig. 4.
    """

    s_node: np.ndarray
    s_atom: np.ndarray
    counters: WorkCounters

    def add(self, other: "BornPartial") -> "BornPartial":
        self.s_node += other.s_node
        self.s_atom += other.s_atom
        self.counters.add(other.counters)
        return self

    @staticmethod
    def zeros(atoms: AtomTreeData) -> "BornPartial":
        return BornPartial(np.zeros(atoms.tree.nnodes),
                           np.zeros(atoms.tree.npoints), WorkCounters())


def _slice_concat(tree: Octree, nodes: np.ndarray) -> np.ndarray:
    """Sorted-position indices of all points under the given nodes."""
    starts = tree.point_start[nodes]
    counts = tree.point_end[nodes] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    held = counts > 0
    starts, counts = starts[held], counts[held]
    # A running sum of unit steps, each slice's first step jumping to its
    # start: one full-length array, where a repeat-based gather needs four.
    steps = np.ones(total, dtype=np.int64)
    jumps = starts.copy()
    jumps[1:] -= starts[:-1] + counts[:-1] - 1
    steps[np.cumsum(counts) - counts] = jumps
    return np.cumsum(steps, out=steps)


def approx_integrals(atoms: AtomTreeData, quad: QuadTreeData,
                     q_leaves: np.ndarray, eps: float, *,
                     disable_far: bool = False,
                     mac_variant: str = "practical",
                     power: int = 6,
                     per_leaf: list[WorkCounters] | None = None) -> BornPartial:
    """Run APPROX-INTEGRALS for the given segment of Q leaves.

    Default entry point: builds an interaction plan for the segment and
    executes it batched (:mod:`repro.plan`).  It matches
    :func:`approx_integrals_perleaf`, the reference the differential
    tests compare against, in ``s_node`` and the counters bit for bit and
    in ``s_atom`` to rounding.  Callers holding a cached whole-tree plan
    should slice it with :func:`repro.plan.execute_born_plan` instead.
    """
    # Imported lazily: repro.plan imports this module for the tree bundles.
    from ..plan import build_born_plan, execute_born_plan
    plan = build_born_plan(atoms, quad, eps, disable_far=disable_far,
                           mac_variant=mac_variant, power=power,
                           q_leaves=np.asarray(q_leaves, dtype=np.int64))
    return execute_born_plan(plan, atoms, quad, per_leaf=per_leaf)


def approx_integrals_perleaf(atoms: AtomTreeData, quad: QuadTreeData,
                             q_leaves: np.ndarray, eps: float, *,
                             disable_far: bool = False,
                             mac_variant: str = "practical",
                             power: int = 6,
                             per_leaf: list[WorkCounters] | None = None
                             ) -> BornPartial:
    """Reference per-leaf APPROX-INTEGRALS (one walk + one tile per leaf).

    The plan executor reproduces its node sums and counters bit for bit
    and its atom sums to rounding; it stays as the differential baseline
    and as the readable transcription of Fig. 2.

    Parameters
    ----------
    atoms, quad:
        Built tree bundles (identical on every rank -- the paper replicates
        data and divides work).
    q_leaves:
        The quadrature-tree leaf ids assigned to this rank (node-based work
        division, first phase of Fig. 4).
    eps:
        Born approximation parameter (``eps -> 0`` disables far-field
        acceptance and the result becomes exact).
    disable_far:
        Reject every MAC test, forcing the exact leaf-leaf path everywhere.
        Note this is stronger than ``eps -> 0``: the MAC accepts
        zero-radius (single-point) node pairs at any ``eps``, which is
        exact for Born but matters for the energy phase's binning.
    per_leaf:
        Optional list; one :class:`WorkCounters` per processed leaf is
        appended, in leaf order.  These are the per-task costs the
        work-stealing simulation schedules.
    """
    partial = BornPartial.zeros(atoms)
    mult = np.inf if disable_far else born_mac_multiplier(eps, variant=mac_variant)
    a_tree = atoms.tree
    q_tree = quad.tree
    sorted_atom_pos = a_tree.sorted_points
    for leaf in np.asarray(q_leaves):
        leaf_counters = WorkCounters()
        center = q_tree.ball_center[leaf]
        radius = float(q_tree.ball_radius[leaf])
        ntilde = quad.node_pseudo_normals[leaf]
        cls = classify_against_ball(a_tree, center, radius, mult)
        leaf_counters.nodes_visited += cls.nodes_visited
        if cls.far_nodes.size:
            # Pseudo-point contribution: s_A += ñ_Q . (c_Q - c_A) / d^power.
            diff = center[None, :] - a_tree.ball_center[cls.far_nodes]
            d2 = cls.far_dist ** 2
            denom = d2 * d2 * d2 if power == 6 else d2 * d2
            partial.s_node[cls.far_nodes] += (diff @ ntilde) / denom
            leaf_counters.far_evals += cls.far_nodes.size
        if cls.near_leaves.size:
            qs, qe = q_tree.point_start[leaf], q_tree.point_end[leaf]
            qpos = quad.sorted_points[qs:qe]
            qnrm = quad.sorted_normals[qs:qe]
            qw = quad.sorted_weights[qs:qe]
            idx = _slice_concat(a_tree, cls.near_leaves)
            contrib = pairwise_r6_exact(sorted_atom_pos[idx], qpos, qnrm, qw,
                                        counters=leaf_counters, power=power)
            partial.s_atom[idx] += contrib
        partial.counters.add(leaf_counters)
        if per_leaf is not None:
            per_leaf.append(leaf_counters)
    return partial


def push_integrals_to_atoms(atoms: AtomTreeData, partial: BornPartial, *,
                            max_radius: float,
                            power: int = 6,
                            atom_range: tuple[int, int] | None = None
                            ) -> np.ndarray:
    """PUSH-INTEGRALS-TO-ATOMS: ancestor accumulation + radius conversion.

    Every atom's total integral is its own exact sum plus the ``s`` fields
    of all its ancestors.  Ancestor sums are accumulated top-down level by
    level (each node adds its parent's accumulated value), then spread to
    the atoms through the leaf slices.

    Parameters
    ----------
    atoms:
        The atoms-tree bundle.
    partial:
        The *combined* (post-Allreduce) Born partial.
    max_radius:
        Upper clamp for degenerate (non-positive-integral) atoms.
    atom_range:
        Optional ``[start, end)`` of sorted atom positions this rank is
        responsible for (second-phase atom division of Fig. 4); the result
        is zero outside the range.

    Returns
    -------
    ``(N,)`` Born radii in *sorted* order (zeros outside ``atom_range``).
    """
    tree = atoms.tree
    acc = partial.s_node.copy()
    # Nodes are created in BFS order (parents precede children), so one
    # forward pass per level accumulates ancestors exactly once.
    for level_nodes in tree.nodes_by_level()[1:]:
        acc[level_nodes] += acc[tree.parent[level_nodes]]
    leaves = tree.leaves
    leaf_counts = tree.point_end[leaves] - tree.point_start[leaves]
    # Canonical (curve-ordered) leaves tile the sorted positions [0, N)
    # in order -- guaranteed by Octree.leaves and asserted by validate().
    per_position = np.repeat(acc[leaves], leaf_counts)
    total = partial.s_atom + per_position
    radii = born_radius_from_integral(total, atoms.sorted_radii, power=power,
                                      max_radius=max_radius)
    if atom_range is not None:
        s, e = atom_range
        out = np.zeros_like(radii)
        out[s:e] = radii[s:e]
        return out
    return radii


def born_radii_octree(molecule: Molecule, surface: SurfaceQuadrature, *,
                      eps: float, leaf_cap: int,
                      mac_variant: str = "practical",
                      counters: WorkCounters | None = None) -> np.ndarray:
    """Single-process convenience wrapper: build trees, run the full leaf
    set, push, and return Born radii in original atom order."""
    atoms = AtomTreeData.build(molecule, leaf_cap=leaf_cap)
    quad = QuadTreeData.build(surface, leaf_cap=leaf_cap)
    partial = approx_integrals(atoms, quad, quad.tree.leaves, eps,
                               mac_variant=mac_variant)
    sorted_radii = push_integrals_to_atoms(
        atoms, partial, max_radius=2.0 * molecule.bounding_radius)
    if counters is not None:
        counters.add(partial.counters)
    return atoms.to_original_order(sorted_radii)
