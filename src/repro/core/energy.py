"""Octree-based GB polarization energy: APPROX-EPOL (paper Fig. 3).

The unit of distributable work is one *leaf of the atoms octree* ``V``; for
each assigned leaf the same atoms octree is walked from the root, and

* far nodes ``U`` (energy MAC: ``r_UV > (r_U + r_V)(1 + 2/eps)``)
  contribute through the binned-charge rule
  ``sum_{i,j} q_U[i] q_V[j] / f_GB(r_UV, R_min^2 (1+eps)^(i+j))``;
* near leaves contribute exact ``f_GB`` tiles.

Every *ordered* atom pair ``(u, v)`` is covered exactly once (``v`` ranges
over the leaf partition, ``u`` over the whole tree), so the sum over all
leaves equals the unrestricted double sum of Eq. 2 -- including the
``u == v`` self-energy diagonal -- and the usual ``1/2`` lives in the
prefactor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis_static.verify.annotations import declares_effects
from ..constants import EPSILON_WATER, gb_prefactor
from ..octree.aggregate import node_histograms
from ..octree.mac import epol_mac_multiplier
from ..octree.traversal import classify_against_ball
from ..runtime.instrument import WorkCounters
from .binning import BornBinning, build_binning
from .born import AtomTreeData, _slice_concat
from .gbmodels import f_gb
from .integrals import pair_distance_sq


@dataclass
class EpolPartial:
    """One rank's additive share of the energy phase.

    ``pair_sum`` is the raw ordered double sum ``sum q_u q_v / f_uv`` over
    the rank's leaves; partial energies from different ranks combine by
    addition (the paper's Step 7 ``MPI_Allreduce``/master accumulation).
    """

    pair_sum: float
    counters: WorkCounters

    def add(self, other: "EpolPartial") -> "EpolPartial":
        self.pair_sum += other.pair_sum
        self.counters.add(other.counters)
        return self


@dataclass
class EnergyContext:
    """Everything APPROX-EPOL needs besides the leaf segment: the tree
    bundle, Born radii (sorted order), the binning and the per-node charge
    histograms ``q_U[k]``.

    Building this once and sharing it across ranks mirrors the paper's
    replicated-data design (every process holds the full octree).
    """

    atoms: AtomTreeData
    born_sorted: np.ndarray
    binning: BornBinning
    node_hist: np.ndarray          # (M, nbins)
    pair_radius_sq: np.ndarray     # (nbins, nbins)

    @classmethod
    def build(cls, atoms: AtomTreeData, born_sorted: np.ndarray,
              eps: float) -> "EnergyContext":
        if born_sorted.shape != (atoms.tree.npoints,):
            raise ValueError("born_sorted must have one entry per atom")
        binning = build_binning(born_sorted, eps)
        # node_histograms works in original point order; map sorted-order
        # payloads back through the permutation.
        bins_orig = np.empty(atoms.tree.npoints, dtype=np.int64)
        bins_orig[atoms.tree.perm] = binning.bin_index
        charges_orig = np.empty(atoms.tree.npoints)
        charges_orig[atoms.tree.perm] = atoms.sorted_charges
        hist = node_histograms(atoms.tree, bins_orig, charges_orig,
                               binning.nbins)
        return cls(atoms=atoms, born_sorted=born_sorted, binning=binning,
                   node_hist=hist, pair_radius_sq=binning.pair_radius_sq())


@declares_effects()
def approx_epol(ctx: EnergyContext, v_leaves: np.ndarray,
                eps: float, *, disable_far: bool = False,
                per_leaf: list[WorkCounters] | None = None) -> EpolPartial:
    """Run APPROX-EPOL for the given segment of atoms-tree leaves.

    Default entry point: builds an interaction plan for the segment and
    executes it batched (:mod:`repro.plan`), equal to the differential
    tests' reference :func:`approx_epol_perleaf` to rounding.  Callers
    holding a cached whole-tree plan should slice it with
    :func:`repro.plan.execute_epol_plan` directly.
    """
    # Imported lazily: repro.plan imports this module for EnergyContext.
    from ..plan import build_epol_plan, execute_epol_plan
    plan = build_epol_plan(ctx.atoms, eps, disable_far=disable_far,
                           v_leaves=np.asarray(v_leaves, dtype=np.int64))
    return execute_epol_plan(plan, ctx, per_leaf=per_leaf)


def approx_epol_perleaf(ctx: EnergyContext, v_leaves: np.ndarray,
                        eps: float, *, disable_far: bool = False,
                        per_leaf: list[WorkCounters] | None = None
                        ) -> EpolPartial:
    """Reference per-leaf APPROX-EPOL (one walk + one tile batch per leaf).

    The plan executor matches this loop to rounding; it stays as the
    differential baseline and as the readable transcription of Fig. 3.

    Returns the raw pair sum (no dielectric prefactor); see
    :func:`epol_from_pair_sum`.  ``disable_far`` forces the exact path for
    every node pair (the MAC would otherwise accept zero-radius pairs at
    any ``eps``, whose binned radii are approximate).  ``per_leaf``
    optionally collects one :class:`WorkCounters` per leaf for the
    work-stealing simulation.
    """
    tree = ctx.atoms.tree
    counters = WorkCounters()
    mult = np.inf if disable_far else epol_mac_multiplier(eps)
    pos = tree.sorted_points
    charges = ctx.atoms.sorted_charges
    born = ctx.born_sorted
    nbins = ctx.binning.nbins
    pair_r2 = ctx.pair_radius_sq              # (K, K)
    total = 0.0
    for leaf in np.asarray(v_leaves):
        leaf_counters = WorkCounters()
        center = tree.ball_center[leaf]
        radius = float(tree.ball_radius[leaf])
        vs, ve = tree.point_start[leaf], tree.point_end[leaf]
        cls = classify_against_ball(tree, center, radius, mult)
        leaf_counters.nodes_visited += cls.nodes_visited
        if cls.far_nodes.size:
            q_u = ctx.node_hist[cls.far_nodes]     # (F, K)
            q_v = ctx.node_hist[leaf]              # (K,)
            d2 = (cls.far_dist ** 2)[:, None, None]
            f = f_gb(d2, pair_r2[None, :, :])      # (F, K, K)
            total += float(np.einsum("fi,j,fij->", q_u, q_v, 1.0 / f))
            leaf_counters.far_evals += cls.far_nodes.size
            leaf_counters.hist_pairs += cls.far_nodes.size * nbins * nbins
        if cls.near_leaves.size:
            idx = _slice_concat(tree, cls.near_leaves)
            r2, _, _ = pair_distance_sq(pos[idx], pos[vs:ve])
            f = f_gb(r2, born[idx][:, None] * born[vs:ve][None, :])
            total += float(np.sum(charges[idx][:, None]
                                  * charges[vs:ve][None, :] / f))
            leaf_counters.exact_pairs += idx.size * (ve - vs)
        counters.add(leaf_counters)
        if per_leaf is not None:
            per_leaf.append(leaf_counters)
    return EpolPartial(pair_sum=total, counters=counters)


def epol_from_pair_sum(pair_sum: float, *,
                       epsilon_solvent: float = EPSILON_WATER) -> float:
    """Apply the GB prefactor (sign, 1/2, Coulomb constant, dielectrics)
    to a raw ordered pair sum."""
    return gb_prefactor(epsilon_solvent) * pair_sum


@declares_effects()
def epol_octree(ctx: EnergyContext, *, eps: float,
                epsilon_solvent: float = EPSILON_WATER,
                counters: WorkCounters | None = None) -> float:
    """Single-process convenience wrapper over the full leaf set."""
    partial = approx_epol(ctx, ctx.atoms.tree.leaves, eps)
    if counters is not None:
        counters.add(partial.counters)
    return epol_from_pair_sum(partial.pair_sum,
                              epsilon_solvent=epsilon_solvent)
