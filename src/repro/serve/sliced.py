"""The row-range pipeline: every served evaluation, on any substrate.

The paper's Fig. 4 program is one two-phase pipeline whose ranks differ
only in which rows they own.  :func:`evaluate_ranges` is that pipeline,
and batched, sliced and donated requests all run it: cut the Born rows
(:func:`slice_bounds`), let the caller's *substrate* execute the ranges,
replay the serial scatter (:func:`reduce_born_flat`) and push, cut the
E_pol rows by their binned weight (:func:`epol_nbins`), let the
substrate return per-row terms, and hand them back for the serial fold
(:func:`fold_pair_terms`).  A substrate is a pair of phase callables and
decides only *where* ranges run: in this thread (:class:`LocalRanges`),
over process workers through a shared scratch segment, or on donee
shards.

The reductions replay the *exact* serial operations instead of summing
scalar partials.  Born values are written once, by position, into the
spans of :func:`repro.plan.executor.born_spans`, and the one full-range
``np.add.at`` pair scatters them in the serial row-major order; E_pol
terms land at their rows and are folded ascending, far before near.  So
accumulation order is identical to a cold ``driver.run()`` whatever the
range count, order or placement.  Nothing here reads a clock, starts a
process or keeps shared state; fleets and router own transport and
timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from ..core.binning import build_binning
from ..core.born import (AtomTreeData, BornPartial, QuadTreeData,
                         push_integrals_to_atoms)
from ..core.energy import EnergyContext
from ..octree.partition import segment_by_weight
from ..plan import PlanSet
from ..plan.executor import born_flat_values, born_spans, epol_row_terms
from ..plan.schema import InteractionPlan
from .registry import RegistryEntry

#: Contiguous ``[lo, hi)`` plan row ranges, ascending.
Bounds = list[tuple[int, int]]
#: One executed E_pol range: ``(lo, hi, far_terms, near_terms)``.
RangeTerms = tuple[int, int, np.ndarray, np.ndarray]
#: Runs Born rows ``bounds`` and returns the full flat ``(far, near)``
#: value arrays; runs E_pol rows against the Born radii and returns
#: every range's terms, in any order.
BornPhase = Callable[[Bounds], tuple[np.ndarray, np.ndarray]]
EpolPhase = Callable[[Bounds, np.ndarray], Iterable[RangeTerms]]


def slice_bounds(weights: np.ndarray, nslices: int
                 ) -> list[tuple[int, int]]:
    """Contiguous weight-balanced row ranges covering ``[0, len(weights))``
    exactly once, in ascending order; empty ranges (more slices than
    rows, or zero-weight tails) are dropped."""
    bounds = segment_by_weight(np.asarray(weights), int(nslices))
    return [(int(lo), int(hi)) for lo, hi in bounds if hi > lo]


def reduce_born_flat(plan: InteractionPlan, atoms: AtomTreeData,
                     far_flat: np.ndarray, near_flat: np.ndarray
                     ) -> BornPartial:
    """The serial Born scatter over range-filled flat arrays (every
    value of the full plan, each slot written by exactly one range): the
    two ``np.add.at`` calls a full-range
    :func:`~repro.plan.executor.execute_born_plan` issues, so the partial
    is bit-identical however the rows were partitioned."""
    if (far_flat.shape != plan.far_nodes.shape
            or near_flat.shape != plan.near_points.shape):
        raise ValueError(
            f"flat arrays must have shapes {plan.far_nodes.shape}/"
            f"{plan.near_points.shape}, got {far_flat.shape}/"
            f"{near_flat.shape}")
    partial = BornPartial.zeros(atoms)
    partial.counters = plan.counters(0, plan.nrows)
    np.add.at(partial.s_node, plan.far_nodes, far_flat)
    np.add.at(partial.s_atom, plan.near_points, near_flat)
    return partial


def epol_nbins(born_sorted: np.ndarray, eps_epol: float) -> int:
    """The energy binning width for a Born-radii vector -- what
    ``row_pair_weights(nbins=...)`` needs to weigh E_pol rows without
    building a full :class:`~repro.core.energy.EnergyContext`."""
    return int(build_binning(born_sorted, eps_epol).nbins)


def fold_pair_terms(far_terms: np.ndarray,
                    near_terms: np.ndarray) -> float:
    """The serial pair-sum fold over full-plan per-row term arrays:
    ascending row order, far before near within a row -- exactly the
    left fold of :func:`~repro.plan.executor.execute_epol_plan` (IEEE
    addition is not associative; this order is the contract)."""
    if far_terms.shape != near_terms.shape:
        raise ValueError("far/near term arrays must align row for row")
    total = 0.0
    for i in range(len(far_terms)):
        total += far_terms[i]
        total += near_terms[i]
    return float(total)


class PairTerms(NamedTuple):
    """Per-row far/near E_pol terms of the whole plan, in row order, the
    Born radii they were evaluated against (sorted atom order), and the
    ranges each phase executed."""

    far: np.ndarray
    near: np.ndarray
    born_sorted: np.ndarray
    born_ranges: int
    epol_ranges: int

    @property
    def nslices(self) -> int:
        """The widest phase's range count (at least 1)."""
        return max(self.born_ranges, self.epol_ranges, 1)


def evaluate_ranges(plans: PlanSet, atoms: AtomTreeData,
                    born_phase: BornPhase, epol_phase: EpolPhase, *,
                    nparts: int, max_radius: float,
                    eps_epol: float) -> PairTerms:
    """One request's two phases over ``nparts`` row ranges each, run
    wherever the substrate's phases put them; the reductions run here,
    on the parent's ``plans``/``atoms``.  The caller folds the returned
    terms with :func:`fold_pair_terms`."""
    def cut(plan: InteractionPlan, nbins: int = 0) -> Bounds:
        return slice_bounds(plan.row_pair_weights(nbins=nbins), nparts)

    born_bounds = cut(plans.born)
    far_flat, near_flat = born_phase(born_bounds)
    partial = reduce_born_flat(plans.born, atoms, far_flat, near_flat)
    # The flat arrays may be views of a shared segment the caller closes
    # once this returns (or raises); hold no reference past the reduce.
    del far_flat, near_flat
    born_sorted = push_integrals_to_atoms(atoms, partial,
                                          max_radius=max_radius)
    epol_bounds = cut(plans.epol, epol_nbins(born_sorted, eps_epol))
    far_terms = np.zeros(plans.epol.nrows)
    near_terms = np.zeros(plans.epol.nrows)
    for lo, hi, far_t, near_t in epol_phase(epol_bounds, born_sorted):
        far_terms[lo:hi] = far_t
        near_terms[lo:hi] = near_t
    return PairTerms(far_terms, near_terms, born_sorted, len(born_bounds),
                     len(epol_bounds))


@dataclass(frozen=True)
class LocalRanges:
    """The in-process range executor: runs row ranges of one molecule's
    plans in the calling thread, against its own trees -- for batched
    requests, the inline fleet, process workers' slice tasks and cluster
    donees alike."""

    plans: PlanSet
    atoms: AtomTreeData
    quad: QuadTreeData
    eps_epol: float

    @classmethod
    def for_entry(cls, entry: RegistryEntry, eps_born: float,
                  eps_epol: float) -> "LocalRanges":
        """The substrate of a warm registry entry at one epsilon config."""
        return cls(entry.plans_for(eps_born, eps_epol),
                   entry.calc.atom_tree(), entry.calc.quad_tree(), eps_epol)

    def born_phase(self, bounds: Bounds, far: np.ndarray | None = None,
                   near: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Write the flat Born values of ``bounds`` at their plan
        positions in ``far``/``near`` (fresh full-plan arrays when not
        given) and return both."""
        plan = self.plans.born
        if far is None or near is None:
            far = np.zeros(plan.far_nodes.shape)
            near = np.zeros(plan.near_points.shape)
        for lo, hi in bounds:
            far_span, near_span = born_spans(plan, lo, hi)
            born_flat_values(plan, self.atoms, self.quad, far[far_span],
                             near[near_span], row_range=(lo, hi))
        return far, near

    def epol_phase(self, bounds: Bounds,
                   born_sorted: np.ndarray) -> list[RangeTerms]:
        """Per-row E_pol terms of each range in ``bounds``."""
        ctx = EnergyContext.build(self.atoms, born_sorted, self.eps_epol)
        return [(lo, hi) + epol_row_terms(self.plans.epol, ctx,
                                          row_range=(lo, hi))
                for lo, hi in bounds]
