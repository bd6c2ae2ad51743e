"""The row-range pipeline: every evaluation, on any substrate.

The paper's Fig. 4 program is one two-phase pipeline whose ranks differ
only in which rows they own.  :func:`evaluate_ranges` is that pipeline,
and a cold ``driver.run()`` and batched, sliced and donated requests all
run it: cut the Born rows (:func:`slice_bounds`), let the caller's
*substrate* execute the ranges, scatter the Born values
(:func:`reduce_born_flat`) and push, cut the E_pol rows by their binned
weight (:func:`epol_nbins`), let the substrate return per-row terms, and
hand them back for the fold (:func:`fold_pair_terms`).  A substrate is a
pair of phase callables and decides only *where* ranges run: in this
thread (:class:`LocalRanges`, driven by :func:`evaluate_local`), over
process workers through a shared scratch segment, or on donee shards.
Each phase reports the ranges it actually ran, and the pipeline refuses
any request whose ranges do not tile the plan's rows
(:func:`check_row_cover`): a skipped range would fold zero-filled slots
into the energy, an overlap would hide a worker running rows it was
not given.

The reductions never sum scalar partials.  Born values are written
once, by position, into the spans of
:func:`repro.plan.executor.born_spans`, and one full-range ``np.add.at``
pair scatters them in row-major order; E_pol terms land at their rows
and are folded ascending, far before near.  So the accumulation order,
and with it every bit of the result, is the same whatever the range
count, order or placement.  Nothing here reads a clock, starts a
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
from ..core.energy import EnergyContext, epol_from_pair_sum
from ..core.params import ApproximationParams
from ..molecule.molecule import Molecule
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
#: value arrays and the ranges it ran; runs E_pol rows against the Born
#: radii and returns every range's terms, in any order.
BornPhase = Callable[[Bounds], tuple[np.ndarray, np.ndarray, Bounds]]
EpolPhase = Callable[[Bounds, np.ndarray], Iterable[RangeTerms]]


def slice_bounds(weights: np.ndarray, nslices: int
                 ) -> list[tuple[int, int]]:
    """Contiguous weight-balanced row ranges covering ``[0, len(weights))``
    exactly once, in ascending order; empty ranges (more slices than
    rows, or zero-weight tails) are dropped."""
    bounds = segment_by_weight(np.asarray(weights), int(nslices))
    return [(int(lo), int(hi)) for lo, hi in bounds if hi > lo]


def check_row_cover(ranges: Iterable[tuple[int, int]], nrows: int,
                    phase: str) -> None:
    """Raise :class:`ValueError` unless the executed ``ranges`` tile
    ``[0, nrows)`` exactly: sorted, each starts where the one before it
    ended, the last ends at ``nrows`` -- no gap, no overlap."""
    ranges = sorted(ranges)
    edge = 0
    for lo, hi in ranges:
        if lo != edge or hi < lo:
            break
        edge = hi
    else:
        if edge == nrows:
            return
    raise ValueError(f"{phase} ranges {ranges} do not tile the plan's "
                     f"rows [0, {nrows})")


def reduce_born_flat(plan: InteractionPlan, atoms: AtomTreeData,
                     far_flat: np.ndarray, near_flat: np.ndarray
                     ) -> BornPartial:
    """The Born scatter over range-filled flat arrays (every value of the
    full plan, each slot written by exactly one range): the two
    ``np.add.at`` calls a full-range
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
    """The pair-sum fold over per-row term arrays: ascending row order,
    far before near within a row (IEEE addition is not associative; this
    order is the contract).  Every E_pol pair sum in the package is
    folded here, :func:`~repro.plan.executor.execute_epol_plan`'s
    included."""
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
    on the parent's ``plans``/``atoms``, once the ranges each phase ran
    pass :func:`check_row_cover`.  The caller folds the returned terms
    with :func:`fold_pair_terms`."""
    def cut(plan: InteractionPlan, nbins: int = 0) -> Bounds:
        return slice_bounds(plan.row_pair_weights(nbins=nbins), nparts)

    born_bounds = cut(plans.born)
    far_flat, near_flat, born_ran = born_phase(born_bounds)
    try:
        check_row_cover(born_ran, plans.born.nrows, "Born")
        partial = reduce_born_flat(plans.born, atoms, far_flat, near_flat)
    finally:
        # The flat arrays may be views of a shared segment the caller
        # closes once this returns (or raises); hold no reference past
        # the reduce.
        del far_flat, near_flat
    born_sorted = push_integrals_to_atoms(atoms, partial,
                                          max_radius=max_radius)
    epol_bounds = cut(plans.epol, epol_nbins(born_sorted, eps_epol))
    range_terms = list(epol_phase(epol_bounds, born_sorted))
    check_row_cover(((lo, hi) for lo, hi, _, _ in range_terms),
                    plans.epol.nrows, "E_pol")
    far_terms = np.zeros(plans.epol.nrows)
    near_terms = np.zeros(plans.epol.nrows)
    for lo, hi, far_t, near_t in range_terms:
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
                   ) -> tuple[np.ndarray, np.ndarray, Bounds]:
        """Write the flat Born values of ``bounds`` at their plan
        positions in ``far``/``near`` (fresh full-plan arrays when not
        given); return both and the ranges run."""
        plan = self.plans.born
        if far is None or near is None:
            far = np.zeros(plan.far_nodes.shape)
            near = np.zeros(plan.near_points.shape)
        for lo, hi in bounds:
            far_span, near_span = born_spans(plan, lo, hi)
            born_flat_values(plan, self.atoms, self.quad, far[far_span],
                             near[near_span], row_range=(lo, hi))
        return far, near, list(bounds)

    def epol_phase(self, bounds: Bounds,
                   born_sorted: np.ndarray) -> list[RangeTerms]:
        """Per-row E_pol terms of each range in ``bounds``."""
        ctx = EnergyContext.build(self.atoms, born_sorted, self.eps_epol)
        return [(lo, hi) + epol_row_terms(self.plans.epol, ctx,
                                          row_range=(lo, hi))
                for lo, hi in bounds]


def evaluate_local(molecule: Molecule, ranges: LocalRanges,
                   params: ApproximationParams, *,
                   nparts: int) -> tuple[float, PairTerms]:
    """The pipeline with every range run in this thread: one range for a
    cold ``driver.run()`` and a batched request, ``nparts`` for
    :meth:`~repro.serve.fleet.InlineFleet.run_sliced`.  Returns the
    energy and the terms."""
    terms = evaluate_ranges(ranges.plans, ranges.atoms, ranges.born_phase,
                            ranges.epol_phase, nparts=nparts,
                            max_radius=2.0 * molecule.bounding_radius,
                            eps_epol=ranges.eps_epol)
    return epol_from_pair_sum(fold_pair_terms(terms.far, terms.near),
                              epsilon_solvent=params.epsilon_solvent), terms
