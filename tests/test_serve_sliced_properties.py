"""Property tests for the batch-vs-slice policy and slice decomposition.

Three invariants the sliced serving path leans on:

* :func:`repro.serve.policy.decide_mode` is a pure, monotone function of
  its arguments -- same inputs always give the same route, heavier
  requests never flip back to batched, and queue pressure only ever
  *raises* the bar for slicing;
* :func:`repro.serve.sliced.slice_bounds` partitions ``[0, nrows)``
  exactly -- every row in exactly one contiguous range, for any
  non-negative weight profile and any worker count -- and keeps every
  non-empty range of :func:`~repro.octree.partition.segment_by_weight`;
* the served energy is invariant to how many slices the plan is cut
  into, and to the order the ranges execute in (the parent replays the
  serial reduction, so routing, fleet width and worker timing can only
  change *where* and *when* rows evaluate, never the bits).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import PolarizationEnergyCalculator
from repro.core.energy import epol_from_pair_sum
from repro.molecule.generators import protein_blob
from repro.octree.partition import segment_by_weight
from repro.serve import (EpsConfig, InlineFleet, LocalRanges, MODE_BATCHED,
                         MODE_SLICED, MoleculeRegistry, decide_mode,
                         evaluate_ranges, fold_pair_terms, slice_bounds)

_weights = st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=0, max_size=60)
_row_weight = st.floats(min_value=0.0, max_value=1e9,
                        allow_nan=False, allow_infinity=False)
_threshold = st.floats(min_value=1e-6, max_value=1e9,
                       allow_nan=False, allow_infinity=False)
_depth = st.integers(min_value=0, max_value=64)
_scale = st.floats(min_value=0.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


class TestDecideMode:
    @given(w=_row_weight, t=_threshold, d=_depth, s=_scale)
    @settings(max_examples=200, deadline=None)
    def test_pure_and_total(self, w, t, d, s):
        first = decide_mode(w, threshold=t, queue_depth=d, queue_scale=s)
        assert first in (MODE_BATCHED, MODE_SLICED)
        # Purity: the decision is a function of its arguments alone.
        assert decide_mode(w, threshold=t, queue_depth=d,
                           queue_scale=s) == first

    @given(w=_row_weight, extra=_row_weight, t=_threshold, d=_depth,
           s=_scale)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_weight(self, w, extra, t, d, s):
        """If a request slices, any heavier request also slices."""
        if decide_mode(w, threshold=t, queue_depth=d,
                       queue_scale=s) == MODE_SLICED:
            assert decide_mode(w + extra, threshold=t, queue_depth=d,
                               queue_scale=s) == MODE_SLICED

    @given(w=_row_weight, t=_threshold, d=_depth, s=_scale)
    @settings(max_examples=200, deadline=None)
    def test_queue_pressure_only_raises_the_bar(self, w, t, d, s):
        """A loaded queue can demote slice -> batch, never the reverse:
        slicing under depth ``d`` implies slicing under an idle queue."""
        if decide_mode(w, threshold=t, queue_depth=d,
                       queue_scale=s) == MODE_SLICED:
            assert decide_mode(w, threshold=t, queue_depth=0,
                               queue_scale=s) == MODE_SLICED

    @given(w=_row_weight, d=_depth, s=_scale)
    @settings(max_examples=50, deadline=None)
    def test_none_threshold_disables_slicing(self, w, d, s):
        assert decide_mode(w, threshold=None, queue_depth=d,
                           queue_scale=s) == MODE_BATCHED


class TestSliceBounds:
    @given(weights=_weights, nslices=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_exact_cover(self, weights, nslices):
        """The returned ranges tile ``[0, n)``: ascending, contiguous,
        non-empty, every row in exactly one slice."""
        n = len(weights)
        bounds = slice_bounds(np.asarray(weights, dtype=np.int64), nslices)
        assert len(bounds) <= min(nslices, n) if n else bounds == []
        covered = []
        prev_hi = 0
        for lo, hi in bounds:
            assert lo == prev_hi, "ranges must be contiguous"
            assert hi > lo, "empty ranges must be dropped"
            covered.extend(range(lo, hi))
            prev_hi = hi
        assert covered == list(range(n))

    @given(weights=_weights)
    @settings(max_examples=50, deadline=None)
    def test_single_slice_is_whole_range(self, weights):
        n = len(weights)
        bounds = slice_bounds(np.asarray(weights, dtype=np.int64), 1)
        assert bounds == ([(0, n)] if n else [])

    @given(weights=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                      allow_nan=False), max_size=200),
           nslices=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200, deadline=None)
    def test_slice_bounds_only_filters_empties(self, weights, nslices):
        """``slice_bounds`` is ``segment_by_weight``'s cut with the empty
        ranges dropped -- it never moves a cut."""
        w = np.asarray(weights, dtype=float)
        raw = segment_by_weight(w, nslices)
        assert slice_bounds(w, nslices) == [(lo, hi) for lo, hi in raw
                                            if hi > lo]


#: Small but multi-row molecule; the energy property re-slices it.
_MOLECULE = protein_blob(150, seed=87)
_STATE: dict = {}


def _entry():
    """Warm registry entry + cold reference, built once per module."""
    if not _STATE:
        reg = MoleculeRegistry()
        entry = reg.get(reg.register(_MOLECULE))
        _STATE["registry"] = reg  # keep the entry alive
        _STATE["entry"] = entry
        _STATE["cfg"] = EpsConfig.resolve(entry.params)
        _STATE["reference"] = \
            PolarizationEnergyCalculator(_MOLECULE).run().energy
    return _STATE


class TestEnergyInvariance:
    @given(nslices=st.integers(min_value=1, max_value=6))
    @settings(max_examples=12, deadline=None)
    def test_energy_invariant_to_slice_count(self, nslices):
        state = _entry()
        res = InlineFleet(nslices).run_sliced(0, state["entry"],
                                              state["cfg"])
        assert res.error is None
        assert res.energy == state["reference"]  # exact float equality

    @pytest.mark.parametrize("nparts", range(1, 7))
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_energy_invariant_to_range_execution_order(self, nparts, data):
        """Process workers finish in any order: a substrate that runs each
        phase's ranges in a drawn order covers every row once and gives
        the cold energy bit for bit."""
        state = _entry()
        entry, cfg = state["entry"], state["cfg"]
        local = LocalRanges.for_entry(entry, cfg.eps_born, cfg.eps_epol)
        executed: dict[str, list] = {}

        def run_in_drawn_order(phase, bounds):
            order = data.draw(st.permutations(range(len(bounds))),
                              label=f"{phase} order")
            executed[phase] = [bounds[i] for i in order]
            return executed[phase]

        terms = evaluate_ranges(
            local.plans, local.atoms,
            lambda b: local.born_phase(run_in_drawn_order("born", b)),
            lambda b, radii: local.epol_phase(
                run_in_drawn_order("epol", b), radii),
            nparts=nparts, max_radius=2.0 * entry.molecule.bounding_radius,
            eps_epol=cfg.eps_epol)
        for phase, plan in (("born", local.plans.born),
                            ("epol", local.plans.epol)):
            rows = sorted(r for lo, hi in executed[phase]
                          for r in range(lo, hi))
            assert rows == list(range(plan.nrows)), phase
        energy = epol_from_pair_sum(
            fold_pair_terms(terms.far, terms.near),
            epsilon_solvent=entry.params.epsilon_solvent)
        assert energy == state["reference"]  # exact float equality
