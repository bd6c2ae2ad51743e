"""Shared-memory race detector: overlap reporting, the fleet's sliced
scratch writes, and the checked differential runs.

Acceptance criteria covered here: two ranks declaring overlapping writes
to one array are reported with both ranks identified; the process
fleet's slice workers declare exactly the scratch spans they write; and
the standard P in {2, 4} run under ``REPRO_CHECKS=1`` is clean and
bit-identical to the unchecked run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis_static.races import (WriteIntentTracker, find_races,
                                         flat_cover, intents_from_payload)
from repro.core.driver import PolarizationEnergyCalculator
from repro.molecule.generators import protein_blob
from repro.parallel.procpool.shm import SharedArrayBundle
from repro.plan.executor import born_spans
from repro.serve.fleet import _publication_arrays, _run_slice, _WorkerState
from repro.serve.registry import RegistryEntry


@pytest.fixture()
def bundle():
    b = SharedArrayBundle.create({"field": np.zeros(32)})
    yield b
    b.close()
    b.unlink()


class TestFlatCover:
    def test_basic_keys(self):
        assert flat_cover((8,), slice(2, 5)) == (2, 5)
        assert flat_cover((8,), 3) == (3, 4)
        assert flat_cover((8,), Ellipsis) == (0, 8)
        assert flat_cover((4, 6), (2, slice(0, 3))) == (12, 15)
        assert flat_cover((4, 6), 1) == (6, 12)

    def test_negative_and_stepped(self):
        assert flat_cover((8,), -1) == (7, 8)
        assert flat_cover((8,), slice(0, 8, 3)) == (0, 7)  # covering

    def test_empty_write_is_none(self):
        assert flat_cover((8,), slice(3, 3)) is None
        assert flat_cover((0,), slice(None)) is None

    def test_fancy_indexing_covers_everything(self):
        assert flat_cover((8,), np.array([1, 5])) == (0, 8)

    def test_scalar_shape(self):
        assert flat_cover((), Ellipsis) == (0, 1)


def _write(tracker, view, key, value):
    """Declare one write through ``view`` and perform it."""
    tracker.record_write("bundle:field", view.shape, key)
    view[key] = value


class TestOverlapDetection:
    def test_overlapping_writes_reported(self, bundle):
        """The headline acceptance test: two ranks write overlapping
        slices of one bundle segment."""
        trackers = [WriteIntentTracker(0), WriteIntentTracker(1)]
        for tracker in trackers:
            _write(tracker, bundle.view("field"), slice(4, 12),
                   float(tracker.rank))
        intents = [i for t in trackers for i in t.intents]
        races = find_races(intents)
        assert len(races) == 1
        race = races[0]
        assert {race.a.rank, race.b.rank} == {0, 1}
        assert race.array == "bundle:field"
        text = race.describe()
        assert "rank 0" in text and "rank 1" in text
        # Both stack traces point at the offending write site.
        assert race.a.stack and race.b.stack
        assert "test_race_detector" in race.a.stack

    def test_disjoint_writes_are_clean(self, bundle):
        trackers = [WriteIntentTracker(0), WriteIntentTracker(1)]
        bounds = [(0, 16), (16, 32)]
        for tracker, (lo, hi) in zip(trackers, bounds):
            _write(tracker, bundle.view("field"), slice(lo, hi), 1.0)
        assert find_races([i for t in trackers for i in t.intents]) == []

    def test_same_rank_rewrites_allowed(self, bundle):
        tracker = WriteIntentTracker(0)
        view = bundle.view("field")
        _write(tracker, view, slice(0, 8), 1.0)
        _write(tracker, view, slice(4, 12), 2.0)  # overlaps its own write
        assert find_races(tracker.intents) == []


@pytest.fixture()
def slice_worker():
    """A fleet worker's prepared state for one published molecule, plus
    the per-request scratch segment its Born slices write."""
    calc = PolarizationEnergyCalculator(protein_blob(300, seed=81))
    entry = RegistryEntry(key="blob300", molecule=calc.molecule, calc=calc)
    plans = calc.plans()
    pub = SharedArrayBundle.create(_publication_arrays(entry, plans))
    scratch = SharedArrayBundle.create({
        "born_far": np.zeros(plans.born.far_nodes.size),
        "born_near": np.zeros(plans.born.near_points.size),
        "born_sorted": np.zeros(calc.atom_tree().tree.npoints),
    })
    state = _WorkerState(
        SharedArrayBundle.attach(pub.name, pub.layout),
        {"born": plans.born.meta(), "epol": plans.epol.meta()},
        calc.params, calc.molecule.name)
    yield state, scratch, plans.born
    state.release()
    for seg in (scratch, pub):
        seg.close()
        seg.unlink()


def _born_slice(state, rank, scratch, lo, hi):
    (payload,) = _run_slice(state, rank, "born_slice", scratch, lo, hi)
    return payload


class TestTracker:
    def test_dedup_and_payload_roundtrip(self, bundle):
        tracker = WriteIntentTracker(3)
        view = bundle.view("field")
        for _ in range(100):
            _write(tracker, view, slice(0, 4), 1.0)  # one intent, not 100
        assert len(tracker.intents) == 1
        restored = intents_from_payload(tracker.payload())
        assert restored == tracker.intents
        assert restored[0].rank == 3

    def test_scratch_buffer_tracking(self, slice_worker, monkeypatch):
        """A checked slice worker declares exactly the non-empty
        flat-CSR spans of its rows on the two scratch arrays."""
        monkeypatch.setenv("REPRO_CHECKS", "1")
        state, scratch, plan = slice_worker
        lo, hi = plan.nrows // 4, plan.nrows
        intents = intents_from_payload(
            _born_slice(state, 1, scratch, lo, hi))
        spans = zip(("sliced:born_far", "sliced:born_near"),
                    born_spans(plan, lo, hi))
        want = {(name, s.start, s.stop) for name, s in spans
                if s.stop > s.start}
        assert len(want) == 2
        assert {(i.array, i.start, i.stop) for i in intents} == want
        assert all(i.rank == 1 for i in intents)


class TestZeroOverheadWhenDisabled:
    def test_plain_views_without_tracker(self, bundle):
        """Regression: the shm bundle hands out base ndarrays."""
        view = bundle.view("field")
        assert type(view) is np.ndarray

    def test_scratch_plain_without_tracker(self, slice_worker,
                                           monkeypatch):
        """An unchecked slice worker declares nothing."""
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        state, scratch, plan = slice_worker
        assert _born_slice(state, 0, scratch, 0, plan.nrows) is None


class TestSlicedScratchIntents:
    def test_disjoint_slices_clean_overlap_reported(self, slice_worker,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "1")
        state, scratch, plan = slice_worker
        mid = plan.nrows // 2
        a = intents_from_payload(_born_slice(state, 0, scratch, 0, mid))
        b = intents_from_payload(
            _born_slice(state, 1, scratch, mid, plan.nrows))
        assert find_races(a + b) == []
        c = intents_from_payload(
            _born_slice(state, 2, scratch, mid - 1, plan.nrows))
        races = find_races(a + c)
        assert races and {races[0].a.rank, races[0].b.rank} == {0, 2}


class TestCheckedDifferentialRuns:
    """The standard P in {2, 4} run under REPRO_CHECKS=1: the fleet's
    race check passes and the numbers equal the unchecked run's."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_checked_run_clean_and_bitcompatible(self, monkeypatch,
                                                 workers):
        calc = PolarizationEnergyCalculator(protein_blob(150, seed=21))
        ref = calc.run()
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        plain = calc.compute(backend="real", workers=workers)
        monkeypatch.setenv("REPRO_CHECKS", "1")
        res = calc.compute(backend="real", workers=workers)
        assert res.energy == plain.energy == ref.energy
        assert np.array_equal(res.born_radii, plain.born_radii)

    def test_unchecked_run_has_no_report(self, monkeypatch):
        """With the checkers off, the parent never runs the race check."""
        from repro.serve import fleet

        def no_check(intents, max_findings=20):
            raise AssertionError("race check ran with REPRO_CHECKS unset")

        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        monkeypatch.setattr(fleet, "find_races", no_check)
        calc = PolarizationEnergyCalculator(protein_blob(120, seed=7))
        assert calc.compute(backend="real", workers=2).energy \
            == calc.run().energy
