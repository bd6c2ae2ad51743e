"""Differential tests: real process fleet vs. inline fleet vs. serial driver.

Every substrate runs the one row-range pipeline
(:func:`repro.serve.sliced.evaluate_ranges`), whose reductions do not
depend on how the rows were cut.  These tests enforce the consequence
end to end: ``run()`` (one in-thread range), ``compute("serial")`` and
``compute("real")`` at any worker count give the same energy and Born
radii, bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.driver import PolarizationEnergyCalculator
from repro.molecule.generators import protein_blob


@pytest.fixture(scope="module")
def seeded_calcs():
    """Two seeded molecules with their serial reference results."""
    out = []
    for natoms, seed in ((150, 21), (420, 22)):
        calc = PolarizationEnergyCalculator(protein_blob(natoms, seed=seed))
        out.append((calc, calc.run()))
    return out


@functools.lru_cache(maxsize=None)
def _reference(natoms: int, seed: int):
    """A calculator and its ``run()``, built once per molecule across the
    parametrized cases."""
    calc = PolarizationEnergyCalculator(protein_blob(natoms, seed=seed))
    return calc, calc.run()


_BIT_IDENTITY_CASES = [
    (natoms, seed, workers)
    for natoms, seed in ((150, 31), (420, 32), (2500, 7))
    for workers in (1, 2, 3, 4)
] + [(12, 5, 5)]  # more ranks than leaves


class TestBitIdentity:
    @pytest.mark.parametrize("natoms,seed,workers", _BIT_IDENTITY_CASES)
    def test_every_substrate_bit_identical(self, natoms, seed, workers):
        calc, ref = _reference(natoms, seed)
        serial = calc.compute(backend="serial", workers=workers)
        real = calc.compute(backend="real", workers=workers)
        for res in (serial, real):
            assert res.energy == ref.energy
            assert np.array_equal(res.born_radii, ref.born_radii)


class TestSerialBackendEquivalence:
    def test_serial_backend_bit_identical_to_run(self, seeded_calcs):
        for calc, ref in seeded_calcs:
            res = calc.compute(backend="serial")
            assert res.energy == ref.energy
            assert np.array_equal(res.born_radii, ref.born_radii)

    def test_serial_backend_counters_match_run(self, seeded_calcs):
        calc, ref = seeded_calcs[0]
        res = calc.compute(backend="serial")
        expected = ref.born_counters.copy()
        expected.add(ref.energy_counters)
        assert res.counters.exact_pairs == expected.exact_pairs
        assert res.counters.far_evals == expected.far_evals
        assert res.counters.hist_pairs == expected.hist_pairs

    def test_unknown_backend_rejected(self, seeded_calcs):
        calc, _ = seeded_calcs[0]
        with pytest.raises(ValueError, match="unknown backend"):
            calc.compute(backend="quantum")


class TestRealBackendDifferential:
    def test_p1_bit_identical_to_serial_driver(self, seeded_calcs):
        for calc, ref in seeded_calcs:
            res = calc.compute(backend="real", workers=1)
            assert res.energy == ref.energy
            assert np.array_equal(res.born_radii, ref.born_radii)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_multiworker_matches_serial(self, seeded_calcs, workers):
        for calc, ref in seeded_calcs:
            res = calc.compute(backend="real", workers=workers)
            assert res.energy == ref.energy
            assert np.array_equal(res.born_radii, ref.born_radii)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_simulated_full_numerics(self, seeded_calcs, workers):
        """The process fleet equals the inline fleet simulating the same
        width: the same ranges, run in turn in this thread."""
        calc, _ = seeded_calcs[0]
        real = calc.compute(backend="real", workers=workers)
        sim = calc.compute(backend="serial", workers=workers)
        assert sim.nworkers == workers
        assert real.energy == sim.energy
        assert np.array_equal(real.born_radii, sim.born_radii)

    def test_more_workers_than_leaves(self):
        """Empty rank segments (P > leaves) must idle, not crash."""
        calc = PolarizationEnergyCalculator(protein_blob(12, seed=5))
        ref = calc.run()
        res = calc.compute(backend="real", workers=5)
        assert res.energy == ref.energy

    def test_counters_merge_to_serial_totals(self, seeded_calcs):
        """Node-based division partitions the work exactly: the counters
        of a multi-worker run are the serial totals."""
        calc, ref = seeded_calcs[0]
        res = calc.compute(backend="real", workers=3)
        expected = ref.born_counters.copy()
        expected.add(ref.energy_counters)
        assert res.counters.exact_pairs == expected.exact_pairs
        assert res.counters.far_evals == expected.far_evals
        assert res.counters.hist_pairs == expected.hist_pairs


class TestDeterminism:
    def test_identical_runs_identical_results(self, seeded_calcs):
        """Same seed, same worker count -> identical energy and radii,
        whatever order the OS schedules the workers in."""
        calc, _ = seeded_calcs[1]
        a = calc.compute(backend="real", workers=2)
        b = calc.compute(backend="real", workers=2)
        assert a.energy == b.energy
        assert np.array_equal(a.born_radii, b.born_radii)

    def test_timing_fields_populated(self, seeded_calcs):
        calc, _ = seeded_calcs[0]
        res = calc.compute(backend="real", workers=2)
        assert res.backend == "real" and res.nworkers == 2
        assert res.wall_seconds > 0
        assert res.setup_seconds > 0
