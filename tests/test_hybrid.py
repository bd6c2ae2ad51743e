"""Tests for the parallel runners (OCT_CILK / OCT_MPI / OCT_MPI+CILK).

The central assertions: every variant reports the one serial execution's
energy, and the timing model behaves (monotone scaling, memory ratios,
OOM handling).  That the energy does not depend on the cut is
``tests/test_procpool.py::TestBitIdentity``'s job: ``run()``,
``compute("serial", workers=P)`` and ``compute("real", workers=P)`` agree
bit for bit.
"""

import numpy as np
import pytest

from repro.parallel.cost import MemoryModel
from repro.parallel.hybrid import ParallelRunConfig, run_parallel, run_variant
from repro.parallel.machine import layout_for_cores


class TestNumericsInvariance:
    def test_all_variants_identical_energy(self, medium_calc):
        energies = {run_variant(medium_calc, v, cores=12).energy
                    for v in ("OCT_CILK", "OCT_MPI", "OCT_MPI+CILK")}
        assert energies == {medium_calc.run().energy}


class TestTiming:
    def test_deterministic(self, medium_calc):
        a = run_variant(medium_calc, "OCT_MPI", cores=12)
        b = run_variant(medium_calc, "OCT_MPI", cores=12)
        assert a.sim_seconds == b.sim_seconds

    def test_more_cores_faster_when_compute_dominates(self, large_calc):
        t12 = run_variant(large_calc, "OCT_MPI", cores=12).sim_seconds
        t48 = run_variant(large_calc, "OCT_MPI", cores=48).sim_seconds
        assert t48 < t12

    def test_small_molecule_does_not_scale(self, medium_calc):
        # The paper: for small molecules communication dominates, so more
        # ranks do not help (OCT_CILK wins below ~2500 atoms).
        t12 = run_variant(medium_calc, "OCT_MPI", cores=12).sim_seconds
        t48 = run_variant(medium_calc, "OCT_MPI", cores=48).sim_seconds
        assert t48 > 0.8 * t12

    def test_jitter_changes_times_not_energy(self, medium_calc):
        cfg_a = ParallelRunConfig(seed=1, jitter_sigma=0.05)
        cfg_b = ParallelRunConfig(seed=2, jitter_sigma=0.05)
        a = run_variant(medium_calc, "OCT_MPI+CILK", cores=12, config=cfg_a)
        b = run_variant(medium_calc, "OCT_MPI+CILK", cores=12, config=cfg_b)
        assert a.sim_seconds != b.sim_seconds
        assert a.energy == b.energy

    def test_approximate_math_speeds_up(self, large_calc):
        base = run_variant(large_calc, "OCT_MPI", cores=12)
        fast = run_variant(large_calc, "OCT_MPI", cores=12,
                           config=ParallelRunConfig(approximate_math=True))
        assert fast.sim_seconds < base.sim_seconds
        ratio = base.sim_seconds / fast.sim_seconds
        assert 1.15 < ratio < 1.45  # ~1.42x minus comm/overhead dilution

    def test_tree_build_adds_time(self, medium_calc):
        base = run_variant(medium_calc, "OCT_MPI", cores=12)
        built = run_variant(medium_calc, "OCT_MPI", cores=12,
                            config=ParallelRunConfig(include_tree_build=True))
        assert built.sim_seconds > base.sim_seconds
        assert "build" in built.phase_seconds

    def test_phase_breakdown_present(self, medium_calc):
        r = run_variant(medium_calc, "OCT_MPI", cores=12)
        for phase in ("born_compute", "born_comm", "push", "radii_comm",
                      "energy_compute", "energy_comm"):
            assert phase in r.phase_seconds
        assert r.comm is not None and r.comm.collective_calls == 3

    def test_oct_cilk_has_no_comm(self, medium_calc):
        r = run_variant(medium_calc, "OCT_CILK", cores=12)
        assert r.comm is None
        assert r.steals > 0

    def test_hybrid_steals_mpi_does_not(self, medium_calc):
        mpi = run_variant(medium_calc, "OCT_MPI", cores=12)
        hyb = run_variant(medium_calc, "OCT_MPI+CILK", cores=12)
        assert mpi.steals == 0
        assert hyb.steals > 0


class TestMemory:
    def test_mpi_uses_six_times_hybrid_memory(self, medium_calc):
        mpi = run_variant(medium_calc, "OCT_MPI", cores=12)
        hyb = run_variant(medium_calc, "OCT_MPI+CILK", cores=12)
        assert mpi.node_bytes / hyb.node_bytes == pytest.approx(6.0)

    def test_oom_flag(self, medium_calc):
        tiny = MemoryModel(process_overhead=0)
        # A machine with absurdly little RAM forces the OOM path.
        from dataclasses import replace
        from repro.parallel.machine import LONESTAR4
        small_machine = replace(LONESTAR4, ram_gb=1e-6)
        cfg = ParallelRunConfig(
            memory_model=MemoryModel(machine=small_machine))
        r = run_parallel(medium_calc, layout_for_cores(12, hybrid=False),
                         cfg)
        assert r.oom
        assert r.sim_seconds == float("inf")
        assert np.isnan(r.energy)

    def test_unknown_variant(self, medium_calc):
        with pytest.raises(ValueError):
            run_variant(medium_calc, "OCT_GPU", cores=12)

