"""Tests for the parallel runners (OCT_CILK / OCT_MPI / OCT_MPI+CILK).

The central assertions: full-numerics runs produce energies and radii
equal to the serial pipeline's, bit for bit, at every layout (node-based
division invariance), the cached fast path agrees with the full path,
and the timing model behaves (monotone scaling, memory ratios, OOM
handling).
"""

import numpy as np
import pytest

from repro.parallel.cost import CostModel, MemoryModel
from repro.parallel.hybrid import (ParallelRunConfig, ParallelRunResult,
                                   run_oct_cilk, run_parallel, run_variant)
from repro.parallel.machine import RankLayout, layout_for_cores


class TestNumericsInvariance:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 7])
    def test_full_numerics_matches_serial(self, medium_calc, nranks):
        serial_energy = medium_calc.profile().energy
        layout = RankLayout(nodes=1, ranks_per_node=nranks)
        result = run_parallel(medium_calc, layout, numerics="full")
        assert result.energy == serial_energy

    def test_full_numerics_born_radii_match(self, medium_calc):
        serial = medium_calc.born_radii()
        layout = RankLayout(nodes=1, ranks_per_node=3)
        result = run_parallel(medium_calc, layout, numerics="full")
        np.testing.assert_array_equal(result.born_radii, serial)

    def test_hybrid_full_numerics(self, medium_calc):
        layout = RankLayout(nodes=1, ranks_per_node=2, threads_per_rank=6)
        result = run_parallel(medium_calc, layout, numerics="full")
        assert result.energy == medium_calc.profile().energy

    def test_cached_equals_full_energy(self, medium_calc):
        layout = RankLayout(nodes=1, ranks_per_node=4)
        full = run_parallel(medium_calc, layout, numerics="full")
        cached = run_parallel(medium_calc, layout, numerics="cached")
        assert cached.energy == full.energy

    def test_all_variants_identical_energy(self, medium_calc):
        energies = {run_variant(medium_calc, v, cores=12).energy
                    for v in ("OCT_CILK", "OCT_MPI", "OCT_MPI+CILK")}
        assert len(energies) == 1


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

    def test_bad_numerics_mode(self, medium_calc):
        with pytest.raises(ValueError):
            run_parallel(medium_calc, layout_for_cores(12, hybrid=False),
                         numerics="telepathy")
