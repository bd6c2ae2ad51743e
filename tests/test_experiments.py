"""Tests for the experiment harness (light experiments run fully; heavy
ones are exercised at reduced scale)."""

import pytest

from repro.experiments import (ExperimentResult, all_ids, run_experiment,
                               suite_molecules)
from repro.experiments.ablations import run_nblist_space, run_work_division
from repro.experiments.table1_environment import run as run_table1
from repro.experiments.table2_packages import run as run_table2


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = all_ids()
        for required in ("table1", "table2", "fig5", "fig6", "fig7", "fig8",
                         "fig9", "fig10", "fig11", "ablA", "ablB", "ablC"):
            assert required in ids

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestLightExperiments:
    def test_table1(self):
        res = run_table1()
        assert isinstance(res, ExperimentResult)
        assert res.all_checks_pass()
        assert "12" in res.render()

    def test_table2(self):
        res = run_table2()
        assert res.all_checks_pass()
        assert len(res.rows) == 9  # 5 packages + 4 octree/naive variants

    def test_ablC_nblist_space(self):
        res = run_nblist_space(natoms=1500)
        assert res.all_checks_pass()

    def test_render_contains_checks(self):
        res = run_table1()
        assert "check" in res.render()
        assert "PASS" in res.render()


class TestReducedScaleExperiments:
    def test_work_division_small(self):
        res = run_work_division(natoms=600)
        assert res.checks["node_division_energy_p_invariant"]
        assert res.checks["atom_division_energy_drifts"]

    def test_fig5_reduced(self):
        res = run_experiment("fig5", scale=0.0008,
                             core_counts=(12, 24, 48))
        assert res.checks["speedup_monotone_mpi"]
        assert len(res.rows) == 3

    def test_fig10_reduced(self):
        res = run_experiment("fig10", max_atoms=900,
                             epsilons=(0.3, 0.9))
        assert len(res.rows) == 2
        assert res.checks["errors_below_1pct"]


class TestSuite:
    def test_quick_suite_includes_anchors(self):
        mols = suite_molecules(quick=True)
        sizes = {len(m) for m in mols}
        assert 2260 in sizes and 16301 in sizes

    def test_max_atoms_filter(self):
        mols = suite_molecules(quick=True, max_atoms=3000)
        assert all(len(m) <= 3000 for m in mols)
