"""Differential suite: plan-based execution vs the legacy per-leaf path.

These tests re-derive the full pipeline with ``approx_integrals_perleaf``
/ ``approx_epol_perleaf`` (the seed's code path, kept as the reference)
and compare the plan-driven default path at P in {1, 2, 4}, on the
``sim`` (inline fleet, ``compute("serial", workers=P)``) and ``real``
backends:

* every work counter and the Born far-field node sums ``s_node`` must
  match the reference *exactly*;
* the Born near-field atom sums must match to 1e-12 of their largest
  magnitude, and the Born radii to a relative 1e-12 -- the executor
  evaluates each near tile as two GEMMs, which moves the sums by
  rounding only;
* E_pol pair sums and energies must match to a relative 1e-12 -- the
  executor evaluates each mirrored near-tile pair once, which moves the
  sum by rounding only (``tests/test_goldens.py`` pins the values);
* the ``sim`` and ``real`` backends at the same P must agree with each
  other bit for bit, and a real run with its rerun.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.born import (BornPartial, approx_integrals_perleaf,
                             push_integrals_to_atoms)
from repro.core.driver import PolarizationEnergyCalculator
from repro.core.energy import (EnergyContext, EpolPartial,
                               approx_epol_perleaf, epol_from_pair_sum)
from repro.molecule.generators import protein_blob
from repro.octree.partition import segment_by_weight
from repro.plan import execute_born_plan, execute_epol_plan

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module", params=[(150, 31), (420, 32)],
                ids=["blob150", "blob420"])
def calc(request):
    natoms, seed = request.param
    return PolarizationEnergyCalculator(protein_blob(natoms, seed=seed))


def legacy_pipeline(calc, nranks):
    """The seed's per-leaf pipeline, rank-split exactly where the plan
    path cuts (plan-weight bounds), partials combined in rank order."""
    atoms = calc.atom_tree()
    quad = calc.quad_tree()
    params = calc.params
    b_plan = calc.born_plan()
    combined = BornPartial.zeros(atoms)
    for lo, hi in segment_by_weight(b_plan.row_pair_weights(), nranks):
        combined.add(approx_integrals_perleaf(
            atoms, quad, quad.tree.leaves[lo:hi], params.eps_born,
            mac_variant=params.born_mac_variant))
    born_sorted = push_integrals_to_atoms(
        atoms, combined, max_radius=2.0 * calc.molecule.bounding_radius)
    ectx = EnergyContext.build(atoms, born_sorted, params.eps_epol)
    e_plan = calc.epol_plan()
    from repro.runtime.instrument import WorkCounters
    total = EpolPartial(pair_sum=0.0, counters=WorkCounters())
    for lo, hi in segment_by_weight(
            e_plan.row_pair_weights(nbins=ectx.binning.nbins), nranks):
        total.add(approx_epol_perleaf(ectx, atoms.tree.leaves[lo:hi],
                                      params.eps_epol))
    energy = epol_from_pair_sum(total.pair_sum,
                                epsilon_solvent=params.epsilon_solvent)
    return energy, atoms.to_original_order(born_sorted)


class TestKernelSlicesBitIdentical:
    """Per-rank slices: executor over plan rows == per-leaf loop over the
    same leaves -- counters and far-field sums bit for bit, near-field
    sums to rounding."""

    @pytest.mark.parametrize("nranks", WORKER_COUNTS)
    def test_born_slices(self, calc, nranks):
        atoms, quad = calc.atom_tree(), calc.quad_tree()
        plan = calc.born_plan()
        for lo, hi in segment_by_weight(plan.row_pair_weights(), nranks):
            batched = execute_born_plan(plan, atoms, quad,
                                        row_range=(lo, hi))
            reference = approx_integrals_perleaf(
                atoms, quad, quad.tree.leaves[lo:hi], calc.params.eps_born,
                mac_variant=calc.params.born_mac_variant)
            scale = np.abs(reference.s_atom).max()
            assert (np.abs(batched.s_atom - reference.s_atom).max()
                    <= 1e-12 * scale)
            assert np.array_equal(batched.s_node, reference.s_node)
            assert (batched.counters.exact_pairs
                    == reference.counters.exact_pairs)
            assert (batched.counters.far_evals
                    == reference.counters.far_evals)
            assert (batched.counters.nodes_visited
                    == reference.counters.nodes_visited)

    @pytest.mark.parametrize("nranks", WORKER_COUNTS)
    def test_epol_slices(self, calc, nranks):
        """Counters per slice exactly; pair sums over the slices to
        rounding.  A slice's own pair sum is not its per-leaf partial:
        each mirrored near-tile pair is evaluated in one of its two rows,
        which may sit in another slice."""
        atoms = calc.atom_tree()
        prof = calc.profile()
        ectx = EnergyContext.build(atoms, prof.born_sorted,
                                   calc.params.eps_epol)
        plan = calc.epol_plan()
        bounds = segment_by_weight(
            plan.row_pair_weights(nbins=ectx.binning.nbins), nranks)
        total = ref_total = 0.0
        for lo, hi in bounds:
            batched = execute_epol_plan(plan, ectx, row_range=(lo, hi))
            reference = approx_epol_perleaf(
                ectx, atoms.tree.leaves[lo:hi], calc.params.eps_epol)
            total += batched.pair_sum
            ref_total += reference.pair_sum
            assert (batched.counters.exact_pairs
                    == reference.counters.exact_pairs)
            assert (batched.counters.hist_pairs
                    == reference.counters.hist_pairs)
        assert total == pytest.approx(ref_total, rel=1e-12, abs=0.0)

    def test_per_leaf_counter_lists_match(self, calc):
        atoms, quad = calc.atom_tree(), calc.quad_tree()
        plan = calc.born_plan()
        synth, looped = [], []
        execute_born_plan(plan, atoms, quad, per_leaf=synth)
        approx_integrals_perleaf(atoms, quad, quad.tree.leaves,
                                 calc.params.eps_born,
                                 mac_variant=calc.params.born_mac_variant,
                                 per_leaf=looped)
        assert len(synth) == len(looped)
        for a, b in zip(synth, looped):
            assert a.exact_pairs == b.exact_pairs
            assert a.far_evals == b.far_evals
            assert a.nodes_visited == b.nodes_visited


class TestPipelineBitIdentical:
    """End-to-end: the plan-driven default path reproduces the legacy
    pipeline -- Born radii and energies to rounding -- for every worker
    count and backend, and the backends agree bit for bit."""

    def test_serial_run(self, calc):
        ref_energy, ref_radii = legacy_pipeline(calc, 1)
        res = calc.run()
        assert res.energy == pytest.approx(ref_energy, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(res.born_radii, ref_radii, rtol=1e-12,
                                   atol=0.0)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_real_backend(self, calc, workers):
        ref_energy, ref_radii = legacy_pipeline(calc, workers)
        res = calc.compute(backend="real", workers=workers)
        assert res.energy == pytest.approx(ref_energy, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(res.born_radii, ref_radii, rtol=1e-12,
                                   atol=0.0)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sim_backend(self, calc, workers):
        ref_energy, ref_radii = legacy_pipeline(calc, workers)
        sim = calc.compute(backend="serial", workers=workers)
        assert sim.energy == pytest.approx(ref_energy, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(sim.born_radii, ref_radii, rtol=1e-12,
                                   atol=0.0)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_real_and_sim_backends_agree(self, calc, workers):
        real = calc.compute(backend="real", workers=workers)
        sim = calc.compute(backend="serial", workers=workers)
        assert real.energy == sim.energy
        assert np.array_equal(real.born_radii, sim.born_radii)


class TestCheckedRunsBitIdentical:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_real_rerun_bit_identical(self, calc, workers):
        """Two real-backend runs, each through the row-cover check, match
        the legacy pipeline (radii and energy to rounding) and each other
        bit for bit.  A run whose slices do not tile the rows fails
        instead of returning."""
        ref_energy, ref_radii = legacy_pipeline(calc, workers)
        plain = calc.compute(backend="real", workers=workers)
        res = calc.compute(backend="real", workers=workers)
        assert res.energy == pytest.approx(ref_energy, rel=1e-12, abs=0.0)
        assert res.energy == plain.energy
        assert np.array_equal(res.born_radii, plain.born_radii)
        np.testing.assert_allclose(res.born_radii, ref_radii, rtol=1e-12,
                                   atol=0.0)
