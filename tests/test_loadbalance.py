"""Tests for the work-division schemes (paper Section IV.A)."""

import numpy as np
import pytest

from repro.core.driver import PolarizationEnergyCalculator
from repro.loadbalance import (compare_runs, division_error_stability,
                               energy_spread, epol_atom_division,
                               epol_key_range_division, epol_node_division,
                               epol_plan_division)
from repro.molecule.generators import protein_blob
from repro.octree.partition import coarsen_keys, segment_by_key_range


@pytest.fixture(scope="module")
def ctx_and_params():
    calc = PolarizationEnergyCalculator(protein_blob(500, seed=41))
    ctx = calc.energy_context()
    return ctx, calc.params


@pytest.fixture(scope="module")
def keyed_calc():
    """Deep enough that coarse key blocks hold several leaves, so the
    key-range cuts at P = 3 and 8 move off the weighted ones."""
    return PolarizationEnergyCalculator(protein_blob(1500, seed=1))


class TestNodeDivision:
    def test_energy_invariant_across_p(self, ctx_and_params):
        ctx, params = ctx_and_params
        energies = [epol_node_division(ctx, p, params.eps_epol,
                                       params.epsilon_solvent).energy
                    for p in (1, 2, 4, 8, 16)]
        assert energy_spread(energies) < 1e-12

    def test_matches_serial_energy(self, ctx_and_params):
        ctx, params = ctx_and_params
        from repro.core.energy import approx_epol, epol_from_pair_sum
        serial = epol_from_pair_sum(
            approx_epol(ctx, ctx.atoms.tree.leaves, params.eps_epol).pair_sum,
            epsilon_solvent=params.epsilon_solvent)
        div = epol_node_division(ctx, 6, params.eps_epol,
                                 params.epsilon_solvent)
        assert div.energy == pytest.approx(serial, rel=1e-12)


class TestKeyRangeDivision:
    """The plan rows of :func:`epol_plan_division`, cut at SFC key-block
    boundaries."""

    @pytest.mark.parametrize("nparts", [1, 3, 8])
    def test_plan_division_energy_with_whole_keys(self, keyed_calc, nparts):
        ctx, params = keyed_calc.energy_context(), keyed_calc.params
        plan = keyed_calc.epol_plan()
        args = (ctx, nparts, params.eps_epol, params.epsilon_solvent)
        div = epol_key_range_division(*args, plan=plan)
        ref = epol_plan_division(*args, plan=plan)
        assert div.energy == pytest.approx(ref.energy, rel=1e-12, abs=0.0)

        pairs = plan.exact_pairs_per_row
        assert div.per_rank_pairs.sum() == pairs.sum()
        # The ranks own these key intervals: no key block spans a cut.
        keys = coarsen_keys(ctx.atoms.tree.node_key[plan.target_leaves],
                            nparts)
        bounds = segment_by_key_range(
            keys, nparts,
            weights=plan.row_pair_weights(nbins=ctx.binning.nbins))
        assert np.array_equal(div.per_rank_pairs,
                              [pairs[lo:hi].sum() for lo, hi in bounds])
        for lo, _ in bounds:
            if 0 < lo < len(keys):
                assert keys[lo - 1] != keys[lo]


class TestAtomDivision:
    def test_energy_drifts_with_p(self, ctx_and_params):
        ctx, params = ctx_and_params
        energies = [epol_atom_division(ctx, p, params.eps_epol,
                                       params.epsilon_solvent).energy
                    for p in (1, 3, 7, 13)]
        assert energy_spread(energies) > 1e-9

    def test_p1_matches_node_division(self, ctx_and_params):
        # With one part there is no fragmentation: both schemes see whole
        # leaves and agree to rounding.
        ctx, params = ctx_and_params
        node = epol_node_division(ctx, 1, params.eps_epol,
                                  params.epsilon_solvent)
        atom = epol_atom_division(ctx, 1, params.eps_epol,
                                  params.epsilon_solvent)
        assert atom.energy == pytest.approx(node.energy, rel=1e-9)

    def test_error_still_small(self, ctx_and_params):
        # Atom division drifts, but stays within the approximation's
        # accuracy class (fractions of a percent).
        ctx, params = ctx_and_params
        node = epol_node_division(ctx, 1, params.eps_epol,
                                  params.epsilon_solvent)
        atom = epol_atom_division(ctx, 12, params.eps_epol,
                                  params.epsilon_solvent)
        assert abs(atom.energy - node.energy) / abs(node.energy) < 0.01


class TestComparison:
    def test_compare_runs_fields(self, ctx_and_params):
        ctx, params = ctx_and_params
        node = epol_node_division(ctx, 8, params.eps_epol,
                                  params.epsilon_solvent)
        atom = epol_atom_division(ctx, 8, params.eps_epol,
                                  params.epsilon_solvent)
        cmp = compare_runs(node, atom)
        assert cmp.pairs_a > 0 and cmp.pairs_b > 0
        assert cmp.imbalance_a >= 1.0 and cmp.imbalance_b >= 1.0

    def test_division_error_stability_shape(self, ctx_and_params):
        ctx, params = ctx_and_params
        out = division_error_stability(ctx, params.eps_epol,
                                       params.epsilon_solvent, [1, 2, 4])
        assert set(out) == {"node-node", "atom-atom"}
        assert len(out["node-node"]) == 3

    def test_energy_spread_validation(self):
        with pytest.raises(ValueError):
            energy_spread([])
