"""Cross-variant differential suite for the octree addressing layer.

One conformation, four tree variants ({morton, hilbert} x {plain,
compressed}), every execution substrate.  The contracts:

* within a fixed variant the substrates are interchangeable: the serial
  driver, the real backend at one and two processes, the inline fleet
  simulating two workers and both serve paths (batched, sliced) are
  bit-identical;
* across variants the energies agree to <= 1e-10 relative at default
  eps -- different leaf orders reorder additions but never change which
  interactions are approximated (the MAC sees the same balls);
* with ``disable_far`` the octree pipeline is exact, so every variant
  matches the naive quadratic reference to <= 1e-10;
* the caching layers (plan cache, serve registry) key the variant: two
  variants of one molecule can never share a plan or a registry entry.

CI runs this file under both fork and spawn (the ``tree-variants`` job);
fleet workers validate every plan they attach, so the plan validators
are live here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.born import AtomTreeData, QuadTreeData, approx_integrals, \
    push_integrals_to_atoms
from repro.core.driver import PolarizationEnergyCalculator
from repro.core.energy import EnergyContext, approx_epol, epol_from_pair_sum
from repro.core.naive import naive_born_radii, naive_epol
from repro.core.params import ApproximationParams
from repro.molecule.generators import protein_blob
from repro.plan.cache import born_key, epol_key
from repro.serve import EpsConfig, InlineFleet, MoleculeRegistry
from repro.serve.registry import content_key
from repro.surface.sas import build_surface

VARIANTS = [("morton", False), ("morton", True),
            ("hilbert", False), ("hilbert", True)]

VARIANT_IDS = [s + ("+compressed" if c else "") for s, c in VARIANTS]


def _params(sfc: str, compress: bool) -> ApproximationParams:
    return ApproximationParams(tree_sfc=sfc, tree_compress=compress)


@pytest.fixture(scope="module")
def molecule():
    return protein_blob(220, seed=91)


@pytest.fixture(scope="module")
def refs(molecule):
    """Per-variant (calculator, serial reference result)."""
    out = {}
    for sfc, compress in VARIANTS:
        calc = PolarizationEnergyCalculator(molecule, _params(sfc, compress))
        out[(sfc, compress)] = (calc, calc.run())
    return out


class TestWithinVariantSubstrates:
    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_one_process_real_bit_identical(self, refs, variant):
        calc, ref = refs[variant]
        res = calc.compute(backend="real", workers=1)
        assert res.energy == ref.energy
        np.testing.assert_array_equal(res.born_radii, ref.born_radii)

    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_two_process_real_equals_simulated(self, refs, variant):
        """Real P=2 == simulated P=2 (inline fleet) == serial, bit for
        bit."""
        calc, ref = refs[variant]
        real = calc.compute(backend="real", workers=2)
        sim = calc.compute(backend="serial", workers=2)
        assert real.energy == sim.energy
        np.testing.assert_array_equal(real.born_radii, sim.born_radii)
        assert real.energy == ref.energy
        np.testing.assert_array_equal(real.born_radii, ref.born_radii)

    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_serve_batched_and_sliced_bit_identical(self, molecule, refs,
                                                    variant):
        calc, ref = refs[variant]
        registry = MoleculeRegistry()
        key = registry.register(molecule, calc.params)
        entry = registry.get(key)
        assert entry.variant == calc.params.tree_variant
        cfg = EpsConfig.resolve(entry.params)
        fleet = InlineFleet(3)
        batched = fleet.run_batch([(0, entry, cfg)])[0]
        sliced = fleet.run_sliced(1, entry, cfg)
        assert batched.error is None and sliced.error is None
        assert batched.energy == ref.energy
        assert sliced.energy == ref.energy


class TestCrossVariantAgreement:
    def test_pairwise_energy_agreement(self, refs):
        energies = {v: ref.energy for v, (_, ref) in refs.items()}
        for va, ea in energies.items():
            for vb, eb in energies.items():
                assert ea == pytest.approx(eb, rel=1e-10), (va, vb)

    def test_born_radii_agree_across_variants(self, refs):
        """Born radii in original atom order are variant-independent to
        addition-reordering rounding."""
        base = refs[("morton", False)][1].born_radii
        for variant, (_, ref) in refs.items():
            np.testing.assert_allclose(ref.born_radii, base, rtol=1e-10,
                                       err_msg=str(variant))


class TestDisableFarExactness:
    @pytest.fixture(scope="class")
    def surface(self, molecule):
        return build_surface(molecule, points_per_atom=12)

    @pytest.fixture(scope="class")
    def naive_radii(self, molecule, surface):
        return naive_born_radii(molecule, surface)

    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_born_exact_vs_naive(self, molecule, surface, naive_radii,
                                 variant):
        sfc, compress = variant
        atoms = AtomTreeData.build(molecule, leaf_cap=16, sfc=sfc,
                                   compress=compress)
        quad = QuadTreeData.build(surface, leaf_cap=48, sfc=sfc,
                                  compress=compress)
        partial = approx_integrals(atoms, quad, quad.tree.leaves, 0.9,
                                   disable_far=True)
        sorted_r = push_integrals_to_atoms(
            atoms, partial, max_radius=2 * molecule.bounding_radius)
        np.testing.assert_allclose(atoms.to_original_order(sorted_r),
                                   naive_radii, rtol=1e-10)

    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_epol_exact_vs_naive(self, molecule, surface, naive_radii,
                                 variant):
        sfc, compress = variant
        atoms = AtomTreeData.build(molecule, leaf_cap=16, sfc=sfc,
                                   compress=compress)
        ctx = EnergyContext.build(atoms, naive_radii[atoms.tree.perm], 0.9)
        partial = approx_epol(ctx, atoms.tree.leaves, 0.9, disable_far=True)
        octree_E = epol_from_pair_sum(partial.pair_sum)
        assert octree_E == pytest.approx(naive_epol(molecule, naive_radii),
                                         rel=1e-10)


class TestVariantKeying:
    def test_plan_cache_keys_include_variant(self):
        assert born_key(0.9) != born_key(0.9, tree_variant="hilbert")
        assert epol_key(0.9) != \
            epol_key(0.9, tree_variant="morton+compressed")

    def test_registry_keys_differ_across_variants(self, molecule):
        keys = {content_key(molecule, _params(sfc, compress))
                for sfc, compress in VARIANTS}
        assert len(keys) == len(VARIANTS)

    def test_driver_caches_plans_per_variant(self, refs):
        """Each calculator's cache holds its own variant's plans; the key
        tuples embed the variant string."""
        for (sfc, compress), (calc, _) in refs.items():
            variant = calc.params.tree_variant
            for key in (born_key(calc.params.eps_born,
                                 mac_variant=calc.params.born_mac_variant,
                                 tree_variant=variant),
                        epol_key(calc.params.eps_epol,
                                 tree_variant=variant)):
                assert key in calc.plan_cache()

    def test_plans_record_variant(self, refs):
        for (sfc, compress), (calc, _) in refs.items():
            plans = calc.plans()
            assert plans.born.tree_variant == calc.params.tree_variant
            assert plans.epol.tree_variant == calc.params.tree_variant
