"""Tests for the naive reference and the high-level calculator API."""

import numpy as np
import pytest

from repro.core.driver import (PolarizationEnergyCalculator,
                               compute_polarization_energy)
from repro.core.naive import naive_born_radii, naive_epol, naive_reference
from repro.core.params import ApproximationParams
from repro.geometry import rotation_matrix
from repro.surface.sas import build_surface


class TestNaive:
    def test_energy_negative(self, small_molecule, small_surface):
        res = naive_reference(small_molecule, small_surface)
        assert res.energy < 0

    def test_translation_invariance(self, small_molecule):
        surf = build_surface(small_molecule, points_per_atom=12)
        moved_mol = small_molecule.translated([17.0, -4.0, 8.0])
        moved_surf = surf.transformed(translation=np.array([17.0, -4.0, 8.0]))
        e0 = naive_reference(small_molecule, surf).energy
        e1 = naive_reference(moved_mol, moved_surf).energy
        assert e1 == pytest.approx(e0, rel=1e-9)

    def test_rotation_invariance(self, small_molecule):
        surf = build_surface(small_molecule, points_per_atom=12)
        rot = rotation_matrix([0, 0, 1], 0.8)
        # Rotate molecule and surface about the origin consistently.
        moved_mol = type(small_molecule)(
            small_molecule.positions @ rot.T, small_molecule.radii.copy(),
            small_molecule.charges.copy(), small_molecule.elements.copy())
        moved_surf = surf.transformed(rotation=rot)
        e0 = naive_reference(small_molecule, surf).energy
        e1 = naive_reference(moved_mol, moved_surf).energy
        assert e1 == pytest.approx(e0, rel=1e-9)

    def test_scaling_charges_scales_energy_quadratically(
            self, small_molecule, small_surface):
        R = naive_born_radii(small_molecule, small_surface)
        e1 = naive_epol(small_molecule, R)
        doubled = small_molecule
        doubled = type(doubled)(doubled.positions, doubled.radii,
                                2.0 * doubled.charges, doubled.elements)
        e2 = naive_epol(doubled, R)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    def test_single_ion_born_energy(self):
        """One unit charge in a sphere of radius R: E = prefactor / R --
        the textbook Born ion."""
        from repro.constants import gb_prefactor
        from repro.molecule.molecule import from_arrays
        from repro.surface.sas import sphere_surface
        rho = 2.0
        mol = from_arrays(np.zeros((1, 3)), radii=np.array([rho]),
                          charges=np.array([1.0]))
        surf = sphere_surface(rho, npoints=1024)
        res = naive_reference(mol, surf)
        assert res.born_radii[0] == pytest.approx(rho, rel=1e-9)
        assert res.energy == pytest.approx(gb_prefactor() / rho, rel=1e-9)

    def test_radii_shape_validation(self, small_molecule):
        with pytest.raises(ValueError):
            naive_epol(small_molecule, np.ones(3))


class TestCalculator:
    def test_run_produces_result(self, small_calc, small_molecule):
        res = small_calc.run()
        assert res.natoms == len(small_molecule)
        assert res.energy < 0
        assert res.born_radii.shape == (len(small_molecule),)
        assert res.born_counters.exact_pairs > 0
        assert res.energy_counters.exact_pairs > 0

    def test_profile_cached(self, small_calc):
        assert small_calc.profile() is small_calc.profile()

    def test_born_radii_positive(self, small_calc, small_molecule):
        R = small_calc.born_radii()
        assert np.all(R >= small_molecule.radii - 1e-12)

    def test_compare_with_naive_below_one_percent(self, small_calc):
        cmp = small_calc.compare_with_naive()
        assert abs(cmp["percent_error"]) < 1.0
        assert cmp["octree_energy"] < 0 and cmp["naive_energy"] < 0

    def test_convenience_function(self, small_molecule):
        res = compute_polarization_energy(small_molecule, eps_born=0.5,
                                          eps_epol=0.5)
        assert res.params.eps_born == 0.5
        assert res.energy < 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ApproximationParams(eps_born=0.0)
        with pytest.raises(ValueError):
            ApproximationParams(leaf_cap=0)
        with pytest.raises(ValueError):
            ApproximationParams(points_per_atom=2)
        with pytest.raises(ValueError):
            ApproximationParams(epsilon_solvent=0.5)

    def test_prebuilt_surface_reused(self, small_molecule, small_surface):
        calc = PolarizationEnergyCalculator(small_molecule,
                                            surface=small_surface)
        assert calc.prepare_surface() is small_surface

    def test_eps_tightens_energy(self, small_molecule):
        from repro.core.naive import naive_reference
        loose = PolarizationEnergyCalculator(
            small_molecule, ApproximationParams(eps_born=0.9, eps_epol=0.9))
        tight = PolarizationEnergyCalculator(
            small_molecule, ApproximationParams(eps_born=0.1, eps_epol=0.1),
            surface=loose.prepare_surface())
        ref = naive_reference(small_molecule, loose.prepare_surface()).energy
        err_loose = abs(loose.run().energy - ref)
        err_tight = abs(tight.run().energy - ref)
        assert err_tight <= err_loose + 1e-9
