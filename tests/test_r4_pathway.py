"""Tests for the r^4 (Eq. 3) Born-radius pathway."""

import numpy as np
import pytest

from repro.core.born import (AtomTreeData, QuadTreeData, approx_integrals,
                             push_integrals_to_atoms)
from repro.core.naive import naive_born_radii
from repro.molecule.generators import protein_blob
from repro.molecule.molecule import from_arrays
from repro.surface.sas import build_surface, sphere_surface


class TestR4Sphere:
    @pytest.mark.parametrize("rho", [1.0, 2.5])
    def test_isolated_sphere(self, rho):
        mol = from_arrays(np.zeros((1, 3)), radii=np.array([rho * 0.5]))
        surf = sphere_surface(rho, npoints=512)
        radii = naive_born_radii(mol, surf, power=4)
        assert radii[0] == pytest.approx(rho, rel=1e-9)


class TestR4Octree:
    @pytest.fixture(scope="class")
    def setup(self):
        mol = protein_blob(250, seed=71)
        surf = build_surface(mol, points_per_atom=12)
        atoms = AtomTreeData.build(mol, leaf_cap=16)
        quad = QuadTreeData.build(surf, leaf_cap=48)
        return mol, surf, atoms, quad

    def test_exact_mode_matches_naive_r4(self, setup):
        mol, surf, atoms, quad = setup
        partial = approx_integrals(atoms, quad, quad.tree.leaves, 0.9,
                                   disable_far=True, power=4)
        radii = push_integrals_to_atoms(atoms, partial, power=4,
                                        max_radius=2 * mol.bounding_radius)
        naive = naive_born_radii(mol, surf, power=4)
        np.testing.assert_allclose(atoms.to_original_order(radii), naive,
                                   rtol=1e-10)

    def test_r4_approx_error_small(self, setup):
        mol, surf, atoms, quad = setup
        partial = approx_integrals(atoms, quad, quad.tree.leaves, 0.9,
                                   power=4)
        radii = push_integrals_to_atoms(atoms, partial, power=4,
                                        max_radius=2 * mol.bounding_radius)
        naive = naive_born_radii(mol, surf, power=4)[atoms.tree.perm]
        rel = np.abs(radii - naive) / naive
        assert rel.max() < 0.08

    def test_r4_and_r6_differ(self, setup):
        """Grycuk's point: the two Coulomb-field approximations disagree
        for buried atoms (r^6 is the more accurate one for proteins)."""
        mol, surf, atoms, quad = setup
        r6 = naive_born_radii(mol, surf, power=6)
        r4 = naive_born_radii(mol, surf, power=4)
        assert not np.allclose(r6, r4, rtol=0.01)

    def test_invalid_power(self, setup):
        mol, surf, atoms, quad = setup
        from repro.core.integrals import pairwise_r6_exact
        with pytest.raises(ValueError):
            pairwise_r6_exact(mol.positions[:5], surf.points[:5],
                              surf.normals[:5], surf.weights[:5], power=5)
