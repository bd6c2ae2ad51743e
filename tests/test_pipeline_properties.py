"""End-to-end property tests of the full pipeline.

These exercise physical and algorithmic invariants across randomly
generated molecules -- the hypothesis-driven layer of the test pyramid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import PolarizationEnergyCalculator
from repro.core.params import ApproximationParams
from repro.molecule.generators import protein_blob
from repro.molecule.molecule import Molecule
from repro.octree.partition import segment_leaves


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=30, max_value=250),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_octree_energy_within_one_percent_of_naive(natoms, seed):
    """The paper's headline accuracy claim over random inputs."""
    molecule = protein_blob(natoms, seed=seed)
    calc = PolarizationEnergyCalculator(molecule)
    cmp = calc.compare_with_naive()
    assert abs(cmp["percent_error"]) < 1.0


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=30, max_value=200),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_energy_negative_for_any_charged_molecule(natoms, seed):
    molecule = protein_blob(natoms, seed=seed)
    result = PolarizationEnergyCalculator(molecule).run()
    assert result.energy < 0.0


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=50, max_value=200),
       st.integers(min_value=2, max_value=9),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_node_partition_invariance_random(natoms, nparts, seed):
    """Node-based division reproduces the serial energy for any P on any
    molecule (Section IV.A)."""
    from repro.core.energy import approx_epol

    molecule = protein_blob(natoms, seed=seed)
    calc = PolarizationEnergyCalculator(molecule)
    ctx = calc.energy_context()
    eps = calc.params.eps_epol
    full = approx_epol(ctx, ctx.atoms.tree.leaves, eps).pair_sum
    split = sum(approx_epol(ctx, leaves, eps).pair_sum
                for leaves in segment_leaves(ctx.atoms.tree, nparts))
    assert split == pytest.approx(full, rel=1e-11)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=40, max_value=150),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_born_radii_at_least_intrinsic(natoms, seed):
    molecule = protein_blob(natoms, seed=seed)
    radii = PolarizationEnergyCalculator(molecule).born_radii()
    assert np.all(radii >= molecule.radii - 1e-12)


def test_energy_extensive_in_far_separated_copies():
    """Two far-separated copies of a molecule have (almost exactly) twice
    the energy: polarization is extensive for non-interacting bodies.

    Uses a denser quadrature than the default: an atom whose coarse
    quadrature degenerates is clamped to the molecule-extent Born-radius
    cap, which differs between the single body and the union and would
    mask the physics under test.
    """
    params = ApproximationParams(points_per_atom=32)
    mol = protein_blob(150, seed=5)
    single = PolarizationEnergyCalculator(mol, params).run().energy
    far_copy = mol.translated([1000.0, 0.0, 0.0])
    pair = Molecule(
        np.vstack([mol.positions, far_copy.positions]),
        np.concatenate([mol.radii, far_copy.radii]),
        np.concatenate([mol.charges, far_copy.charges]),
        np.concatenate([mol.elements, far_copy.elements]))
    double = PolarizationEnergyCalculator(pair, params).run().energy
    assert double == pytest.approx(2.0 * single, rel=5e-3)


def test_deeper_buried_atoms_have_larger_born_radii():
    molecule = protein_blob(1200, seed=6)
    radii = PolarizationEnergyCalculator(molecule).born_radii()
    depth = -np.linalg.norm(molecule.positions - molecule.centroid, axis=1)
    # Rank correlation between burial depth and Born radius is positive.
    from scipy.stats import spearmanr
    rho, _ = spearmanr(depth, radii)
    assert rho > 0.3


def test_solvent_dielectric_scales_energy():
    mol = protein_blob(150, seed=7)
    e80 = PolarizationEnergyCalculator(
        mol, ApproximationParams(epsilon_solvent=80.0)).run().energy
    e2 = PolarizationEnergyCalculator(
        mol, ApproximationParams(epsilon_solvent=2.0)).run().energy
    # (1 - 1/2) / (1 - 1/80) = 0.506...
    assert e2 / e80 == pytest.approx(0.5 / (1 - 1 / 80), rel=1e-9)


def test_quadrature_refinement_converges():
    """Finer surface sampling converges the energy (Cauchy criterion)."""
    mol = protein_blob(200, seed=8)
    energies = []
    for ppa in (8, 24, 72):
        calc = PolarizationEnergyCalculator(
            mol, ApproximationParams(points_per_atom=ppa))
        energies.append(calc.run().energy)
    assert abs(energies[2] - energies[1]) < abs(energies[1] - energies[0])


def test_naive_and_octree_share_quadrature_error():
    """The percent error the paper reports isolates the *octree*
    approximation: naive and octree consume the same quadrature, so a
    coarse surface hurts both equally."""
    mol = protein_blob(150, seed=9)
    coarse = PolarizationEnergyCalculator(
        mol, ApproximationParams(points_per_atom=6))
    fine = PolarizationEnergyCalculator(
        mol, ApproximationParams(points_per_atom=48))
    for calc in (coarse, fine):
        cmp = calc.compare_with_naive()
        assert abs(cmp["percent_error"]) < 1.0
