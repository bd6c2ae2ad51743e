"""Tests for counting-only traversals and the timing-only simulator."""

import numpy as np
import pytest

from repro.core.born import AtomTreeData, QuadTreeData, approx_integrals
from repro.core.counting import (count_born_work, count_epol_work,
                                 shell_surface_points)
from repro.core.energy import EnergyContext, approx_epol
from repro.molecule.generators import icosahedral_shell, protein_blob
from repro.parallel.hybrid import simulate_layout_timing
from repro.parallel.machine import RankLayout
from repro.surface.sas import build_surface


@pytest.fixture(scope="module")
def setup():
    mol = protein_blob(400, seed=61)
    surf = build_surface(mol, points_per_atom=12)
    atoms = AtomTreeData.build(mol, leaf_cap=16)
    quad = QuadTreeData.build(surf, leaf_cap=48)
    return mol, surf, atoms, quad


class TestCountingMatchesKernels:
    def test_born_counts_match_real_run(self, setup):
        """Counting-only traversal produces the same counters the real
        kernel accumulates -- the guarantee full-scale timing rests on."""
        mol, surf, atoms, quad = setup
        real = approx_integrals(atoms, quad, quad.tree.leaves, 0.9)
        counted = count_born_work(atoms.tree, quad.tree, 0.9)
        assert counted.exact_pairs == real.counters.exact_pairs
        assert counted.far_evals == real.counters.far_evals
        assert counted.nodes_visited == real.counters.nodes_visited

    def test_epol_counts_match_real_run(self, setup):
        mol, surf, atoms, quad = setup
        partial = approx_integrals(atoms, quad, quad.tree.leaves, 0.9)
        from repro.core.born import push_integrals_to_atoms
        born = push_integrals_to_atoms(atoms, partial,
                                       max_radius=2 * mol.bounding_radius)
        ctx = EnergyContext.build(atoms, born, 0.9)
        real = approx_epol(ctx, atoms.tree.leaves, 0.9)
        counted = count_epol_work(atoms.tree, 0.9, nbins=ctx.binning.nbins)
        assert counted.exact_pairs == real.counters.exact_pairs
        assert counted.far_evals == real.counters.far_evals
        assert counted.hist_pairs == real.counters.hist_pairs

    def test_per_leaf_counts_sum(self, setup):
        mol, surf, atoms, quad = setup
        per_leaf = []
        total = count_born_work(atoms.tree, quad.tree, 0.9,
                                per_leaf=per_leaf)
        assert len(per_leaf) == len(quad.tree.leaves)
        assert sum(c.exact_pairs for c in per_leaf) == total.exact_pairs

    def test_theory_variant_leaves_more_exact_work(self, setup):
        mol, surf, atoms, quad = setup
        practical = count_born_work(atoms.tree, quad.tree, 0.9,
                                    mac_variant="practical")
        theory = count_born_work(atoms.tree, quad.tree, 0.9,
                                 mac_variant="theory")
        assert theory.exact_pairs >= practical.exact_pairs


class TestShellSurfacePoints:
    def test_point_count_tracks_density(self):
        pts = shell_surface_points(10_000, 60.0, 20.0, points_per_atom=12,
                                   exposed_fraction=0.35)
        assert len(pts) == pytest.approx(10_000 * 12 * 0.35, rel=0.01)

    def test_points_lie_on_two_shells(self):
        pts = shell_surface_points(5_000, 50.0, 20.0)
        r = np.linalg.norm(pts, axis=1)
        near_outer = np.abs(r - 50.0) < 1.0
        near_inner = np.abs(r - 30.0) < 1.0
        assert np.all(near_outer | near_inner)
        assert near_outer.sum() > near_inner.sum()  # more area outside

    def test_matches_real_sampler_order_of_magnitude(self):
        shell = icosahedral_shell(3000, seed=3, thickness=15.0)
        real = build_surface(shell, points_per_atom=12)
        r = np.linalg.norm(shell.positions, axis=1)
        synthetic = shell_surface_points(
            len(shell), float(r.max()), float(r.max() - r.min()),
            points_per_atom=12)
        ratio = len(synthetic) / real.npoints
        assert 0.3 < ratio < 3.0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            shell_surface_points(100, 10.0, 20.0)


class TestSimulateLayoutTiming:
    def test_more_cores_faster(self, rng):
        born = rng.uniform(1e-4, 1e-3, 500)
        epol = rng.uniform(1e-5, 1e-4, 300)
        t12 = simulate_layout_timing(
            born, epol, n_atoms=10_000, n_nodes=1_000,
            layout=RankLayout(nodes=1, ranks_per_node=12))
        t144 = simulate_layout_timing(
            born, epol, n_atoms=10_000, n_nodes=1_000,
            layout=RankLayout(nodes=12, ranks_per_node=12))
        assert t144 < t12

    def test_lower_bounded_by_critical_leaf(self, rng):
        born = rng.uniform(1e-4, 1e-3, 200)
        epol = rng.uniform(1e-5, 1e-4, 200)
        t = simulate_layout_timing(
            born, epol, n_atoms=1_000, n_nodes=100,
            layout=RankLayout(nodes=2, ranks_per_node=12))
        assert t >= max(born.max(), epol.max())

    def test_hybrid_layout_supported(self, rng):
        born = rng.uniform(1e-4, 1e-3, 400)
        epol = rng.uniform(1e-5, 1e-4, 400)
        t = simulate_layout_timing(
            born, epol, n_atoms=1_000, n_nodes=100,
            layout=RankLayout(nodes=2, ranks_per_node=2, threads_per_rank=6))
        assert t > 0
