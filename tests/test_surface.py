"""Tests for sphere tessellations, Dunavant quadrature and the SAS sampler."""

import math

import numpy as np
import pytest

from repro.config import DEFAULT_POINTS_PER_ATOM
from repro.molecule.generators import icosahedral_shell, protein_blob
from repro.molecule.molecule import from_arrays
from repro.serve.registry import measured_nbytes
from repro.surface.area import sphere_area, two_sphere_exposed_area
from repro.surface.quadrature import (available_degrees, mesh_quadrature,
                                      triangle_rule)
from repro.surface.sas import _unit_sphere_points, build_surface, sphere_surface
from repro.surface.sphere import (fibonacci_sphere, icosahedron, icosphere)


class TestIcosphere:
    def test_icosahedron_euler(self):
        mesh = icosahedron()
        V = len(mesh.vertices)
        F = mesh.ntriangles
        E = len({tuple(sorted((int(t[i]), int(t[(i + 1) % 3]))))
                 for t in mesh.triangles for i in range(3)})
        assert V - E + F == 2
        assert (V, E, F) == (12, 30, 20)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_subdivision_counts(self, level):
        mesh = icosphere(level)
        assert mesh.ntriangles == 20 * 4 ** level

    def test_vertices_on_unit_sphere(self):
        mesh = icosphere(2)
        np.testing.assert_allclose(np.linalg.norm(mesh.vertices, axis=1),
                                   1.0, atol=1e-12)

    def test_area_converges_to_sphere(self):
        areas = [icosphere(k).total_area() for k in range(4)]
        target = 4.0 * math.pi
        errors = [abs(a - target) for a in areas]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.01 * target

    def test_normals_outward(self):
        mesh = icosphere(1)
        centers = mesh.vertices[mesh.triangles].mean(axis=1)
        normals = mesh.triangle_normals()
        assert np.all(np.einsum("ij,ij->i", centers, normals) > 0)


class TestFibonacci:
    def test_on_unit_sphere(self):
        pts = fibonacci_sphere(500)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0,
                                   atol=1e-12)

    def test_centroid_near_origin(self):
        pts = fibonacci_sphere(1000)
        assert np.linalg.norm(pts.mean(axis=0)) < 1e-2

    def test_octant_balance(self):
        pts = fibonacci_sphere(4000)
        octant = ((pts[:, 0] > 0).astype(int) + 2 * (pts[:, 1] > 0)
                  + 4 * (pts[:, 2] > 0))
        counts = np.bincount(octant, minlength=8)
        assert counts.min() > 0.8 * counts.max()


class TestDunavant:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_weights_sum_to_one(self, degree):
        rule = triangle_rule(degree)
        assert rule.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_integrates_polynomials_exactly(self, degree):
        """A rule of degree d integrates x^a y^b (a+b <= d) exactly on the
        reference triangle (0,0)-(1,0)-(0,1)."""
        rule = triangle_rule(degree)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = rule.barycentric @ verts
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                # Quadrature value = area * sum(w_i f(x_i)); the unit
                # triangle has area 1/2, and the monomial integral over it
                # is a! b! / (a+b+2)!.
                approx = 0.5 * np.sum(
                    rule.weights * pts[:, 0] ** a * pts[:, 1] ** b)
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                assert approx == pytest.approx(exact, rel=1e-10)

    def test_degree_lookup(self):
        assert triangle_rule(1).degree == 1
        assert triangle_rule(5).npoints == 7
        with pytest.raises(ValueError):
            triangle_rule(99)

    def test_available_degrees(self):
        assert available_degrees() == [1, 2, 3, 4, 5]

    def test_mesh_quadrature_area(self):
        mesh = icosphere(2)
        _, _, weights = mesh_quadrature(mesh, degree=2)
        assert weights.sum() == pytest.approx(mesh.total_area())

    def test_mesh_quadrature_projection(self):
        mesh = icosphere(1)
        pts, normals, weights = mesh_quadrature(mesh, degree=2,
                                                project_to_sphere=True)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(pts, normals)
        assert weights.sum() == pytest.approx(4.0 * math.pi)


class TestSAS:
    def test_isolated_sphere_area(self):
        mol = from_arrays(np.zeros((1, 3)), radii=np.array([2.0]))
        surf = build_surface(mol, points_per_atom=64)
        assert surf.total_area == pytest.approx(sphere_area(2.0), rel=1e-9)

    def test_two_sphere_area_analytic(self):
        r1, r2, d = 1.7, 1.5, 2.0
        mol = from_arrays(np.array([[0, 0, 0], [d, 0, 0]], dtype=float),
                          radii=np.array([r1, r2]))
        surf = build_surface(mol, points_per_atom=2000)
        expected = two_sphere_exposed_area(r1, r2, d)
        assert surf.total_area == pytest.approx(expected, rel=0.02)

    def test_disjoint_spheres_keep_full_area(self):
        mol = from_arrays(np.array([[0, 0, 0], [100, 0, 0]], dtype=float),
                          radii=np.array([1.0, 2.0]))
        surf = build_surface(mol, points_per_atom=128)
        assert surf.total_area == pytest.approx(
            sphere_area(1.0) + sphere_area(2.0), rel=1e-9)

    def test_normals_unit_and_outward(self, small_molecule):
        surf = build_surface(small_molecule, points_per_atom=12)
        np.testing.assert_allclose(np.linalg.norm(surf.normals, axis=1), 1.0,
                                   atol=1e-12)
        # Each point's normal points away from its owning atom.
        owners = small_molecule.positions[surf.owner]
        outward = np.einsum("ij,ij->i", surf.points - owners, surf.normals)
        assert np.all(outward > 0)

    def test_weights_positive(self, small_surface):
        assert np.all(small_surface.weights > 0)

    def test_buried_points_removed(self):
        # A tight cluster exposes less than the sum of sphere areas.
        pos = np.array([[0, 0, 0], [1.5, 0, 0], [0, 1.5, 0]], dtype=float)
        mol = from_arrays(pos, radii=np.full(3, 1.6))
        surf = build_surface(mol, points_per_atom=256)
        assert surf.total_area < 3 * sphere_area(1.6) * 0.9

    def test_probe_radius_grows_isolated_sphere(self):
        mol = from_arrays(np.zeros((1, 3)), radii=np.array([1.5]))
        bare = build_surface(mol, points_per_atom=64)
        probed = build_surface(mol, points_per_atom=64, probe_radius=1.4)
        assert probed.total_area == pytest.approx(sphere_area(2.9), rel=1e-9)
        assert probed.total_area > bare.total_area

    def test_probe_radius_changes_molecular_area(self, small_molecule):
        # Probe inflation smooths crevices: the SAS of a packed blob is a
        # different (here: usually smaller) area than the bare vdW surface.
        bare = build_surface(small_molecule, points_per_atom=16)
        probed = build_surface(small_molecule, points_per_atom=16,
                               probe_radius=1.4)
        assert probed.total_area > 0
        assert probed.total_area != pytest.approx(bare.total_area, rel=1e-3)

    def test_icosphere_method(self, small_molecule):
        surf = build_surface(small_molecule, points_per_atom=16,
                             method="icosphere")
        assert surf.npoints > 0
        assert np.all(surf.weights > 0)

    def test_unknown_method_rejected(self, small_molecule):
        with pytest.raises(ValueError):
            build_surface(small_molecule, method="cubes")

    def test_transform_preserves_weights(self, small_surface, rng):
        from repro.geometry import random_rotation
        rot = random_rotation(rng)
        moved = small_surface.transformed(rotation=rot,
                                          translation=np.array([1., 2., 3.]))
        np.testing.assert_array_equal(moved.weights, small_surface.weights)
        np.testing.assert_allclose(np.linalg.norm(moved.normals, axis=1),
                                   1.0, atol=1e-12)

    def test_subset(self, small_surface):
        sub = small_surface.subset(np.arange(10))
        assert sub.npoints == 10

    def test_sphere_surface_helper(self):
        surf = sphere_surface(3.0, npoints=128)
        assert surf.total_area == pytest.approx(sphere_area(3.0), rel=1e-9)
        np.testing.assert_allclose(np.linalg.norm(surf.points, axis=1), 3.0,
                                   atol=1e-9)


def naive_surface(molecule, *, points_per_atom=DEFAULT_POINTS_PER_ATOM,
                  probe_radius=0.0, method="fibonacci"):
    """Reference sampler: each atom's sphere tested against every other
    atom, no grid, with ``build_surface``'s float expressions.  Returns
    points, normals, weights and owner."""
    unit_pts, unit_normals, unit_weights = _unit_sphere_points(
        points_per_atom, method)
    pos = molecule.positions
    radii = molecule.radii + probe_radius
    ids = np.arange(len(molecule))
    parts = []
    for i in ids:
        pts = pos[i] + radii[i] * unit_pts
        near = ((np.linalg.norm(pos - pos[i], axis=1) < radii[i] + radii)
                & (ids != i))
        cpos, crad = pos[near], radii[near]
        d2 = np.sum((pts[:, None, :] - cpos[None, :, :]) ** 2, axis=2)
        keep = ~np.any(d2 < (crad * crad)[None, :], axis=1)
        parts.append((pts[keep], unit_normals[keep],
                      unit_weights[keep] * (radii[i] * radii[i]),
                      np.full(int(keep.sum()), i)))
    return [np.concatenate(arrays) for arrays in zip(*parts)]


class TestSamplingMatchesNaive:
    """The cell-list sampler is bit-identical to the all-pairs reference.

    Each case also pins its exact point count.  No hash is pinned: the
    sphere lattice goes through sin/cos, whose last bit may differ
    between CPUs."""

    @pytest.mark.parametrize("make, kwargs, npoints", [
        (lambda: protein_blob(400, seed=5), {}, 1884),
        (lambda: protein_blob(2500, seed=7), {}, 11269),
        (lambda: icosahedral_shell(8000, seed=920000), {}, 30506),
        (lambda: protein_blob(400, seed=5), {"method": "icosphere"}, 9559),
        (lambda: protein_blob(400, seed=5), {"probe_radius": 1.4}, 243),
    ], ids=["blob400", "blob2500", "capsid8000", "icosphere", "probe1.4"])
    def test_bit_identical_to_naive(self, make, kwargs, npoints):
        molecule = make()
        got = build_surface(molecule, **kwargs)
        assert got.npoints == npoints
        want = naive_surface(molecule, **kwargs)
        for name, g, w in zip(("points", "normals", "weights", "owner"),
                              (got.points, got.normals, got.weights,
                               got.owner), want):
            assert g.dtype == w.dtype, name
            assert np.array_equal(g, w), name
        # Every array owns exactly its buffer: the serving registry's
        # byte budget measures the buffers an entry keeps alive.
        assert measured_nbytes(got) == got.nbytes()
