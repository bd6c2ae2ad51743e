"""Vectorised surface-integral kernels (Eqs. 3 and 4 of the paper).

The Coulomb-field approximation turns Born radii into surface integrals::

    r^4:  1/R_i   ~= (1/4pi) sum_k w_k (r_k - x_i) . n_k / |r_k - x_i|^4
    r^6:  1/R_i^3 ~= (3/4pi) * (1/3) * ... = (1/4pi) sum_k w_k (r_k - x_i) . n_k / |r_k - x_i|^6

(both as printed in the paper; the r^6 weights already absorb the 3/(4pi)
vs 1/(4pi) bookkeeping -- see :func:`born_radius_from_integral`).

These kernels are the exact near-field building block shared by the naive
reference and the octree algorithm's leaf-leaf case.  They are blocked so
the pairwise distance matrix never exceeds a few MB regardless of input
size -- the cache-conscious habit the HPC guides insist on.

Coincidence guard.  The centred GEMM expansion of :func:`pair_distance_sq`
resolves R^2 only to ~16 ulps of ``|t|^2 + |s|^2``, so a target sitting
on a quadrature point leaves a rounding residual of either sign, not 0.
A block whose R^2 min is at or below ``max(R2_GUARD, R2_ULPS *
(max|t|^2 + max|s|^2))`` therefore recomputes R^2 from direct
differences, where a coincident pair gives exactly 0, and drops the
non-finite terms.  The plan executor's Born near field applies the same
rule (:mod:`repro.plan.executor`).  Real surfaces stay far above the
floor, so they never take this branch.
"""

from __future__ import annotations

import numpy as np

from ..constants import FOUR_PI, MIN_BORN_RADIUS
from ..runtime.instrument import WorkCounters

#: Pairwise block edge: 256 targets x 2048 sources of float64 stays ~4 MB.
TARGET_BLOCK = 256
SOURCE_BLOCK = 2048

#: Coincidence guard floor (module docstring): a block is guarded when its
#: expanded R^2 min is at or below
#: ``max(R2_GUARD, R2_ULPS * (max|t|^2 + max|s|^2))``.
R2_GUARD = 1e-24
R2_ULPS = 8.0 * float(np.finfo(np.float64).eps)


def pair_distance_sq(targets: np.ndarray, sources: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared pairwise distances via the GEMM expansion, plus the centred
    coordinate copies.

    ``r2[i, j] = |t_i|^2 + |s_j|^2 - 2 t_i . s_j`` after translating both
    sets by the source centroid.  Routing the cross term through one matrix
    multiply is several times faster than forming the ``(T, S, 3)``
    difference tensor; centring keeps the expansion's cancellation error at
    the 1e-11-relative level even for coordinates hundreds of Angstroms
    from the origin.

    Returns ``(r2, t_centred, s_centred)``; ``r2`` is clamped at zero.
    """
    center = sources.mean(axis=0)
    t = targets - center
    s = sources - center
    r2 = ((t * t).sum(axis=1)[:, None] + (s * s).sum(axis=1)[None, :]
          - 2.0 * (t @ s.T))
    np.maximum(r2, 0.0, out=r2)
    return r2, t, s


def _guarded(r2: np.ndarray, t_c: np.ndarray, s_c: np.ndarray) -> bool:
    """Whether a :func:`pair_distance_sq` block may hold a coincident pair
    (module docstring)."""
    floor = max(R2_GUARD, R2_ULPS * (float((t_c * t_c).sum(axis=1).max())
                                     + float((s_c * s_c).sum(axis=1).max())))
    return float(r2.min()) <= floor


def _direct_r2(t_c: np.ndarray, s_c: np.ndarray) -> np.ndarray:
    """``r2[i, j] = |t_c[i] - s_c[j]|^2`` from coordinate differences."""
    d = t_c[:, None, :] - s_c[None, :, :]
    return (d * d).sum(axis=2)


def surface_integral(points: np.ndarray, normals: np.ndarray,
                     weights: np.ndarray, targets: np.ndarray, *,
                     power: int = 6,
                     counters: WorkCounters | None = None) -> np.ndarray:
    """Evaluate ``s_i = sum_k w_k (r_k - x_i).n_k / |r_k - x_i|^power`` for
    every target ``x_i``.

    Parameters
    ----------
    points, normals, weights:
        Surface quadrature arrays, shapes ``(Q, 3)``, ``(Q, 3)``, ``(Q,)``.
    targets:
        ``(A, 3)`` evaluation points (atom centres).
    power:
        4 or 6 -- the paper's two Coulomb-field approximations.
    counters:
        Optional work counters; ``exact_pairs`` grows by ``A * Q``.

    Returns
    -------
    ``(A,)`` integral values (no ``1/4pi`` normalisation applied).
    """
    if power not in (4, 6):
        raise ValueError("power must be 4 or 6")
    pts = np.asarray(points, dtype=np.float64)
    nrm = np.asarray(normals, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    tgt = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    q = pts.shape[0]
    a = tgt.shape[0]
    out = np.zeros(a)
    wn = w[:, None] * nrm                       # (Q, 3) pre-weighted normals
    half = power // 2
    for ts in range(0, a, TARGET_BLOCK):
        te = min(ts + TARGET_BLOCK, a)
        tb = tgt[ts:te]                          # (T, 3)
        acc = np.zeros(te - ts)
        for ss in range(0, q, SOURCE_BLOCK):
            se = min(ss + SOURCE_BLOCK, q)
            r2, t_c, s_c = pair_distance_sq(tb, pts[ss:se])
            # (p_q - p_a) . wn_q = s_q . wn_q - t_a . wn_q (GEMM form).
            wn_b = wn[ss:se]
            num = (s_c * wn_b).sum(axis=1)[None, :] - t_c @ wn_b.T
            if _guarded(r2, t_c, s_c):
                r2 = _direct_r2(t_c, s_c)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                term = num / r2 ** half
            # A target coincident with a quadrature point contributes an
            # undefined term; drop it, as the plan executor does.
            np.nan_to_num(term, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
            acc += term.sum(axis=1)
        out[ts:te] = acc
    if counters is not None:
        counters.exact_pairs += a * q
        counters.bytes_touched += (pts.nbytes + tgt.nbytes)
    return out


def born_radius_from_integral(integral: np.ndarray, intrinsic_radius: np.ndarray,
                              *, power: int = 6,
                              max_radius: float | None = None) -> np.ndarray:
    """Convert raw surface integrals to Born radii.

    For ``power=6`` (Eq. 4): ``1/R^3 = integral / (4 pi)`` so
    ``R = (integral/4pi)^(-1/3)``; for ``power=4`` (Eq. 3):
    ``1/R = integral / (4 pi)``.

    Following Fig. 2's ``PUSH-INTEGRALS-TO-ATOMS`` the result is clamped
    from below by the intrinsic atomic radius.  Degenerate quadratures can
    make the integral non-positive for deeply buried atoms; those radii are
    clamped to ``max_radius`` (callers pass the molecule's bounding radius
    -- a Born radius cannot meaningfully exceed the molecule).
    """
    s = np.asarray(integral, dtype=np.float64) / FOUR_PI
    rin = np.asarray(intrinsic_radius, dtype=np.float64)
    cap = np.inf if max_radius is None else float(max_radius)
    with np.errstate(divide="ignore", invalid="ignore"):
        if power == 6:
            radius = np.where(s > 0, s ** (-1.0 / 3.0), cap)
        elif power == 4:
            radius = np.where(s > 0, 1.0 / s, cap)
        else:
            raise ValueError("power must be 4 or 6")
    radius = np.minimum(radius, cap)
    radius = np.maximum(radius, rin)
    return np.maximum(radius, MIN_BORN_RADIUS)


def pairwise_r6_exact(atom_pos: np.ndarray, q_pos: np.ndarray,
                      q_normals: np.ndarray, q_weights: np.ndarray,
                      counters: WorkCounters | None = None,
                      power: int = 6) -> np.ndarray:
    """Unblocked exact kernel for small leaf-leaf tiles (r^6 by default,
    r^4 for the Eq. 3 pathway).

    Identical maths to :func:`surface_integral` but without the blocking
    machinery -- the shape the octree near-field path calls with tiles of
    at most (leaf_cap x leaf_cap) points.
    """
    if power not in (4, 6):
        raise ValueError("power must be 4 or 6")
    r2, t_c, s_c = pair_distance_sq(atom_pos, q_pos)
    wn = q_weights[:, None] * q_normals
    num = (s_c * wn).sum(axis=1)[None, :] - t_c @ wn.T
    if not _guarded(r2, t_c, s_c):
        term = num / (r2 * r2 * r2) if power == 6 else num / (r2 * r2)
    else:
        # Coincident atom/q-point pairs contribute undefined terms; drop
        # them (the naive path drops them identically).
        r2 = _direct_r2(t_c, s_c)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            term = num / (r2 * r2 * r2) if power == 6 else num / (r2 * r2)
        np.nan_to_num(term, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    if counters is not None:
        counters.exact_pairs += atom_pos.shape[0] * q_pos.shape[0]
    return term.sum(axis=1)
