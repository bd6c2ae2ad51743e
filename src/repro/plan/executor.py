"""Batched plan executors: pure kernels over plan row ranges.

These replace the per-leaf Python loops of the legacy kernels:

* the far fields are bucketed by far count and evaluated in a few
  batched ``np.matmul``/``np.einsum`` calls, bitwise equal to the
  per-tile 2-D calls -- so the Born node sums match the per-leaf loop
  bit for bit;
* the near fields run one fused pass per row over cache-sized tiles --
  Born as two GEMMs per tile (:func:`born_flat_values`), E_pol with each
  mirrored near-tile pair once (:func:`epol_row_terms`) -- so they match
  the per-leaf loop to rounding; ``tests/test_born_near_field.py`` and
  ``tests/test_goldens.py`` pin them;
* scatters into the additive accumulators use ``np.add.at`` over the
  flat CSR arrays in row-major order.

Every value depends only on its row, the plan and the inputs, and every
substrate scatters or folds rows in ascending order, so all substrates
agree bit for bit.

Division guard.  The Born near field takes R^2 from a centred GEMM
expansion, which resolves it only to ~16 ulps of ``|t|^2 + |s|^2``.  A
tile whose R^2 min is at or below that floor (or 1e-24) holds a
(near-)coincident atom/point pair: it recomputes R^2 from direct
differences, so a coincident pair gives exactly 0, and drops the terms
whose ``1/R^power`` is not finite -- the rule, and the ``R2_GUARD`` /
``R2_ULPS`` constants, of :mod:`repro.core.integrals`, so the naive and
per-leaf references drop the same terms.  Surface points stay far above
the floor, so real inputs never take this branch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..analysis_static.verify.annotations import declares_effects
from ..core.born import (AtomTreeData, BornPartial, QuadTreeData,
                         _slice_concat)
from ..core.energy import EnergyContext, EpolPartial
from ..core.integrals import R2_GUARD, R2_ULPS
from ..runtime.instrument import WorkCounters
from .schema import InteractionPlan

#: Upper bound on the element count of one tile; far-field buckets are
#: chunked below it, Born near rows are cut into atom-axis segments of
#: ``MAX_TILE_ELEMS // Q`` and E_pol near rows into ``(v, m)`` tiles, so
#: every intermediate stays cache-resident (~0.25 MB) -- measured ~2x
#: faster than DRAM-sized tiles for the same arithmetic.  Blocking is
#: bit-neutral: every output element keeps its full per-row reduction and
#: only the final CSR-order scatter / left fold carries the accumulation
#: order.
MAX_TILE_ELEMS = 1 << 15


def _check_plan(plan: InteractionPlan, kind: str,
                row_range: tuple[int, int] | None) -> tuple[int, int]:
    if plan.kind != kind:
        raise ValueError(f"expected a {kind!r} plan, got {plan.kind!r}")
    lo, hi = (0, plan.nrows) if row_range is None else row_range
    if not (0 <= lo <= hi <= plan.nrows):
        raise ValueError(f"row range [{lo}, {hi}) outside plan "
                         f"[0, {plan.nrows})")
    return int(lo), int(hi)


def _bucket_chunks(rows: np.ndarray, elems_per_row: np.ndarray
                   ) -> list[np.ndarray]:
    """Split a bucket's rows into contiguous chunks whose summed tensor
    elements stay under :data:`MAX_TILE_ELEMS` (each chunk >= 1 row)."""
    if rows.size == 0:
        return []
    start = np.cumsum(elems_per_row) - elems_per_row
    chunk_of = start // MAX_TILE_ELEMS
    splits = np.flatnonzero(np.diff(chunk_of)) + 1
    return np.split(rows, splits)


class _Scratch:
    """Reusable flat float64 buffer handing out reshaped views.

    Fresh tile-sized temporaries are mmap-backed and page-fault on every
    first touch, which costs as much as the arithmetic itself; reusing
    one buffer across chunks keeps the hot loop allocation-free.  Values
    written through a view are bitwise identical to a fresh array --
    only the storage is recycled.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = np.empty(0)

    def view(self, shape: tuple[int, ...]) -> np.ndarray:
        n = 1
        for dim in shape:
            n *= int(dim)
        if self._buf.size < n:
            self._buf = np.empty(n)
        return self._buf[:n].reshape(shape)


def born_spans(plan: InteractionPlan, lo: int, hi: int
               ) -> tuple[slice, slice]:
    """The flat-CSR ``(far, near)`` value spans of Born rows ``[lo, hi)``
    -- from the plan's CSR starts, never from execution order.  Every
    writer of flat Born values (and the ``REPRO_CHECKS`` write-intent
    recorder) takes its spans from here."""
    f0, f1 = int(plan.far_start[lo]), int(plan.far_start[hi])
    n0, n1 = int(plan.near_point_start[lo]), int(plan.near_point_start[hi])
    return slice(f0, f1), slice(n0, n1)


@declares_effects()
def born_flat_values(plan: InteractionPlan, atoms: AtomTreeData,
                     quad: QuadTreeData, far: np.ndarray, near: np.ndarray,
                     *, row_range: tuple[int, int] | None = None) -> None:
    """APPROX-INTEGRALS contribution values of plan rows ``[lo, hi)``,
    written into ``far``/``near`` (sized to the rows' :func:`born_spans`)
    once per slot, by position; nothing is added up.  The caller's
    scatter carries the accumulation order -- :func:`execute_born_plan`
    for a range partial, or one full-plan scatter over values filled
    range by range anywhere (:func:`repro.serve.sliced.reduce_born_flat`),
    bit-identical however the rows were partitioned.

    The near field makes one pass per row: it gathers the row's near
    atoms once into ``X = [x, y, z, |t|^2, 1]``, then for each tile of at
    most ``MAX_TILE_ELEMS // q`` atoms takes ``R^2 = Bt @ X``, replaces it
    in place by ``1/R^power`` and accumulates ``G = Wt @ (1/R^power)``;
    a slot's value is ``G0 + x G1 + y G2 + z G3``.  It matches
    ``pairwise_r6_exact`` to rounding, not bit for bit."""
    lo, hi = _check_plan(plan, "born", row_range)
    far_span, near_span = born_spans(plan, lo, hi)
    want = ((far_span.stop - far_span.start,),
            (near_span.stop - near_span.start,))
    if (far.shape, near.shape) != want:
        raise ValueError(f"far/near must have shapes {want} for rows "
                         f"[{lo}, {hi}), got {far.shape}/{near.shape}")
    if hi == lo:
        return
    rows = np.arange(lo, hi, dtype=np.int64)
    a_tree = atoms.tree
    q_tree = quad.tree
    power = plan.power

    # -- far field: s_A += n~_Q . (c_Q - c_A) / d^power, GEMV-batched ---
    far_counts = plan.far_counts[rows]
    far_base = far_span.start
    if far.size:
        centers = q_tree.ball_center[plan.target_leaves]
        ntilde = quad.node_pseudo_normals[plan.target_leaves]
        for count in np.unique(far_counts):
            if count == 0:
                continue
            bucket = rows[far_counts == count]
            for r in _bucket_chunks(bucket, np.full(len(bucket),
                                                    3 * count)):
                span = plan.far_start[r][:, None] \
                    + np.arange(count, dtype=np.int64)[None, :]
                nodes = plan.far_nodes[span]
                diff = centers[r][:, None, :] - a_tree.ball_center[nodes]
                d2 = plan.far_dist[span] ** 2
                denom = d2 * d2 * d2 if power == 6 else d2 * d2
                dots = np.matmul(diff, ntilde[r][:, :, None])[:, :, 0]
                far[span.ravel() - far_base] = (dots / denom).ravel()

    # -- near field: two GEMMs per (q, m) tile of each row -------------
    if near.size:
        # Target-side operands of every row in the range, centred on each
        # leaf's point centroid (which keeps the expansion's cancellation
        # at the 1e-11 level): R^2 = Bt @ X with Bt = [-2s, 1, |s|^2], and
        # (s - t).wn = Wt @ [1, t] with Wt = [s.wn; -wn].  Row t's
        # operands are entries [o, o + q) of each.
        q_sizes = plan.target_sizes[lo:hi]
        q_off = np.concatenate(([0], np.cumsum(q_sizes)))
        qidx = _slice_concat(q_tree, plan.target_leaves[lo:hi])
        s_c = quad.sorted_points[qidx]
        centroid = np.add.reduceat(s_c, q_off[:-1], axis=0) \
            / q_sizes[:, None]
        s_c -= np.repeat(centroid, q_sizes, axis=0)
        wn = quad.sorted_weights[qidx, None] * quad.sorted_normals[qidx]
        bt = np.empty((qidx.size, 5))
        np.multiply(s_c, -2.0, out=bt[:, :3])
        bt[:, 3] = 1.0
        bt[:, 4] = (s_c * s_c).sum(axis=1)
        wt = np.empty((4, qidx.size))
        wt[0] = (s_c * wn).sum(axis=1)
        np.negative(wn.T, out=wt[1:])
        # Per-row guard floor: see the module docstring.
        s2_max = np.maximum.reduceat(bt[:, 4], q_off[:-1]).tolist()
        pos_t = np.ascontiguousarray(a_tree.sorted_points.T)
        point_start = plan.near_point_start[lo:hi + 1].tolist()
        q_off = q_off.tolist()
        buf_x, buf_g = _Scratch(), _Scratch()
        buf_r2, buf_tmp = _Scratch(), _Scratch()
        for t in range(hi - lo):
            s0, s1 = point_start[t], point_start[t + 1]
            if s1 == s0:
                continue
            o, q, n = q_off[t], q_off[t + 1] - q_off[t], s1 - s0
            x = buf_x.view((5, n))
            tx, ty, tz, t2, ones = x
            # Plan point ids are in range; "clip" skips take's buffered
            # bounds-checked copy.
            np.take(pos_t, plan.near_points[s0:s1], axis=1, out=x[:3],
                    mode="clip")
            np.subtract(x[:3], centroid[t, :, None], out=x[:3])
            # |t|^2, with the last row as scratch until it is set to 1.
            np.multiply(tx, tx, out=t2)
            np.multiply(ty, ty, out=ones)
            np.add(t2, ones, out=t2)
            np.multiply(tz, tz, out=ones)
            np.add(t2, ones, out=t2)
            ones.fill(1.0)
            floor = max(R2_GUARD, R2_ULPS * (float(t2.max()) + s2_max[t]))
            g = buf_g.view((4, n))
            blk = max(MAX_TILE_ELEMS // q, 1)
            for a in range(0, n, blk):
                b = min(a + blk, n)
                shape = (q, b - a)
                r2 = np.matmul(bt[o:o + q], x[:, a:b],
                               out=buf_r2.view(shape))
                tmp = buf_tmp.view(shape)
                if float(r2.min()) > floor:
                    _inverse_power(r2, tmp, power)
                else:
                    _direct_r2(s_c[o:o + q], x[:3, a:b], r2, tmp)
                    with np.errstate(divide="ignore", over="ignore"):
                        _inverse_power(r2, tmp, power)
                    np.nan_to_num(r2, copy=False, nan=0.0, posinf=0.0,
                                  neginf=0.0)
                np.matmul(wt[:, o:o + q], r2, out=g[:, a:b])
            # s_A = G0 + x G1 + y G2 + z G3, into the row's own slots.
            out = near[s0 - near_span.start:s1 - near_span.start]
            np.multiply(tx, g[1], out=out)
            np.add(g[0], out, out=out)
            np.multiply(ty, g[2], out=g[2])
            np.add(out, g[2], out=out)
            np.multiply(tz, g[3], out=g[3])
            np.add(out, g[3], out=out)


def _inverse_power(r2: np.ndarray, tmp: np.ndarray, power: int) -> None:
    """Replace ``r2`` in place by ``1 / r2**(power/2)``."""
    if power == 6:
        np.square(r2, out=tmp)
        np.multiply(r2, tmp, out=r2)
    else:
        np.square(r2, out=r2)
    np.divide(1.0, r2, out=r2)


def _direct_r2(s_c: np.ndarray, t_c: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> None:
    """``out[j, i] = |s_c[j] - t_c[:, i]|^2`` from coordinate differences."""
    out.fill(0.0)
    for axis in range(3):
        d = np.subtract(s_c[:, axis, None], t_c[axis, None, :], out=tmp)
        np.multiply(d, d, out=d)
        np.add(out, d, out=out)


@declares_effects()
def execute_born_plan(plan: InteractionPlan, atoms: AtomTreeData,
                      quad: QuadTreeData, *,
                      row_range: tuple[int, int] | None = None,
                      per_leaf: list[WorkCounters] | None = None
                      ) -> BornPartial:
    """APPROX-INTEGRALS over plan rows ``[lo, hi)``, batched.

    Matches the legacy per-leaf loop over the same target leaves: the
    node sums and counters bit for bit, the atom sums to rounding (the
    near field is two GEMMs per tile).  Partials from disjoint row ranges
    combine by addition exactly as the per-leaf partials did.  The
    :func:`born_flat_values` kernel plus two ``np.add.at`` scatters in
    row-major element order -- the legacy per-leaf ``+=`` sequence.
    """
    lo, hi = _check_plan(plan, "born", row_range)
    partial = BornPartial.zeros(atoms)
    partial.counters = plan.counters(lo, hi)
    if per_leaf is not None:
        per_leaf.extend(plan.row_counters(lo, hi))
    far_span, near_span = born_spans(plan, lo, hi)
    far = np.empty(far_span.stop - far_span.start)
    near = np.empty(near_span.stop - near_span.start)
    born_flat_values(plan, atoms, quad, far, near, row_range=(lo, hi))
    np.add.at(partial.s_node, plan.far_nodes[far_span], far)
    np.add.at(partial.s_atom, plan.near_points[near_span], near)
    return partial


class _KeptTiles(NamedTuple):
    """Row ``t``'s kept near points are ``[start[t], start[t + 1])``."""

    start: np.ndarray    # (L+1,) int64
    points: np.ndarray   # (K,) sorted-position ids, tile by tile
    xyz: np.ndarray      # (3, K) their coordinates, one axis per row
    charges: np.ndarray  # (K,) their charges times the tile weight


def _kept_tiles(plan: InteractionPlan, atoms: AtomTreeData) -> _KeptTiles:
    """The near tiles each E_pol row evaluates, derived once per plan
    (they do not depend on the Born radii; docs/ALGORITHMS.md §6c).

    ``f_GB`` is symmetric, so a tile (V, U) whose mirror (U, V) is also
    in the plan is evaluated once, with doubled charges: in the lower row
    when the two row numbers sum to an odd number, else in the higher
    one, so each row keeps about half of its mirrored tiles.  Diagonal
    and unmirrored tiles, and tiles whose leaf has no row in a subset
    plan, keep weight 1: balls are centroid-centred, so mirroring is not
    guaranteed.
    """
    tree = atoms.tree

    def build() -> _KeptTiles:
        nrows = plan.nrows
        rows = np.repeat(np.arange(nrows, dtype=np.int64),
                         plan.near_leaf_counts)
        row_of = np.full(tree.point_start.size, -1, dtype=np.int64)
        row_of[plan.target_leaves] = np.arange(nrows, dtype=np.int64)
        other = row_of[plan.near_leaves]
        # Both entries of a mirrored pair share one unordered key, and a
        # row lists each near leaf once, so a key that occurs twice marks
        # exactly the mirrored entries.
        cand = np.flatnonzero((other >= 0) & (other != rows))
        key = (np.minimum(rows[cand], other[cand]) * nrows
               + np.maximum(rows[cand], other[cand]))
        order = np.argsort(key)
        same = np.diff(key[order], prepend=-1, append=-1) == 0
        twice = same[:-1] | same[1:]
        mirrored = cand[order[twice]]
        t, u = rows[mirrored], other[mirrored]
        odd = ((t + u) & 1) == 1
        weight = np.ones(rows.size, dtype=np.int64)
        weight[mirrored] = np.where((t < u) == odd, 2, 0)
        keep = weight > 0
        leaves = plan.near_leaves[keep]
        sizes = tree.point_end[leaves] - tree.point_start[leaves]
        point_start = np.concatenate(([0], np.cumsum(sizes)))
        leaf_start = np.concatenate(
            ([0], np.cumsum(np.bincount(rows[keep], minlength=nrows))))
        points = _slice_concat(tree, leaves)
        charges = atoms.sorted_charges[points]
        np.multiply(charges, 2.0, out=charges,
                    where=np.repeat(weight[keep] == 2, sizes))
        return _KeptTiles(
            start=point_start[leaf_start], points=points,
            xyz=np.take(tree.sorted_points.T, points, axis=1),
            charges=charges)

    return plan.memo("epol_kept_tiles",
                     (tree.sorted_points, atoms.sorted_charges), build)


@declares_effects()
def epol_row_terms(plan: InteractionPlan, ctx: EnergyContext, *,
                   row_range: tuple[int, int] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row APPROX-EPOL far/near pair-sum terms for rows ``[lo, hi)``.

    The far term is the row's binned einsum; the near term sums the
    row's kept tiles (:func:`_kept_tiles`) in one fused pass over
    ``(v, m)`` tiles of ``v`` target and ``m`` kept points.  So only the
    sum over all rows is the Fig. 3 pair sum (to rounding), but each
    element depends only on its row, the plan and the inputs -- not on
    the range that computed it.  A caller that concatenates disjoint
    ranges in ascending row order and replays the serial interleaved
    left fold (far before near within a row) therefore reproduces
    :func:`execute_epol_plan` over the union bit for bit.  This is the
    intra-request slice kernel of :mod:`repro.serve.sliced`.
    """
    lo, hi = _check_plan(plan, "epol", row_range)
    rows = np.arange(lo, hi, dtype=np.int64)
    tree = ctx.atoms.tree
    pos = tree.sorted_points
    charges = ctx.atoms.sorted_charges
    born = ctx.born_sorted
    pair_r2 = ctx.pair_radius_sq

    # -- far field: binned-charge einsum, batched by far count ----------
    far_terms = np.zeros(hi - lo)
    far_counts = plan.far_counts[rows]
    if int(far_counts.sum()):
        q_v_all = ctx.node_hist[plan.target_leaves]
        k = ctx.node_hist.shape[1]
        # Hoisted f_GB constants: *(-4) is exact (power-of-2 scale plus
        # sign flip), so d2 / m4bp == -(d2 / (4*bp)) bitwise.
        bp = pair_r2[None, None, :, :]
        m4bp = pair_r2 * -4.0
        buf_f = _Scratch()
        for count in np.unique(far_counts):
            if count == 0:
                continue
            bucket = rows[far_counts == count]
            for r in _bucket_chunks(bucket,
                                    np.full(len(bucket), count * k * k)):
                span = plan.far_start[r][:, None] \
                    + np.arange(count, dtype=np.int64)[None, :]
                q_u = ctx.node_hist[plan.far_nodes[span]]   # (B, F, K)
                d2 = (plan.far_dist[span] ** 2)[:, :, None, None]
                # gbmodels.f_gb's expression tree op for op, in place:
                # 1 / sqrt(d2 + bp * exp(-d2 / (4 bp))), (B, F, K, K).
                g = np.divide(d2, m4bp[None, None, :, :],
                              out=buf_f.view((len(r), count, k, k)))
                np.exp(g, out=g)
                np.multiply(g, bp, out=g)
                np.add(g, d2, out=g)
                np.sqrt(g, out=g)
                np.divide(1.0, g, out=g)
                far_terms[r - lo] = np.einsum("bfi,bj,bfij->b",
                                              q_u, q_v_all[r], g)

    # -- near field: fused f_GB tiles over each row's kept points -------
    near_terms = np.zeros(hi - lo)
    kept = _kept_tiles(plan, ctx.atoms)
    if kept.start[hi] > kept.start[lo]:
        pos_t = pos.T
        x_kept, y_kept, z_kept = kept.xyz
        buf_r2, buf_d, buf_bb = _Scratch(), _Scratch(), _Scratch()
        buf_born, buf_gq = _Scratch(), _Scratch()
        for t in range(lo, hi):
            s, e = int(kept.start[t]), int(kept.start[t + 1])
            if e == s:
                continue
            vs = int(plan.target_point_start[t])
            ve = int(plan.target_point_end[t])
            v = ve - vs
            xv, yv, zv = pos_t[:, vs:ve, None]              # (v, 1) each
            bv = born[vs:ve, None]
            qv = charges[vs:ve]
            gq = buf_gq.view((e - s,))
            blk = max(MAX_TILE_ELEMS // v, 1)
            for a in range(s, e, blk):
                b = min(a + blk, e)
                shape = (v, b - a)
                # R^2 from direct differences, then gbmodels.f_gb's
                # expression tree op for op, in place, ending in 1/f.
                r2 = np.subtract(xv, x_kept[None, a:b],
                                 out=buf_r2.view(shape))
                np.multiply(r2, r2, out=r2)
                d = np.subtract(yv, y_kept[None, a:b], out=buf_d.view(shape))
                np.multiply(d, d, out=d)
                np.add(r2, d, out=r2)
                np.subtract(zv, z_kept[None, a:b], out=d)
                np.multiply(d, d, out=d)
                np.add(r2, d, out=r2)
                born_u = np.take(born, kept.points[a:b],
                                 out=buf_born.view((b - a,)))
                bb = np.multiply(bv, born_u[None, :], out=buf_bb.view(shape))
                g = np.multiply(bb, -4.0, out=d)
                np.divide(r2, g, out=g)
                np.exp(g, out=g)
                np.multiply(g, bb, out=g)
                np.add(g, r2, out=g)
                np.sqrt(g, out=g)
                np.divide(1.0, g, out=g)
                np.matmul(qv, g, out=gq[a - s:b - s])
            near_terms[t - lo] = np.dot(kept.charges[s:e], gq)

    return far_terms, near_terms


@declares_effects()
def execute_epol_plan(plan: InteractionPlan, ctx: EnergyContext, *,
                      row_range: tuple[int, int] | None = None,
                      per_leaf: list[WorkCounters] | None = None
                      ) -> EpolPartial:
    """APPROX-EPOL over plan rows ``[lo, hi)``, batched: the terms of
    :func:`epol_row_terms` folded in ascending row order, far before near
    within a row.  Over a whole plan it agrees with the legacy per-leaf
    loop to rounding; the counters are the ordered pairs Fig. 3 covers.
    """
    lo, hi = _check_plan(plan, "epol", row_range)
    nbins = ctx.binning.nbins
    counters = plan.counters(lo, hi, nbins=nbins)
    if per_leaf is not None:
        per_leaf.extend(plan.row_counters(lo, hi, nbins=nbins))
    far_terms, near_terms = epol_row_terms(plan, ctx, row_range=(lo, hi))

    # Ascending row order, far before near within a row -- the fold
    # every substrate replays (order is the contract).
    total = 0.0
    for i in range(hi - lo):  # repro-lint: disable=REP006
        total += far_terms[i]
        total += near_terms[i]
    return EpolPartial(pair_sum=float(total), counters=counters)
