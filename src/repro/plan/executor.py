"""Batched plan executors: pure kernels over plan row ranges.

These replace the per-leaf Python loops of the legacy kernels with a few
large concatenated GEMM/einsum batches per distinct tile shape.  The Born
executor reproduces the legacy results *bit for bit*:

* rows with the same tile shape are bucketed and evaluated in one batched
  ``np.matmul``/``np.einsum`` call -- batched BLAS/einsum results are
  bitwise equal to the per-tile 2-D calls, and each output row depends
  only on its own inputs, so zero/arbitrary padding of the ragged atoms
  dimension never leaks into real rows;
* scatters into the additive accumulators use ``np.add.at`` over the
  flat CSR arrays in row-major order -- element order identical to the
  legacy sequential per-leaf ``+=`` passes, so the accumulation order
  (and hence the float result) is unchanged.

Division guards mirror the legacy per-tile ``r2.min()`` branch: a plain
division when every squared distance in the chunk is clearly nonzero,
``errstate`` + ``nan_to_num`` otherwise.  Both arms produce bitwise
identical values on finite inputs (``nan_to_num`` is the identity
there), so the guard is purely a performance choice and never changes a
result, whichever arm the chunking happens to select.

The E_pol executor (:func:`epol_row_terms`) evaluates each mirrored
near-tile pair once, so it matches the per-leaf loop only to rounding;
``tests/test_goldens.py`` pins its energies.  A row's terms depend only
on the plan and the inputs, and every substrate folds them in ascending
row order, so all substrates agree bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..analysis_static.flow.contracts import array_contract
from ..analysis_static.verify.annotations import declares_effects
from ..core.born import (AtomTreeData, BornPartial, QuadTreeData,
                         _slice_concat)
from ..core.energy import EnergyContext, EpolPartial
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
@array_contract(far="(?,) float64 view-ok", near="(?,) float64 view-ok")
def born_flat_values(plan: InteractionPlan, atoms: AtomTreeData,
                     quad: QuadTreeData, far: np.ndarray, near: np.ndarray,
                     *, row_range: tuple[int, int] | None = None) -> None:
    """APPROX-INTEGRALS contribution values of plan rows ``[lo, hi)``,
    written into ``far``/``near`` (sized to the rows' :func:`born_spans`)
    once per slot, by position; nothing is added up.  The caller's
    scatter carries the accumulation order -- :func:`execute_born_plan`
    for a range partial, or one full-plan scatter over values filled
    range by range anywhere (:func:`repro.serve.sliced.reduce_born_flat`),
    bit-identical however the rows were partitioned."""
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

    # -- near field: exact r^power tiles, GEMM-batched by tile shape ----
    q_sizes = plan.target_sizes[rows]
    a_counts = plan.near_point_counts[rows]
    near_base = near_span.start
    if near.size:
        qs_all = plan.target_point_start
        # One CSR-ordered (and plan-memoised) gather of every near atom
        # position; each segment below is then a *contiguous view* into
        # it -- no index arrays, no masks, no padding in the hot loop.
        apos_csr = plan.gathered("atom_pos", a_tree.sorted_points)
        # Cut every row's atom range into segments of ~MAX_TILE_ELEMS
        # tile elements so each GEMM block is L2-resident.  Bit-neutral:
        # every (row, atom) output element keeps its full-Q reduction
        # below, and near slots are written once, by position -- only
        # the caller's scatter carries the accumulation order.
        blk = np.maximum(MAX_TILE_ELEMS // np.maximum(q_sizes, 1), 1)
        nseg = -(-a_counts // blk)
        seg_row = np.repeat(rows, nseg)
        first = np.cumsum(nseg) - nseg
        seg_off = (np.arange(seg_row.size, dtype=np.int64)
                   - np.repeat(first, nseg)) * np.repeat(blk, nseg)
        seg_len = np.minimum(np.repeat(a_counts, nseg) - seg_off,
                             np.repeat(blk, nseg))
        seg_q = np.repeat(q_sizes, nseg)
        buf_r2, buf_num, buf_den = _Scratch(), _Scratch(), _Scratch()
        buf_tc, buf_tm2 = _Scratch(), _Scratch()
        buf_s2row, buf_swnrow = _Scratch(), _Scratch()
        for q in np.unique(seg_q):
            sel = np.flatnonzero(seg_q == q)
            # Hoist every Q-side quantity out of the segment loop: one
            # batched computation per distinct row of the bucket, each
            # bitwise equal to its per-tile counterpart (row-wise ops on
            # stacked rows touch only that row's values).
            urows = np.unique(seg_row[sel])
            qidx = qs_all[urows][:, None] \
                + np.arange(q, dtype=np.int64)[None, :]
            qpos = quad.sorted_points[qidx]              # (U, Q, 3)
            u_center = qpos.mean(axis=1)                 # (U, 3)
            u_sc = qpos - u_center[:, None, :]           # (U, Q, 3)
            u_wn = quad.sorted_weights[qidx][:, :, None] \
                * quad.sorted_normals[qidx]              # (U, Q, 3)
            u_s2 = (u_sc * u_sc).sum(axis=2)             # (U, Q)
            u_swn = (u_sc * u_wn).sum(axis=2)            # (U, Q)
            u_scT = u_sc.transpose(0, 2, 1).copy()       # (U, 3, Q)
            u_wnT = u_wn.transpose(0, 2, 1).copy()
            ri_all = np.searchsorted(urows, seg_row[sel])
            s0_all = plan.near_point_start[seg_row[sel]] + seg_off[sel]
            ln_all = seg_len[sel]
            blkq = max(MAX_TILE_ELEMS // max(int(q), 1), 1)
            s2_row = buf_s2row.view((blkq, q))
            swn_row = buf_swnrow.view((blkq, q))
            last_ri = -1
            # One 2-D tile per segment, every input a contiguous slice.
            # 2-D ops on a segment equal the corresponding slices of a
            # batched 3-D call bitwise, which in turn equal the legacy
            # per-tile kernel; the in-place ufunc chain evaluates the
            # identical expression tree ((t2 + s2) - 2*tq == (t2 + s2)
            # + (-2)*tq; (r2*r2)*r2), just into recycled storage.
            for j in range(sel.size):
                ri = ri_all[j]
                s0 = int(s0_all[j])
                ln = int(ln_all[j])
                if ri != last_ri:
                    # Materialise the row-constant broadcast operands
                    # once per row (a row's first segment is its longest)
                    # so the adds/subtracts below run all-contiguous
                    # inner loops; a physical copy of a broadcast operand
                    # never changes the operation's values.
                    s2_row[:ln] = u_s2[ri][None, :]
                    swn_row[:ln] = u_swn[ri][None, :]
                    last_ri = ri
                t_c = np.subtract(apos_csr[s0:s0 + ln], u_center[ri],
                                  out=buf_tc.view((ln, 3)))
                shape = (ln, q)
                # Scaling t_c by -2 before the GEMM is exact (power-of-2
                # multiply shifts exponents only), so this equals
                # -2*(t_c @ s_c^T) bitwise while saving one full pass.
                tm2 = np.multiply(t_c, -2.0, out=buf_tm2.view((ln, 3)))
                r2 = np.matmul(tm2, u_scT[ri], out=buf_r2.view(shape))
                # A length-3 np.sum is a sequential left fold, so the
                # spelt-out column arithmetic below is bitwise equal to
                # (t_c*t_c).sum(axis=1) while replacing per-row
                # 3-element reduction loops with whole-column ufuncs.
                x, y, z = t_c[:, 0], t_c[:, 1], t_c[:, 2]
                tmp = buf_num.view(shape)
                np.copyto(tmp, (x * x + y * y + z * z)[:, None])
                np.add(tmp, s2_row[:ln], out=tmp)
                np.add(r2, tmp, out=r2)
                # The zero clamp is the identity unless cancellation
                # produced a negative, so one min() read replaces a full
                # read-write pass in the common case; the clamped min is
                # exactly max(r2min, 0) either way, so the division
                # guard below sees the same value as the legacy kernel.
                r2min = float(r2.min())
                if r2min < 0.0:
                    np.maximum(r2, 0.0, out=r2)
                    r2min = 0.0
                num = np.matmul(t_c, u_wnT[ri],
                                out=buf_num.view(shape))
                np.subtract(swn_row[:ln], num, out=num)
                denom = np.multiply(r2, r2, out=buf_den.view(shape))
                if power == 6:
                    np.multiply(denom, r2, out=denom)
                if r2min > 1e-24:
                    term = np.divide(num, denom, out=num)
                else:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        term = np.divide(num, denom, out=num)
                    np.nan_to_num(term, copy=False, nan=0.0, posinf=0.0,
                                  neginf=0.0)
                np.sum(term, axis=1,
                       out=near[s0 - near_base:s0 - near_base + ln])


@declares_effects()
def execute_born_plan(plan: InteractionPlan, atoms: AtomTreeData,
                      quad: QuadTreeData, *,
                      row_range: tuple[int, int] | None = None,
                      per_leaf: list[WorkCounters] | None = None
                      ) -> BornPartial:
    """APPROX-INTEGRALS over plan rows ``[lo, hi)``, batched.

    Bit-identical to running the legacy per-leaf loop over the same target
    leaves; partials from disjoint row ranges combine by addition exactly
    as the per-leaf partials did.  The :func:`born_flat_values` kernel
    plus two ``np.add.at`` scatters in row-major element order -- the
    legacy per-leaf fancy-index ``+=`` sequence.
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
@array_contract(far_terms="(?,) float64 C", near_terms="(?,) float64 C")
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
