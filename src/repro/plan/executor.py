"""Batched plan executors: pure kernels over plan row ranges.

These replace the per-leaf Python loops of the legacy kernels with a few
large concatenated GEMM/einsum batches per distinct tile shape, while
reproducing the legacy results *bit for bit*:

* rows with the same tile shape are bucketed and evaluated in one batched
  ``np.matmul``/``np.einsum`` call -- batched BLAS/einsum results are
  bitwise equal to the per-tile 2-D calls, and each output row depends
  only on its own inputs, so zero/arbitrary padding of the ragged atoms
  dimension never leaks into real rows;
* scatters into the additive accumulators use ``np.add.at`` over the
  flat CSR arrays in row-major order -- element order identical to the
  legacy sequential per-leaf ``+=`` passes, so the accumulation order
  (and hence the float result) is unchanged;
* the energy pair sum is folded row by row in ascending row order,
  interleaving each row's far and near terms exactly as the per-leaf
  loop did (IEEE addition is not associative; the fold order *is* the
  contract).

Division guards mirror the legacy per-tile ``r2.min()`` branch: a plain
division when every squared distance in the chunk is clearly nonzero,
``errstate`` + ``nan_to_num`` otherwise.  Both arms produce bitwise
identical values on finite inputs (``nan_to_num`` is the identity
there), so the guard is purely a performance choice and never changes a
result, whichever arm the chunking happens to select.
"""

from __future__ import annotations

import numpy as np

from ..analysis_static.flow.contracts import array_contract
from ..analysis_static.verify.annotations import declares_effects
from ..core.born import AtomTreeData, BornPartial, QuadTreeData
from ..core.energy import EnergyContext, EpolPartial
from ..core.gbmodels import f_gb
from ..runtime.instrument import WorkCounters
from .schema import InteractionPlan

#: Upper bound on the element count of one tile; far-field buckets are
#: chunked below it and Born near rows are cut into atom-axis segments of
#: ``MAX_TILE_ELEMS // Q`` so every intermediate stays cache-resident
#: (~0.25 MB) -- measured ~2x faster than DRAM-sized tiles for the same
#: arithmetic.  Blocking is bit-neutral: every output element keeps its
#: full per-row reduction and only the final CSR-order scatter / left
#: fold carries the accumulation order.
MAX_TILE_ELEMS = 1 << 15

#: Largest flat pair-space operand (elements) the energy executor will
#: memoise on the plan.  Below it, the r2/born-product/charge-product
#: tiles (which depend only on the plan and its input arrays) persist
#: across executions -- an epsilon sweep or repeated energy evaluation
#: then pays only the flat f_GB chain.  Above it (~128 MB per array)
#: they are rebuilt each call rather than pinned in memory.
OPERAND_CACHE_MAX = 1 << 24


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


@declares_effects()
@array_contract(far_terms="(?,) float64 C", near_terms="(?,) float64 C")
def epol_row_terms(plan: InteractionPlan, ctx: EnergyContext, *,
                   row_range: tuple[int, int] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row APPROX-EPOL far/near pair-sum terms for rows ``[lo, hi)``.

    Each returned element is that row's full reduction -- the far binned
    einsum and the near contiguous-pair ``np.sum`` -- so a row's value is
    bitwise independent of which range it was computed in (batching by
    shape only regroups *whole* rows; no per-row summation tree changes).
    A caller that concatenates disjoint ranges in ascending row order and
    replays the serial interleaved left fold (far before near within a
    row) therefore reproduces :func:`execute_epol_plan` over the union
    bit for bit.  This is the intra-request slice kernel of
    :mod:`repro.serve.sliced`.
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

    # -- near field: exact f_GB tiles as one flat CSR-pair chain --------
    near_terms = np.zeros(hi - lo)
    v_sizes_all = plan.target_sizes
    n_counts_all = plan.near_point_counts
    v_sizes = v_sizes_all[rows]
    n_counts = n_counts_all[rows]
    if int(n_counts.sum()):
        vs_all = plan.target_point_start
        # Flat pair-space CSR: row t's (n, V) tile occupies the
        # contiguous slice [pair_start[t], pair_start[t+1]) in C order.
        pair_counts = n_counts_all * v_sizes_all
        pair_start = np.concatenate(([0], np.cumsum(pair_counts)))
        p_base = int(pair_start[lo])
        p_total = int(pair_start[hi]) - p_base
        # CSR-ordered (and plan-memoised) gathers of every near atom's
        # inputs; each build row below is then three contiguous views.
        pos_csr = plan.gathered("pos", pos)
        born_csr = plan.gathered("born", born)
        q_csr = plan.gathered("charges", charges)

        def build_operands():
            # f_GB's three tile operands -- squared distances (already
            # clamped), Born products, charge products -- written row by
            # row into flat pair-space arrays.  They depend only on
            # (plan, pos, born, charges), so the memo below makes this
            # loop a once-per-plan cost; every later execution is just
            # the flat elementwise chain after it.
            R2 = np.empty(p_total)
            BB = np.empty(p_total)
            QQ = np.empty(p_total)
            buf_tc, buf_tm2 = _Scratch(), _Scratch()
            for v in np.unique(v_sizes):
                bucket = rows[(v_sizes == v) & (n_counts > 0)]
                if bucket.size == 0:
                    continue
                # Hoisted V-side row quantities (one batched computation
                # per bucket; row-wise ops on stacked rows touch only
                # that row's values, so each row matches its per-tile
                # counterpart).
                vidx = vs_all[bucket][:, None] \
                    + np.arange(v, dtype=np.int64)[None, :]
                vpos = pos[vidx]                          # (U, V, 3)
                u_center = vpos.mean(axis=1)
                u_sc = vpos - u_center[:, None, :]
                u_s2 = (u_sc * u_sc).sum(axis=2)          # (U, V)
                u_scT = u_sc.transpose(0, 2, 1).copy()    # (U, 3, V)
                u_born = born[vidx]                       # (U, V)
                u_q = charges[vidx]
                s0_all = plan.near_point_start[bucket]
                n_all = n_counts_all[bucket]
                p0_all = pair_start[bucket] - p_base
                # One 2-D tile per row, each written into its flat pair
                # slice.  Same in-place tricks as the Born kernel: the
                # -2 folds into the GEMM operand exactly, the spelt-out
                # column arithmetic equals the length-3 left-fold
                # np.sum, the clamp runs only when a negative exists,
                # and rank-1 GEMM outer products (k=1: one rounding per
                # element) equal the broadcast multiplies bitwise.
                for j in range(bucket.size):
                    s0 = int(s0_all[j])
                    n = int(n_all[j])
                    p0 = int(p0_all[j])
                    shape = (n, v)
                    t_c = np.subtract(pos_csr[s0:s0 + n], u_center[j],
                                      out=buf_tc.view((n, 3)))
                    tm2 = np.multiply(t_c, -2.0,
                                      out=buf_tm2.view((n, 3)))
                    r2 = np.matmul(tm2, u_scT[j],
                                   out=R2[p0:p0 + n * v].reshape(shape))
                    x, y, z = t_c[:, 0], t_c[:, 1], t_c[:, 2]
                    bb = BB[p0:p0 + n * v].reshape(shape)
                    tmp = np.add((x * x + y * y + z * z)[:, None],
                                 u_s2[j][None, :], out=bb)
                    np.add(r2, tmp, out=r2)
                    if float(r2.min()) < 0.0:
                        np.maximum(r2, 0.0, out=r2)
                    np.matmul(born_csr[s0:s0 + n, None],
                              u_born[j][None, :], out=bb)
                    np.matmul(q_csr[s0:s0 + n, None],
                              u_q[j][None, :],
                              out=QQ[p0:p0 + n * v].reshape(shape))
            return R2, BB, QQ, np.empty(p_total)

        R2, BB, QQ, f = plan.memo(
            "epol_near_operands", (pos, born, charges, lo, hi),
            build_operands, cache=p_total <= OPERAND_CACHE_MAX)
        # gbmodels.f_gb's expression tree op for op as flat full-range
        # passes -- elementwise and positional, so indistinguishable
        # from the per-tile evaluation (r2 / (-4 bb) == -(r2 / (4 bb))
        # exactly; *(-4) is a power-of-2 scale plus sign flip).  Only f
        # is written; the cached operands survive for the next call.
        np.multiply(BB, -4.0, out=f)
        np.divide(R2, f, out=f)
        np.exp(f, out=f)
        np.multiply(BB, f, out=f)
        np.add(R2, f, out=f)
        np.sqrt(f, out=f)
        term = np.divide(QQ, f, out=f)
        # Per-row np.sum over the row's contiguous flat pair slice:
        # same length, same memory order, same pairwise blocking as the
        # legacy per-leaf 2-D np.sum.  A scalar per ragged row cannot
        # be batched without changing the summation tree, so this stays
        # an O(rows) loop of O(1) reductions.
        nz = np.flatnonzero(n_counts) + lo
        p0_all = pair_start[nz] - p_base
        pc_all = pair_counts[nz]
        for j in range(nz.size):
            p0 = int(p0_all[j])
            near_terms[nz[j] - lo] = np.sum(term[p0:p0 + int(pc_all[j])])

    return far_terms, near_terms


@declares_effects()
def execute_epol_plan(plan: InteractionPlan, ctx: EnergyContext, *,
                      row_range: tuple[int, int] | None = None,
                      per_leaf: list[WorkCounters] | None = None
                      ) -> EpolPartial:
    """APPROX-EPOL over plan rows ``[lo, hi)``, batched.

    Bit-identical to the legacy per-leaf loop over the same leaves:
    the far einsum and near tiles are batched by shape
    (:func:`epol_row_terms`), and the final pair sum interleaves each
    row's far/near terms in ascending row order -- the legacy
    accumulation order.
    """
    lo, hi = _check_plan(plan, "epol", row_range)
    nbins = ctx.binning.nbins
    counters = plan.counters(lo, hi, nbins=nbins)
    if per_leaf is not None:
        per_leaf.extend(plan.row_counters(lo, hi, nbins=nbins))
    far_terms, near_terms = epol_row_terms(plan, ctx, row_range=(lo, hi))

    # Ascending row order, far before near within a row -- the exact
    # left-fold the legacy loop performed (order is the contract).
    total = 0.0
    for i in range(hi - lo):  # repro-lint: disable=REP006
        total += far_terms[i]
        total += near_terms[i]
    return EpolPartial(pair_sum=float(total), counters=counters)
