"""Work-partitioning schemes over octrees and atom ranges.

The paper's Section IV.A compares several static work-division schemes.
This module implements the primitives they are built from:

* :func:`segment_range` -- split ``[0, n)`` into ``P`` near-equal ranges
  (ATOM-BASED-WORK-DIVISION);
* :func:`segment_leaves` -- split the leaf list of an octree into ``P``
  contiguous segments balanced by the number of points under the leaves
  (NODE-BASED-WORK-DIVISION).  Leaves are in canonical depth-first order,
  which is space-filling-curve key order, so contiguous segments are
  spatially compact -- the property the SFC load-balancing literature
  cited by the paper relies on;
* :func:`segment_by_key_range` -- cut a sorted SFC key sequence into
  ``P`` contiguous *key intervals*, never splitting a key value across
  parts: each rank's ownership is describable as "keys in [a, b)", the
  contract the distributed-tree fabric needs.

Documented edge-case behaviour (tested in
``tests/test_partition_edges.py``):

* ``nparts`` larger than the item count -> trailing empty ``(n, n)``
  segments (callers must tolerate idle ranks);
* an all-zero / zero-tailed weight vector -> :func:`segment_by_weight`
  falls back to count balancing for the all-zero case, and otherwise
  assigns every zero-weight tail item to the last part (greedy prefix
  cuts place cut ``i`` at the first position reaching ``(i+1)/P`` of the
  total, so trailing zeros never start a new part);
* a single item (single-leaf tree) -> the first part owns it, the rest
  are empty, under every scheme.
"""

from __future__ import annotations

import numpy as np

from .morton import BITS_PER_AXIS
from .octree import Octree


def segment_range(n: int, nparts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``nparts`` contiguous near-equal pieces.

    The first ``n % nparts`` pieces get one extra element; empty pieces are
    produced when ``nparts > n`` (callers must tolerate idle workers).
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    base, extra = divmod(n, nparts)
    bounds = []
    start = 0
    for i in range(nparts):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def segment_by_weight(weights: np.ndarray, nparts: int) -> list[tuple[int, int]]:
    """Split items into ``nparts`` contiguous segments with near-equal
    total ``weights``.

    Greedy prefix cut: segment ``i`` ends at the first position where the
    cumulative weight reaches ``(i+1)/nparts`` of the total.  This is the
    classic 1-D balanced-partition heuristic used for SFC-ordered octree
    leaves.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
    if n == 0:
        return [(0, 0)] * nparts
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    cum = np.cumsum(w)
    total = cum[-1]
    if total == 0:
        return segment_range(n, nparts)
    targets = total * (np.arange(1, nparts + 1) / nparts)
    cuts = np.searchsorted(cum, targets, side="left") + 1
    cuts = np.minimum(cuts, n)
    cuts[-1] = n
    bounds = []
    start = 0
    for c in cuts:
        end = max(int(c), start)
        bounds.append((start, end))
        start = end
    return bounds


def segment_by_key_range(keys: np.ndarray, nparts: int, *,
                         weights: np.ndarray | None = None
                         ) -> list[tuple[int, int]]:
    """Split a non-decreasing key sequence into ``nparts`` contiguous
    segments that are each a *key interval*: items with equal keys are
    never split across parts, so every part's ownership can be published
    as a closed key range -- the prerequisite for contiguous,
    cache-friendly per-rank ownership of SFC-ordered octree leaves.

    Parameters
    ----------
    keys:
        ``(n,)`` non-decreasing (canonical-leaf-order) SFC keys.
    weights:
        Optional non-negative per-item work weights.  When given, cut
        positions come from the greedy weighted prefix cut
        (:func:`segment_by_weight`) and are then snapped *forward* to the
        next key change; without weights, items are count-balanced under
        the same snapping.  Snapping is what key-interval ownership costs
        relative to the exact row-weight balancer -- the benchmark
        ``benchmarks/test_sfc_partition.py`` measures exactly that gap.

    Returns
    -------
    ``nparts`` ``(start, end)`` index bounds covering ``[0, n)`` in
    order, possibly with empty trailing parts.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    k = np.asarray(keys)
    n = len(k)
    if n == 0:
        return [(0, 0)] * nparts
    if np.any(k[1:] < k[:-1]):
        raise ValueError("keys must be non-decreasing (canonical leaf order)")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if len(w) != n:
        raise ValueError("weights must match keys in length")
    raw = segment_by_weight(w, nparts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for _, cut in raw:
        # Snap forward so equal keys stay together; the final cut is
        # already n and snaps to itself.
        end = int(np.searchsorted(k, k[cut - 1], side="right")) \
            if 0 < cut < n else cut
        end = max(end, start)
        bounds.append((start, end))
        start = end
    return bounds


def coarsen_keys(keys: np.ndarray, nparts: int, *,
                 blocks_per_part: int = 4) -> np.ndarray:
    """Coarsen full-depth SFC keys to the shallowest refinement level that
    still yields about ``blocks_per_part`` distinct key blocks per part.

    SFC keys are hierarchical: the top ``3 * level`` bits of a full-depth
    (63-bit) key identify the depth-``level`` curve cell containing the
    point, so a right shift groups items into aligned curve blocks.
    Cutting coarsened keys with :func:`segment_by_key_range` produces
    block-aligned ownership intervals -- each rank owns whole coarse
    cells, publishable as a short key range -- at the price of coarser
    cut granularity versus the exact weight balancer.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    k = np.asarray(keys, dtype=np.uint64)
    if len(k) == 0:
        return k
    target = min(len(np.unique(k)), blocks_per_part * nparts)
    for level in range(1, BITS_PER_AXIS + 1):
        blocks = k >> np.uint64(3 * (BITS_PER_AXIS - level))
        if len(np.unique(blocks)) >= target:
            return blocks
    return k


def segment_leaf_bounds(tree: Octree, nparts: int,
                        *, balance: str = "points") -> list[tuple[int, int]]:
    """Index bounds into ``tree.leaves`` for :func:`segment_leaves`' parts.

    Exposed separately so callers holding per-leaf side arrays (cost
    profiles) can slice them with the same boundaries.
    """
    leaves = tree.leaves
    if balance == "points":
        weights = (tree.point_end[leaves] - tree.point_start[leaves]).astype(float)
        return segment_by_weight(weights, nparts)
    if balance == "count":
        return segment_range(len(leaves), nparts)
    raise ValueError(f"unknown balance mode {balance!r}")


def segment_leaves(tree: Octree, nparts: int,
                   *, balance: str = "points") -> list[np.ndarray]:
    """Split the leaves of ``tree`` into ``nparts`` contiguous segments.

    Parameters
    ----------
    tree:
        The octree whose leaves are divided.
    nparts:
        Number of segments (MPI processes).
    balance:
        ``"points"`` balances the number of points under the leaves (the
        proxy for per-leaf work the paper's static scheme uses);
        ``"count"`` balances the number of leaves.

    Returns
    -------
    list of arrays of leaf node ids, one per part (possibly empty).
    """
    bounds = segment_leaf_bounds(tree, nparts, balance=balance)
    return [tree.leaves[s:e] for s, e in bounds]


def segment_points(tree: Octree, nparts: int) -> list[np.ndarray]:
    """Split original point ids into ``nparts`` equal ranges by id --
    the paper's ATOM-BASED division.  Unlike node-based division this can
    split a tree node across parts, which is why its error drifts with
    ``nparts`` (Section IV.A); tests assert exactly that contrast."""
    return [np.arange(s, e, dtype=np.int64)
            for s, e in segment_range(tree.npoints, nparts)]


def imbalance(loads: np.ndarray) -> float:
    """Load imbalance factor ``max/mean`` (1.0 is perfect)."""
    loads = np.asarray(loads, dtype=np.float64)
    if len(loads) == 0 or loads.mean() == 0:
        return 1.0
    return float(loads.max() / loads.mean())
