"""Shared geometric utilities: uniform-cell neighbour grids and rotations.

The cell grid is the workhorse behind the surface burial test, the
baseline nonbonded-list construction and the docking example's interface
test: O(N) build, O(1) expected candidates per query at fixed density,
fully vectorised queries.  Every query walks the same cell table -- the
occupied cells in ascending order with CSR offsets into a cell-sorted
point order -- once per neighbour-cell offset, never once per point.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the ranges ``[lo[q], hi[q])``: returns the owning
    range index and the position of every element, range by range."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(int(counts.sum())) + (lo - starts)[owner]


class CellGrid:
    """A uniform grid over 3-D points supporting radius and pair queries.

    Points are binned into cubic cells of edge ``cell_size``.  A query of
    radius ``r <= cell_size`` needs only the 27 neighbouring cells;
    larger radii scan proportionally more cells.  The cell table is built
    once: points sorted by cell, the occupied cell ids in ascending
    order, and CSR offsets into the sorted points.

    :meth:`pairs` answers a query for every point at once, one flat pass
    per neighbour-cell offset: one vectorised ``searchsorted`` gives each
    query its neighbour cell's range, the ranges expand to ``(q, j)``
    candidate pairs, and that offset's chunk is filtered before the next
    offset is expanded.  Transient memory is therefore one offset's
    candidates (about 1/27 of all of them), not the whole candidate set.

    Parameters
    ----------
    points:
        ``(N, 3)`` array of point coordinates.
    cell_size:
        Cell edge length; pick the largest interaction radius you will
        query for best performance.
    """

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be (N, 3)")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = points
        self.cell_size = float(cell_size)
        self.origin = points.min(axis=0) if len(points) else np.zeros(3)
        idx3 = self._cell_of(points)
        self.dims = idx3.max(axis=0) + 1 if len(points) else np.ones(3, np.int64)
        flat = self._flat_id(idx3)
        self._order = np.argsort(flat, kind="stable")
        self._cell_ids, starts = np.unique(flat[self._order],
                                           return_index=True)
        self._cell_ptr = np.append(starts, len(points))

    def _cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Integer cell coordinates ``(M, 3)`` of points ``(M, 3)``."""
        return np.floor((pts - self.origin) / self.cell_size).astype(np.int64)

    def _flat_id(self, cells: np.ndarray) -> np.ndarray:
        return (cells[:, 0] * self.dims[1] + cells[:, 1]) * self.dims[2] + cells[:, 2]

    def _offsets(self, radius: float) -> np.ndarray:
        """Neighbour-cell offsets ``(K, 3)`` a query of ``radius`` scans,
        x-major."""
        span = int(math.ceil(radius / self.cell_size))
        r = np.arange(-span, span + 1)
        return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)

    def _ranges(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ranges ``[lo, hi)`` into the cell-sorted point order of the
        points in each of ``cells`` ``(M, 3)``; empty for unoccupied or
        out-of-grid cells."""
        lo = np.zeros(len(cells), dtype=np.int64)
        if len(self._cell_ids) == 0:
            return lo, lo
        flat = self._flat_id(cells)
        slot = np.minimum(np.searchsorted(self._cell_ids, flat),
                          len(self._cell_ids) - 1)
        hit = (np.all((cells >= 0) & (cells < self.dims), axis=1)
               & (self._cell_ids[slot] == flat))
        lo[hit] = self._cell_ptr[slot[hit]]
        hi = lo.copy()
        hi[hit] = self._cell_ptr[slot[hit] + 1]
        return lo, hi

    def candidates(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Indices of points in all cells overlapping the query ball.

        This is a superset of the true in-radius set; callers filter by
        actual distance (kept separate so they can fold the distance test
        into their own vectorised kernel).
        """
        c = np.asarray(center, dtype=np.float64).reshape(1, 3)
        cells = self._cell_of(c) + self._offsets(radius)
        _, at = _expand(*self._ranges(cells))
        return self._order[at]

    def query_radius(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Indices of points strictly within ``radius`` of ``center``."""
        cand = self.candidates(center, radius)
        if len(cand) == 0:
            return cand
        c = np.asarray(center, dtype=np.float64)
        d2 = np.sum((self.points[cand] - c) ** 2, axis=1)
        return cand[d2 < radius * radius]

    def pairs(self, radius: float,
              keep: Callable[[np.ndarray, np.ndarray], np.ndarray], *,
              queries: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Every candidate pair ``(q, j)`` that ``keep`` accepts, sorted
        by ``q`` then ``j``.

        Candidates are the grid points ``j`` in cells overlapping the ball
        of ``radius`` around query ``q``; ``keep(q, j)`` returns the mask
        of one chunk's candidates to keep.  ``queries`` (``(M, 3)``)
        defaults to the grid's own points, and then a point is never
        paired with itself.
        """
        self_pairs = queries is None
        q_pts = self.points if queries is None else np.ascontiguousarray(
            queries, dtype=np.float64).reshape(-1, 3)
        base = self._cell_of(q_pts)
        npts = max(len(self.points), 1)
        keys: list[np.ndarray] = []
        for offset in self._offsets(radius):
            q, at = _expand(*self._ranges(base + offset))
            j = self._order[at]
            mask = keep(q, j)
            if self_pairs and not offset.any():
                mask &= q != j
            # One int64 sort key per kept pair: q-major, then j.
            keys.append(q[mask] * npts + j[mask])
        key = np.concatenate(keys)
        key.sort()
        return np.divmod(key, npts)


def rotation_matrix(axis: Sequence[float], angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about ``axis`` by ``angle`` radians."""
    a = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = a / norm
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
    ])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniformly random rotation matrix (via QR of a Gaussian matrix)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
