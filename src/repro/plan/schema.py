"""The :class:`InteractionPlan` CSR schema.

One plan records every traversal decision for one ``(tree pair, eps,
mac_variant, power)`` configuration: for each target leaf (a *row*), the
far nodes the MAC accepted (with their centre distances) and the near
leaves it rejected, plus the flattened sorted-position point ids under
those near leaves.  Everything is flat ``int64``/``float64`` arrays so a
plan can be published once into shared memory
(:class:`~repro.parallel.procpool.shm.SharedArrayBundle`) and executed in
slices by every rank.

Determinism invariants (see ``docs/ALGORITHMS.md``):

* rows are in **canonical leaf-key order** -- the target tree's
  ``leaves`` list, i.e. ascending SFC key / ascending ``point_start``;
  the plan records this contract (``row_order``) and the tree variant it
  was built against (``tree_variant``) in its metadata, and the fold
  order of every executor is defined as ascending row order;
* within a row, far nodes and near leaves appear in the exact BFS
  level-major order :func:`~repro.octree.traversal.classify_against_ball`
  emits, and ``far_dist`` carries the bit pattern of the single-target
  walk's distance expression;
* ``near_points`` of a row equals ``_slice_concat`` of the row's near
  leaves, so executors scatter exact tiles to the same positions in the
  same order as the per-leaf path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..runtime.instrument import WorkCounters

#: The flat arrays a plan is made of, in publication order.  All are
#: ``int64`` except ``far_dist`` (``float64``).
PLAN_ARRAY_FIELDS: tuple[str, ...] = (
    "target_leaves", "target_point_start", "target_point_end",
    "far_start", "far_nodes", "far_dist",
    "near_leaf_start", "near_leaves",
    "near_point_start", "near_points",
    "nodes_visited",
)

#: Scalar metadata fields pickled alongside the arrays.
PLAN_META_FIELDS: tuple[str, ...] = (
    "kind", "eps", "mac_variant", "power", "multiplier", "build_seconds",
    "tree_variant", "row_order",
)

#: The only row-order contract current executors implement: rows in the
#: target tree's canonical leaf order, folded ascending.
ROW_ORDER_LEAF_KEY = "leaf-key"


@dataclass
class InteractionPlan:
    """Flat-CSR interaction lists for one kernel configuration.

    Row ``t`` describes target leaf ``target_leaves[t]``:

    * ``far_nodes[far_start[t]:far_start[t+1]]`` (and ``far_dist``) are
      the MAC-accepted nodes of the walked tree;
    * ``near_leaves[near_leaf_start[t]:near_leaf_start[t+1]]`` are the
      exact-tile leaves;
    * ``near_points[near_point_start[t]:near_point_start[t+1]]`` are the
      sorted-position point ids under those leaves, in tile order;
    * ``target_point_start[t]:target_point_end[t]`` is the target leaf's
      own point slice in *its* tree's sorted order.
    """

    kind: str                       # "born" | "epol"
    eps: float
    mac_variant: str                # born MAC variant ("" for epol)
    power: int                      # 6/4 for born, 0 for epol
    multiplier: float               # the MAC multiplier actually used
    target_leaves: np.ndarray       # (L,)   int64 node ids
    target_point_start: np.ndarray  # (L,)   int64
    target_point_end: np.ndarray    # (L,)   int64
    far_start: np.ndarray           # (L+1,) int64
    far_nodes: np.ndarray           # (sum F,) int64
    far_dist: np.ndarray            # (sum F,) float64
    near_leaf_start: np.ndarray     # (L+1,) int64
    near_leaves: np.ndarray         # (sum N,) int64
    near_point_start: np.ndarray    # (L+1,) int64
    near_points: np.ndarray         # (sum A,) int64
    nodes_visited: np.ndarray       # (L,)   int64
    build_seconds: float = 0.0
    #: Octree variant fingerprint the plan's node/point ids refer to
    #: (``Octree.variant``); mixing variants is a hard error downstream.
    tree_variant: str = "morton"
    #: Row-order contract; always :data:`ROW_ORDER_LEAF_KEY` today.
    row_order: str = ROW_ORDER_LEAF_KEY
    _gather_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)

    # -- derived row quantities ----------------------------------------
    @property
    def nrows(self) -> int:
        return len(self.target_leaves)

    @property
    def target_sizes(self) -> np.ndarray:
        """(L,) points under each target leaf."""
        return self.target_point_end - self.target_point_start

    @property
    def far_counts(self) -> np.ndarray:
        """(L,) far nodes per row."""
        return np.diff(self.far_start)

    @property
    def near_leaf_counts(self) -> np.ndarray:
        """(L,) near leaves per row."""
        return np.diff(self.near_leaf_start)

    @property
    def near_point_counts(self) -> np.ndarray:
        """(L,) exact-tile source points per row."""
        return np.diff(self.near_point_start)

    @property
    def exact_pairs_per_row(self) -> np.ndarray:
        """(L,) exact point-point pairs per row (tile area)."""
        return self.near_point_counts * self.target_sizes

    @property
    def nbytes(self) -> int:
        """Measured bytes of the flat plan arrays (what a cache budget or
        a shared-memory publication actually pays for this plan)."""
        return int(sum(getattr(self, name).nbytes
                       for name in PLAN_ARRAY_FIELDS))

    def row_pair_weights(self, *, nbins: int = 0) -> np.ndarray:
        """Exact per-row interaction counts for work division.

        ``exact_pairs + far_nodes * (1 + nbins**2)`` -- with ``nbins`` the
        energy binning width, the far term counts the histogram-pair
        evaluations each accepted node costs; at the default ``nbins=0``
        each far node counts once.  These are *measured* counts from the
        plan, not cost-model estimates.
        """
        return (self.exact_pairs_per_row
                + self.far_counts * (1 + nbins * nbins))

    def row_counters(self, lo: int, hi: int, *,
                     nbins: int = 0) -> list[WorkCounters]:
        """Per-row :class:`WorkCounters` for rows ``[lo, hi)``.

        Integer-exact synthesis of what the legacy per-leaf loop counted:
        the executor does not need to run to know its operation counts.
        """
        exact = self.exact_pairs_per_row[lo:hi]
        far = self.far_counts[lo:hi]
        visited = self.nodes_visited[lo:hi]
        hist = far * (nbins * nbins)
        return [WorkCounters(exact_pairs=int(e), far_evals=int(f),
                             hist_pairs=int(h), nodes_visited=int(v))
                for e, f, h, v in zip(exact, far, hist, visited)]

    def counters(self, lo: int | None = None, hi: int | None = None, *,
                 nbins: int = 0) -> WorkCounters:
        """Aggregate :class:`WorkCounters` over rows ``[lo, hi)``."""
        lo = 0 if lo is None else lo
        hi = self.nrows if hi is None else hi
        far = int(self.far_counts[lo:hi].sum())
        return WorkCounters(
            exact_pairs=int(self.exact_pairs_per_row[lo:hi].sum()),
            far_evals=far,
            hist_pairs=far * nbins * nbins,
            nodes_visited=int(self.nodes_visited[lo:hi].sum()))

    def memo(self, name: str, sources: tuple, build):
        """Plan-lifetime memo of a value derived from ``sources``.

        A plan outlives many executions (epsilon sweeps, repeated energy
        evaluations, served requests), so executors stash plan-shaped
        derived arrays here and pay the derivation once per ``(plan,
        sources)``.  Source arrays are keyed by *identity* -- a different
        array under the same name (another tree's positions, say) misses,
        recomputes and replaces the entry, so a hit can never be stale as
        long as sources follow the repo-wide write-once convention for
        sorted tree arrays.
        """
        hit = self._gather_cache.get(name)
        if hit is not None and len(hit[0]) == len(sources) and all(
                a is b for a, b in zip(hit[0], sources)):
            return hit[1]
        out = build()
        self._gather_cache[name] = (tuple(sources), out)
        return out

    # -- (de)serialisation for shared-memory publication ---------------
    def meta(self) -> dict:
        """Picklable scalar metadata (pairs with :meth:`as_arrays`)."""
        return {name: getattr(self, name) for name in PLAN_META_FIELDS}

    def as_arrays(self) -> dict[str, np.ndarray]:
        """The flat arrays, keyed by field name."""
        return {name: getattr(self, name) for name in PLAN_ARRAY_FIELDS}

    @classmethod
    def from_arrays(cls, meta: dict,
                    arrays: dict[str, np.ndarray]) -> "InteractionPlan":
        """Rebuild a plan from :meth:`meta` + :meth:`as_arrays` payloads
        (zero-copy when the arrays are shared-memory views)."""
        return cls(**meta, **{name: arrays[name]
                              for name in PLAN_ARRAY_FIELDS})

    def validate(self) -> None:
        """Structural sanity checks (cheap; used by tests and checked
        runs)."""
        # 64-bit end to end: an int32 index truncates past 2**31 rows or
        # points, long before anything else looks wrong.
        for name in PLAN_ARRAY_FIELDS:
            want = np.dtype(np.float64 if name == "far_dist" else np.int64)
            got = getattr(self, name).dtype
            if got != want:
                raise ValueError(f"{name} must be {want}, not {got}")
        L = self.nrows
        for name in ("far_start", "near_leaf_start", "near_point_start"):
            start = getattr(self, name)
            if start.shape != (L + 1,):
                raise ValueError(f"{name} must have {L + 1} entries")
            if np.any(np.diff(start) < 0) or start[0] != 0:
                raise ValueError(f"{name} is not a monotone CSR index")
        if self.far_nodes.shape != self.far_dist.shape:
            raise ValueError("far_nodes/far_dist length mismatch")
        if int(self.far_start[-1]) != len(self.far_nodes):
            raise ValueError("far_start does not cover far_nodes")
        if int(self.near_point_start[-1]) != len(self.near_points):
            raise ValueError("near_point_start does not cover near_points")
        if np.any(self.target_sizes <= 0):
            raise ValueError("every target leaf must hold points")
        if self.row_order != ROW_ORDER_LEAF_KEY:
            raise ValueError(
                f"unknown row-order contract {self.row_order!r}; executors "
                f"implement only {ROW_ORDER_LEAF_KEY!r}")


@dataclass
class PlanSet:
    """The pair of plans one pipeline execution needs."""

    born: InteractionPlan
    epol: InteractionPlan

    def __post_init__(self) -> None:
        if self.born.kind != "born" or self.epol.kind != "epol":
            raise ValueError("PlanSet wants (born, epol) plans in order")
        if self.born.tree_variant != self.epol.tree_variant:
            raise ValueError(
                f"mixed tree variants in one PlanSet: "
                f"{self.born.tree_variant!r} vs {self.epol.tree_variant!r}")


def _field_names() -> set[str]:
    return {f.name for f in fields(InteractionPlan)}


assert set(PLAN_ARRAY_FIELDS) <= _field_names()
assert set(PLAN_META_FIELDS) <= _field_names()
