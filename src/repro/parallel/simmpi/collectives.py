"""Collective algorithms: value semantics and (t_s, t_w) cost formulas.

Costs follow the textbook models the paper cites (Grama et al., Table 4.1)
with a hierarchical refinement: rounds inside a node use the shared-memory
transport, rounds across nodes use the interconnect.  This is what makes
the simulated OCT_MPI (12 ranks/node) pay visibly more for its collectives
than OCT_MPI+CILK (2 ranks/node) at equal core counts -- the effect behind
the crossover in the paper's Fig. 6.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from ..machine import NetworkSpec, RankLayout


def _log2ceil(n: int) -> int:
    return int(math.ceil(math.log2(n))) if n > 1 else 0


def reduce_values(values: Sequence[Any], op: str) -> Any:
    """Apply a reduction across per-rank payloads (NumPy-aware)."""
    if not values:
        raise ValueError("no values to reduce")
    first = values[0]
    if first is None:
        # Size-only collectives (the simulated Fig. 4 program) carry no
        # payload.
        return None
    if isinstance(first, np.ndarray):
        stack = np.stack([np.asarray(v) for v in values])
        if op == "sum":
            return stack.sum(axis=0)
        if op == "min":
            return stack.min(axis=0)
        if op == "max":
            return stack.max(axis=0)
    else:
        if op == "sum":
            return sum(values)
        if op == "min":
            return min(values)
        if op == "max":
            return max(values)
    raise ValueError(f"unknown reduction op {op!r}")


def _rounds_cost(net: NetworkSpec, layout: RankLayout, nbytes: int) -> float:
    """Cost of a log-round exchange (recursive doubling): intra-node rounds
    at shared-memory cost plus inter-node rounds at interconnect cost."""
    intra_rounds = _log2ceil(layout.ranks_per_node)
    inter_rounds = _log2ceil(layout.nodes)
    return (intra_rounds * (net.ts_intra + net.tw_intra * nbytes)
            + inter_rounds * (net.ts_inter + net.tw_inter * nbytes))


def collective_cost(kind: str, net: NetworkSpec, layout: RankLayout,
                    nbytes: int) -> float:
    """Simulated wall time of one collective with ``nbytes`` per-rank
    payload on the given layout."""
    p = layout.nranks
    if p == 1:
        return 0.0
    base = net.dispatch_overhead * _log2ceil(p)
    if kind == "barrier":
        return base + _rounds_cost(net, layout, 0)
    if kind in ("bcast", "reduce"):
        return base + _rounds_cost(net, layout, nbytes)
    if kind == "allreduce":
        # Reduce-then-broadcast (two log-round sweeps).
        return base + 2.0 * _rounds_cost(net, layout, nbytes)
    if kind == "allgather":
        # Ring: p-1 steps, each moving one per-rank block; steps that cross
        # node boundaries pay interconnect cost.
        inter_steps = p - layout.ranks_per_node if layout.nodes > 1 else 0
        intra_steps = (p - 1) - inter_steps
        return (base + intra_steps * (net.ts_intra + net.tw_intra * nbytes)
                + inter_steps * (net.ts_inter + net.tw_inter * nbytes))
    if kind == "gather":
        # Tree gather; payload grows toward the root, approximate with the
        # bandwidth term of the full concatenation across inter rounds.
        return (base + _rounds_cost(net, layout, nbytes)
                + net.tw_inter * nbytes * max(layout.nodes - 1, 0))
    raise ValueError(f"unknown collective kind {kind!r}")


def collective_results(kind: str, values: list[Any], op: str,
                       root: int) -> list[Any]:
    """Per-rank results of a collective over the per-rank inputs."""
    p = len(values)
    if kind == "barrier":
        return [None] * p
    if kind == "allreduce":
        result = reduce_values(values, op)
        return [result] * p
    if kind == "allgather":
        return [list(values)] * p
    if kind == "bcast":
        return [values[root]] * p
    if kind == "gather":
        return [list(values) if r == root else None for r in range(p)]
    if kind == "reduce":
        result = reduce_values(values, op)
        return [result if r == root else None for r in range(p)]
    raise ValueError(f"unknown collective kind {kind!r}")
