"""Work counters: the bridge between real kernels and modelled time.

Every kernel in :mod:`repro.core` and :mod:`repro.baselines` increments a
:class:`WorkCounters` as it computes.  The machine model
(:mod:`repro.parallel.cost`) then converts counters to simulated seconds.
Keeping *computation* (real NumPy arithmetic) separate from *cost
accounting* (counters) is what lets one run on a laptop regenerate the
paper's 144-core figures deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class WorkCounters:
    """Additive operation counts for one computation phase.

    Attributes
    ----------
    exact_pairs:
        Point-point interactions evaluated exactly (atom-qpoint pairs in
        the Born phase, atom-atom pairs in the energy phase).
    far_evals:
        Far-field (pseudo-point) evaluations accepted by the MAC.
    hist_pairs:
        Histogram-bin pair evaluations in the far-field energy rule
        (``M_eps^2`` per far node pair).
    nodes_visited:
        Octree nodes touched by traversals.
    tree_points:
        Points processed by tree construction / prefix passes.
    bytes_touched:
        Approximate working-set bytes of the phase (cache model input).
    """

    exact_pairs: int = 0
    far_evals: int = 0
    hist_pairs: int = 0
    nodes_visited: int = 0
    tree_points: int = 0
    bytes_touched: int = 0

    def add(self, other: "WorkCounters") -> "WorkCounters":
        """Accumulate ``other`` into this counter set (returns self)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def copy(self) -> "WorkCounters":
        return WorkCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def total_ops(self) -> int:
        """Raw operation count (unweighted), for quick sanity checks."""
        return self.exact_pairs + self.far_evals + self.hist_pairs + self.nodes_visited

    def __iadd__(self, other: "WorkCounters") -> "WorkCounters":
        return self.add(other)

    @staticmethod
    def merged(parts: list["WorkCounters"]) -> "WorkCounters":
        out = WorkCounters()
        for p in parts:
            out.add(p)
        return out
