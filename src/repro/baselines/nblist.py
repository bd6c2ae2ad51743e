"""Nonbonded-list (nblist) construction and its space model.

The paper's Section II argues octrees beat nblists because an nblist's
size grows *cubically with the distance cutoff* (every atom stores all
neighbours within the cutoff) while an octree stays linear and
cutoff-independent.  We implement a real cell-grid nblist builder (used by
the baseline packages' energy kernels) and the byte-accounting that drives
the paper's out-of-memory observations (Section V.D/V.F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry import CellGrid
from ..molecule.elements import PROTEIN_ATOM_DENSITY
from ..molecule.molecule import Molecule
from ..runtime.instrument import WorkCounters

#: Bytes per stored neighbour entry (index + exclusion flags + padding, as
#: in Amber/Gromacs pairlist structures).
BYTES_PER_ENTRY = 8

#: Fixed per-atom nblist header bytes.
BYTES_PER_ATOM = 64


@dataclass
class NeighborList:
    """A flat CSR-style nonbonded list.

    Attributes
    ----------
    offsets:
        ``(N+1,)`` prefix offsets into ``neighbors``.
    neighbors:
        Concatenated neighbour indices (each unordered pair appears once,
        stored under the lower atom id).
    cutoff:
        The distance cutoff used.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    cutoff: float

    @property
    def natoms(self) -> int:
        return len(self.offsets) - 1

    @property
    def npairs(self) -> int:
        return len(self.neighbors)

    def neighbors_of(self, i: int) -> np.ndarray:
        """Neighbour ids of atom ``i`` (only those with id > i)."""
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]

    def nbytes(self) -> int:
        """Modelled resident size (the paper's space argument)."""
        return (self.natoms * BYTES_PER_ATOM
                + self.npairs * BYTES_PER_ENTRY)


def build_nblist(molecule: Molecule, cutoff: float, *,
                 counters: WorkCounters | None = None) -> NeighborList:
    """Build the half nonbonded list of ``molecule`` at ``cutoff``."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    pos = molecule.positions
    c2 = cutoff * cutoff

    def within(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # Each unordered pair once, under the lower atom id.
        ok = i < j
        ok[ok] = np.sum((pos[j[ok]] - pos[i[ok]]) ** 2, axis=1) < c2
        return ok

    # Sorted by atom, then neighbour id: already the CSR layout.
    i, neighbors = CellGrid(pos, cell_size=cutoff).pairs(cutoff, within)
    offsets = np.zeros(len(molecule) + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=len(molecule)), out=offsets[1:])
    if counters is not None:
        counters.exact_pairs += len(neighbors)
    return NeighborList(offsets=offsets, neighbors=neighbors, cutoff=cutoff)


def expected_pairs_per_atom(cutoff: float,
                            density: float = PROTEIN_ATOM_DENSITY) -> float:
    """Mean neighbour count at protein density: ``(4/3) pi c^3 rho`` --
    the cubic growth the paper's space argument rests on."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return 4.0 / 3.0 * math.pi * cutoff ** 3 * density


def nblist_bytes_model(natoms: int, cutoff: float, *,
                       density: float = PROTEIN_ATOM_DENSITY,
                       replicas: int = 1) -> float:
    """Modelled nblist bytes without building it: linear in atoms, cubic in
    cutoff, one replica per distributed-memory rank."""
    ppa = expected_pairs_per_atom(cutoff, density)
    per_replica = natoms * (BYTES_PER_ATOM + 0.5 * ppa * BYTES_PER_ENTRY)
    return replicas * per_replica


def max_feasible_cutoff(natoms: int, ram_bytes: float, *,
                        density: float = PROTEIN_ATOM_DENSITY,
                        replicas: int = 1) -> float:
    """Largest cutoff whose modelled nblist fits in ``ram_bytes`` -- how we
    reproduce "we were able to run Gromacs and NAMD on CMV only for cutoff
    values up to ..." (Section V.F)."""
    lo, hi = 0.1, 1024.0
    if nblist_bytes_model(natoms, lo, density=density, replicas=replicas) > ram_bytes:
        return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if nblist_bytes_model(natoms, mid, density=density,
                              replicas=replicas) <= ram_bytes:
            lo = mid
        else:
            hi = mid
    return lo
