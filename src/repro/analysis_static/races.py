"""Shared-memory race detector: declared write intents across workers.

A sliced request's workers write disjoint flat-CSR spans of one
per-request scratch segment (:meth:`repro.serve.fleet.ProcessFleet.
run_sliced`), all in the same round, with nothing ordering their writes.
Under ``REPRO_CHECKS=1`` each worker declares the spans it wrote:

* :class:`WriteIntentTracker` is the per-worker recorder; its
  :meth:`~WriteIntentTracker.record_write` turns one ``__setitem__`` key
  into a :class:`WriteIntent` -- (rank, array name, covering flat slice,
  call stack);
* :func:`find_races` merges every worker's intents and reports
  overlapping writes from *different* ranks, with both stacks.

Slices are reduced to a conservative *covering* flat interval, so exotic
fancy-indexed writes may report a superset of the touched elements --
fine for a checker whose clean state must be exact (disjoint
single-writer slices produce disjoint covers).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

#: Frames of context captured per write intent.
_STACK_DEPTH = 6


@dataclass(frozen=True)
class WriteIntent:
    """One recorded write: ``rank`` wrote ``[start, stop)`` (flat,
    covering) of ``array``."""

    rank: int
    array: str
    start: int
    stop: int
    stack: str

    def span(self) -> str:
        return f"{self.array}[{self.start}:{self.stop}]"


@dataclass(frozen=True)
class RaceFinding:
    """Two ranks wrote overlapping elements of one array."""

    array: str
    a: WriteIntent
    b: WriteIntent

    def describe(self) -> str:
        return (f"race on {self.array}: "
                f"rank {self.a.rank} wrote {self.a.span()} and "
                f"rank {self.b.rank} wrote {self.b.span()}\n"
                f"  rank {self.a.rank} stack:\n{_indent(self.a.stack)}"
                f"  rank {self.b.rank} stack:\n{_indent(self.b.stack)}")


def _indent(text: str, pad: str = "    ") -> str:
    return "".join(pad + line + "\n" for line in text.splitlines())


def flat_cover(shape: Sequence[int], key: Any) -> tuple[int, int] | None:
    """Covering flat interval ``[lo, hi)`` of a C-contiguous ``__setitem__``
    key, or None for a provably empty write.

    Ints and slices (any step) are covered exactly per axis; anything
    fancier (masks, index arrays) conservatively covers the whole array.
    """
    shape = tuple(int(d) for d in shape)
    size = 1
    for d in shape:
        size *= d
    if size == 0:
        return None
    if not shape:
        return (0, 1)
    keys = key if isinstance(key, tuple) else (key,)
    if any(k is Ellipsis for k in keys):
        i = next(j for j, k in enumerate(keys) if k is Ellipsis)
        fill = len(shape) - (len(keys) - 1)
        keys = keys[:i] + (slice(None),) * max(fill, 0) + keys[i + 1:]
    if len(keys) > len(shape):
        return (0, size)
    mins: list[int] = []
    maxs: list[int] = []
    for dim, k in zip(shape, keys):
        if isinstance(k, (int, np.integer)):
            i = int(k) + (dim if int(k) < 0 else 0)
            if not 0 <= i < dim:
                return (0, size)
            mins.append(i)
            maxs.append(i)
        elif isinstance(k, slice):
            start, stop, step = k.indices(dim)
            n = len(range(start, stop, step))
            if n == 0:
                return None
            last = start + (n - 1) * step
            mins.append(min(start, last))
            maxs.append(max(start, last))
        else:
            return (0, size)
    for dim in shape[len(keys):]:
        mins.append(0)
        maxs.append(dim - 1)
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    lo = sum(m * s for m, s in zip(mins, strides))
    hi = sum(m * s for m, s in zip(maxs, strides)) + 1
    return (lo, hi)


class WriteIntentTracker:
    """Per-rank write-intent recorder.

    Intents deduplicate on (array, interval) so hot write loops do not
    balloon the log; the first occurrence keeps its stack.
    """

    def __init__(self, rank: int, *, capture_stacks: bool = True,
                 max_intents: int = 100_000) -> None:
        self.rank = int(rank)
        self.capture_stacks = capture_stacks
        self.max_intents = max_intents
        self.intents: list[WriteIntent] = []
        self._seen: set[tuple[str, int, int]] = set()
        self.dropped = 0

    def record_write(self, array: str, shape: Sequence[int],
                     key: Any) -> None:
        """Record one ``__setitem__`` against ``array`` of ``shape``."""
        cover = flat_cover(shape, key)
        if cover is None:
            return
        lo, hi = cover
        dedup = (array, lo, hi)
        if dedup in self._seen:
            return
        if len(self.intents) >= self.max_intents:
            self.dropped += 1
            return
        self._seen.add(dedup)
        stack = ""
        if self.capture_stacks:
            frames = traceback.extract_stack()[:-2][-_STACK_DEPTH:]
            stack = "".join(traceback.format_list(frames))
        self.intents.append(WriteIntent(
            rank=self.rank, array=array, start=lo, stop=hi, stack=stack))

    # -- cross-process transport ---------------------------------------
    def payload(self) -> list[tuple[int, str, int, int, str]]:
        """Picklable flat form of the recorded intents."""
        return [(i.rank, i.array, i.start, i.stop, i.stack)
                for i in self.intents]


def intents_from_payload(
        payload: Iterable[tuple[int, str, int, int, str]]
) -> list[WriteIntent]:
    """Inverse of :meth:`WriteIntentTracker.payload`."""
    return [WriteIntent(*row) for row in payload]


def find_races(intents: Iterable[WriteIntent],
               max_findings: int = 20) -> list[RaceFinding]:
    """Overlapping writes from different ranks, across all ranks' merged
    intent logs."""
    groups: dict[str, list[WriteIntent]] = {}
    for intent in intents:
        groups.setdefault(intent.array, []).append(intent)
    findings: list[RaceFinding] = []
    for array, group in sorted(groups.items()):
        group.sort(key=lambda i: (i.start, i.stop, i.rank))
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if b.start >= a.stop:
                    break  # sorted by start: no later entry overlaps a
                if a.rank != b.rank:
                    findings.append(RaceFinding(array=array, a=a, b=b))
                    if len(findings) >= max_findings:
                        return findings
    return findings
