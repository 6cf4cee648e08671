"""Maximal connected k-subarchitectures of a platform.

Pipeline: enumerate connected induced k-subgraphs, drop isomorphic duplicates
by exact checks within hash buckets, then keep only the subgraphs that are
maximal under subgraph isomorphism (no member embeds into another member).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from .graphs import CouplingGraph, induced_subgraph
from .iso import is_isomorphic, subgraph_isomorphic, wl_hash
from .subgraphs import connected_subgraphs

STORE_SIZE = 64  # (platform, k) results kept in process; least recently used go first


class BudgetExceeded(Exception):
    """Raised when a wall-clock budget expires mid-computation."""


class Deadline:
    """Wall-clock budget in seconds; None means unlimited."""

    def __init__(self, seconds: float | None = None):
        self.seconds = seconds
        self._t0 = time.monotonic()

    def check(self) -> None:
        if self.seconds is not None and time.monotonic() - self._t0 > self.seconds:
            raise BudgetExceeded(f"budget of {self.seconds}s exceeded")


@dataclass
class SubarchSet:
    """Result of the maximal-subarchitecture pipeline for one (platform, k).

    cached is True when subarchitectures served it from its in-process store;
    its stage_times are those of the run that computed it.
    """

    platform: CouplingGraph
    k: int
    members: list[CouplingGraph]
    stage_counts: dict[str, int] = field(default_factory=dict)
    stage_times: dict[str, float] = field(default_factory=dict)
    cached: bool = False

    def counts_row(self) -> tuple[int, int, int, int]:
        c = self.stage_counts
        return (c["all_subsets"], c["connected"], c["noniso"], c["max"])


def max_subarchitectures(g: CouplingGraph, k: int, *,
                         deadline: Deadline | None = None) -> SubarchSet:
    """All maximal, connected, pairwise non-subgraph-isomorphic k-subgraphs of g.

    First pass, streaming: each connected k-subset is hashed and opens a new
    isomorphism class unless is_isomorphic confirms a graph in its hash
    bucket. The hash only narrows the exact checks; it never decides a class,
    since non-isomorphic graphs may share a WL hash. Both read only the rows:
    a subset whose rows came earlier in the pass is hashed and checked as
    the class they joined, already cached. The "connected" stage time is
    the rest of the pass: enumeration and budget checks.

    Second pass, densest class first: a class is kept unless it embeds into
    an already-kept class with strictly more edges. Classes are pairwise
    non-isomorphic, so a k-vertex class can only embed into one with more
    edges; every such class was decided earlier, and one that was not kept
    embeds into a kept one, so checking the kept classes is exhaustive.
    Members are returned in the order their classes were first seen.
    It always computes; subarchitectures is the lookup that reuses results.
    """
    deadline = deadline or Deadline(None)
    connected = 0
    buckets: dict[int, list[CouplingGraph]] = {}
    joined: dict[tuple[int, ...], CouplingGraph] = {}
    classes: list[CouplingGraph] = []
    t_iso = 0.0
    t_pass = time.perf_counter()
    for subset in connected_subgraphs(g, k):
        deadline.check()
        connected += 1

        t0 = time.perf_counter()
        sub = induced_subgraph(g, subset)
        rep = joined.get(sub._rows, sub)
        bucket = buckets.setdefault(wl_hash(rep), [])
        rep = next((other for other in bucket if is_isomorphic(rep, other)), sub)
        if rep is sub:
            bucket.append(sub)
            classes.append(sub)
        joined[sub._rows] = rep
        t_iso += time.perf_counter() - t0
    t_conn = time.perf_counter() - t_pass - t_iso  # enumeration and budget checks

    t0 = time.perf_counter()
    kept: list[int] = []
    for i in sorted(range(len(classes)), key=lambda i: -classes[i].num_edges):
        deadline.check()
        sub = classes[i]
        if not any(classes[j].num_edges > sub.num_edges
                   and subgraph_isomorphic(sub, classes[j]) for j in kept):
            kept.append(i)
    members = [classes[i] for i in sorted(kept)]
    t_max = time.perf_counter() - t0

    counts = {
        "all_subsets": math.comb(g.num_vertices, k),
        "connected": connected,
        "noniso": len(classes),
        "max": len(members),
    }
    times = {"connected": t_conn, "noniso": t_iso, "max": t_max,
             "total": t_conn + t_iso + t_max}
    return SubarchSet(g, k, members, counts, times)


_store: OrderedDict[tuple[CouplingGraph, str, int], SubarchSet] = OrderedDict()


def subarchitectures(g: CouplingGraph, k: int, *,
                     deadline: Deadline | None = None) -> SubarchSet:
    """max_subarchitectures(g, k), computed once per (platform, k) and process.

    Looks in the in-process store and computes only on a miss. The store key
    compares vertices and neighbour rows exactly, and the platform name as
    well, since members carry it. A result cut off by the deadline is never
    stored. A hit is a fresh SubarchSet around the caller's g, marked cached.
    """
    key = (g, g.name, k)
    stored = _store.get(key)
    if stored is not None:
        _store.move_to_end(key)
        return _replay(stored, g)
    ss = max_subarchitectures(g, k, deadline=deadline)
    _store[key] = _replay(ss, g)
    if len(_store) > STORE_SIZE:
        _store.popitem(last=False)
    return ss


def _replay(ss: SubarchSet, g: CouplingGraph) -> SubarchSet:
    """A copy of ss on g, marked cached, sharing no mutable state with ss."""
    return replace(ss, platform=g, members=list(ss.members),
                   stage_counts=dict(ss.stage_counts),
                   stage_times=dict(ss.stage_times), cached=True)

