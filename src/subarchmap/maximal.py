"""Maximal connected k-subarchitectures of a platform.

Pipeline: enumerate connected induced k-subgraphs, drop isomorphic duplicates
by exact checks within hash buckets, then keep only the subgraphs that are
maximal under subgraph isomorphism (no member embeds into another member).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .graphs import CouplingGraph, induced_subgraph
from .iso import is_isomorphic, subgraph_isomorphic, wl_hash
from .subgraphs import connected_subgraphs, count_all_subsets

CACHE_FORMAT = 2  # bump whenever files written before may differ from a fresh run


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

    cached is True when it was replayed from a cache file, whose stage_times
    are those of the run that wrote it.
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
                         deadline: Deadline | None = None,
                         cache_dir: str | Path | None = None) -> SubarchSet:
    """All maximal, connected, pairwise non-subgraph-isomorphic k-subgraphs of g.

    First pass, streaming: each connected k-subset is hashed and opens a new
    isomorphism class unless is_isomorphic confirms a graph in its hash
    bucket. The hash only narrows the exact checks; it never decides a class,
    since non-isomorphic graphs may share a WL hash.

    Second pass, densest class first: a class is kept unless it embeds into
    an already-kept class with strictly more edges. Classes are pairwise
    non-isomorphic, so a k-vertex class can only embed into one with more
    edges; every such class was decided earlier, and one that was not kept
    embeds into a kept one, so checking the kept classes is exhaustive.
    Members are returned in the order their classes were first seen.
    """
    if cache_dir is not None:
        cached = load_cached(g, k, cache_dir)
        if cached is not None:
            return cached

    deadline = deadline or Deadline(None)
    connected = 0
    buckets: dict[int, list[CouplingGraph]] = {}
    classes: list[CouplingGraph] = []
    t_conn = t_iso = 0.0

    stream = connected_subgraphs(g, k)
    while True:
        t0 = time.perf_counter()
        subset = next(stream, None)
        t_conn += time.perf_counter() - t0
        if subset is None:
            break
        deadline.check()
        connected += 1

        t0 = time.perf_counter()
        sub = induced_subgraph(g, subset)
        bucket = buckets.setdefault(wl_hash(sub), [])
        if not any(is_isomorphic(sub, other) for other in bucket):
            bucket.append(sub)
            classes.append(sub)
        t_iso += time.perf_counter() - t0

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
        "all_subsets": count_all_subsets(g.num_vertices, k),
        "connected": connected,
        "noniso": len(classes),
        "max": len(members),
    }
    times = {"connected": t_conn, "noniso": t_iso, "max": t_max,
             "total": t_conn + t_iso + t_max}
    result = SubarchSet(g, k, members, counts, times)
    if cache_dir is not None:
        save_cached(result, cache_dir)
    return result


def _cache_path(g: CouplingGraph, k: int, cache_dir: str | Path) -> Path:
    return Path(cache_dir) / f"{g.digest()[:16]}-k{k}-f{CACHE_FORMAT}.json"


def save_cached(ss: SubarchSet, cache_dir: str | Path) -> Path:
    """Write ss under a key of its platform, k and the format, atomically."""
    path = _cache_path(ss.platform, ss.k, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "platform_digest": ss.platform.digest(),
        "k": ss.k,
        "format": CACHE_FORMAT,
        "members": [sorted(m.vertices) for m in ss.members],
        "stage_counts": ss.stage_counts,
        "stage_times": ss.stage_times,
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=1))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_cached(g: CouplingGraph, k: int, cache_dir: str | Path) -> SubarchSet | None:
    """The cached result for (g, k), or None on a missing or unreadable file,
    or one written for another platform, k or CACHE_FORMAT."""
    path = _cache_path(g, k, cache_dir)
    try:
        doc = json.loads(path.read_text())
        if (doc["platform_digest"], doc["k"], doc["format"]) \
                != (g.digest(), k, CACHE_FORMAT):
            return None
        members = [induced_subgraph(g, vs) for vs in doc["members"]]
        return SubarchSet(g, k, members, dict(doc["stage_counts"]),
                          dict(doc["stage_times"]), cached=True)
    except (OSError, ValueError, KeyError, TypeError):
        return None
