"""Maximal connected k-subarchitectures of a platform.

Pipeline: enumerate connected induced k-subgraphs, drop isomorphic duplicates
via hash buckets, then keep only the subgraphs that are maximal under
subgraph isomorphism (no member embeds into another member).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .graphs import CouplingGraph, induced_subgraph
from .iso import DEFAULT_WL_ITERATIONS, is_isomorphic, subgraph_isomorphic, wl_hash
from .subgraphs import connected_subgraphs, count_all_subsets


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
    """Result of the maximal-subarchitecture pipeline for one (platform, k)."""

    platform: CouplingGraph
    k: int
    members: list[CouplingGraph]
    stage_counts: dict[str, int] = field(default_factory=dict)
    stage_times: dict[str, float] = field(default_factory=dict)

    def counts_row(self) -> tuple[int, int, int, int]:
        c = self.stage_counts
        return (c["all_subsets"], c["connected"], c["noniso"], c["max"])


def max_subarchitectures(g: CouplingGraph, k: int, *,
                         wl_iterations: int = DEFAULT_WL_ITERATIONS,
                         trust_hash: bool = False,
                         deadline: Deadline | None = None,
                         cache_dir: str | Path | None = None) -> SubarchSet:
    """All maximal, connected, pairwise non-subgraph-isomorphic k-subgraphs of g.

    Single streaming pass: each connected k-subset is hashed; a candidate is
    new when no isomorphic graph sits in its hash bucket (with trust_hash a
    non-empty bucket is trusted without the exact check, which may rarely drop
    a class). New candidates are discarded if they embed into a current member
    and evict members that embed into them. Members keep insertion order.

    Per-stage wall times are accumulated around each phase of the loop so the
    reported split matches a staged run without buffering all subsets.
    """
    if cache_dir is not None:
        cached = load_cached(g, k, cache_dir)
        if cached is not None:
            return cached

    deadline = deadline or Deadline(None)
    connected = 0
    buckets: dict[str, list[CouplingGraph]] = {}
    members: list[CouplingGraph] = []
    # Comparison order: densest members first. A k-vertex graph can only embed
    # into one with at least as many edges, so most checks short-circuit.
    by_edges: list[CouplingGraph] = []
    t_conn = t_iso = t_max = 0.0

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
        h = wl_hash(sub, wl_iterations)
        bucket = buckets.setdefault(h, [])
        if bucket and (trust_hash or any(is_isomorphic(sub, other) for other in bucket)):
            t_iso += time.perf_counter() - t0
            continue
        bucket.append(sub)
        t_iso += time.perf_counter() - t0

        t0 = time.perf_counter()
        dominated = False
        evicted: list[CouplingGraph] = []
        for other in by_edges:
            if other.num_edges >= sub.num_edges and subgraph_isomorphic(sub, other):
                dominated = True
                break
            if other.num_edges <= sub.num_edges and subgraph_isomorphic(other, sub):
                evicted.append(other)
        if not dominated:
            for other in evicted:
                members.remove(other)
                by_edges.remove(other)
            members.append(sub)
            by_edges.append(sub)
            by_edges.sort(key=lambda m: -m.num_edges)
        t_max += time.perf_counter() - t0

    counts = {
        "all_subsets": count_all_subsets(g.num_vertices, k),
        "connected": connected,
        "noniso": sum(len(b) for b in buckets.values()),
        "max": len(members),
    }
    times = {"connected": t_conn, "noniso": t_iso, "max": t_max,
             "total": t_conn + t_iso + t_max}
    result = SubarchSet(g, k, members, counts, times)
    if cache_dir is not None:
        save_cached(result, cache_dir)
    return result


def _cache_path(g: CouplingGraph, k: int, cache_dir: str | Path) -> Path:
    return Path(cache_dir) / f"{g.digest()[:16]}-k{k}.json"


def save_cached(ss: SubarchSet, cache_dir: str | Path) -> Path:
    path = _cache_path(ss.platform, ss.k, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "platform_digest": ss.platform.digest(),
        "k": ss.k,
        "members": [sorted(m.vertices) for m in ss.members],
        "stage_counts": ss.stage_counts,
        "stage_times": ss.stage_times,
    }
    path.write_text(json.dumps(doc, indent=1))
    return path


def load_cached(g: CouplingGraph, k: int,
                cache_dir: str | Path) -> SubarchSet | None:
    path = _cache_path(g, k, cache_dir)
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc.get("platform_digest") != g.digest() or doc.get("k") != k:
        return None
    members = [induced_subgraph(g, vs) for vs in doc["members"]]
    return SubarchSet(g, k, members, doc["stage_counts"], doc["stage_times"])
