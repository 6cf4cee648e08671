"""Streaming enumeration of connected induced k-vertex subgraphs."""

from __future__ import annotations

from typing import Iterator

from .graphs import CouplingGraph, is_connected


def connected_subgraphs(g: CouplingGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each k-subset of V whose induced subgraph is connected, exactly once.

    Anchored expansion: for each anchor vertex v (ascending), enumerate
    connected sets whose minimum element is v, growing only through vertices
    larger than v. Extension candidates that are already neighbors of the
    current set are excluded when a new vertex is added, so no set is reached
    twice. Memory stays proportional to k times the recursion depth; the
    number of yielded sets never accumulates in memory.
    """
    if not 1 <= k <= g.num_vertices:
        raise ValueError(f"k={k} out of range for |V|={g.num_vertices}")
    if not is_connected(g):
        raise ValueError("graph must be connected; decompose into components first")

    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def extend(anchor: int, sub: set[int], ext: list[int]) -> Iterator[tuple[int, ...]]:
        if len(sub) == k:
            yield tuple(sorted(sub))
            return
        # Each candidate is either consumed into the subgraph or permanently
        # excluded for the rest of this branch, so every set is built once.
        for i, w in enumerate(ext):
            fresh = [u for u in adj[w]
                     if u > anchor and u not in sub and not (adj[u] & sub)]
            sub.add(w)
            yield from extend(anchor, sub, ext[i + 1:] + sorted(fresh))
            sub.remove(w)

    for v in g.vertices:
        ext0 = sorted(u for u in adj[v] if u > v)
        yield from extend(v, {v}, ext0)
