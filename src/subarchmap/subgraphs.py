"""Streaming enumeration of connected induced k-vertex subgraphs."""

from __future__ import annotations

from typing import Iterator

from .graphs import CouplingGraph, bits, is_connected


def connected_subgraphs(g: CouplingGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each k-subset of V whose induced subgraph is connected, exactly once.

    Anchored expansion (ESU, Wernicke 2006) on the graph's neighbour rows: for
    each anchor vertex (ascending), enumerate the connected sets whose minimum
    element it is. A branch carries its subset and an exclusion mask over
    vertex ranks: the subset, its neighbours and every vertex below the
    anchor. A vertex added to the subset brings in as new candidates only its
    neighbours outside that mask, so no set is reached twice. Memory stays
    proportional to k times the recursion depth; the number of yielded sets
    never accumulates in memory.
    """
    if not 1 <= k <= g.num_vertices:
        raise ValueError(f"k={k} is outside 1..|V|={g.num_vertices}")
    if not is_connected(g):
        raise ValueError("graph must be connected; decompose into components first")

    rows, label = g._rows, g.vertices.__getitem__

    def extend(sub: int, excluded: int, ext: list[int]) -> Iterator[tuple[int, ...]]:
        if sub.bit_count() == k - 1:  # each candidate completes a set
            for w in ext:
                yield tuple(map(label, bits(sub | 1 << w)))
            return
        # Each candidate is either consumed into the subgraph or permanently
        # excluded for the rest of this branch, so every set is built once.
        for i, w in enumerate(ext):
            yield from extend(sub | 1 << w, excluded | 1 << w | rows[w],
                              ext[i + 1:] + bits(rows[w] & ~excluded))

    for a in range(len(rows)):
        yield from extend(0, (1 << a) - 1, [a])
