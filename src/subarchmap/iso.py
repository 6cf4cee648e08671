"""Graph hashing and (sub)graph isomorphism tests.

The hash is a Weisfeiler-Lehman color refinement: isomorphic graphs always
collide, and most non-isomorphic ones do not, so it only buckets graphs for
the exact checks. Both exact checks run one backtracking monomorphism matcher
with degree-based pruning, which answers yes or no.
"""

from __future__ import annotations

from .graphs import CouplingGraph


def wl_hash(g: CouplingGraph) -> int:
    """Weisfeiler-Lehman graph hash, invariant under vertex relabeling.

    Initial colors are vertex degrees; each of three rounds re-colors a vertex
    with the hash of its own color and the sorted multiset of neighbor colors.
    The result hashes the sorted multiset of colors together with the vertex
    and edge counts. Colors are ints and Python does not salt the hash of int
    tuples, so the value is stable across runs. Non-isomorphic graphs can
    share a value: it is a bucket key, never a verdict.
    """
    colors = {v: g.degree(v) for v in g.vertices}
    for _ in range(3):
        colors = {v: hash((colors[v], tuple(sorted(colors[u] for u in g.neighbors(v)))))
                  for v in g.vertices}
    return hash((g.num_vertices, g.num_edges, tuple(sorted(colors.values()))))


def is_isomorphic(g1: CouplingGraph, g2: CouplingGraph) -> bool:
    """True iff an edge-preserving bijection between the two graphs exists."""
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    # With equal vertex and edge counts a monomorphism is a bijection carrying
    # the edges onto the edges: an isomorphism.
    return subgraph_isomorphic(g1, g2)


def subgraph_isomorphic(pattern: CouplingGraph, host: CouplingGraph) -> bool:
    """True iff pattern maps injectively into host carrying every edge to an edge.

    Non-induced (monomorphism) semantics: the host may have extra edges among
    the image vertices. The backtracking search answers yes or no.
    """
    if pattern.num_vertices > host.num_vertices or pattern.num_edges > host.num_edges:
        return False

    # Place next a vertex touching an already-placed one when there is one, so
    # anchored vertices prune hard; highest degree first, then lowest label.
    order: list[int] = []
    remaining = set(pattern.vertices)
    while remaining:
        touching = [v for v in remaining if not remaining.issuperset(pattern.neighbors(v))]
        v = max(touching or remaining, key=lambda x: (pattern.degree(x), -x))
        order.append(v)
        remaining.remove(v)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        pv = order[idx]
        # Candidates are adjacent to the image of every placed neighbor of pv,
        # so each one carries all of pv's edges to placed vertices.
        mapped_nbrs = [mapping[u] for u in pattern.neighbors(pv) if u in mapping]
        cands = set(host.neighbors(mapped_nbrs[0])) if mapped_nbrs else set(host.vertices)
        for mv in mapped_nbrs[1:]:
            cands &= set(host.neighbors(mv))
        for hv in sorted(cands - used):
            if host.degree(hv) < pattern.degree(pv):
                continue
            mapping[pv] = hv
            used.add(hv)
            if backtrack(idx + 1):
                return True
            del mapping[pv]
            used.remove(hv)
        return False

    return backtrack(0)
