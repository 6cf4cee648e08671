"""Graph hashing and (sub)graph isomorphism tests.

The hash is a Weisfeiler-Lehman color refinement: isomorphic graphs always
collide, and most non-isomorphic ones do not, so it only buckets graphs for
the exact checks. Both exact checks run one backtracking monomorphism matcher
with degree-based pruning.
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


def _match(pattern: CouplingGraph, host: CouplingGraph) -> dict[int, int] | None:
    """Find a monomorphism: an injective map carrying pattern edges to host edges.

    Host edges among the image vertices need not come from pattern edges.
    Deterministic: pattern vertices are processed in a fixed connectivity-aware
    order and host candidates ascending, so the first witness is stable.
    """
    pn, hn = pattern.num_vertices, host.num_vertices
    if pn > hn or pattern.num_edges > host.num_edges:
        return None

    # Order pattern vertices so each one (after the first of its component)
    # touches an already-placed vertex; anchored vertices prune hard.
    order: list[int] = []
    placed: set[int] = set()
    remaining = set(pattern.vertices)
    while remaining:
        candidates = [v for v in remaining if placed & set(pattern.neighbors(v))]
        if candidates:
            v = max(candidates, key=lambda x: (pattern.degree(x), -x))
        else:
            v = max(remaining, key=lambda x: (pattern.degree(x), -x))
        order.append(v)
        placed.add(v)
        remaining.remove(v)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(idx: int) -> bool:
        if idx == pn:
            return True
        pv = order[idx]
        # Candidates are adjacent to the image of every placed neighbor of pv,
        # so each one carries all of pv's edges to placed vertices.
        mapped_nbrs = [mapping[u] for u in pattern.neighbors(pv) if u in mapping]
        if mapped_nbrs:
            cands = set(host.neighbors(mapped_nbrs[0]))
            for mv in mapped_nbrs[1:]:
                cands &= set(host.neighbors(mv))
            cands -= used
        else:
            cands = set(host.vertices) - used
        for hv in sorted(cands):
            if host.degree(hv) < pattern.degree(pv):
                continue
            mapping[pv] = hv
            used.add(hv)
            if backtrack(idx + 1):
                return True
            del mapping[pv]
            used.remove(hv)
        return False

    return dict(mapping) if backtrack(0) else None


def is_isomorphic(g1: CouplingGraph, g2: CouplingGraph) -> bool:
    """True iff an edge-preserving bijection between the two graphs exists."""
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    # A monomorphism between graphs with equal vertex counts is a bijection,
    # and with equal edge counts it carries the edges onto the edges: it is an
    # isomorphism.
    return _match(g1, g2) is not None


def subgraph_isomorphic(pattern: CouplingGraph, host: CouplingGraph) -> bool:
    """True iff pattern maps injectively into host carrying every edge to an edge.

    Non-induced (monomorphism) semantics: the host may have extra edges among
    the image vertices.
    """
    return _match(pattern, host) is not None

