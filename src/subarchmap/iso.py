"""Graph hashing and (sub)graph isomorphism tests.

The hash is a Weisfeiler-Lehman color refinement: isomorphic graphs always
collide, and most non-isomorphic ones do not, so it only buckets graphs for
the exact checks. The hash and both exact checks read each graph's neighbour
rows (`CouplingGraph._rows`, one int per vertex, built with the graph). The
exact checks run one backtracking monomorphism matcher on these bitmasks,
which answers yes or no. It caches two more things on the graphs it meets: a
pattern's search plan (its vertex order, with each step's degree and
earlier-placed neighbour steps) and a host's degree masks (the vertices of
degree at least d, for each d). A step's candidates then cost one int `&` per
placed neighbour, VF2-style (Cordella et al., TPAMI 2004), and a pattern or
host met again costs no set-up.
"""

from __future__ import annotations

from .graphs import CouplingGraph, bits


def wl_hash(g: CouplingGraph) -> int:
    """Weisfeiler-Lehman graph hash, invariant under vertex relabeling.

    Initial colors are vertex degrees; each of three rounds re-colors a vertex
    with the hash of its own color and the sorted multiset of neighbor colors.
    The result hashes the sorted multiset of colors together with the vertex
    and edge counts. Colors are ints and Python does not salt the hash of int
    tuples, so the value is stable across runs. Non-isomorphic graphs can
    share a value: it is a bucket key, never a verdict.
    """
    nbrs = list(map(bits, g._rows))
    colors = [len(ns) for ns in nbrs]
    for _ in range(3):
        at = colors.__getitem__
        colors = [hash((c, tuple(sorted(map(at, ns))))) for c, ns in zip(colors, nbrs)]
    return hash((g.num_vertices, g.num_edges, tuple(sorted(colors))))


def is_isomorphic(g1: CouplingGraph, g2: CouplingGraph) -> bool:
    """True iff an edge-preserving bijection between the two graphs exists.

    g2 is the matcher's pattern and g1 its host, so a caller that checks many
    graphs against one representative passes the representative second and
    the representative's search plan is built once.
    """
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    # With equal vertex and edge counts a monomorphism is a bijection carrying
    # the edges onto the edges: an isomorphism.
    return subgraph_isomorphic(g2, g1)


def subgraph_isomorphic(pattern: CouplingGraph, host: CouplingGraph) -> bool:
    """True iff pattern maps injectively into host carrying every edge to an edge.

    Non-induced (monomorphism) semantics: the host may have extra edges among
    the image vertices. The backtracking search answers yes or no.
    """
    if pattern.num_vertices > host.num_vertices or pattern.num_edges > host.num_edges:
        return False
    steps = _plan(pattern)
    rows = host._rows
    at_least = _at_least(host)
    n = len(steps)
    image = [0] * n  # image[i]: row of the host vertex that step i placed

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        degree, back = steps[i]
        # Each candidate has the vertex's degree at least and is adjacent to
        # the image of every placed neighbour, so it carries all of the
        # vertex's edges to placed vertices.
        c = at_least[degree] & ~used
        for j in back:
            c &= image[j]
        while c:
            b = c & -c  # lowest bit: candidates are tried in ascending label order
            image[i] = rows[b.bit_length() - 1]
            if place(i + 1, used | b):
                return True
            c ^= b
        return False

    return place(0, 0)


def _plan(pattern: CouplingGraph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The pattern's search plan, built once per graph: per step, the degree
    of the vertex it places and the earlier steps that place its neighbours.

    Place next a vertex touching an already-placed one when there is one, so
    anchored vertices prune hard; highest degree first, then lowest label.
    """
    if pattern._plan is None:
        rows = pattern._rows
        degree = [r.bit_count() for r in rows]
        step_of: dict[int, int] = {}
        placed = 0
        remaining = list(range(len(rows)))
        steps = []
        while remaining:
            touching = [v for v in remaining if rows[v] & placed]
            v = max(touching or remaining, key=lambda x: (degree[x], -x))
            remaining.remove(v)
            back = tuple(s for u, s in step_of.items() if rows[v] >> u & 1)
            step_of[v] = len(steps)
            steps.append((degree[v], back))
            placed |= 1 << v
        object.__setattr__(pattern, "_plan", tuple(steps))
    return pattern._plan


def _at_least(host: CouplingGraph) -> tuple[int, ...]:
    """Host degree masks, built once per graph: entry d has the bit of every
    vertex of degree d or more. There is one entry per vertex count, so any
    pattern no larger than the host can index it."""
    if host._at_least is None:
        masks = [0] * host.num_vertices
        for i, r in enumerate(host._rows):
            masks[r.bit_count()] |= 1 << i
        for d in range(len(masks) - 2, -1, -1):
            masks[d] |= masks[d + 1]
        object.__setattr__(host, "_at_least", tuple(masks))
    return host._at_least
