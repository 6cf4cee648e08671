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

The same matcher, with a graph as both pattern and host, decides the
automorphism orbits the mapper breaks symmetry with: first_in_orbit pins a
key's vertices, refines the colouring once per key, and matches a key only
against kept keys whose refined classes have equal sizes, drawing each
step's candidates from its class. Its decisions are cached on the graph too.
"""

from __future__ import annotations

from .graphs import CouplingGraph, bfs, bits


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
    return _match(_plan(pattern), _at_least(host), host._rows)


def _match(steps, masks: tuple[int, ...] | list[int], rows: tuple[int, ...]) -> bool:
    """The backtracking matcher: True iff each step i can place a distinct
    vertex from masks[steps[i][0]] adjacent to the vertex placed by every
    earlier step in steps[i][1]."""
    n = len(steps)
    image = [0] * n  # image[i]: row of the host vertex that step i placed

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        mask, back = steps[i]
        # Each candidate is in the step's mask (for subgraph_isomorphic: has
        # the vertex's degree at least) and is adjacent to the image of every
        # placed neighbour, so it carries all of the vertex's edges to placed
        # vertices.
        c = masks[mask] & ~used
        for j in back:
            c &= image[j]
        while c:
            b = c & -c  # lowest bit: candidates are tried in ascending label order
            image[i] = rows[b.bit_length() - 1]
            if place(i + 1, used | b):
                return True
            c ^= b
        return False

    try:
        return place(0, 0)
    finally:
        del place  # it holds itself through its cell


def first_in_orbit(g: CouplingGraph, key: tuple[int, ...]) -> bool:
    """False iff an automorphism of g carries a key kept earlier onto key.

    A key is a tuple of distinct vertex ranks, and an automorphism carries
    (u0, v0) onto (u, v) when it maps u0 to u and v0 to v; keys of unequal
    length never meet. The first key met of each orbit is kept, so a caller
    must meet the keys of g in one fixed order. The first key of each length
    is kept with no work, and every decision is cached in `g._derived`.

    Individualise and refine (McKay & Piperno, J. Symb. Comput. 2014), once
    per key: see _refine. Refinement commutes with automorphisms, so one
    that carries a kept key onto key carries each class of the kept key's
    partition onto the class of key's partition with the same name. key is
    compared only with the kept keys of equal class sizes, and the matcher
    decides, with those classes as candidate masks. The whole group is never
    enumerated.
    """
    if (orbits := g._derived.get("orbits")) is None:
        orbits = g._derived["orbits"] = ({}, {})
    decided, kept = orbits  # key -> verdict; length -> {kept key: its refinement}
    if key not in decided:
        earlier = kept.setdefault(len(key), {})
        mine = None  # the first key is refined only when a later key needs it
        if earlier:
            mine = sizes, _, masks = _refine(g, key)
            for other, theirs in earlier.items():
                if theirs is None:
                    theirs = earlier[other] = _refine(g, other)
                if theirs[0] == sizes and _match(theirs[1], masks, g._rows):
                    decided[key] = False
                    return False
        # The verdict is written before the key joins the kept keys: a key
        # that was kept but not yet decided would later be carried onto itself.
        decided[key] = True
        earlier[key] = mine
    return decided[key]


def _refine(g: CouplingGraph, key: tuple[int, ...]):
    """g's stable colouring with key's vertices individualised, as (class
    sizes by name, a search plan that carries key's vertices, class masks).

    The key's vertices start in classes of their own, the rest in one. Each
    round names a vertex's class by its rank among the sorted distinct pairs
    (its class, the sorted classes of its neighbours), until no class splits.
    The names depend only on the refinement, never on ranks, which makes
    them canonical. The plan follows bfs from key's vertices, then the
    unreached ranks, each step drawing from its vertex's class.
    """
    nbrs = list(map(bits, g._rows))
    colours = [len(key)] * len(nbrs)
    for i, v in enumerate(key):
        colours[v] = i
    count = len(set(colours))
    while True:
        at = colours.__getitem__
        pairs = [(c, tuple(sorted(map(at, ns)))) for c, ns in zip(colours, nbrs)]
        names = {p: i for i, p in enumerate(sorted(set(pairs)))}
        colours = [names[p] for p in pairs]
        if len(names) == count:
            break
        count = len(names)
    sizes, masks = [0] * count, [0] * count
    for v, c in enumerate(colours):
        sizes[c] += 1
        masks[c] |= 1 << v
    order, dist = bfs(g, key)
    order += [v for v, d in enumerate(dist) if d < 0]  # other components
    step_of = {v: i for i, v in enumerate(order)}
    steps = tuple((colours[v], tuple(step_of[w] for w in nbrs[v] if step_of[w] < i))
                  for i, v in enumerate(order))
    return tuple(sizes), steps, masks


def _plan(pattern: CouplingGraph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The pattern's search plan, built once per graph: per step, the degree
    of the vertex it places and the earlier steps that place its neighbours.

    Place next a vertex touching an already-placed one when there is one, so
    anchored vertices prune hard; highest degree first, then lowest label.
    """
    if (plan := pattern._derived.get("plan")) is None:
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
        plan = pattern._derived["plan"] = tuple(steps)
    return plan


def _at_least(host: CouplingGraph) -> tuple[int, ...]:
    """Host degree masks, built once per graph: entry d has the bit of every
    vertex of degree d or more. There is one entry per vertex count, so any
    pattern no larger than the host can index it."""
    if (at_least := host._derived.get("at_least")) is None:
        masks = [0] * host.num_vertices
        for i, r in enumerate(host._rows):
            masks[r.bit_count()] |= 1 << i
        for d in range(len(masks) - 2, -1, -1):
            masks[d] |= masks[d + 1]
        at_least = host._derived["at_least"] = tuple(masks)
    return at_least
