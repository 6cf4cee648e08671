import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from subarchmap import (Circuit, CouplingGraph, Gate, is_isomorphic, load_platform,
                        map_optimal, subgraph_isomorphic, wl_hash)
from subarchmap.iso import _at_least, _plan, first_in_orbit

from conftest import cycle, path, random_connected_graph, relabel_graph, to_networkx


class TestIsIsomorphic:
    def test_relabeled_copy(self):
        rng = random.Random(5)
        g = random_connected_graph(rng, 7)
        verts = list(g.vertices)
        rng.shuffle(verts)
        perm = dict(zip(g.vertices, verts))
        assert is_isomorphic(g, relabel_graph(g, perm))

    def test_path_vs_cycle(self):
        assert not is_isomorphic(path(4), cycle(4))

    def test_same_degree_sequence_not_isomorphic(self):
        # two hexagonal degree-2 graphs: one 6-cycle vs two triangles
        hexagon = cycle(6)
        triangles = CouplingGraph(range(6), [(0, 1), (1, 2), (0, 2),
                                             (3, 4), (4, 5), (3, 5)])
        assert all(sum(v in e for e in g.edges) == 2
                   for g in (hexagon, triangles) for v in range(6))
        assert not is_isomorphic(hexagon, triangles)

    def test_size_mismatch(self):
        assert not is_isomorphic(path(3), path(4))


class TestSubgraphIsomorphic:
    def test_path_into_cycle(self):
        assert subgraph_isomorphic(path(4), cycle(5))
        assert not subgraph_isomorphic(cycle(5), path(4))

    def test_noninduced_semantics(self):
        # a path embeds into the complete graph although K4 has extra edges
        k4 = CouplingGraph(range(4), [(a, b) for a in range(4)
                                      for b in range(a + 1, 4)])
        assert subgraph_isomorphic(path(4), k4)

    def test_star_needs_high_degree(self):
        star = CouplingGraph(range(4), [(0, 1), (0, 2), (0, 3)])
        assert not subgraph_isomorphic(star, cycle(6))
        assert subgraph_isomorphic(star, k_star := CouplingGraph(
            range(5), [(2, 0), (2, 1), (2, 3), (2, 4)]))


class TestWlHash:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
    def test_permutation_invariant(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        verts = list(g.vertices)
        rng.shuffle(verts)
        assert wl_hash(g) == wl_hash(relabel_graph(g, dict(zip(g.vertices, verts))))

    def test_distinguishes_path_and_star(self):
        star = CouplingGraph(range(4), [(0, 1), (0, 2), (0, 3)])
        assert wl_hash(path(4)) != wl_hash(star)


def vf2(host, pattern):
    """networkx's VF2 matcher over copies of two graphs."""
    iso = pytest.importorskip("networkx.algorithms.isomorphism")
    return iso.GraphMatcher(to_networkx(host), to_networkx(pattern))


def corpus(seed, count):
    rng = random.Random(seed)
    return [random_connected_graph(rng, rng.randrange(2, 8)) for _ in range(count)]


class TestAgainstNetworkxVf2:
    def test_is_isomorphic(self):
        graphs = corpus(41, 60)
        rng = random.Random(42)
        # relabeled copies make sure the positive answer is exercised often
        for g in graphs[:20]:
            verts = list(g.vertices)
            rng.shuffle(verts)
            graphs.append(relabel_graph(g, dict(zip(g.vertices, verts))))
        answers = set()
        for a, b in itertools.product(graphs, repeat=2):
            if a.num_vertices == b.num_vertices:
                want = vf2(b, a).is_isomorphic()
                assert is_isomorphic(a, b) == want, (a.edges, b.edges)
                answers.add(want)
        assert answers == {True, False}

    def test_subgraph_isomorphic(self):
        answers = set()
        for pattern, host in itertools.product(corpus(43, 40), corpus(44, 40)):
            want = vf2(host, pattern).subgraph_is_monomorphic()
            assert subgraph_isomorphic(pattern, host) == want, (pattern.edges, host.edges)
            answers.add(want)
        assert answers == {True, False}

    def test_subgraph_isomorphic_any_labels_and_shapes(self):
        # One pattern object meets every host and one host every pattern, so
        # the plan and degree masks cached on first use are reused throughout.
        patterns, hosts = loose_corpus(45, 60), loose_corpus(46, 60)
        answers = set()
        for pattern, host in itertools.product(patterns, hosts):
            want = vf2(host, pattern).subgraph_is_monomorphic()
            assert subgraph_isomorphic(pattern, host) == want, (pattern.vertices,
                                                                pattern.edges, host.edges)
            answers.add(want)
        assert answers == {True, False}

    def test_is_isomorphic_any_labels_and_shapes(self):
        graphs = loose_corpus(47, 60)
        rng = random.Random(48)
        for g in graphs[:30]:
            labels = rng.sample(LABELS, g.num_vertices)
            graphs.append(relabel_graph(g, dict(zip(g.vertices, labels))))
        answers = set()
        for a, b in itertools.product(graphs, repeat=2):
            if a.num_vertices == b.num_vertices:
                want = vf2(b, a).is_isomorphic()
                assert is_isomorphic(a, b) == want == is_isomorphic(b, a), (a.edges, b.edges)
                answers.add(want)
        assert answers == {True, False}


LABELS = range(200)


def loose_corpus(seed, count):
    """Graphs of 0-7 vertices on labels sampled from LABELS, as platform
    members carry: the edge density is random, so some are disconnected or
    have isolated vertices. The empty and one-vertex graphs always come first."""
    rng = random.Random(seed)
    graphs = [CouplingGraph([], []), CouplingGraph([rng.choice(LABELS)], [])]
    while len(graphs) < count:
        verts = rng.sample(LABELS, rng.randrange(2, 8))
        density = rng.random()
        graphs.append(CouplingGraph(verts, [e for e in itertools.combinations(verts, 2)
                                            if rng.random() < density]))
    return graphs


def root_keys(g):
    """The first bindings map_optimal tries at the empty placement, as rank
    tuples in its order: both arcs of each edge (u < v, ascending), then every
    vertex alone."""
    rows = g._rows
    arcs = [key for u in range(len(rows)) for v in range(u + 1, len(rows)) if rows[u] >> v & 1
            for key in ((u, v), (v, u))]
    return arcs + [(v,) for v in range(len(rows))]


def vf2_orbit_firsts(g, keys):
    """For each key, whether no earlier key is carried onto it by an automorphism.

    networkx decides it: the key's vertices carry their place in the key as
    a node attribute, and VF2 looks for an isomorphism that keeps it. Keys
    meet only those of an equal WL hash, which isomorphic pinned graphs share.
    """
    nx = pytest.importorskip("networkx")

    def same_pin(a, b):
        return a["pin"] == b["pin"]

    firsts, kept = [], {}
    for key in keys:
        h = to_networkx(g)
        nx.set_node_attributes(h, -1, "pin")
        nx.set_node_attributes(h, {g.vertices[r]: i for i, r in enumerate(key)}, "pin")
        bucket = kept.setdefault(nx.weisfeiler_lehman_graph_hash(h, node_attr="pin"), [])
        first = not any(nx.is_isomorphic(other, h, node_match=same_pin) for other in bucket)
        if first:
            bucket.append(h)
        firsts.append(first)
    return firsts


def from_networkx(h):
    """A CouplingGraph on 0..n-1 from a networkx graph with any node names."""
    nx = pytest.importorskip("networkx")
    h = nx.convert_node_labels_to_integers(h)
    return CouplingGraph(h.nodes, h.edges)


def named_graphs():
    nx = pytest.importorskip("networkx")
    # The Frucht graph is 3-regular with no automorphism but the identity:
    # one pinned vertex refines it to singletons, so every vertex key has the
    # same class sizes and only the matcher can tell the keys apart.
    yield "frucht", from_networkx(nx.frucht_graph())
    yield "petersen", from_networkx(nx.petersen_graph())
    for n in range(3, 9):
        yield f"cycle-{n}", cycle(n)
    for n in range(3, 7):
        yield f"prism-{n}", from_networkx(nx.circular_ladder_graph(n))
    yield "K3,3", from_networkx(nx.complete_bipartite_graph(3, 3))
    for seed in range(6):
        yield f"3-regular-12-{seed}", from_networkx(nx.random_regular_graph(3, 12, seed=seed))
    yield "guadalupe", load_platform("guadalupe")


class TestFirstInOrbit:
    def test_matches_vf2_on_symmetric_and_rigid_graphs(self):
        for name, g in named_graphs():
            keys = root_keys(g)
            assert [first_in_orbit(g, key) for key in keys] == vf2_orbit_firsts(g, keys), name

    def test_matches_vf2_on_random_graphs_with_label_gaps(self):
        rng = random.Random(51)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randrange(5, 11))
            g = relabel_graph(g, dict(zip(g.vertices, rng.sample(LABELS, g.num_vertices))))
            keys = root_keys(g)
            assert [first_in_orbit(g, key) for key in keys] == vf2_orbit_firsts(g, keys), \
                (g.vertices, sorted(g.edges))

    def test_matches_vf2_on_graphs_of_any_shape(self):
        # Disconnected graphs and isolated vertices leave vertices that no
        # breadth-first search from the key reaches.
        for g in loose_corpus(53, 60):
            keys = root_keys(g)
            assert [first_in_orbit(g, key) for key in keys] == vf2_orbit_firsts(g, keys), \
                (g.vertices, sorted(g.edges))

    def test_decisions_are_cached_on_the_graph(self):
        g = cycle(6)
        keys = root_keys(g)
        firsts = [first_in_orbit(g, key) for key in keys]
        assert firsts.count(True) == 2  # one arc orbit and one vertex orbit
        tables = g._derived["orbits"]  # key length -> {key: False if skipped, else kept}
        assert [tables[len(key)][key] is not False for key in keys] == firsts
        assert [first_in_orbit(g, key) for key in reversed(keys)] == firsts[::-1]

    def test_deciding_every_root_key_finishes_quickly(self):
        # Each of these took minutes with an earlier design: candidate masks
        # by degree alone, classes refined without pinning, or refinement of
        # every pair of keys jointly.
        nx = pytest.importorskip("networkx")
        from perfbench.heavyhex import heavy_hex
        n, edges = heavy_hex()
        # (name, graph, orbits on root keys when they are plain to see)
        graphs = [("heavy-hex-127", CouplingGraph(range(n), edges), None),
                  ("grid-10x10", from_networkx(nx.grid_2d_graph(10, 10)), None),
                  ("tutte", from_networkx(nx.tutte_graph()), None),
                  ("Q6", from_networkx(nx.hypercube_graph(6)), 2),
                  ("K12", from_networkx(nx.complete_graph(12)), 2),
                  ("K8,8", from_networkx(nx.complete_bipartite_graph(8, 8)), 2),
                  ("star-16", from_networkx(nx.star_graph(16)), 4)]
        graphs += [(f"4-regular-30-{seed}",
                    from_networkx(nx.random_regular_graph(4, 30, seed=seed)), None)
                   for seed in range(3)]
        for name, g, orbits in graphs:
            t0 = time.perf_counter()
            kept = sum(first_in_orbit(g, key) for key in root_keys(g))
            assert time.perf_counter() - t0 < 8, name
            assert orbits is None or kept == orbits, name


def test_derived_data_depends_only_on_the_rows():
    # Everything kept in _derived is computed from the rows alone: graphs with
    # equal rows and other labels derive equal values. max_subarchitectures
    # relies on it when it hashes and checks a subset as the class its rows
    # joined earlier in the pass.
    rng = random.Random(67)
    pairs = [(path(4), CouplingGraph([10, 20, 30, 40], [(10, 20), (20, 30), (30, 40)]))]
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(3, 10))
        labels = sorted(rng.sample(LABELS, g.num_vertices))
        pairs.append((g, relabel_graph(g, dict(zip(g.vertices, labels)))))
    triangle = Circuit(3, tuple(Gate("cx", p) for p in [(0, 1), (1, 2), (0, 2)]))
    for a, b in pairs:
        assert a._rows == b._rows and a.vertices != b.vertices
        assert _plan(a) == _plan(b) and _at_least(a) == _at_least(b)
        assert wl_hash(a) == wl_hash(b)
        keys = root_keys(a)
        assert [first_in_orbit(a, key) for key in keys] == \
            [first_in_orbit(b, key) for key in keys]
        assert map_optimal(triangle, a).swaps == map_optimal(triangle, b).swaps
        assert a._derived["hops"] == b._derived["hops"]
        assert a._derived == b._derived and a._derived is not b._derived
