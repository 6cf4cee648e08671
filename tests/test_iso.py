import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from subarchmap import CouplingGraph, is_isomorphic, subgraph_isomorphic, wl_hash

from conftest import random_connected_graph, relabel_graph, to_networkx


def cycle(n):
    return CouplingGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return CouplingGraph(range(n), [(i, i + 1) for i in range(n - 1)])


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
