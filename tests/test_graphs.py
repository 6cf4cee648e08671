import copy
import itertools
import json
import pickle
import random
import re

import pytest

from subarchmap import (Circuit, CouplingGraph, Gate, induced_subgraph, is_connected,
                        load_platform, map_optimal, parse_platform, subgraph_isomorphic,
                        wl_hash)
from subarchmap.graphs import MAX_QUBITS, PlatformError, bfs, bits
from subarchmap.iso import first_in_orbit

from conftest import cycle, path, random_connected_graph, relabel_graph, to_networkx


class TestCouplingGraph:
    def test_edges_normalized(self):
        g = CouplingGraph(range(3), [(1, 0), (0, 1), (2, 1)])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.num_edges == 2

    def test_neighbors_sorted(self):
        g = CouplingGraph([40, 7, 193, 12], [(193, 7), (40, 12), (12, 7), (7, 40)])
        for v in g.vertices:
            from_edges = sorted(u for e in g.edges if v in e for u in e if u != v)
            assert [g.vertices[j] for j in bits(g._rows[g._rank[v]])] == from_edges

    def test_has_edge_orientation(self):
        g = path(3)
        assert g.has_edge(1, 0) and g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(0, 9) and not g.has_edge(9, 0) and not g.has_edge(9, 9)
        assert not any(g.has_edge(v, v) for v in g.vertices)
        rng = random.Random(5)
        verts = rng.sample(range(200), 25)
        g = CouplingGraph(verts, [e for e in itertools.combinations(verts, 2)
                                  if rng.random() < 0.2])
        edges = g.edges
        for u, v in itertools.product(range(200), repeat=2):
            assert g.has_edge(u, v) is ((min(u, v), max(u, v)) in edges)

    def test_rejects_self_loop(self):
        with pytest.raises(PlatformError, match="self-loop"):
            CouplingGraph(range(2), [(1, 1)])

    def test_rejects_dangling_edge(self):
        with pytest.raises(PlatformError, match="outside vertex set"):
            CouplingGraph(range(2), [(0, 5)])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(PlatformError, match="duplicate"):
            CouplingGraph([0, 1, 1], [])

    def test_immutable_and_hashable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.name = "other"
        assert g == path(3)
        assert len({g, path(3)}) == 1
        shuffled = CouplingGraph([2, 0, 1], [(2, 1), (1, 0)])
        assert shuffled == g and hash(shuffled) == hash(g)
        assert g != g.edges and g.__eq__(g.edges) is NotImplemented

    def test_repr(self):
        assert repr(path(3)) == "<CouplingGraph |V|=3 |E|=2>"
        assert repr(CouplingGraph(range(2), [(0, 1)], "toy")) == \
            "<CouplingGraph 'toy' |V|=2 |E|=1>"

    @pytest.mark.parametrize("roundtrip", [
        copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("matched_first", [False, True])
    def test_copy_and_pickle(self, roundtrip, matched_first):
        g = CouplingGraph([40, 7, 193, 12], [(7, 193), (40, 12), (12, 7)], name="toy")
        if matched_first:  # build the cached plan and degree masks first
            assert subgraph_isomorphic(g, g)
        h = roundtrip(g)
        assert h == g and hash(h) == hash(g) and h.name == "toy"
        assert h._rows == g._rows and h._rank == g._rank
        assert subgraph_isomorphic(h, g) and subgraph_isomorphic(g, h)

    def test_digest_ignores_edge_order(self):
        a = CouplingGraph(range(3), [(0, 1), (1, 2)])
        b = CouplingGraph(range(3), [(2, 1), (1, 0)])
        assert a.digest() == b.digest()
        assert a.digest() != path(4).digest()

    def test_digest_strings_are_pinned(self):
        # perfbench's tracer keys traced results by these strings
        g = load_platform("guadalupe")
        assert g.digest() == "04d2b3ba457084ca358de8f4722256356dd1e651cd7ce64984119178e1562c6e"
        assert load_platform("tokyo").digest() == (
            "4ba2f62b2a1cbef79591facfa96237b52a6315f082802eca43b2e669397390eb")
        assert induced_subgraph(g, (0, 1, 2, 4)).digest() == (
            "0df6e2d3c249e7c6d224680f525e24e8dcd37df34c70d6127494c28e45f1c9f1")


class TestParsePlatform:
    def test_roundtrip(self):
        doc = {"name": "toy", "qubits": 3, "edges": [[0, 1], [1, 2]]}
        g = parse_platform(json.dumps(doc))
        assert g.name == "toy"
        assert g.vertices == (0, 1, 2)
        assert g.has_edge(0, 1)

    def test_bad_json(self):
        with pytest.raises(PlatformError, match="invalid JSON"):
            parse_platform("{nope")

    def test_edge_out_of_range(self):
        with pytest.raises(PlatformError, match=re.escape("edge (0,2) has endpoint outside")):
            parse_platform('{"qubits": 2, "edges": [[0, 2]]}')

    def test_missing_qubits_field(self):
        with pytest.raises(PlatformError):
            parse_platform('{"edges": []}')

    @pytest.mark.parametrize("doc, match", [
        ('[3]', "must be an object"),
        ('{"qubits": 3, "qubits": 2}', "duplicate key"),
        pytest.param("[" * 1100 + "]" * 1100, "nested too deeply", id="nested-1100-deep"),
        ('{"qubits": -1}', "non-negative integer"),
        ('{"qubits": 2.0}', "non-negative integer"),
        ('{"qubits": "3"}', "non-negative integer"),
        ('{"qubits": true}', "non-negative integer"),
        (json.dumps({"qubits": MAX_QUBITS + 1, "edges": []}), "above the limit"),
        ('{"qubits": 3, "edges": null}', "'edges' must be a list"),
        ('{"qubits": 3, "edges": 5}', "'edges' must be a list"),
        ('{"qubits": 3, "edges": {"0": 1}}', "'edges' must be a list"),
        ('{"qubits": 3, "edges": [[0, 1, 2]]}', "malformed edge entry"),
        ('{"qubits": 3, "edges": [5]}', "malformed edge entry"),
        ('{"qubits": 3, "edges": [[0, 1.0]]}', "endpoints must be integers"),
        ('{"qubits": 3, "edges": [[true, false]]}', "endpoints must be integers"),
        ('{"qubits": 3, "edges": [[1, 1]]}', "self-loop"),
        ('{"qubits": 3, "edges": [[-1, 0]]}', re.escape("edge (-1,0) has endpoint outside")),
        ('{"name": [1], "qubits": 3, "edges": [[0, 1]]}', "'name' must be a string"),
    ])
    def test_rejects_malformed_document(self, doc, match):
        with pytest.raises(PlatformError, match=match):
            parse_platform(doc)


class TestLoadPlatform:
    def test_builtin_guadalupe(self):
        g = load_platform("guadalupe")
        assert g.num_vertices == 16 and g.num_edges == 16

    def test_builtin_tokyo(self):
        g = load_platform("tokyo")
        assert g.num_vertices == 20 and g.num_edges == 37

    def test_from_path(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text('{"name": "t", "qubits": 2, "edges": [[0, 1]]}')
        assert load_platform(str(p)).num_vertices == 2

    def test_unknown_name(self):
        with pytest.raises(PlatformError, match="unknown platform"):
            load_platform("atlantis")

    def test_builtins_are_looked_up_by_plain_name_only(self, tmp_path):
        (tmp_path / "other.json").write_text('{"qubits": 2, "edges": [[0, 1]]}')
        for spec in (str(tmp_path / "other"), "../platforms/tokyo", "./tokyo"):
            with pytest.raises(PlatformError, match="unknown platform"):
                load_platform(spec)


def test_bfs_matches_networkx():
    # connected and disconnected graphs on non-contiguous labels, and the 0-
    # and 1-vertex graphs
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    graphs = [CouplingGraph([], []), CouplingGraph([7], [])]
    for n in range(2, 12):
        g = random_connected_graph(rng, n)
        labels = rng.sample(range(200), 2 * n)
        graphs.append(relabel_graph(g, dict(zip(g.vertices, labels))))
        # a second component on n more labels, or isolated vertices
        h = random_connected_graph(rng, n)
        both = CouplingGraph(range(2 * n), list(g.edges) + [
            (u + n, v + n) for u, v in h.edges if rng.random() < 0.7])
        graphs.append(relabel_graph(both, dict(zip(both.vertices, labels))))
    for g in graphs:
        h = to_networkx(g)
        assert is_connected(g) == (g.num_vertices == 0 or nx.is_connected(h)), g
        label = g.vertices.__getitem__
        for r, v in enumerate(g.vertices):
            order, dist = bfs(g, [r])
            # neighbours in rank order, which is label order
            edges = nx.bfs_edges(h, v, sort_neighbors=sorted)
            assert list(map(label, order)) == [v] + [w for _, w in edges], g
            assert {label(j): d for j, d in enumerate(dist) if d >= 0} == \
                nx.single_source_shortest_path_length(h, v), g
        if g.num_vertices >= 2:  # from two sources each rank is as far as the nearer
            pair = rng.sample(range(g.num_vertices), 2)
            one, two = (bfs(g, [r])[1] for r in pair)
            assert bfs(g, pair)[1] == [min((d for d in ds if d >= 0), default=-1)
                                       for ds in zip(one, two)], g


def test_is_connected_small_cases():
    assert is_connected(CouplingGraph([], []))
    assert is_connected(CouplingGraph([7], []))
    assert is_connected(path(5))
    assert not is_connected(CouplingGraph(range(3), [(0, 1)]))


def test_induced_subgraph_keeps_labels():
    g = path(5)
    sub = induced_subgraph(g, [1, 2, 4])
    assert sub.vertices == (1, 2, 4)
    assert sub.edges == frozenset({(1, 2)})
    with pytest.raises(ValueError, match=r"^not vertices of the graph: \[9, 11\]$"):
        induced_subgraph(g, [0, 11, 9])


def test_induced_subgraph_matches_edge_filter():
    rng = random.Random(9)
    verts = rng.sample(range(200), 30)
    g = CouplingGraph(verts, [e for e in itertools.combinations(verts, 2)
                              if rng.random() < 0.15], name="sparse")
    for _ in range(50):
        members = set(rng.sample(verts, rng.randrange(0, 12)))
        sub = induced_subgraph(g, members)
        assert sub.vertices == tuple(sorted(members))
        filtered = {(u, v) for u, v in g.edges if u in members and v in members}
        assert sub.edges == filtered
        assert sub.name == "sparse"
        rebuilt = CouplingGraph(members, filtered, name="sparse")
        assert sub == rebuilt and hash(sub) == hash(rebuilt)
        assert sub.num_edges == len(filtered) and sub._rows == rebuilt._rows


def test_neighbour_rows_follow_sorted_labels():
    g = CouplingGraph([40, 7, 193, 12], [(7, 193), (40, 12), (12, 7)])
    # vertices are (7, 12, 40, 193), and bit i of a row stands for vertices[i]
    assert g._rows == (0b1010, 0b0101, 0b0010, 0b0001)


def test_cached_search_data_stays_out_of_equality_and_hash():
    a, b = path(4), path(4)
    assert subgraph_isomorphic(a, b)
    assert first_in_orbit(a, (0,)) and not first_in_orbit(a, (3,))  # the ends share an orbit
    assert "plan" in a._derived and "plan" not in b._derived
    assert "orbits" in a._derived and "orbits" not in b._derived
    triangle = Circuit(3, tuple(Gate("cx", p) for p in [(0, 1), (1, 2), (0, 2)]))
    assert map_optimal(triangle, a).swaps == 1
    assert "hops" in a._derived and "hops" not in b._derived
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert copy.copy(a)._derived == {} and pickle.loads(pickle.dumps(a))._derived == {}


def test_cut_subgraphs_never_share_derived_data():
    g = cycle(8)
    a, b = induced_subgraph(g, {0, 1, 2}), induced_subgraph(g, {3, 4, 5})
    bent = induced_subgraph(g, {7, 0, 1})  # a path too, with its middle at label 0
    assert a._rows == b._rows != bent._rows and a != b
    assert wl_hash(a) == wl_hash(b) == wl_hash(bent)
    assert len({id(a._derived), id(b._derived), id(bent._derived)}) == 3
    assert all("wl" in sub._derived for sub in (a, b, bent))  # each computed its own
    assert g._derived == {}
    for sub in (a, bent):
        assert copy.copy(sub)._derived == {} and pickle.loads(pickle.dumps(sub))._derived == {}
