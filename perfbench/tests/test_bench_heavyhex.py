import networkx as nx

from perfbench.heavyhex import heavy_hex


def test_heavy_hex_is_the_127_qubit_eagle_lattice():
    n, edges = heavy_hex()
    g = nx.Graph(edges)
    assert n == 127 and sorted(g.nodes) == list(range(127))
    assert len(edges) == 144 and len({frozenset(e) for e in edges}) == 144
    assert max(d for _, d in g.degree) == 3
    assert nx.is_connected(g)
    # Bridges of the first and last row gaps, in IBM's numbering.
    assert sorted(g[14]) == [0, 18] and sorted(g[17]) == [12, 30]
    assert sorted(g[33]) == [20, 39] and sorted(g[112]) == [108, 126]


def test_heavy_hex_is_deterministic():
    assert heavy_hex() == heavy_hex()
