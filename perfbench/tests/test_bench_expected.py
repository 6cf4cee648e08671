"""Independent cross-checks of the frozen expected.json.

None of these use the pipeline under test: enumeration is a naive subset
filter, (sub)graph isomorphism is networkx VF2, and swap counts come from the
exhaustive brute_force_optimal oracle.
"""

import itertools
import json
import math
from functools import lru_cache
from pathlib import Path

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from perfbench.heavyhex import heavy_hex
from subarchmap import Circuit, CouplingGraph, Gate, brute_force_optimal, load_platform

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "expected.json").read_text())
ANCILLAS = 2
ORACLE_VERTICES, ORACLE_GATES, ORACLE_SWAPS = 6, 8, 4


def platform_graph(name: str) -> nx.Graph:
    if name == "heavy-hex":
        n, edges = heavy_hex()
    else:
        g = load_platform(name)
        n, edges = g.num_vertices, g.edges
    graph = nx.Graph(edges)
    graph.add_nodes_from(range(n))
    return graph


def connected_count(graph: nx.Graph, k: int) -> int:
    """Connected induced k-subgraphs, by filtering every k-subset."""
    adj = {v: sum(1 << u for u in graph[v]) for v in graph}
    count = 0
    for subset in itertools.combinations(graph.nodes, k):
        members = sum(1 << v for v in subset)
        reached = frontier = 1 << subset[0]
        while frontier:
            grown = 0
            for v in subset:
                if frontier >> v & 1:
                    grown |= adj[v]
            frontier = grown & members & ~reached
            reached |= frontier
        count += reached == members
    return count


def test_subarch_deep_counts_match_naive_filter():
    exp = EXPECTED["subarch-deep"]
    graph = platform_graph(exp["platform"])
    assert exp["counts_row"][0] == math.comb(graph.number_of_nodes(), exp["k"])
    assert exp["counts_row"][1] == connected_count(graph, exp["k"])


def search_order(g: nx.Graph) -> nx.Graph:
    """g with its vertices reinserted so each touches as many earlier ones as
    possible; VF2 tries pattern vertices in insertion order and prunes sooner."""
    order = [max(g, key=g.degree)]
    rest = set(g) - set(order)
    while rest:
        v = max(rest, key=lambda u: (sum(w in order for w in g[u]), g.degree(u), -u))
        order.append(v)
        rest.remove(v)
    h = nx.Graph()
    h.add_nodes_from(order)
    h.add_edges_from(g.edges)
    return h


def may_embed(a: nx.Graph, b: nx.Graph) -> bool:
    """Necessary condition for a monomorphism between graphs of equal order.

    It is a bijection that keeps every edge, so no vertex loses degree: the
    sorted degree sequences must dominate elementwise.
    """
    return all(x <= y for x, y in zip(sorted(d for _, d in a.degree),
                                      sorted(d for _, d in b.degree)))


@pytest.mark.parametrize("name", ["subarch-wide", "subarch-deep"])
def test_members_are_connected_and_pairwise_non_embedding(name):
    exp = EXPECTED[name]
    graph = platform_graph(exp["platform"])
    members = [graph.subgraph(vs).copy() for vs in exp["members"]]
    assert len(members) == exp["counts_row"][3]
    assert all(len(m) == exp["k"] and nx.is_connected(m) for m in members)
    for a, b in itertools.permutations(members, 2):
        if may_embed(a, b):
            assert not GraphMatcher(b, search_order(a)).subgraph_is_monomorphic()


@lru_cache(maxsize=None)
def maximal_classes(k: int) -> tuple[CouplingGraph, ...]:
    """Guadalupe's connected k-subgraphs up to isomorphism, keeping maximal ones."""
    graph = platform_graph("guadalupe")
    classes: list[nx.Graph] = []
    for subset in itertools.combinations(graph.nodes, k):
        h = graph.subgraph(subset)
        if nx.is_connected(h) and not any(nx.is_isomorphic(h, c) for c in classes):
            classes.append(nx.convert_node_labels_to_integers(h))
    kept = [c for c in classes
            if not any(d is not c and GraphMatcher(d, c).subgraph_is_monomorphic()
                       for d in classes)]
    return tuple(CouplingGraph(range(k), c.edges) for c in kept)


BATCH_IN_LIMITS = [case for case in EXPECTED["map-batch"]["circuits"]
                   if case["n"] + ANCILLAS <= ORACLE_VERTICES
                   and len(case["cx"]) <= ORACLE_GATES and case["swaps"] <= ORACLE_SWAPS]


def test_oracle_covers_a_share_of_the_batch():
    assert len(BATCH_IN_LIMITS) >= 30


@pytest.mark.parametrize("case", BATCH_IN_LIMITS, ids=lambda c: c["name"])
def test_batch_swaps_and_ancillas_match_oracle(case):
    """Expected swaps are optimal for the ancilla budget, at the expected size.

    A mapping onto a connected subgraph also maps onto any connected
    supergraph of it and onto the maximal class that one embeds into, so
    maximal classes stand for every subgraph of their size, and the largest
    size allowed bounds all smaller ones.
    """
    circuit = Circuit(case["n"], tuple(Gate("cx", tuple(g)) for g in case["cx"]))
    n, swaps, used = case["n"], case["swaps"], case["n"] + case["ancillas"]
    if swaps:
        assert all(brute_force_optimal(circuit, c, swaps - 1) is None
                   for c in maximal_classes(n + ANCILLAS))
    assert any(brute_force_optimal(circuit, c, swaps) == swaps
               for c in maximal_classes(used))
    if used > n:
        assert all(brute_force_optimal(circuit, c, swaps) is None
                   for c in maximal_classes(used - 1))
