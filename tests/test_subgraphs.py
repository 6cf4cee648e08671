import random

import pytest
from hypothesis import given, settings, strategies as st

from subarchmap import CouplingGraph, connected_subgraphs, load_platform

from conftest import (naive_connected_subsets, random_connected_graph,
                      reference_connected_subgraphs, relabel_graph)


def test_single_vertex_sets():
    g = CouplingGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    assert list(connected_subgraphs(g, 1)) == [(0,), (1,), (2,), (3,)]


def test_full_set():
    g = CouplingGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    assert list(connected_subgraphs(g, 4)) == [(0, 1, 2, 3)]


def test_path_counts():
    # a path has exactly n-k+1 connected k-windows
    g = CouplingGraph(range(7), [(i, i + 1) for i in range(6)])
    for k in range(1, 8):
        assert sum(1 for _ in connected_subgraphs(g, k)) == 7 - k + 1


def test_no_duplicates_and_sorted():
    rng = random.Random(11)
    g = random_connected_graph(rng, 9)
    seen = set()
    for sub in connected_subgraphs(g, 4):
        assert sub == tuple(sorted(sub))
        assert sub not in seen
        seen.add(sub)


def test_rejects_bad_k_and_disconnected():
    g = CouplingGraph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        list(connected_subgraphs(g, 0))
    with pytest.raises(ValueError):
        list(connected_subgraphs(g, 4))
    with pytest.raises(ValueError, match="must be connected"):
        list(connected_subgraphs(CouplingGraph(range(3), [(0, 1)]), 2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_matches_naive_filter(seed, n):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    for k in range(1, n + 1):
        assert set(connected_subgraphs(g, k)) == naive_connected_subsets(g, k)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
def test_order_matches_reference_expansion(seed, n):
    # The order decides which subset stands for each isomorphism class.
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    g = relabel_graph(g, dict(zip(g.vertices, rng.sample(range(200), n))))
    for k in range(1, n + 1):
        assert list(connected_subgraphs(g, k)) == list(reference_connected_subgraphs(g, k))


@pytest.mark.parametrize("platform", ["guadalupe", "tokyo"])
def test_platform_order_matches_reference_expansion(platform):
    g = load_platform(platform)
    for k in range(1, 7):
        assert list(connected_subgraphs(g, k)) == list(reference_connected_subgraphs(g, k))
