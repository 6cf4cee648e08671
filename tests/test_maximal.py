import gc
import itertools
import random
import tracemalloc

import pytest

from subarchmap import (CouplingGraph, connected_subgraphs, induced_subgraph,
                        is_isomorphic, load_platform, max_subarchitectures, maximal,
                        subarchitectures, subgraph_isomorphic, wl_hash)
from subarchmap.maximal import BudgetExceeded, Deadline

from conftest import naive_connected_subsets, random_connected_graph, to_networkx


def naive_pipeline(g, k):
    """Reference maximal-subarchitecture computation, quadratic and buffered."""
    subs = [induced_subgraph(g, s) for s in sorted(naive_connected_subsets(g, k))]
    classes = []
    for s in subs:
        if not any(is_isomorphic(s, c) for c in classes):
            classes.append(s)
    maximal = [c for c in classes
               if not any(c is not d and subgraph_isomorphic(c, d) for d in classes)]
    return len(classes), maximal


def test_path_has_single_member():
    g = CouplingGraph(range(6), [(i, i + 1) for i in range(5)])
    ss = max_subarchitectures(g, 3)
    assert ss.counts_row() == (20, 4, 1, 1)
    m = ss.members[0]
    assert sorted(sum(v in e for e in m.edges) for v in m.vertices) == [1, 1, 2]


def test_cycle_with_chord():
    # C5 plus one chord: 4-vertex classes are the path and the chorded cycle piece
    g = CouplingGraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    ss = max_subarchitectures(g, 4)
    naive_classes, naive_max = naive_pipeline(g, 4)
    assert ss.stage_counts["noniso"] == naive_classes
    assert len(ss.members) == len(naive_max)


@pytest.mark.parametrize("seed", range(8))
def test_matches_naive_pipeline(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randrange(5, 9))
    k = rng.randrange(2, g.num_vertices)
    ss = max_subarchitectures(g, k)
    naive_classes, naive_max = naive_pipeline(g, k)
    assert ss.stage_counts["noniso"] == naive_classes
    assert len(ss.members) == len(naive_max)
    for m in ss.members:
        assert any(is_isomorphic(m, c) for c in naive_max)


def test_members_pairwise_incomparable():
    rng = random.Random(99)
    g = random_connected_graph(rng, 8)
    ss = max_subarchitectures(g, 4)
    for a, b in itertools.combinations(ss.members, 2):
        assert not subgraph_isomorphic(a, b)
        assert not subgraph_isomorphic(b, a)


def _first_seen_cases():
    rng = random.Random(0)
    cases = {}
    for i in range(4):
        g = random_connected_graph(rng, rng.randrange(6, 9))
        cases[f"random-{i}"] = (g, rng.randrange(3, g.num_vertices))
    # the 3-edge star comes first and the denser 4-cycle after it
    cases["star-then-square"] = (CouplingGraph(range(8), [
        (0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4)]), 4)
    cases["tokyo-6"] = (load_platform("tokyo"), 6)  # members of 9, 8, 9, 8 edges
    return cases


FIRST_SEEN_CASES = _first_seen_cases()


@pytest.mark.parametrize("case", sorted(FIRST_SEEN_CASES))
def test_members_in_first_seen_class_order(case):
    nx = pytest.importorskip("networkx")
    g, k = FIRST_SEEN_CASES[case]
    stream = [to_networkx(induced_subgraph(g, s)) for s in connected_subgraphs(g, k)]
    firsts = [next(i for i, s in enumerate(stream)
                   if nx.is_isomorphic(s, to_networkx(m)))
              for m in max_subarchitectures(g, k).members]
    assert firsts == sorted(firsts)


def test_stage_times_recorded():
    g = CouplingGraph(range(5), [(i, i + 1) for i in range(4)])
    ss = max_subarchitectures(g, 3)
    assert set(ss.stage_times) == {"connected", "noniso", "max", "total"}
    assert ss.stage_times["total"] >= 0


def test_wl_collision_keeps_both_classes():
    # The triangular prism (C3 x K2) and K3,3 are both 3-regular on 6 vertices,
    # so WL refinement from degrees cannot tell them apart; one edge joins them.
    prism = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    k33 = [(a, b) for a in (6, 7, 8) for b in (9, 10, 11)]
    g = CouplingGraph(range(12), prism + k33 + [(5, 6)])
    halves = [induced_subgraph(g, range(6)), induced_subgraph(g, range(6, 12))]
    assert wl_hash(halves[0]) == wl_hash(halves[1])
    assert not is_isomorphic(*halves)
    ss = max_subarchitectures(g, 6)
    members = {m.vertices for m in ss.members}
    assert {h.vertices for h in halves} <= members
    assert ss.counts_row() == (924, 135, 17, 4)
    naive_classes, naive_max = naive_pipeline(g, 6)
    assert (ss.stage_counts["noniso"], len(ss.members)) == (naive_classes, len(naive_max))


def test_a_pass_hashes_each_rows_pattern_once(monkeypatch):
    # A subset with rows seen earlier in the pass is hashed as the class those
    # rows joined, whose hash is cached: only a new pattern computes one.
    from perfbench.heavyhex import heavy_hex
    n, edges = heavy_hex()
    g = CouplingGraph(range(n), edges)
    computed = []

    def counted(sub):
        if "wl" not in sub._derived:
            computed.append(sub._rows)
        return wl_hash(sub)

    monkeypatch.setattr(maximal, "wl_hash", counted)
    max_subarchitectures(g, 8)
    patterns = set()
    for subset in connected_subgraphs(g, 8):
        rank = {v: i for i, v in enumerate(sorted(subset))}
        patterns.add(frozenset((rank[u], rank[v]) for u, v in edges
                               if u in rank and v in rank))
    assert len(computed) == len(set(computed)) == len(patterns) == 109
    assert g._derived == {}


def test_passes_hold_no_memory_once_their_results_are_dropped():
    # What a pass builds to find its classes dies with the pass, so levels
    # computed on one platform object do not pile up behind it.
    g = load_platform("tokyo")
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in (6, 8):
            max_subarchitectures(g, k)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held


def test_deadline_expires():
    g = CouplingGraph(range(12), [(a, b) for a in range(12)
                                  for b in range(a + 1, 12)])
    with pytest.raises(BudgetExceeded):
        max_subarchitectures(g, 6, deadline=Deadline(0.0))


class TestStore:
    def test_hit_is_cached_and_equal(self):
        g, twin = load_platform("guadalupe"), load_platform("guadalupe")
        first = subarchitectures(g, 5)
        again = subarchitectures(twin, 5)
        assert (first.cached, again.cached) == (False, True)
        assert again.platform is twin
        assert again.counts_row() == first.counts_row()
        assert [m.vertices for m in again.members] == [m.vertices for m in first.members]
        assert again.stage_times == first.stage_times  # the computing run's times

    def test_mutating_a_result_does_not_change_later_hits(self):
        g = load_platform("guadalupe")
        first = subarchitectures(g, 4)
        rows = [m.vertices for m in first.members]
        first.members.clear()
        first.stage_counts["max"] = -1
        hit = subarchitectures(g, 4)
        hit.members.reverse()
        hit.stage_times.clear()
        again = subarchitectures(g, 4)
        assert [m.vertices for m in again.members] == rows
        assert again.counts_row()[3] == len(rows)
        assert set(again.stage_times) == {"connected", "noniso", "max", "total"}

    def test_budget_expiry_stores_nothing(self, computations):
        g = CouplingGraph(range(8), [(a, b) for a in range(8) for b in range(a + 1, 8)])
        with pytest.raises(BudgetExceeded):
            subarchitectures(g, 4, deadline=Deadline(0.0))
        ss = subarchitectures(g, 4)
        assert not ss.cached and len(computations) == 2
        assert ss.counts_row() == (70, 70, 1, 1)

    def test_least_recently_used_entry_is_dropped(self, monkeypatch, computations):
        monkeypatch.setattr(maximal, "STORE_SIZE", 2)
        g = load_platform("guadalupe")
        for k in (2, 3):
            subarchitectures(g, k)
        assert subarchitectures(g, 2).cached  # 3 is now the least recently used
        subarchitectures(g, 4)
        assert len(maximal._store) == 2
        assert subarchitectures(g, 2).cached and subarchitectures(g, 4).cached
        assert not subarchitectures(g, 3).cached
        assert computations == [2, 3, 4, 3]

    def test_equal_graphs_with_other_names_keep_their_own(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]
        a, b = CouplingGraph(range(5), edges, "a"), CouplingGraph(range(5), edges, "b")
        assert a == b
        for g in (a, b, a, b):
            ss = subarchitectures(g, 3)
            assert ss.platform is g
            assert {m.name for m in ss.members} == {g.name}
