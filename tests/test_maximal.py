import itertools
import random

import pytest

from subarchmap import (CouplingGraph, connected_subgraphs, induced_subgraph,
                        is_isomorphic, load_platform, max_subarchitectures,
                        subgraph_isomorphic)
from subarchmap.maximal import BudgetExceeded, Deadline, load_cached, save_cached

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
    assert ss.members[0].degree_sequence() == (1, 1, 2)


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


def test_trust_hash_agrees_on_small_graphs():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, 7)
        a = max_subarchitectures(g, 4)
        b = max_subarchitectures(g, 4, trust_hash=True)
        assert a.counts_row() == b.counts_row()


def test_deadline_expires():
    g = CouplingGraph(range(12), [(a, b) for a in range(12)
                                  for b in range(a + 1, 12)])
    with pytest.raises(BudgetExceeded):
        max_subarchitectures(g, 6, deadline=Deadline(0.0))


class TestCache:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(1)
        g = random_connected_graph(rng, 7)
        ss = max_subarchitectures(g, 4, cache_dir=tmp_path)
        cached = load_cached(g, 4, tmp_path)
        assert cached is not None
        assert cached.counts_row() == ss.counts_row()
        assert [m.vertices for m in cached.members] == [m.vertices for m in ss.members]

    def test_digest_mismatch_ignored(self, tmp_path):
        rng = random.Random(2)
        g = random_connected_graph(rng, 7)
        ss = max_subarchitectures(g, 4)
        save_cached(ss, tmp_path)
        other = random_connected_graph(rng, 7)
        if other.digest() != g.digest():
            assert load_cached(other, 4, tmp_path) is None

    def test_settings_are_part_of_the_key(self, tmp_path):
        # With degree-only hashes trusted, the triangle-with-tail and the
        # square-with-pendant 5-subgraphs collide and one class is lost.
        g = CouplingGraph(range(6), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                                     (4, 5), (5, 2)])
        exact = max_subarchitectures(g, 5)
        weak = max_subarchitectures(g, 5, wl_iterations=0, trust_hash=True,
                                    cache_dir=tmp_path)
        assert weak.counts_row() != exact.counts_row()
        again = max_subarchitectures(g, 5, cache_dir=tmp_path)
        assert again.counts_row() == exact.counts_row()
        assert not again.cached
        assert max_subarchitectures(g, 5, cache_dir=tmp_path).cached
        assert max_subarchitectures(g, 5, wl_iterations=0, trust_hash=True,
                                    cache_dir=tmp_path).counts_row() == weak.counts_row()
        for setting in ({"trust_hash": True}, {"wl_iterations": 2}):
            cache = tmp_path / next(iter(setting))
            max_subarchitectures(g, 5, cache_dir=cache, **setting)
            assert max_subarchitectures(g, 5, cache_dir=cache, **setting).cached
            assert not max_subarchitectures(g, 5, cache_dir=cache).cached

    def test_unreadable_file_is_a_miss(self, tmp_path):
        rng = random.Random(4)
        g = random_connected_graph(rng, 6)
        path = save_cached(max_subarchitectures(g, 3), tmp_path)
        for text in ("{not json", "[]", '{"k": 3}'):
            path.write_text(text)
            assert load_cached(g, 3, tmp_path) is None
            ss = max_subarchitectures(g, 3, cache_dir=tmp_path)
            assert not ss.cached
        assert load_cached(g, 3, tmp_path).cached
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_used_by_pipeline(self, tmp_path):
        rng = random.Random(3)
        g = random_connected_graph(rng, 6)
        first = max_subarchitectures(g, 3, cache_dir=tmp_path)
        again = max_subarchitectures(g, 3, cache_dir=tmp_path)
        assert again.counts_row() == first.counts_row()
        assert again.cached and not first.cached
