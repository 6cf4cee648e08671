"""map_with_subarch against the plain level-by-level loop, kept here as an oracle.

The oracle maps every maximal member of every level from n upward, densest
first, with its own map_optimal call. The strategy may skip calls that the
top level's members make redundant, but its outcomes and result must be the
same, and it must never pass one member to map_optimal twice.
"""

import random

import pytest

from subarchmap import CouplingGraph, StrategyConfig, map_with_subarch, subarchitectures
from subarchmap.mapper import map_optimal

from conftest import make_ring_circuit, random_circuit, random_connected_graph


def level_by_level(g, c, cfg):
    """The strategy loop without the top-level probe: (outcomes, result, calls)."""
    k_max = g.num_vertices if cfg.max_ancillas is None \
        else min(g.num_vertices, c.n_qubits + cfg.max_ancillas)
    bound, best, outcomes, calls = cfg.initial_bound, None, [], 0
    for k in range(c.n_qubits, k_max + 1):
        members = sorted(subarchitectures(g, k).members, key=lambda m: -m.num_edges)
        for member in members:
            calls += 1
            result = map_optimal(c, member, bound=bound)
            if result is None:
                outcomes.append((k, member.vertices, "bound-fail", None))
                continue
            outcomes.append((k, member.vertices, "success", result.swaps))
            best = result
            if result.swaps == 0:
                return outcomes, best, calls
            bound = result.swaps - 1
    return outcomes, best, calls


def cycle(n, pendants=0):
    """An n-cycle, with vertex n+i hanging off vertex i for each i < pendants."""
    return CouplingGraph(range(n + pendants), [(i, (i + 1) % n) for i in range(n)]
                         + [(i, n + i) for i in range(pendants)])


# (platform, ring size, swaps for each ancilla budget from 0): ancillas help
RINGS = [(cycle(5), 4, [2, 1]), (cycle(6), 5, [3, 1]),
         (cycle(6, 1), 5, [2, 1, 1]), (cycle(6, 2), 5, [2, 1, 1, 1])]


def random_corpus():
    rng = random.Random(2025)
    cases = []
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(5, 9))
        n = rng.randrange(3, 6)
        cases.append((g, random_circuit(rng, n, rng.randrange(3, 9))))
    return cases


def compare(g, c, seen):
    """Run both loops on every budget and initial bound; return both call totals.

    seen is the mapped_members fixture's list of members map_optimal got.
    """
    calls = oracle_calls = 0
    for budget in [*range(g.num_vertices - c.n_qubits + 1), None]:
        for initial_bound in (None, 0, 1, 2):
            cfg = StrategyConfig(max_ancillas=budget, initial_bound=initial_bound)
            seen.clear()
            report = map_with_subarch(g, c, cfg)
            want, want_result, want_calls = level_by_level(g, c, cfg)
            got = [(o.k, o.subarch_vertices, o.status, o.swaps) for o in report.outcomes]
            assert got == want, (budget, initial_bound)
            if want_result is None:
                assert report.result is None
            else:
                assert report.result.mapped.gates == want_result.mapped.gates
                assert report.result.initial == want_result.initial
            assert len(seen) == len(set(seen)) == report.map_calls
            assert all(o.status == "bound-fail" for o in report.outcomes if o.inferred)
            calls += report.map_calls
            oracle_calls += want_calls
    return calls, oracle_calls


@pytest.mark.parametrize("case", range(len(RINGS)))
def test_matches_level_by_level_loop_where_ancillas_help(case, mapped_members):
    g, n, swaps = RINGS[case]
    c = make_ring_circuit(n)
    assert [map_with_subarch(g, c, StrategyConfig(max_ancillas=a)).swaps
            for a in range(len(swaps))] == swaps
    compare(g, c, mapped_members)


def test_matches_level_by_level_loop_with_fewer_calls(mapped_members):
    totals = [compare(g, c, mapped_members) for g, c in random_corpus()]
    assert all(calls <= oracle_calls for calls, oracle_calls in totals)
    assert sum(t[0] for t in totals) < sum(t[1] for t in totals)


def test_skipped_levels_are_marked_inferred():
    # On a 6-cycle the 4-ring fails at bound 0 on every member up to k = 6,
    # so level 5 is proved hopeless by the k = 6 member alone.
    c = make_ring_circuit(4)
    report = map_with_subarch(cycle(6), c, StrategyConfig(max_ancillas=2, initial_bound=0))
    assert not report.success
    assert {o.k for o in report.outcomes if o.inferred} == {5}
    assert report.map_calls == len([o for o in report.outcomes if not o.inferred])

