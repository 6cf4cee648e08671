import gc
import hashlib
import itertools
import json
import random
from collections import deque
from pathlib import Path

import pytest

from subarchmap import (Allocation, Circuit, CouplingGraph, Gate, StrategyConfig,
                        brute_force_optimal, induced_subgraph, load_platform,
                        iso, map_optimal, map_with_subarch, mapper, strategy)
from subarchmap.circuits import PHYSICAL
from subarchmap.mapper import OracleLimitError
from subarchmap.maximal import BudgetExceeded
from subarchmap.verify import verify_result

from conftest import (CountdownDeadline, cycle, make_ring_circuit, path, random_circuit,
                      random_connected_graph, relabel_graph)

TOKYO = load_platform("tokyo")


class TestMapOptimal:
    def test_already_feasible_needs_no_swaps(self):
        c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
        r = map_optimal(c, path(3))
        assert r.swaps == 0
        assert verify_result(c, r, path(3)).ok

    def test_swap_forced_on_path(self):
        # a triangle of interactions cannot sit on a 3-path without one swap
        c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 2))))
        r = map_optimal(c, path(3))
        assert r.swaps == 1
        assert verify_result(c, r, path(3)).ok

    def test_ring_on_cycle(self):
        r = map_optimal(make_ring_circuit(4), cycle(4))
        assert r.swaps == 0

    def test_bound_too_small_returns_none(self):
        c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 2))))
        assert map_optimal(c, path(3), bound=0) is None

    def test_deadline_is_checked_inside_one_call(self):
        c, g = make_ring_circuit(6), path(6)
        deadline = CountdownDeadline(10**9)
        assert map_optimal(c, g, deadline=deadline) == map_optimal(c, g)
        checks = 10**9 - deadline.left  # one per search node
        assert checks > 1
        with pytest.raises(BudgetExceeded):
            map_optimal(c, g, deadline=CountdownDeadline(checks - 1))

    def test_unary_gates_only(self):
        c = Circuit(2, (Gate("h", (0,)), Gate("x", (1,))))
        r = map_optimal(c, path(4))
        assert r.swaps == 0
        assert verify_result(c, r, path(4)).ok

    def test_circuit_too_large(self):
        with pytest.raises(ValueError, match="needs"):
            map_optimal(make_ring_circuit(4), path(3))

    def test_negative_bound_is_refused(self):
        with pytest.raises(ValueError, match="bound must be non-negative"):
            map_optimal(Circuit(1, ()), load_platform("guadalupe"), bound=-3)

    def test_disconnected_target(self):
        g = CouplingGraph(range(4), [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            map_optimal(make_ring_circuit(3), g)

    @pytest.mark.parametrize("g, c", [
        *(pytest.param(CouplingGraph(labels, list(zip(labels, labels[1:]))),
                       Circuit(2, (Gate("cx", (0, 1)),)), id=f"labels{i}")
          for i, labels in enumerate([[-1, 0, 1], [False, True], ["a", "b", "c"]])),
        # Tokyo with every label less one, -1..18. Ring-8 fits with no swap onto
        # (1, 2, 3, 6, 7, 8, 11, 12), a member whose labels are all valid, so
        # only a check of the whole platform refuses it.
        pytest.param(relabel_graph(TOKYO, {v: v - 1 for v in TOKYO.vertices}),
                     make_ring_circuit(8), id="tokyo-less-one"),
    ])
    def test_labels_that_name_no_physical_qubit_are_refused(self, g, c, computations):
        # refused before the search starts and before any level is computed, so
        # before the first deadline check
        with pytest.raises(ValueError, match="labels must be non-negative integers"):
            map_optimal(c, g, deadline=CountdownDeadline(0))
        for deadline in (None, CountdownDeadline(0)):
            with pytest.raises(ValueError, match="labels must be non-negative integers"):
                map_with_subarch(g, c, deadline=deadline)
        assert computations == []

    @pytest.mark.parametrize("c", [
        Circuit(2, (Gate("cx", (4, 5)),), PHYSICAL),  # operands beyond n_qubits
        Circuit(3, (Gate("swap", (0, 1)), Gate("cx", (1, 2))), PHYSICAL),
    ], ids=["operands-beyond-register", "with-a-swap"])
    def test_a_physical_circuit_is_refused(self, c, computations):
        g = load_platform("guadalupe")
        with pytest.raises(ValueError, match="only a logical circuit"):
            map_optimal(c, g, deadline=CountdownDeadline(0))
        with pytest.raises(ValueError, match="only a logical circuit"):
            map_with_subarch(g, c, deadline=CountdownDeadline(0))
        assert computations == []

    def test_relaxed_never_worse(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_connected_graph(rng, 5)
            c = random_circuit(rng, 3, 5)
            strict = map_optimal(c, g)
            relaxed = map_optimal(c, g, relaxed=True)
            assert relaxed.swaps <= strict.swaps
            assert verify_result(c, relaxed, g, mode="relaxed").ok

    def test_strict_preserves_gate_order(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_connected_graph(rng, 6)
            c = random_circuit(rng, 4, 6)
            r = map_optimal(c, g)
            v = verify_result(c, r, g, mode="strict")
            assert v.ok, v.violations
            assert r.mapped.swap_count() == r.swaps


class TestBruteForceOracle:
    def test_limits_enforced(self):
        with pytest.raises(OracleLimitError):
            brute_force_optimal(make_ring_circuit(4), path(7), 1)
        with pytest.raises(OracleLimitError):
            brute_force_optimal(make_ring_circuit(4), path(5), 5)

    def test_zero_swap_instance(self):
        c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
        assert brute_force_optimal(c, path(3), 2) == 0

    def test_one_swap_instance(self):
        c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 2))))
        assert brute_force_optimal(c, path(3), 2) == 1

    def test_infeasible_within_cap(self):
        # K4 interactions on a 4-path need 2+ swaps, none allowed here
        c = Circuit(4, tuple(Gate("cx", (a, b)) for a in range(4)
                             for b in range(a + 1, 4))[:6])
        assert brute_force_optimal(c, path(4), 0) is None

    def test_agrees_with_search_on_random_instances(self):
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            g = random_connected_graph(rng, rng.randrange(3, 6))
            c = random_circuit(rng, min(3, g.num_vertices), rng.randrange(1, 6))
            r = map_optimal(c, g)
            if r.swaps > 3:
                continue
            assert brute_force_optimal(c, g, max_swaps=3) == r.swaps
            checked += 1


def linear_extensions(gates):
    """Every order of the gates that keeps gates sharing a qubit in place."""
    def extend(placed, left):
        if not left:
            yield placed
        for j in left:
            if not any(set(gates[i].qubits) & set(gates[j].qubits)
                       for i in left if i < j):
                yield from extend(placed + [j], [i for i in left if i != j])
    yield from extend([], list(range(len(gates))))


def test_relaxed_matches_best_order_by_brute_force():
    # Relaxed mapping may run the gates in any order of the dependency DAG,
    # so its optimum is the strict optimum of the best such order. The corpus
    # holds as many instances where reordering saves swaps as where it does not.
    rng = random.Random(1)
    wanted = {True: 6, False: 6}
    for _ in range(2000):
        if not any(wanted.values()):
            break
        g = random_connected_graph(rng, rng.randrange(4, 6))
        c = random_circuit(rng, 4, rng.randrange(4, 8))
        strict = map_optimal(c, g).swaps
        if not 1 <= strict <= 3:
            continue  # zero is trivial; more is beyond the oracle's reach
        relaxed = map_optimal(c, g, relaxed=True).swaps
        if not wanted[relaxed < strict]:
            continue
        wanted[relaxed < strict] -= 1
        per_order = [brute_force_optimal(
            Circuit(c.n_qubits, tuple(c.gates[i] for i in order)), g, strict)
            for order in linear_extensions(c.gates)]
        assert relaxed == min(s for s in per_order if s is not None)
    assert wanted == {True: 0, False: 0}


def bfs_min_swaps(c: Circuit, g: CouplingGraph, relaxed: bool) -> int:
    """Minimum swap count by 0-1 BFS over (placement of every logical qubit,
    executed gates), started from every full placement.

    Running a ready gate on adjacent qubits (or a unary gate) costs 0 and
    swapping the ends of any edge costs 1. Independent of map_optimal: its
    own dependency sets, every qubit placed up front, no heuristic, no memo.
    """
    gates = c.gates
    deps = [frozenset(j for j in range(i)
                      if not relaxed or set(gates[j].qubits) & set(gates[i].qubits))
            for i in range(len(gates))]
    best = {}
    queue = deque()
    for placement in itertools.permutations(g.vertices, c.n_qubits):
        best[placement, frozenset()] = 0
        queue.append((0, placement, frozenset()))
    while queue:
        cost, placement, done = queue.popleft()
        if cost > best[placement, done]:
            continue
        if len(done) == len(gates):
            return cost
        moves = [(0, placement, done | {i}) for i, gate in enumerate(gates)
                 if i not in done and deps[i] <= done
                 and (len(gate.qubits) == 1
                      or g.has_edge(*(placement[q] for q in gate.qubits)))]
        moves += [(1, tuple(v if p == u else u if p == v else p for p in placement), done)
                  for u, v in g.edges]
        for step, nxt, nxt_done in moves:
            if (nxt, nxt_done) in best and best[nxt, nxt_done] <= cost + step:
                continue
            best[nxt, nxt_done] = cost + step
            if step:
                queue.append((cost + 1, nxt, nxt_done))
            else:
                queue.appendleft((cost, nxt, nxt_done))
    raise AssertionError("a connected target always admits a mapping")


@pytest.mark.parametrize("relaxed", [False, True])
def test_agrees_with_bfs_beyond_brute_force_limits(relaxed):
    # 6-7 vertices and 9-12 gates are past brute_force_optimal's limits; sparse
    # targets make the optima 0-4 swaps, and relaxed order saves swaps on some.
    # A bound below the optimum finds nothing, and any other bound finds what
    # the unbounded call finds. The bounded calls run first, so a search that
    # never ends without a bound fails here instead of hanging.
    rng = random.Random(5)
    for _ in range(14):
        g = random_connected_graph(rng, rng.randrange(6, 8), rng.randrange(2))
        c = random_circuit(rng, rng.randrange(4, 6), rng.randrange(9, 13))
        opt = bfs_min_swaps(c, g, relaxed)
        bounded = {b: map_optimal(c, g, bound=b, relaxed=relaxed)
                   for b in range(max(opt - 1, 0), opt + 3)}
        if opt:
            assert bounded[opt - 1] is None
        assert bounded[opt] is not None and bounded[opt].swaps == opt
        r = map_optimal(c, g, relaxed=relaxed)
        assert r.swaps == opt
        for b in range(opt, opt + 3):
            assert (bounded[b].swaps, bounded[b].mapped.gates, bounded[b].initial) \
                == (r.swaps, r.mapped.gates, r.initial)


def outcome(r, perm=None):
    """Swaps, mapped gates and initial layout of r, with vertex v renamed perm[v]."""
    perm = perm or {v: v for v in r.subarch.vertices}
    return (r.swaps, tuple(gate.relabel(perm) for gate in r.mapped.gates),
            Allocation.from_dict({q: perm[p] for q, p in r.initial.forward}))


@pytest.mark.parametrize("relaxed", [False, True])
def test_order_preserving_relabel_gives_the_relabelled_result(relaxed):
    # The search runs on vertex ranks, so labels with gaps change nothing but
    # the names: the same swaps, gates and layout, bounded or not.
    rng = random.Random(8)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(3))
        c = random_circuit(rng, rng.randrange(3, 5), rng.randrange(4, 10))
        perm = dict(zip(g.vertices, sorted(rng.sample(range(200), g.num_vertices))))
        h = relabel_graph(g, perm)
        r = map_optimal(c, h, relaxed=relaxed)
        assert outcome(r) == outcome(map_optimal(c, g, relaxed=relaxed), perm)
        assert verify_result(c, r, h, "relaxed" if relaxed else "strict").ok
        for b in range(max(r.swaps - 1, 0), r.swaps + 2):
            on_g = map_optimal(c, g, bound=b, relaxed=relaxed)
            on_h = map_optimal(c, h, bound=b, relaxed=relaxed)
            assert (on_h is None) == (on_g is None) == (b < r.swaps)
            if on_h is not None:
                assert outcome(on_h) == outcome(on_g, perm)


@pytest.mark.parametrize("relaxed", [False, True])
def test_shuffled_labels_keep_the_bfs_optimum(relaxed):
    # A relabel that does not keep the order may change the witness, never
    # the swap count.
    rng = random.Random(9)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randrange(5, 7), rng.randrange(2))
        c = random_circuit(rng, rng.randrange(3, 5), rng.randrange(5, 10))
        h = relabel_graph(g, dict(zip(g.vertices, rng.sample(range(200), g.num_vertices))))
        r = map_optimal(c, h, relaxed=relaxed)
        assert r.swaps == bfs_min_swaps(c, h, relaxed)
        assert verify_result(c, r, h, "relaxed" if relaxed else "strict").ok


def test_strategy_on_a_member_with_label_gaps():
    # A guadalupe k=10 member as the platform: its labels have gaps, and the
    # strategy maps onto its own subarchitectures under those labels.
    guadalupe = load_platform("guadalupe")
    member = induced_subgraph(guadalupe, (0, 1, 2, 4, 6, 7, 10, 12, 13, 15))
    dense = relabel_graph(member, dict(zip(member.vertices, range(10))))
    rng = random.Random(10)
    for c in [make_ring_circuit(5)] + [random_circuit(rng, 5, 8) for _ in range(3)]:
        r = map_with_subarch(member, c, StrategyConfig(max_ancillas=2)).result
        assert verify_result(c, r, guadalupe).ok
        assert set(r.subarch.vertices) <= set(member.vertices)
        on_dense = map_with_subarch(dense, c, StrategyConfig(max_ancillas=2)).result
        assert outcome(r) == outcome(on_dense, dict(zip(dense.vertices, member.vertices)))


@pytest.mark.parametrize("bound", [None, 0, 3])
def test_a_call_leaves_nothing_for_the_cycle_collector(bound):
    g = load_platform("guadalupe")
    c = Circuit(4, tuple(Gate("cx", p) for p in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    gc.collect()
    gc.disable()
    try:
        # bound 0 fails; bound 3 succeeds, as does None, with 2 swaps
        map_optimal(c, g, bound=bound)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_call_cut_by_its_deadline_leaves_nothing_for_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(BudgetExceeded):
            map_optimal(make_ring_circuit(5), cycle(6), deadline=CountdownDeadline(10))
        assert gc.collect() == 0
    finally:
        gc.enable()


def symmetric_graphs():
    complete = lambda n: CouplingGraph(range(n), itertools.combinations(range(n), 2))
    yield complete(4)
    yield complete(5)
    yield CouplingGraph(range(6), [(0, v) for v in range(1, 6)])  # star
    yield cycle(6)
    yield path(6)
    yield CouplingGraph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                   (0, 3), (1, 4), (2, 5)])  # prism
    yield CouplingGraph(range(6), [(a, b) for a in range(3) for b in range(3, 6)])  # K3,3
    yield CouplingGraph(range(8), [(a, a | 1 << i) for a in range(8) for i in range(3)
                                   if not a >> i & 1])  # cube


@pytest.mark.parametrize("relaxed", [False, True])
def test_orbit_skipping_changes_no_result(monkeypatch, relaxed):
    # Bindings of one orbit succeed or fail together, so the first that
    # succeeds is first in its orbit and every result is the one the full
    # search finds, bounded or not. Skipping saves nodes on these graphs.
    rng = random.Random(12)
    cases = []
    for g in symmetric_graphs():
        for t in range(6):
            n = rng.randrange(2, 5)
            gates = [Gate("h", (rng.randrange(n),))] if t % 3 == 0 else []  # unary first
            gates += [Gate("cx", tuple(rng.sample(range(n), 2))) for _ in range(rng.randrange(2, 8))]
            cases += [(Circuit(n, tuple(gates)), g, bound) for bound in (None, 0, 1, 2)]

    def run():
        deadline, results = CountdownDeadline(10**9), []
        for c, g, bound in cases:
            r = map_optimal(c, g, bound=bound, relaxed=relaxed, deadline=deadline)
            results.append(r and outcome(r))
        return results, 10**9 - deadline.left

    skipping, nodes = run()
    monkeypatch.setattr(mapper, "first_in_orbit", lambda g, key: True)
    full, full_nodes = run()
    assert skipping == full
    assert {r is None for r in full} == {True, False}
    assert nodes < 0.8 * full_nodes


def test_a_call_whose_first_binding_succeeds_does_no_orbit_work(monkeypatch):
    from perfbench.heavyhex import heavy_hex
    n, edges = heavy_hex()
    g = CouplingGraph(range(n), edges)
    refined, refine = [], iso._refine
    monkeypatch.setattr(iso, "_refine", lambda g, key: refined.append(key) or refine(g, key))
    c = Circuit(2, (Gate("cx", (0, 1)),))
    assert map_optimal(c, g).swaps == map_optimal(c, g, bound=0).swaps == 0
    assert refined == []


def map_batch_pool():
    """The 150 map-batch circuits with their expected (swaps, ancillas)."""
    expected = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "expected.json").read_text())
    return [(Circuit(case["n"], tuple(Gate("cx", tuple(pair)) for pair in case["cx"])),
             (case["swaps"], case["ancillas"])) for case in expected["map-batch"]["circuits"]]


def test_map_batch_pool_search_nodes(monkeypatch):
    # Search nodes over the pool, counted one per deadline check. Symmetry
    # breaking at the empty placement took them from 423,364 to 336,386;
    # deciding each child's heuristic cut in its parent, so that no state is
    # entered only to be cut, took them to 151,335; deciding each child's
    # memo prune in its parent as well took them to 97,619.
    counter, map_optimal = CountdownDeadline(10**9), strategy.map_optimal
    monkeypatch.setattr(strategy, "map_optimal", lambda c, g, bound, deadline:
                        map_optimal(c, g, bound=bound, deadline=counter))
    guadalupe, cfg = load_platform("guadalupe"), StrategyConfig(max_ancillas=2)
    for c, swaps_ancillas in map_batch_pool():
        r = map_with_subarch(guadalupe, c, cfg)
        assert (r.swaps, r.ancillas) == swaps_ancillas
    assert 10**9 - counter.left <= 97_619


def witness_digest() -> str:
    """sha256 over every witness of the map-batch pool and of seeded direct calls.

    A pool circuit contributes its swaps, ancillas, mapped gates, initial
    layout, outcome list and map_calls through map_with_subarch on guadalupe
    with 2 ancillas. Then 60 seeded circuits, on random connected graphs
    (some with label gaps) and on symmetric ones, with a one-qubit gate in
    every third, each go to map_optimal strict and relaxed at bounds None, 0,
    1 and 2: 480 calls, each contributing its swaps, mapped gates and layout,
    or None.
    """
    h = hashlib.sha256()

    def add(r):
        h.update(repr(None if r is None else
                      (r.swaps, r.mapped.gates, r.initial.forward)).encode())

    guadalupe, cfg = load_platform("guadalupe"), StrategyConfig(max_ancillas=2)
    for c, _ in map_batch_pool():
        report = map_with_subarch(guadalupe, c, cfg)
        add(report.result)
        h.update(repr((report.ancillas, report.outcomes, report.map_calls)).encode())
    rng = random.Random(18)
    graphs = list(symmetric_graphs())
    for t in range(60):
        if t % 2:
            g = graphs[t // 2 % len(graphs)]
        else:
            g = random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(3))
            if t % 4 == 0:
                g = relabel_graph(g, dict(zip(g.vertices, sorted(
                    rng.sample(range(100), g.num_vertices)))))
        c = random_circuit(rng, rng.randrange(2, min(g.num_vertices, 5) + 1),
                           rng.randrange(3, 12))
        if t % 3 == 0:
            c = Circuit(c.n_qubits, (Gate("h", (rng.randrange(c.n_qubits),)),) + c.gates)
        for relaxed in (False, True):
            for bound in (None, 0, 1, 2):
                add(map_optimal(c, g, bound=bound, relaxed=relaxed))
    return h.hexdigest()


def test_witnesses_are_pinned():
    # Any change to the search's visit order, memo or pruning that alters a
    # witness, an outcome or a call count changes the digest. A change that
    # only prunes states the search could never complete keeps it.
    assert witness_digest() == \
        "22211ed3016278fad550005ed84eb370b0c855d24e37a7c02178b2a9ea4792ec"
