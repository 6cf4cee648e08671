"""Acceptance checks. Each test prints one PASS/FAIL line for its criterion."""

import itertools
import random
import time

import pytest

from subarchmap import (StrategyConfig, brute_force_optimal, connected_subgraphs,
                        induced_subgraph, is_isomorphic, load_platform, map_optimal,
                        map_with_subarch, max_subarchitectures, wl_hash)
from subarchmap.graphs import CouplingGraph
from subarchmap.maximal import BudgetExceeded, Deadline
from subarchmap.mapper import OracleLimitError
from subarchmap.verify import verify_result

from conftest import (make_ring_circuit, naive_connected_subsets, random_circuit,
                      random_connected_graph, relabel_graph)

GUADALUPE_ROWS = {4: (1820, 24, 2, 2), 8: (12870, 55, 5, 5),
                  12: (1820, 109, 16, 15), 16: (1, 1, 1, 1)}
TOKYO_ROWS = {4: (4845, 179, 6, 1), 8: (125970, 3883, 207, 18),
              12: (125970, 12402, 2667, 131)}
TOKYO_ROW_16 = (4845, 1951, 990, 91)


def _report(n: int, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} failed{tail}"


# ---------------------------------------------------------------- criteria 1-3

@pytest.fixture(scope="session")
def guadalupe_pipeline():
    g = load_platform("guadalupe")
    t0 = time.perf_counter()
    results = {k: max_subarchitectures(g, k) for k in (4, 8, 12, 16)}
    return results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def tokyo_pipeline():
    g = load_platform("tokyo")
    t0 = time.perf_counter()
    deadline = Deadline(1800)
    results = {}
    expired = False
    try:
        for k in (4, 8, 12):
            results[k] = max_subarchitectures(g, k, deadline=deadline)
    except BudgetExceeded:
        expired = True
    return results, time.perf_counter() - t0, expired


def test_criterion_1_guadalupe_table_rows(guadalupe_pipeline):
    results, elapsed = guadalupe_pipeline
    rows = {k: ss.counts_row() for k, ss in results.items()}
    ok = rows == GUADALUPE_ROWS and elapsed < 60
    _report(1, ok, f"rows={rows}, {elapsed:.1f}s of 60s")


def test_criterion_2_tokyo_table_rows(tokyo_pipeline):
    results, elapsed, expired = tokyo_pipeline
    rows = {k: ss.counts_row() for k, ss in results.items()}
    ok = not expired and rows == TOKYO_ROWS and elapsed < 1800
    _report(2, ok, f"rows={rows}, {elapsed:.1f}s of 1800s"
                   + (", budget expired" if expired else ""))


@pytest.mark.extended
def test_criterion_2_tokyo_k16_extended():
    g = load_platform("tokyo")
    t0 = time.perf_counter()
    try:
        ss = max_subarchitectures(g, 16, deadline=Deadline(7200))
    except BudgetExceeded:
        pytest.fail("tokyo k=16 exceeded the 2h budget")
    elapsed = time.perf_counter() - t0
    assert ss.counts_row() == TOKYO_ROW_16, \
        f"tokyo k=16 row {ss.counts_row()} after {elapsed:.0f}s"


def test_criterion_3_expected_member_counts(guadalupe_pipeline,
                                            tokyo_pipeline):
    g_results, _ = guadalupe_pipeline
    t_results, _, _ = tokyo_pipeline
    g_members = len(g_results[4].members)
    t_members = len(t_results[4].members) if 4 in t_results else None
    ok = g_members == 2 and t_members == 1
    _report(3, ok, f"guadalupe k=4: {g_members} members, tokyo k=4: "
                   f"{t_members} members")


# ------------------------------------------------------------------ criterion 4

def test_criterion_4_ring_on_five_cycle():
    c5 = CouplingGraph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    ring = make_ring_circuit(4)
    t0 = time.perf_counter()
    no_anc = map_with_subarch(c5, ring, StrategyConfig(max_ancillas=0))
    one_anc = map_with_subarch(c5, ring, StrategyConfig(max_ancillas=1))
    elapsed = time.perf_counter() - t0
    checks = [
        no_anc.swaps == 2,
        one_anc.swaps == 1,
        verify_result(ring, no_anc.result, c5, mode="strict").ok,
        verify_result(ring, one_anc.result, c5, mode="strict").ok,
        elapsed < 1.0,
    ]
    _report(4, all(checks),
            f"0 ancillas: {no_anc.swaps} swaps, 1 ancilla: {one_anc.swaps} "
            f"swaps, {elapsed:.2f}s")


# ----------------------------------------------------- criteria 5, 7, 9 corpus

@pytest.fixture(scope="session")
def mapping_corpus():
    """200 random instances mapped by the strategy and by the exhaustive oracle."""
    rng = random.Random(20250823)
    instances = []
    t0 = time.perf_counter()
    while len(instances) < 200:
        p = rng.randrange(4, 7)
        n = rng.randrange(2, min(5, p + 1))
        g = random_connected_graph(rng, p)
        c = random_circuit(rng, n, rng.randrange(1, 9))
        cfg = StrategyConfig(max_ancillas=p - n)
        report = map_with_subarch(g, c, cfg)
        if not report.success:
            continue
        try:
            oracle = brute_force_optimal(c, g, max_swaps=report.swaps)
        except OracleLimitError:
            oracle = None
        instances.append({"g": g, "c": c, "n": n, "report": report,
                          "oracle": oracle})
    return instances, time.perf_counter() - t0


def test_criterion_5_oracle_optimality(mapping_corpus):
    instances, elapsed = mapping_corpus
    checked = [i for i in instances if i["oracle"] is not None]
    mismatches = [i for i in checked if i["oracle"] != i["report"].swaps]
    ok = len(instances) >= 200 and not mismatches and elapsed < 600
    _report(5, ok, f"{len(checked)}/{len(instances)} oracle-checked, "
                   f"{len(mismatches)} mismatches, {elapsed:.0f}s of 600s")


def test_criterion_6_enumeration_oracle(corpus_graphs):
    mismatches = 0
    for g in corpus_graphs:
        for k in range(1, g.num_vertices + 1):
            if set(connected_subgraphs(g, k)) != naive_connected_subsets(g, k):
                mismatches += 1
    ok = len(corpus_graphs) >= 100 and mismatches == 0
    _report(6, ok, f"{len(corpus_graphs)} graphs, {mismatches} mismatches")


def test_criterion_7_lifting_preserves_everything(mapping_corpus):
    # A member keeps the platform's labels, so the lift to the platform is the
    # identity: the result is checked against the platform as it stands.
    instances, _ = mapping_corpus
    failures = 0
    checked = 0
    for inst in instances:
        g, c = inst["g"], inst["c"]
        for outcome in inst["report"].outcomes:
            if outcome.status != "success":
                continue
            sub = induced_subgraph(g, outcome.subarch_vertices)
            r = map_optimal(c, sub, bound=outcome.swaps)
            checked += 1
            on_platform = (set(r.subarch.vertices) <= set(g.vertices)
                           and r.subarch.edges <= g.edges)
            if not on_platform or r.swaps != outcome.swaps \
                    or not verify_result(c, r, g).ok:
                failures += 1
    _report(7, failures == 0 and checked > 0,
            f"{checked} results checked on the platform, {failures} failures")


def test_criterion_9_monotonicity(mapping_corpus):
    instances, _ = mapping_corpus
    chain_violations = 0
    ancilla_violations = 0
    for inst in instances:
        succ = [o.swaps for o in inst["report"].outcomes if o.status == "success"]
        if any(b >= a for a, b in zip(succ, succ[1:])):
            chain_violations += 1
        g, c, n = inst["g"], inst["c"], inst["n"]
        counts = []
        for budget in range(g.num_vertices - n + 1):
            rep = map_with_subarch(g, c, StrategyConfig(max_ancillas=budget))
            counts.append(rep.swaps)
        if any(b > a for a, b in zip(counts, counts[1:])):
            ancilla_violations += 1
    ok = chain_violations == 0 and ancilla_violations == 0
    _report(9, ok, f"{chain_violations} bound-chain violations, "
                   f"{ancilla_violations} ancilla-monotonicity violations")


# ------------------------------------------------------------- criteria 6 and 8

@pytest.fixture(scope="session")
def corpus_graphs():
    rng = random.Random(404)
    return [random_connected_graph(rng, rng.randrange(2, 13))
            for _ in range(100)]


def test_criterion_8_wl_soundness(corpus_graphs):
    rng = random.Random(505)
    invariance_failures = 0
    for _ in range(500):
        g = random_connected_graph(rng, rng.randrange(2, 11))
        verts = list(g.vertices)
        rng.shuffle(verts)
        h = relabel_graph(g, dict(zip(g.vertices, verts)))
        if wl_hash(g) != wl_hash(h):
            invariance_failures += 1
    collision_failures = 0
    for a, b in itertools.combinations(corpus_graphs, 2):
        if is_isomorphic(a, b) and wl_hash(a) != wl_hash(b):
            collision_failures += 1
    ok = invariance_failures == 0 and collision_failures == 0
    _report(8, ok, f"{invariance_failures} invariance failures over 500 "
                   f"graphs, {collision_failures} hash splits of isomorphic pairs")
