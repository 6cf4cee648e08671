"""Acceptance checks. Each test prints one PASS/FAIL line for its criterion."""

import hashlib
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


# Counts row, then sha256 of repr([m.vertices for m in members]): the ordered
# member vertex tuples. A change that keeps every output keeps these.
PINNED = {
    ("tokyo", 4): ((4845, 216, 6, 1),
        "f85222b66af852458b5dbcacd3e10d46d016135cb8d47476720daca7a4f749cd"),
    ("tokyo", 8): ((125970, 5603, 289, 13),
        "a7db0bf2aea708485d5f4159c0315bdd064b435f66b0e2acc32d2cf40c0303e4"),
    ("tokyo", 10): ((184756, 14858, 1591, 78),
        "f4bb8a632be68b442da957b04a4ea92033cfe55bbefdaead1dcf8d81108ac1eb"),
    ("tokyo", 12): ((125970, 21276, 4299, 180),
        "4b98a43ba44e747757e5f6b0c7746aadc390fa01ed1aa273831974e55dcdcc64"),
    ("heavy-hex-127", 8): ((1340346236625, 2174, 6, 6),
        "7c5910e52842cb0ae418056bd91d4451d4946bf9622c73ab8a935ac8fb3be3b8"),
    ("heavy-hex-127", 10): ((209123798385425, 7104, 14, 14),
        "279fb20853ae83d96fde06640b7b5347f60eeb0e1cd11650454312ef51b83b0c"),
    ("heavy-hex-127", 12): ((21501728724901425, 24592, 33, 32),
        "ca6b2db73f1268fe04e52a84894fb851dde51e8ea871cd71c7e836c201f203c8"),
    ("guadalupe", 4): ((1820, 24, 2, 2),
        "232c5a6da166998bfa9458500b981377e068d7df05c93d0eb2d47896a3590bd8"),
    ("guadalupe", 5): ((4368, 30, 2, 2),
        "ad039e9aa1cafd2dd3d892e32ca1afbb8c46e14b9908df0ddf6159e872afa4f0"),
    ("guadalupe", 6): ((8008, 36, 3, 3),
        "fecbef274cf302e987e12d978a60d9eab632e75b922d88545008b27648da31b2"),
    ("guadalupe", 7): ((11440, 45, 4, 4),
        "9813d30863e46e097405be97122b8e996e2978f14eae216b3447a861d2ec1229"),
    ("guadalupe", 8): ((12870, 55, 5, 5),
        "b8b497bd6e0fc0e4bf7f9cef715a91defb34f332a61b5eb6cbd305d58a2aa2a7"),
    ("guadalupe", 9): ((11440, 67, 7, 7),
        "c2b2b942ecae62c7f5a42aaf0416845051c637c6dfc4763568c0d87966ef7f4d"),
    ("guadalupe", 10): ((8008, 81, 9, 9),
        "45700692f55b7cbb98eae355b7ffd1c168808ac8dd251112f97489dc81219c68"),
    ("guadalupe", 11): ((4368, 98, 12, 12),
        "c33d0875e8bb1c822ec6126304dba6dc368edce3d922aa45f848824be14701b1"),
    ("guadalupe", 12): ((1820, 109, 16, 15),
        "77710fd7d1ef54ed0014ce89d602fe1f56eff107ab27f583928375e1d898ef97"),
}


def test_pipeline_outputs_are_pinned(tokyo_pipeline):
    from perfbench.heavyhex import heavy_hex
    n, edges = heavy_hex()
    hh, guadalupe = CouplingGraph(range(n), edges), load_platform("guadalupe")
    results, _, expired = tokyo_pipeline
    assert not expired
    runs = {("tokyo", k): ss for k, ss in results.items()}
    runs[("tokyo", 10)] = max_subarchitectures(load_platform("tokyo"), 10)
    runs |= {("heavy-hex-127", k): max_subarchitectures(hh, k) for k in (8, 10, 12)}
    runs |= {("guadalupe", k): max_subarchitectures(guadalupe, k) for k in range(4, 13)}
    got = {key: (ss.counts_row(), hashlib.sha256(
                repr([m.vertices for m in ss.members]).encode()).hexdigest())
           for key, ss in runs.items()}
    assert got == PINNED


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
