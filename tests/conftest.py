import itertools
import random

import pytest

from subarchmap import (CouplingGraph, Circuit, Gate, induced_subgraph, is_connected,
                        maximal, strategy)
from subarchmap.maximal import BudgetExceeded


def pytest_addoption(parser):
    parser.addoption("--run-extended", action="store_true", default=False,
                     help="also run tests marked 'extended'")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-extended"):
        return
    skip = pytest.mark.skip(reason="needs --run-extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def empty_subarch_store():
    """Every test starts with nothing in the in-process subarchitecture store."""
    maximal._store.clear()


@pytest.fixture
def computations(monkeypatch) -> list[int]:
    """The k of every max_subarchitectures call that goes through its module global."""
    calls, compute = [], maximal.max_subarchitectures

    def counted(g, k, **kwargs):
        calls.append(k)
        return compute(g, k, **kwargs)
    monkeypatch.setattr(maximal, "max_subarchitectures", counted)
    return calls


@pytest.fixture
def mapped_members(monkeypatch) -> list[tuple[int, ...]]:
    """The vertices of every member map_with_subarch passes to map_optimal."""
    calls, map_optimal = [], strategy.map_optimal

    def counted(c, g, **kwargs):
        calls.append(g.vertices)
        return map_optimal(c, g, **kwargs)
    monkeypatch.setattr(strategy, "map_optimal", counted)
    return calls


class CountdownDeadline:
    """A Deadline that expires after a given number of checks, with no clock."""

    def __init__(self, checks: int):
        self.left = checks

    def check(self) -> None:
        if self.left == 0:
            raise BudgetExceeded("countdown expired")
        self.left -= 1


def random_connected_graph(rng: random.Random, n: int,
                           extra_edges: int | None = None) -> CouplingGraph:
    """Random spanning tree plus a few extra edges; connected by construction."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((verts[i], rng.choice(verts[:i])))))
    if extra_edges is None:
        extra_edges = rng.randrange(0, n)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edges]
    rng.shuffle(pool)
    edges.update(pool[:extra_edges])
    return CouplingGraph(range(n), edges)


def path(n: int) -> CouplingGraph:
    """The path 0 - 1 - ... - n-1."""
    return CouplingGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> CouplingGraph:
    """The cycle 0 - 1 - ... - n-1 - 0."""
    return CouplingGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def make_ring_circuit(n: int) -> Circuit:
    """cx(0,1); cx(1,2); ...; cx(n-1,0): the canonical ring of CX gates."""
    return Circuit(n, tuple(Gate("cx", (i, (i + 1) % n)) for i in range(n)))


def random_circuit(rng: random.Random, n_qubits: int, n_gates: int) -> Circuit:
    gates = []
    for _ in range(n_gates):
        a, b = rng.sample(range(n_qubits), 2)
        gates.append(Gate("cx", (a, b)))
    return Circuit(n_qubits, tuple(gates))


def naive_connected_subsets(g: CouplingGraph, k: int) -> set[tuple[int, ...]]:
    """Filter every k-subset; the trusted but slow enumeration oracle."""
    out = set()
    for subset in itertools.combinations(g.vertices, k):
        if is_connected(induced_subgraph(g, subset)):
            out.add(subset)
    return out


def reference_connected_subgraphs(g: CouplingGraph, k: int):
    """The anchored expansion on Python sets: the enumeration order oracle.

    For each anchor v (ascending), grow connected sets whose minimum is v. A
    vertex w taken from the candidate list adds as candidates, in ascending
    order after the remaining ones, its neighbours above the anchor that are
    neither in the set nor adjacent to it.
    """
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    def extend(anchor, sub, ext):
        if len(sub) == k:
            yield tuple(sorted(sub))
            return
        for i, w in enumerate(ext):
            fresh = [u for u in adj[w]
                     if u > anchor and u not in sub and not (adj[u] & sub)]
            sub.add(w)
            yield from extend(anchor, sub, ext[i + 1:] + sorted(fresh))
            sub.remove(w)

    for v in g.vertices:
        yield from extend(v, {v}, sorted(u for u in adj[v] if u > v))


def relabel_graph(g: CouplingGraph, perm: dict[int, int]) -> CouplingGraph:
    return CouplingGraph([perm[v] for v in g.vertices],
                         [(perm[u], perm[v]) for u, v in g.edges])


def to_networkx(g: CouplingGraph):
    """A networkx copy of g, for oracles that share no code with the package."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h
