"""Swap-optimal layout synthesis onto a coupling graph.

map_optimal is an iterative-deepening search over swap count with an
admissible distance heuristic and lazy qubit binding, so initial allocations
are never enumerated explicitly. brute_force_optimal is a deliberately naive
exhaustive oracle that shares none of this search machinery.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .circuits import PHYSICAL, Allocation, Circuit, Gate
from .graphs import CouplingGraph, is_connected


class OracleLimitError(ValueError):
    """Instance exceeds the exhaustive oracle's configured limits."""


@dataclass(frozen=True)
class MapResult:
    mapped: Circuit
    initial: Allocation
    swaps: int
    subarch: CouplingGraph


def _all_pairs_distances(g: CouplingGraph) -> dict[int, dict[int, int]]:
    dist: dict[int, dict[int, int]] = {}
    for s in g.vertices:
        d = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in d:
                    d[w] = d[v] + 1
                    queue.append(w)
        dist[s] = d
    return dist


def map_optimal(c: Circuit, g: CouplingGraph, bound: int | None = None,
                relaxed: bool = False) -> MapResult | None:
    """Minimum-swap mapping of a logical circuit onto g.

    Returns None iff no correct mapping with at most `bound` swaps exists
    (bound=None means unbounded; a connected target always admits one).
    On success the swap count is the true minimum, also when a finite bound
    is given. With relaxed=True gates may be interleaved across independence,
    and the result verifies under relaxed equivalence.

    One search serves both orders. Each gate has a bitmask of the gates it
    must follow, and a search state is the bitmask of executed gates plus the
    current binding of logical to physical qubits. Strict order is the
    dependency chain gate i-1 -> gate i; relaxed order keeps only the
    dependencies through shared qubits. Nothing else depends on the order.
    """
    if c.n_qubits > g.num_vertices:
        raise ValueError(f"circuit needs {c.n_qubits} qubits, architecture has "
                         f"{g.num_vertices}")
    if not is_connected(g):
        raise ValueError("coupling graph must be connected")

    gates = c.gates
    m = len(gates)
    dist = _all_pairs_distances(g)
    edges = sorted(g.edges)

    # Gate i may run once every gate in preds_mask[i] has. Relaxed order waits
    # only for the previous gate on each of its qubits; strict order is the
    # chain in which gate i waits for gate i-1.
    preds_mask = [0] * m
    last_on: dict[int, int] = {}
    for i, gate in enumerate(gates):
        if relaxed:
            for q in gate.qubits:
                if q in last_on:
                    preds_mask[i] |= 1 << last_on[q]
                last_on[q] = i
        elif i:
            preds_mask[i] = 1 << (i - 1)
    full_mask = (1 << m) - 1
    cx_bits = [(1 << i, *gate.qubits) for i, gate in enumerate(gates)
               if gate.name == "cx"]

    ops: list[tuple] = []
    pos: dict[int, int] = {}
    occ: dict[int, int] = {}

    def heuristic(done: int) -> int:
        h = 0
        for bit, a, b in cx_bits:
            if not done & bit and a in pos and b in pos:
                h = max(h, dist[pos[a]][pos[b]] - 1)
        return h

    def exec_moves(i: int) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
        """Ways to execute gate i right now that bind at least one new qubit:
        (physical operands, new bindings)."""
        gate = gates[i]
        if all(q in pos for q in gate.qubits):
            return []
        if gate.name != "cx":
            (q,) = gate.qubits
            return [((p,), ((q, p),)) for p in g.vertices if p not in occ]
        a, b = gate.qubits
        if a in pos:
            pa = pos[a]
            return [((pa, p), ((b, p),)) for p in g.neighbors(pa) if p not in occ]
        if b in pos:
            pb = pos[b]
            return [((p, pb), ((a, p),)) for p in g.neighbors(pb) if p not in occ]
        moves = []
        for u, v in edges:
            if u not in occ and v not in occ:
                moves.append(((u, v), ((a, u), (b, v))))
                moves.append(((v, u), ((a, v), (b, u))))
        return moves

    def dfs(done: int, remaining: int, last_edge: tuple[int, int] | None,
            memo: dict) -> bool:
        if done == full_mask:
            return True
        if heuristic(done) > remaining:
            return False
        key = (done, tuple(sorted(occ.items())))
        if memo.get(key, -1) >= remaining:
            return False

        ready = [i for i in range(m)
                 if not done >> i & 1 and preds_mask[i] & done == preds_mask[i]]

        # A ready gate that is fully bound and feasible can always be pulled
        # to the front of any completion without changing the swap count, so
        # commit to it and branch nowhere else.
        for i in ready:
            gate = gates[i]
            if all(q in pos for q in gate.qubits):
                phys = tuple(pos[q] for q in gate.qubits)
                if gate.name != "cx" or g.has_edge(*phys):
                    ops.append(("exec", i, phys, ()))
                    if dfs(done | 1 << i, remaining, None, memo):
                        return True
                    ops.pop()
                    memo[key] = max(memo.get(key, -1), remaining)
                    return False

        for i in ready:
            for phys, bindings in exec_moves(i):
                for q, p in bindings:
                    pos[q] = p
                    occ[p] = q
                ops.append(("exec", i, phys, bindings))
                if dfs(done | 1 << i, remaining, None, memo):
                    return True
                ops.pop()
                for q, p in bindings:
                    del pos[q]
                    del occ[p]

        if remaining > 0:
            for u, v in edges:
                if (u, v) == last_edge:
                    continue  # never immediately undo the previous swap
                if u not in occ and v not in occ:
                    continue  # swapping two unallocated qubits is a no-op
                qu, qv = occ.pop(u, None), occ.pop(v, None)
                if qu is not None:
                    occ[v] = qu
                    pos[qu] = v
                if qv is not None:
                    occ[u] = qv
                    pos[qv] = u
                ops.append(("swap", u, v))
                if dfs(done, remaining - 1, (u, v), memo):
                    return True
                ops.pop()
                occ.pop(u, None)
                occ.pop(v, None)
                if qu is not None:
                    occ[u] = qu
                    pos[qu] = u
                if qv is not None:
                    occ[v] = qv
                    pos[qv] = v

        memo[key] = max(memo.get(key, -1), remaining)
        return False

    limits = range(bound + 1) if bound is not None else itertools.count()
    for limit in limits:
        ops.clear()
        pos.clear()
        occ.clear()
        if dfs(0, limit, None, {}):
            return _build_result(c, g, ops, limit)
    return None


def _build_result(c: Circuit, g: CouplingGraph, ops: list[tuple],
                  swaps: int) -> MapResult:
    gates = c.gates
    init_of_cur = {p: p for p in g.vertices}
    alloc: dict[int, int] = {}
    phys_gates: list[Gate] = []
    for op in ops:
        if op[0] == "swap":
            _, u, v = op
            phys_gates.append(Gate("swap", (u, v)))
            init_of_cur[u], init_of_cur[v] = init_of_cur[v], init_of_cur[u]
        else:
            _, i, phys, bindings = op
            for q, p in bindings:
                alloc[q] = init_of_cur[p]
            phys_gates.append(Gate(gates[i].name, phys, gates[i].params))
    free = sorted(set(g.vertices) - set(alloc.values()))
    for q in range(c.n_qubits):
        if q not in alloc:
            alloc[q] = free.pop(0)
    mapped = Circuit(max(g.vertices) + 1, tuple(phys_gates), PHYSICAL)
    return MapResult(mapped, Allocation.from_dict(alloc), swaps, g)


def brute_force_optimal(c: Circuit, g: CouplingGraph, max_swaps: int, *,
                        max_vertices: int = 6, max_gates: int = 8,
                        hard_swap_cap: int = 4) -> int | None:
    """Exhaustive minimum-swap oracle, independent of map_optimal.

    Tries every initial allocation and every way of inserting up to max_swaps
    swap gates (any slot, any edge), keeping a candidate when every binary
    gate lands on an edge. Correctness of each candidate is by construction:
    gates are relabeled through the evolving allocation, so unmapping
    recovers the input. Returns the minimum swap count, or None.
    """
    if g.num_vertices > max_vertices or len(c.gates) > max_gates \
            or max_swaps > hard_swap_cap:
        raise OracleLimitError("instance exceeds exhaustive oracle limits")
    edges = sorted(g.edges)
    m = len(c.gates)
    allocations = list(itertools.permutations(g.vertices, c.n_qubits))
    for s in range(max_swaps + 1):
        for slots in itertools.combinations_with_replacement(range(m + 1), s):
            for swap_edges in itertools.product(edges, repeat=s):
                for perm in allocations:
                    if _simulate(c.gates, g, perm, slots, swap_edges):
                        return s
    return None


def _simulate(gates, g: CouplingGraph, perm, slots, swap_edges) -> bool:
    pos = {q: p for q, p in enumerate(perm)}
    si = 0
    for j in range(len(gates) + 1):
        while si < len(slots) and slots[si] == j:
            u, v = swap_edges[si]
            for q, p in pos.items():
                if p == u:
                    pos[q] = v
                elif p == v:
                    pos[q] = u
            si += 1
        if j == len(gates):
            break
        gate = gates[j]
        if gate.name == "cx" and not g.has_edge(pos[gate.qubits[0]],
                                                pos[gate.qubits[1]]):
            return False
    return True
