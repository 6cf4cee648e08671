"""Swap-optimal layout synthesis onto a coupling graph.

map_optimal is an iterative-deepening search over swap count with an
admissible distance heuristic and lazy qubit binding, so initial allocations
are never enumerated explicitly, and it tries one first binding per
automorphism orbit of the target. brute_force_optimal is a deliberately naive
exhaustive oracle that shares none of this search machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circuits import LOGICAL, PHYSICAL, Allocation, Circuit, Gate
from .graphs import CouplingGraph, bfs, bits, is_connected
from .iso import first_in_orbit
from .maximal import Deadline


ORACLE_MAX_VERTICES, ORACLE_MAX_GATES, ORACLE_MAX_SWAPS = 6, 8, 4


class OracleLimitError(ValueError):
    """Instance exceeds the exhaustive oracle's limits."""


@dataclass(frozen=True)
class MapResult:
    mapped: Circuit
    initial: Allocation
    swaps: int
    subarch: CouplingGraph


def check_mappable(c: Circuit, g: CouplingGraph, bound: int | None) -> None:
    """Raise ValueError unless the logical circuit c may be mapped onto g within bound."""
    if bound is not None and bound < 0:
        raise ValueError("bound must be non-negative")
    if c.space != LOGICAL:
        raise ValueError("only a logical circuit can be mapped")
    if c.n_qubits == 0:
        raise ValueError("circuit has no qubits")
    if c.n_qubits > g.num_vertices:
        raise ValueError(f"circuit needs {c.n_qubits} qubits, architecture has "
                         f"{g.num_vertices}")
    if not all(type(v) is int and v >= 0 for v in g.vertices):  # not bool
        raise ValueError("physical qubit labels must be non-negative integers")


def map_optimal(c: Circuit, g: CouplingGraph, bound: int | None = None,
                relaxed: bool = False, *,
                deadline: Deadline | None = None) -> MapResult | None:
    """Minimum-swap mapping of a logical circuit onto g.

    Returns None iff no correct mapping with at most `bound` swaps exists
    (bound=None means unbounded; a connected target always admits one).
    On success the swap count is the true minimum, also when a finite bound
    is given. With relaxed=True gates may be interleaved across independence,
    and the result verifies under relaxed equivalence.

    One search serves both orders. Each gate has a bitmask of the gates it
    must follow, and a search state is the bitmask of executed gates plus the
    current binding of logical to physical qubits. A gate follows the
    previous gate on each of its wires: one wire per qubit in relaxed order,
    one shared by every gate in strict order. Nothing else depends on it.

    The state is flat and indexed by vertex rank in g.vertices: pos (per
    logical qubit) and occ (per rank) are lists with -1 for none, the memo
    key is (done, *occ), and hop counts sit in one k*k tuple kept in
    g._derived. Each mask of executed gates gets, on its first visit, a tuple
    of its ready gates and one of its pending CX pairs, each unordered pair
    once. g.vertices is sorted, so rank order is label order: every loop
    tries its candidates in label order, and the nodes visited and the
    witness depend on the labels only through their order.

    At the empty placement (done == 0, nothing bound) a binding is skipped
    when an automorphism of g carries a binding already tried for the same
    gate onto it (iso.first_in_orbit, decided when the search reaches the
    binding and cached on g, so a call whose first binding succeeds does no
    orbit work). The automorphism carries each completion of the one onto a
    completion of the other with the same steps and swaps.

    dfs enters only states the heuristic (the longest hop count of a bound
    pending CX pair, less one) does not cut and the memo does not prune: a
    parent tests each child's cut, and enter, the one child step, its memo.
    A committed gate's child keeps positions and swaps left, with a subset
    of the pairs, so it is not cut. Binding and swap children skip at the
    first bound pending pair more than a limit apart: `remaining + 1` for a
    binding child, once bound, on the parent's pairs (the child's and at most
    the gate's own, now 1 apart); `remaining` for a swap child, on the pairs
    at least `remaining` apart listed before the swap loop, as a swap moves
    each qubit one step. A cut child gets no memo entry, so the states
    expanded, in order, the memo and the witness are those of tests on entry.

    The memo, written for each state before dfs enters it, prunes a state
    reached with no more swaps left than recorded (a committed gate's parent
    then fails), as after undoing a swap. The root needs no entry: no
    child of it has done == 0. Each entry of a failed dfs is a true failure:
    else take the one with the fewest-step completion within its swaps,
    running the committed gate first if there is one. Its first step was
    tried, or is a skipped first binding, the image of a tried one whose
    child then has a completion of the same length. The admissible heuristic
    cannot cut the tried step, so the child holds an entry with a shorter
    completion. So one memo serves every deepening limit, and dfs(0, B)
    fails only if no mapping has at most B swaps. At the first limit that
    succeeds no witness revisits a state, as cutting out the loop would save
    swaps, so the first witness is never pruned, whatever earlier limits
    stored. Bindings of one orbit succeed or fail together, so the first that
    succeeds is first in its orbit, and skipping changes no witness.

    A bounded call runs dfs(0, bound) alone, the one limit that decides most
    of them, and after a success returns the unbounded call. deadline is
    checked at every entered node.
    """
    check_mappable(c, g, bound)
    gates = c.gates
    m = len(gates)
    k = g.num_vertices
    if (hops := g._derived.get("hops")) is None:  # once per graph
        if not is_connected(g):  # one BFS, before the k*k hop counts
            raise ValueError("coupling graph must be connected")
        dist = tuple(d for r in range(k) for d in bfs(g, [r])[1])
        nbrs = tuple(bits(row) for row in g._rows)
        hops = g._derived["hops"] = (
            dist, nbrs, tuple((r, s) for r in range(k) for s in nbrs[r] if r < s))
    dist, nbrs, edges = hops

    # Gate i may run once every gate in preds_mask[i] has: the previous gate
    # on each of its wires. Relaxed order has a wire per qubit; strict order
    # has one wire, -1, that every gate shares.
    preds_mask = [0] * m
    last_on: dict[int, int] = {}
    for i, gate in enumerate(gates):
        for w in gate.qubits if relaxed else (-1,):
            if w in last_on:
                preds_mask[i] |= 1 << last_on[w]
            last_on[w] = i
    full_mask = (1 << m) - 1
    frontier: dict[int, tuple] = {}  # done -> (ready gates, distinct pending CX pairs)

    ops: list[tuple] = []
    memo: dict[tuple, int] = {}  # state -> most swaps left it was entered with
    # pos: the rank of each logical qubit, -1 while unbound, and one spare
    # last slot that takes the writes made through a free rank's -1.
    pos = [-1] * (c.n_qubits + 1)
    occ = [-1] * k  # logical qubit at each rank, -1 while free

    def bindings(i: int) -> list[tuple[tuple[int, int], ...]]:
        """New (logical, rank) bindings that let gate i run right now."""
        gate = gates[i]
        if gate.name != "cx":
            return [((gate.qubits[0], p),) for p in range(k) if occ[p] < 0]
        a, b = gate.qubits
        if pos[a] >= 0:
            return [((b, p),) for p in nbrs[pos[a]] if occ[p] < 0]
        if pos[b] >= 0:
            return [((a, p),) for p in nbrs[pos[b]] if occ[p] < 0]
        return [move for u, v in edges if occ[u] < 0 and occ[v] < 0
                for move in (((a, u), (b, v)), ((a, v), (b, u)))]

    def enter(done: int, remaining: int, op: tuple) -> bool:
        """Search the child state (done, occ) reached by op, unless the memo prunes it."""
        if memo.get(key := (done, *occ), -1) >= remaining:
            return False
        memo[key] = remaining
        ops.append(op)
        if dfs(done, remaining):
            return True
        ops.pop()
        return False

    def dfs(done: int, remaining: int) -> bool:
        if deadline is not None:
            deadline.check()
        if done == full_mask:
            return True
        if done not in frontier:
            left = [i for i in range(m) if not done >> i & 1]
            frontier[done] = (tuple(i for i in left if preds_mask[i] & done == preds_mask[i]),
                              tuple(dict.fromkeys(tuple(sorted(gates[i].qubits))
                                                  for i in left if gates[i].name == "cx")))
        ready, pairs = frontier[done]

        unbound = []
        for i in ready:
            phys = tuple(pos[q] for q in gates[i].qubits)
            if -1 in phys:
                unbound.append(i)
                continue
            # A ready gate that is fully bound and feasible can always be pulled
            # to the front of any completion without changing the swap count, so
            # commit to it and branch nowhere else.
            if len(phys) == 1 or dist[phys[0] * k + phys[1]] == 1:
                return enter(done | 1 << i, remaining, (i, phys))

        for i in unbound:
            for new in bindings(i):
                if not done and not first_in_orbit(g, tuple(p for _, p in new)):
                    continue  # an automorphism of g carries a tried binding onto it
                for q, p in new:
                    pos[q] = p
                    occ[p] = q
                for a, b in pairs:  # gate i's own pair is 1 apart
                    if pos[a] >= 0 and pos[b] >= 0 and dist[pos[a] * k + pos[b]] > remaining + 1:
                        break
                else:
                    if enter(done | 1 << i, remaining, (i, tuple(pos[q] for q in gates[i].qubits))):
                        return True
                for q, p in new:
                    pos[q] = occ[p] = -1

        if remaining > 0:
            # the only pairs a swap can carry past the child's cut
            tight = [(a, b) for a, b in pairs if pos[a] >= 0 and pos[b] >= 0
                     and dist[pos[a] * k + pos[b]] >= remaining]
            for edge in edges:
                u, v = edge
                x, y = occ[u], occ[v]
                if x == y:
                    continue  # both free: a no-op
                occ[u], occ[v] = y, x
                pos[y], pos[x] = u, v
                for a, b in tight:
                    if dist[pos[a] * k + pos[b]] > remaining:
                        break
                else:
                    if enter(done, remaining - 1, (None, edge)):
                        return True
                occ[u], occ[v] = x, y
                pos[x], pos[y] = u, v
        return False

    try:
        if bound is not None:
            return map_optimal(c, g, relaxed=relaxed, deadline=deadline) if dfs(0, bound) else None
        for limit in itertools.count():
            if dfs(0, limit):
                return _build_result(c, g, ops, limit)
    finally:
        del dfs  # dfs and enter hold each other, and the search state, through cells


def _build_result(c: Circuit, g: CouplingGraph, ops: list[tuple],
                  swaps: int) -> MapResult:
    gates = c.gates
    init_of_cur = {p: p for p in g.vertices}
    alloc: dict[int, int] = {}
    phys_gates: list[Gate] = []
    for i, ranks in ops:  # map_optimal's positions are vertex ranks
        phys = tuple(g.vertices[r] for r in ranks)
        if i is None:
            u, v = phys
            phys_gates.append(Gate("swap", phys))
            init_of_cur[u], init_of_cur[v] = init_of_cur[v], init_of_cur[u]
        else:
            # Binding is lazy: a qubit is bound when its first gate runs.
            for q, p in zip(gates[i].qubits, phys):
                alloc.setdefault(q, init_of_cur[p])
            phys_gates.append(Gate(gates[i].name, phys, gates[i].params))
    free = sorted(set(g.vertices) - set(alloc.values()))
    for q in range(c.n_qubits):
        if q not in alloc:
            alloc[q] = free.pop(0)
    mapped = Circuit(max(g.vertices) + 1, tuple(phys_gates), PHYSICAL)
    return MapResult(mapped, Allocation.from_dict(alloc), swaps, g)


def brute_force_optimal(c: Circuit, g: CouplingGraph,
                        max_swaps: int) -> int | None:
    """Exhaustive minimum-swap oracle, independent of map_optimal.

    Tries every initial allocation and every way of inserting up to max_swaps
    swap gates (any slot, any edge), keeping a candidate when every binary
    gate lands on an edge. Correctness of each candidate is by construction:
    gates are relabeled through the evolving allocation, so unmapping
    recovers the input. Returns the minimum swap count, or None.
    """
    if g.num_vertices > ORACLE_MAX_VERTICES or len(c.gates) > ORACLE_MAX_GATES \
            or max_swaps > ORACLE_MAX_SWAPS:
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
