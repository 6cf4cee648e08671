import itertools
import random
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from subarchmap import (Allocation, Circuit, CouplingGraph, Gate,
                        check_equivalence, check_feasibility, induced_subgraph,
                        is_connected, map_optimal)
from subarchmap.circuits import PHYSICAL
from subarchmap.mapper import MapResult
from subarchmap.verify import RELAXED, STRICT, verify_result

from conftest import path, random_circuit, random_connected_graph, relabel_graph


class TestFeasibility:
    def test_clean_circuit(self):
        c = Circuit(2, (Gate("cx", (0, 1)), Gate("h", (0,))), PHYSICAL)
        assert check_feasibility(c, path(3), Allocation.from_dict({0: 0, 1: 1})) == []

    def test_off_edge_cx(self):
        c = Circuit(2, (Gate("cx", (0, 2)),), PHYSICAL)
        (idx, reason), = check_feasibility(c, path(3), Allocation.from_dict({0: 0, 1: 2}))
        assert idx == 0 and "disconnected" in reason

    def test_off_edge_swap(self):
        c = Circuit(2, (Gate("swap", (0, 2)),), PHYSICAL)
        assert len(check_feasibility(c, path(3), Allocation.from_dict({0: 0, 1: 2}))) == 1

    def test_non_platform_qubit(self):
        c = Circuit(1, (Gate("h", (9,)),), PHYSICAL)
        (idx, reason), = check_feasibility(c, path(3), Allocation.from_dict({0: 0}))
        assert "non-platform" in reason

    def test_unary_off_edge_is_fine(self):
        c = Circuit(1, (Gate("h", (2,)),), PHYSICAL)
        assert check_feasibility(c, path(3), Allocation.from_dict({0: 2})) == []

    def test_layout_entry_off_the_platform(self):
        # Logical qubit 2 is idle, so no gate shows where it was placed.
        c = Circuit(2, (Gate("cx", (0, 1)),), PHYSICAL)
        layout = Allocation.from_dict({0: 0, 1: 1, 2: 99})
        (idx, reason), = check_feasibility(c, path(3), layout)
        assert idx == -1 and "logical qubit 2" in reason and "99" in reason
        orig = Circuit(3, (Gate("cx", (0, 1)),))
        v = verify_result(orig, MapResult(c, layout, 0, path(3)), path(3))
        assert v.equivalent and not v.feasible


class TestEquivalence:
    def test_swap_equivalent_routes(self):
        orig = Circuit(2, (Gate("cx", (0, 1)), Gate("cx", (1, 0))))
        phys = Circuit(2, (Gate("cx", (0, 1)), Gate("swap", (0, 1)),
                           Gate("cx", (0, 1))), PHYSICAL)
        a = Allocation.from_dict({0: 0, 1: 1})
        assert check_equivalence(orig, phys, a) == []

    def test_wrong_gate_detected(self):
        orig = Circuit(2, (Gate("cx", (0, 1)),))
        phys = Circuit(2, (Gate("cx", (1, 0)),), PHYSICAL)
        a = Allocation.from_dict({0: 0, 1: 1})
        assert check_equivalence(orig, phys, a) != []

    def test_unallocated_touch_reported(self):
        orig = Circuit(1, (Gate("h", (0,)),))
        phys = Circuit(1, (Gate("h", (5,)),), PHYSICAL)
        a = Allocation.from_dict({0: 0})
        (idx, reason), = check_equivalence(orig, phys, a)
        assert idx == -1 and "unallocated" in reason

    def test_logical_label_beyond_allocation_reported(self):
        orig = Circuit(2, (Gate("cx", (0, 1)),))
        phys = Circuit(3, (Gate("cx", (0, 2)),), PHYSICAL)
        a = Allocation.from_dict({0: 0, 1: 1, 5: 2})
        (idx, reason), = check_equivalence(orig, phys, a)
        assert idx == -1 and "logical qubit 5" in reason

    def test_layout_must_place_exactly_the_inputs_qubits(self):
        orig = Circuit(3, (Gate("cx", (0, 1)),))
        phys = Circuit(3, (Gate("cx", (0, 1)),), PHYSICAL)
        assert check_equivalence(orig, phys, Allocation.from_dict({0: 0, 1: 1, 2: 2})) == []
        (_, missing), (_, foreign) = check_equivalence(
            orig, phys, Allocation.from_dict({0: 0, 1: 1, 5: 2}))
        assert "lacks logical qubit 2" in missing and "logical qubit 5" in foreign
        (idx, reason), = check_equivalence(orig, phys, Allocation.from_dict({0: 0, 1: 1}))
        assert idx == -1 and "lacks logical qubit 2" in reason
        (idx, reason), = check_equivalence(
            orig, phys, Allocation.from_dict({0: 0, 1: 1, 2: 2, 3: 3}))
        assert idx == -1 and "logical qubit 3" in reason
        r = MapResult(phys, Allocation.from_dict({0: 0, 1: 1, 5: 2}), 0, path(3))
        assert not verify_result(orig, r, path(3)).equivalent

    def test_relaxed_vs_strict(self):
        orig = Circuit(3, (Gate("x", (0,)), Gate("x", (2,))))
        phys = Circuit(3, (Gate("x", (2,)), Gate("x", (0,))), PHYSICAL)
        a = Allocation.from_dict({0: 0, 1: 1, 2: 2})
        assert check_equivalence(orig, phys, a, STRICT) != []
        assert check_equivalence(orig, phys, a, RELAXED) == []


def test_verdict_roundtrip():
    g = path(3)
    orig = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 2))))
    v = verify_result(orig, map_optimal(orig, g), g)
    assert v.ok and v.swap_count == 1
    d = v.to_dict()
    assert d["feasible"] and d["equivalent"] and d["violations"] == []


class TestLifting:
    """A member keeps the platform's labels, so its result is verified against
    the platform directly; nothing is lifted or relabeled."""

    def test_identity_lift_from_induced_subgraph(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_connected_graph(rng, 7)
            sub_vertices = sorted(rng.sample(g.vertices, 5))
            sub = induced_subgraph(g, sub_vertices)
            if not is_connected(sub):
                continue
            c = random_circuit(rng, 3, 5)
            r = map_optimal(c, sub)
            assert set(r.subarch.vertices) <= set(g.vertices)
            assert r.subarch.edges <= g.edges
            assert verify_result(c, r, g).ok

    def test_foreign_labels_are_not_relabeled(self):
        # a path isomorphic to part of path(5), but under labels g does not have
        sub = CouplingGraph([100, 101, 102], [(100, 101), (101, 102)])
        c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
        v = verify_result(c, map_optimal(c, sub), path(5))
        assert v.feasible is False
        assert any("non-platform qubit" in reason for _, reason in v.violations)

    def test_no_embedding(self):
        tri = CouplingGraph(range(3), [(0, 1), (1, 2), (0, 2)])
        c = Circuit(3, (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("cx", (0, 2))))
        r = map_optimal(c, tri)
        assert not r.subarch.edges <= path(4).edges
        # with no swaps the circuit uses all three triangle edges
        assert r.swaps == 0 and not verify_result(c, r, path(4)).feasible


def mutation_sample(seed: int, relaxed: bool):
    """A seeded circuit with one idle qubit, mapped optimally onto a random
    connected platform whose labels have gaps."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randrange(4, 7), extra_edges=rng.randrange(2))
    g = relabel_graph(g, dict(zip(g.vertices, sorted(rng.sample(range(20), g.num_vertices)))))
    active = rng.randrange(3, g.num_vertices)  # logical qubit `active` is idle
    gates = []
    for _ in range(rng.randrange(4, 9)):
        if rng.random() < 0.7:
            gates.append(Gate("cx", tuple(rng.sample(range(active), 2))))
        else:
            name = rng.choice(["h", "x", "rz"])
            gates.append(Gate(name, (rng.randrange(active),), "pi/4" if name == "rz" else ""))
    c = Circuit(active + 1, tuple(gates))
    return c, g, map_optimal(c, g, relaxed=relaxed)


def gate_mutations(mapped: Circuit, initial: Allocation):
    """Every single mutation of a non-swap gate that changes the unmapped circuit:
    drop or duplicate it, move it onto other allocated qubits, or exchange it
    with the next gate when that one differs and shares a qubit with it."""
    gates, inv = list(mapped.gates), initial.inverse()
    for j, gate in enumerate(gates):
        if gate.name == "swap":
            u, v = gate.qubits
            inv[u], inv[v] = inv.get(v), inv.get(u)
            continue
        yield gates[:j] + gates[j + 1:]
        yield gates[:j + 1] + gates[j:]
        held = [p for p, q in inv.items() if q is not None]
        for qubits in itertools.permutations(held, len(gate.qubits)):
            if qubits != gate.qubits:
                yield gates[:j] + [Gate(gate.name, qubits, gate.params)] + gates[j + 1:]
        nxt = gates[j + 1:j + 2]
        if nxt and nxt[0].name != "swap" and nxt[0] != gate \
                and set(nxt[0].qubits) & set(gate.qubits):
            yield gates[:j] + nxt + [gate] + gates[j + 2:]


def layout_mutations(c: Circuit, initial: Allocation, g: CouplingGraph):
    """Every change or drop of the entry of a qubit some gate acts on, every
    added entry for a qubit the circuit lacks, and the idle qubit moved off the
    platform."""
    layout = dict(initial.forward)
    free = sorted(set(g.vertices) - set(layout.values()))
    off = sorted(set(range(max(g.vertices) + 2)) - set(g.vertices))
    for q in sorted({q for gate in c.gates for q in gate.qubits}):
        yield {p: t for p, t in layout.items() if p != q}
        for target in free + off:
            yield {**layout, q: target}
    for target in free + off:
        yield {**layout, c.n_qubits: target}
    idle = c.n_qubits - 1
    for target in off:
        yield {**layout, idle: target}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), relaxed=st.booleans())
def test_verifier_rejects_every_single_mutation(seed, relaxed):
    c, g, r = mutation_sample(seed, relaxed)
    mode = RELAXED if relaxed else STRICT
    assert verify_result(c, r, g, mode).ok
    for gates in gate_mutations(r.mapped, r.initial):
        mutated = Circuit(r.mapped.n_qubits, tuple(gates), PHYSICAL)
        assert not verify_result(c, MapResult(mutated, r.initial, r.swaps, g), g, mode).ok, \
            (seed, gates)
    for layout in layout_mutations(c, r.initial, g):
        mutated = MapResult(r.mapped, Allocation.from_dict(layout), r.swaps, g)
        assert not verify_result(c, mutated, g, mode).ok, (seed, layout)


def test_readme_library_imports_resolve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    imports = re.findall(r"^from subarchmap import \([^)]*\)", readme, re.MULTILINE)
    assert imports and any("verify_result" in line for line in imports)
    for line in imports:
        exec(line, {})
