import random
import re
from collections import deque

import pytest

from subarchmap import Allocation, Circuit, Gate, circuits_equal, unmap
from subarchmap.circuits import (LOGICAL, PHYSICAL, QasmError, UnmapError, emit_qasm,
                                 parse_layout_comments, parse_qasm)


class TestGate:
    def test_binary_needs_two_distinct(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))
        with pytest.raises(ValueError):
            Gate("swap", (1,))

    def test_unary_needs_one(self):
        with pytest.raises(ValueError):
            Gate("h", (0, 1))

    def test_relabel(self):
        assert Gate("cx", (0, 1)).relabel({0: 5, 1: 2}) == Gate("cx", (5, 2))

    def test_render(self):
        assert Gate("rz", (3,), "pi/2").render() == "rz(pi/2) q[3];"
        assert Gate("cx", (0, 1)).render() == "cx q[0], q[1];"


class TestCircuit:
    def test_logical_rejects_swap(self):
        with pytest.raises(ValueError, match="no swap"):
            Circuit(2, (Gate("swap", (0, 1)),))

    def test_logical_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(2, (Gate("cx", (0, 2)),))

    def test_physical_allows_swap_and_large_labels(self):
        c = Circuit(2, (Gate("swap", (7, 9)),), PHYSICAL)
        assert c.swap_count() == 1
        with pytest.raises(ValueError, match="negative physical label"):
            Circuit(2, (Gate("swap", (-1, 9)),), PHYSICAL)

    def test_rejects_a_bad_space_tag(self):
        with pytest.raises(ValueError, match="bad space tag"):
            Circuit(2, (), "quantum")


class TestAllocation:
    def test_injective(self):
        with pytest.raises(ValueError, match="not injective"):
            Allocation.from_dict({0: 3, 1: 3})

    def test_inverse(self):
        a = Allocation.from_dict({0: 4, 1: 2})
        assert a.inverse() == {4: 0, 2: 1}


class TestUnmap:
    def test_identity_layout(self):
        phys = Circuit(2, (Gate("cx", (0, 1)), Gate("h", (0,))), PHYSICAL)
        a = Allocation.from_dict({0: 0, 1: 1})
        assert unmap(phys, a).gates == (Gate("cx", (0, 1)), Gate("h", (0,)))

    def test_swap_reroutes_later_gates(self):
        phys = Circuit(2, (Gate("cx", (0, 1)), Gate("swap", (1, 2)),
                           Gate("cx", (0, 2))), PHYSICAL)
        a = Allocation.from_dict({0: 0, 1: 1})
        got = unmap(phys, a)
        assert got.gates == (Gate("cx", (0, 1)), Gate("cx", (0, 1)))
        assert got.swap_count() == 0

    def test_swap_with_unallocated_side(self):
        # moving a logical qubit onto a previously empty physical qubit
        phys = Circuit(1, (Gate("swap", (0, 9)), Gate("x", (9,))), PHYSICAL)
        a = Allocation.from_dict({0: 0})
        assert unmap(phys, a).gates == (Gate("x", (0,)),)

    def test_unallocated_touch_is_error(self):
        phys = Circuit(1, (Gate("x", (3,)),), PHYSICAL)
        with pytest.raises(UnmapError, match="unallocated"):
            unmap(phys, Allocation.from_dict({0: 0}))

    def test_logical_label_beyond_allocation_is_error(self):
        phys = Circuit(3, (Gate("cx", (0, 2)),), PHYSICAL)
        with pytest.raises(UnmapError, match="logical qubit 5"):
            unmap(phys, Allocation.from_dict({0: 0, 1: 1, 5: 2}))

    def test_requires_physical_space(self):
        with pytest.raises(ValueError):
            unmap(Circuit(1, (Gate("x", (0,)),)), Allocation.from_dict({0: 0}))


QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
rz(pi/4) q[1];
cx q[0], q[2];
barrier q[0];
// trailing comment
"""


class TestQasm:
    def test_parse_subset(self):
        c = parse_qasm(QASM)
        assert c.n_qubits == 3
        assert c.gates == (Gate("h", (0,)), Gate("rz", (1,), "pi/4"),
                           Gate("cx", (0, 2)))

    def test_rejects_measure(self):
        with pytest.raises(QasmError, match="unsupported"):
            parse_qasm("qreg q[2]; measure q[0] -> c[0];")

    def test_rejects_multi_register(self):
        with pytest.raises(QasmError, match="multi-register"):
            parse_qasm("qreg q[2]; qreg r[2];")

    def test_rejects_unknown_binary(self):
        with pytest.raises(QasmError, match="binary"):
            parse_qasm("qreg q[2]; cz q[0], q[1];")

    def test_rejects_arity_three(self):
        with pytest.raises(QasmError, match="arity"):
            parse_qasm("qreg q[3]; ccx q[0], q[1], q[2];")

    @pytest.mark.parametrize("space", [LOGICAL, PHYSICAL])
    @pytest.mark.parametrize("stmt", ["h q[2];", "cx q[0], q[2];", "cx q[5], q[1];"])
    def test_rejects_operand_beyond_the_register(self, space, stmt):
        with pytest.raises(QasmError, match=re.escape(f"beyond qreg q[2] in {stmt[:-1]!r}")):
            parse_qasm(f"qreg q[2]; {stmt}", space)

    @pytest.mark.parametrize("text, message", [
        ("qreg q[2]; cx q[0];", "cx needs two operands"),
        ("OPENQASM 2.0;", "no qreg declaration"),
    ])
    def test_rejects_a_missing_operand_or_register(self, text, message):
        with pytest.raises(QasmError, match=message):
            parse_qasm(text)

    def test_gate_before_qreg(self):
        with pytest.raises(QasmError, match="before qreg"):
            parse_qasm("h q[0]; qreg q[1];")

    @pytest.mark.parametrize("stmt, params", [
        ("rz((pi)/2) q[0];", "(pi)/2"),
        ("u3(0.1,(0.2),-(pi/4)) q[1];", "0.1,(0.2),-(pi/4)"),
        ("u3(0.1, 0.2,pi) q[1];", "0.1, 0.2,pi"),
        ("rz( pi/4 ) q[0];", "pi/4"),
        ("rz() q[0];", ""),
    ])
    def test_params_are_text_up_to_the_closing_parenthesis(self, stmt, params):
        c = parse_qasm(f"qreg q[2]; {stmt}")
        assert c.gates[0].params == params
        assert parse_qasm(emit_qasm(c)) == c

    @pytest.mark.parametrize("stmt", ["rz(pi/2)) q[0];", "rz(a)(b) q[0];", "rz(pi/2 q[0];",
                                      "rz)pi( q[0];"])
    def test_rejects_unbalanced_parentheses(self, stmt):
        with pytest.raises(QasmError):
            parse_qasm(f"qreg q[1]; {stmt}")

    def test_emit_parse_roundtrip(self):
        c = parse_qasm(QASM)
        assert parse_qasm(emit_qasm(c)) == c

    def test_layout_comments_roundtrip(self):
        c = Circuit(2, (Gate("cx", (4, 5)),), PHYSICAL)
        a = Allocation.from_dict({0: 4, 1: 5})
        text = emit_qasm(c, layout=a)
        assert parse_layout_comments(text) == a
        assert parse_layout_comments("qreg q[2];") is None


class TestEquivalence:
    def test_strict_is_order_sensitive(self):
        a = Circuit(3, (Gate("x", (0,)), Gate("x", (1,))))
        b = Circuit(3, (Gate("x", (1,)), Gate("x", (0,))))
        assert not circuits_equal(a, b, "strict")
        assert circuits_equal(a, b, "relaxed")

    def test_relaxed_respects_dependencies(self):
        a = Circuit(2, (Gate("x", (0,)), Gate("cx", (0, 1))))
        b = Circuit(2, (Gate("cx", (0, 1)), Gate("x", (0,))))
        assert not circuits_equal(a, b, "relaxed")

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_unequal_registers_differ(self, mode):
        gates = (Gate("x", (0,)),)
        assert not circuits_equal(Circuit(1, gates), Circuit(2, gates), mode)

    def test_unknown_mode(self):
        c = Circuit(1, ())
        for other in (c, Circuit(2, ())):  # also when the registers differ
            with pytest.raises(ValueError, match="unknown mode"):
                circuits_equal(c, other, "fuzzy")

    @pytest.mark.parametrize("kind", ["shuffle", "adjacent", "unrelated"])
    def test_relaxed_is_reachability_by_independent_swaps(self, kind):
        rng = random.Random(kind)
        verdicts = set()
        for _ in range(400):
            n = rng.randint(1, 4)
            a = [_random_gate(rng, n) for _ in range(rng.randint(0, 6))]
            if a and rng.random() < 0.3:  # a repeated identical gate
                a[rng.randrange(len(a))] = rng.choice(a)
            b = list(a)
            if kind == "shuffle":
                rng.shuffle(b)
            elif kind == "adjacent" and len(b) >= 2:
                i = rng.randrange(len(b) - 1)
                b[i], b[i + 1] = b[i + 1], b[i]
            elif kind == "unrelated":
                b = [_random_gate(rng, n) for _ in a]
            ca, cb = Circuit(n, tuple(a)), Circuit(n, tuple(b))
            verdict = circuits_equal(ca, cb, "relaxed")
            assert verdict == (tuple(b) in _reachable(tuple(a))), (a, b)
            verdicts.add(verdict)
            for other in (cb, Circuit(n + 1, cb.gates)):  # strict: one wire for all gates
                assert circuits_equal(ca, other, "strict") == \
                    (ca.n_qubits == other.n_qubits and ca.gates == other.gates), (a, b)
        assert verdicts == {True, False}


def _random_gate(rng, n):
    if n >= 2 and rng.random() < 0.4:
        return Gate("cx", tuple(rng.sample(range(n), 2)))
    name, params = rng.choice([("h", ""), ("x", ""), ("rz", "pi/2"), ("rz", "0.5")])
    return Gate(name, (rng.randrange(n),), params)


def _reachable(gates):
    """Every gate order reached by swapping adjacent gates that share no qubit (BFS)."""
    seen, queue = {gates}, deque([gates])
    while queue:
        order = queue.popleft()
        for i in range(len(order) - 1):
            if not set(order[i].qubits) & set(order[i + 1].qubits):
                swapped = order[:i] + (order[i + 1], order[i]) + order[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return seen
