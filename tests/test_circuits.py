import random

import pytest
from hypothesis import given, settings, strategies as st

from subarchmap import Allocation, Circuit, Gate, circuits_equal, unmap
from subarchmap.circuits import (PHYSICAL, QasmError, UnmapError, emit_qasm,
                                 normal_form, parse_layout_comments, parse_qasm)


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

    def test_gate_before_qreg(self):
        with pytest.raises(QasmError, match="before qreg"):
            parse_qasm("h q[0]; qreg q[1];")

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

    def test_unknown_mode(self):
        c = Circuit(1, ())
        with pytest.raises(ValueError):
            circuits_equal(c, c, "fuzzy")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_normal_form_is_a_permutation(self, seed):
        rng = random.Random(seed)
        gates = []
        for _ in range(rng.randrange(0, 10)):
            if rng.random() < 0.5:
                gates.append(Gate("cx", tuple(rng.sample(range(4), 2))))
            else:
                gates.append(Gate("h", (rng.randrange(4),)))
        c = Circuit(4, tuple(gates))
        assert sorted(normal_form(c), key=repr) == sorted(gates, key=repr)
        assert circuits_equal(c, Circuit(4, normal_form(c)), "relaxed")
