import random

import pytest
from click.testing import CliRunner

from subarchmap import (Circuit, CouplingGraph, Gate, StrategyConfig, emit_qasm,
                        load_platform, map_with_subarch, maximal, optimality_certificate)
from subarchmap.cli import main
from subarchmap.maximal import BudgetExceeded
from subarchmap.verify import verify_result

from conftest import (CountdownDeadline, cycle, make_ring_circuit, path, random_circuit,
                      random_connected_graph)


def test_ring_on_five_cycle_without_ancillas():
    report = map_with_subarch(cycle(5), make_ring_circuit(4),
                              StrategyConfig(max_ancillas=0))
    assert report.success
    assert report.swaps == 2 and report.ancillas == 0


def test_ring_on_five_cycle_with_one_ancilla():
    report = map_with_subarch(cycle(5), make_ring_circuit(4),
                              StrategyConfig(max_ancillas=1))
    assert report.swaps == 1 and report.ancillas == 1


def test_bound_chain_strictly_decreases():
    report = map_with_subarch(cycle(5), make_ring_circuit(4),
                              StrategyConfig(max_ancillas=1))
    succ = [o.swaps for o in report.outcomes if o.status == "success"]
    assert succ == sorted(succ, reverse=True)
    assert len(set(succ)) == len(succ)


def test_zero_swap_early_stop():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    report = map_with_subarch(path(5), c, StrategyConfig(max_ancillas=3))
    assert report.swaps == 0
    # stopped at the first zero-swap success instead of growing k further
    assert report.outcomes[-1].swaps == 0


def test_until_full_budget():
    report = map_with_subarch(cycle(5), make_ring_circuit(4),
                              StrategyConfig(max_ancillas=None))
    assert report.swaps == 1


def test_initial_bound_can_forbid_everything():
    report = map_with_subarch(path(4), make_ring_circuit(4),
                              StrategyConfig(max_ancillas=0, initial_bound=0))
    assert not report.success
    assert all(o.status == "bound-fail" for o in report.outcomes)
    cert = optimality_certificate(report, path(4))
    assert cert["optimal"] is False


def test_negative_initial_bound_is_refused():
    c = Circuit(1, (Gate("h", (0,)), Gate("h", (0,))))
    with pytest.raises(ValueError, match="bound must be non-negative"):
        map_with_subarch(load_platform("guadalupe"), c, StrategyConfig(initial_bound=-1))


def test_results_verify_against_platform():
    rng = random.Random(12)
    for _ in range(10):
        g = random_connected_graph(rng, 6)
        c = random_circuit(rng, 3, 6)
        report = map_with_subarch(g, c, StrategyConfig(max_ancillas=2))
        assert report.success
        assert verify_result(c, report.result, g).ok


def test_certificate_shape(mapped_members):
    report = map_with_subarch(cycle(5), make_ring_circuit(4),
                              StrategyConfig(max_ancillas=1))
    cert = optimality_certificate(report, cycle(5), StrategyConfig(max_ancillas=1))
    assert cert["optimal"] is True
    assert cert["swaps"] == 1
    # one chain entry per member outcome, inferred ones included; the real
    # calls are counted apart, and only they reach map_optimal
    assert len(cert["bound_chain"]) == len(report.outcomes)
    assert report.map_calls == len(mapped_members)


@pytest.mark.parametrize("budget", [0, 1, None])
def test_certificate_states_the_budget_searched(budget):
    # with no ancilla the 4-ring needs 2 swaps on the 5-cycle, with one only 1
    report = map_with_subarch(cycle(5), make_ring_circuit(4),
                              StrategyConfig(max_ancillas=budget))
    assert report.swaps == (2 if budget == 0 else 1)
    shown = "unbounded" if budget is None else budget
    for cfg in (None, StrategyConfig(max_ancillas=budget)):
        cert = optimality_certificate(report, cycle(5), cfg)
        assert cert["ancilla_budget"] == shown
        assert f"using at most {shown} ancilla qubits" in cert["statement"]
    for other in {0, 1, 2, None} - {budget}:
        with pytest.raises(ValueError, match="max_ancillas"):
            optimality_certificate(report, cycle(5), StrategyConfig(max_ancillas=other))


def test_deadline_reaches_inside_each_map_call():
    g, c, cfg = cycle(6), make_ring_circuit(5), StrategyConfig(max_ancillas=1)
    calls = map_with_subarch(g, c, cfg).map_calls  # also fills the store
    # With the store warm, only the mapper checks the deadline, and one check
    # per map_optimal call would never exhaust this countdown.
    with pytest.raises(BudgetExceeded):
        map_with_subarch(g, c, cfg, deadline=CountdownDeadline(calls))


def test_negative_ancilla_budget_is_rejected():
    with pytest.raises(ValueError, match="max_ancillas"):
        map_with_subarch(cycle(5), make_ring_circuit(4), StrategyConfig(max_ancillas=-1))


def test_circuit_larger_than_platform():
    with pytest.raises(ValueError, match="circuit needs 4 qubits"):
        map_with_subarch(path(3), make_ring_circuit(4))


def test_disconnected_platform_is_rejected():
    split = CouplingGraph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        map_with_subarch(split, make_ring_circuit(2))


def test_equal_platform_reuses_every_subarchitecture_set(computations):
    c = make_ring_circuit(4)
    first = map_with_subarch(load_platform("guadalupe"), c)
    assert computations == [4, 6, 5]  # the k=6 members are probed before level 5
    computations.clear()
    again = map_with_subarch(load_platform("guadalupe"), c)
    assert computations == []
    assert again.outcomes == first.outcomes
    assert again.result.swaps == first.result.swaps


def test_cli_map_is_the_same_with_a_cold_and_a_warm_store(tmp_path, computations):
    rng = random.Random(7)
    runner = CliRunner()
    for i in range(10):
        path = tmp_path / f"c{i}.qasm"
        path.write_text(emit_qasm(random_circuit(rng, rng.randrange(2, 6), 7)))
        runs = []
        for warm in (False, True):
            if not warm:
                maximal._store.clear()
            computations.clear()
            out, report = tmp_path / f"c{i}-{warm}.qasm", tmp_path / f"c{i}-{warm}.json"
            res = runner.invoke(main, ["map", "--platform", "guadalupe",
                                       "--circuit", str(path), "--ancillas", "2",
                                       "--out", str(out), "--report", str(report)])
            assert bool(computations) != warm  # the warm run computed nothing
            runs.append((res.exit_code, res.stdout, out.read_text(), report.read_text()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
