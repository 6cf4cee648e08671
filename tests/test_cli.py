import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from subarchmap import (Circuit, CouplingGraph, Gate, StrategyConfig, connected_subgraphs,
                        load_platform, map_optimal, map_with_subarch, maximal,
                        subarchitectures)
from subarchmap.cli import main
from subarchmap.graphs import MAX_QUBITS
from subarchmap.mapper import check_mappable

RING_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
cx q[0], q[1];
cx q[1], q[2];
cx q[2], q[3];
cx q[3], q[0];
"""

C5 = json.dumps({"name": "c5", "qubits": 5,
                 "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]})


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def c5_path(tmp_path):
    p = tmp_path / "c5.json"
    p.write_text(C5)
    return str(p)


@pytest.fixture
def ring_path(tmp_path):
    p = tmp_path / "ring.qasm"
    p.write_text(RING_QASM)
    return str(p)


class TestSubarch:
    def test_row_output(self, runner):
        res = runner.invoke(main, ["subarch", "--platform", "guadalupe",
                                   "--size", "4", "--json"])
        assert res.exit_code == 0
        row = json.loads(res.output)
        assert (row["all_subsets"], row["connected"], row["noniso"], row["max"]) \
            == (1820, 24, 2, 2)

    def test_connected_stage_only(self, runner, c5_path):
        res = runner.invoke(main, ["subarch", "--platform", c5_path,
                                   "--size", "3", "--stage", "connected"])
        assert res.exit_code == 0
        assert "connected: 5" in res.output

    # --cache no longer exists, so click refuses it as an unknown option
    @pytest.mark.parametrize("option", ["--emit", "--cache"])
    def test_connected_stage_refuses_emit_and_cache(self, runner, c5_path, tmp_path,
                                                    option):
        res = runner.invoke(main, ["subarch", "--platform", c5_path, "--size", "3",
                                   "--stage", "connected", option, str(tmp_path / "d")])
        assert res.exit_code == 2
        assert option in res.output
        assert not (tmp_path / "d").exists()

    def test_connected_stage_lists_each_subset(self, runner):
        res = runner.invoke(main, ["subarch", "--platform", "guadalupe", "--size", "2",
                                   "--stage", "connected", "--list"])
        assert res.exit_code == 0, res.output
        *subsets, count = res.output.splitlines()
        assert count == "connected: 16"
        assert {tuple(map(int, line.split())) for line in subsets} \
            == load_platform("guadalupe").edges and len(subsets) == 16

    def test_list_members(self, runner, c5_path):
        res = runner.invoke(main, ["subarch", "--platform", c5_path,
                                   "--size", "4", "--list"])
        assert res.exit_code == 0
        # one maximal member: some 4-path of the cycle
        assert len(res.output.strip().splitlines()[-1].split()) == 4

    def test_emit_members(self, runner, c5_path, tmp_path):
        out = tmp_path / "members"
        res = runner.invoke(main, ["subarch", "--platform", c5_path,
                                   "--size", "4", "--emit", str(out)])
        assert res.exit_code == 0
        files = list(out.glob("*.json"))
        assert [f.name for f in files] == ["c5-k4-0.json"]
        doc = json.loads(files[0].read_text())
        assert doc["qubits"] == 4

    def test_budget_expiry(self, runner):
        res = runner.invoke(main, ["subarch", "--platform", "tokyo",
                                   "--size", "10", "--budget", "0.01"])
        assert res.exit_code == 3
        assert "TO" in res.output

    def test_bad_size(self, runner, c5_path):
        res = runner.invoke(main, ["subarch", "--platform", c5_path,
                                   "--size", "9"])
        assert res.exit_code == 2

    def test_unknown_platform(self, runner):
        res = runner.invoke(main, ["subarch", "--platform", "nowhere",
                                   "--size", "3"])
        assert res.exit_code == 2


class TestMapVerify:
    def test_map_writes_qasm_and_summary(self, runner, c5_path, ring_path,
                                         tmp_path):
        out = tmp_path / "mapped.qasm"
        res = runner.invoke(main, ["map", "--platform", c5_path,
                                   "--circuit", ring_path, "--ancillas", "1",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output)
        assert summary["success"] and summary["swaps"] == 1
        assert summary["gate_equivalent"] == 3
        text = out.read_text()
        assert "// q[0] -> Q[" in text and "swap" in text

    def test_map_without_out_prints_qasm_and_summary_apart(self, runner, c5_path, ring_path):
        res = runner.invoke(main, ["map", "--platform", c5_path,
                                   "--circuit", ring_path, "--ancillas", "1"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stderr)["swaps"] == 1
        assert res.stdout.startswith("// q[0] -> Q[") and "swap" in res.stdout

    def test_map_report_document(self, runner, c5_path, ring_path, tmp_path):
        out = tmp_path / "mapped.qasm"
        rep = tmp_path / "report.json"
        res = runner.invoke(main, ["map", "--platform", c5_path,
                                   "--circuit", ring_path, "--ancillas", "1",
                                   "--out", str(out), "--report", str(rep)])
        assert res.exit_code == 0
        doc = json.loads(rep.read_text())
        assert doc["certificate"]["optimal"] is True
        assert doc["map_calls"] >= 1

    def test_map_full_architecture(self, runner, c5_path, ring_path, tmp_path):
        out = tmp_path / "mapped.qasm"
        res = runner.invoke(main, ["map", "--platform", c5_path,
                                   "--circuit", ring_path, "--full-architecture",
                                   "--out", str(out)])
        assert res.exit_code == 0
        assert json.loads(res.output)["swaps"] == 1

    def test_star_maps_without_swaps(self, runner, tmp_path):
        circuit = _qasm_file(tmp_path, "cx q[0],q[1];\ncx q[0],q[2];\ncx q[0],q[3];", n=4)
        out, rep = tmp_path / "mapped.qasm", tmp_path / "report.json"
        res = runner.invoke(main, ["map", "--platform", "guadalupe", "--circuit", circuit,
                                   "--out", str(out), "--report", str(rep)])
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output)
        assert (summary["swaps"], summary["subarch_vertices"]) == (0, [0, 1, 2, 4])
        assert json.loads(rep.read_text())["certificate"]["statement"].startswith("0 swaps")

    @pytest.mark.parametrize("ancillas", ["5", "2", "until-full"])
    def test_full_architecture_refuses_ancillas(self, runner, c5_path, ring_path,
                                                tmp_path, ancillas):
        out = tmp_path / "mapped.qasm"
        res = runner.invoke(main, ["map", "--platform", c5_path, "--circuit", ring_path,
                                   "--full-architecture", "--ancillas", ancillas,
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert "--ancillas" in res.output
        assert not out.exists()

    def test_map_ancillas_default_to_two(self, runner, ring_path, tmp_path):
        runs = []
        for given in ([], ["--ancillas", "2"]):
            out, rep = tmp_path / f"m{len(given)}.qasm", tmp_path / f"r{len(given)}.json"
            res = runner.invoke(main, ["map", "--platform", "guadalupe", "--circuit",
                                       ring_path, "--out", str(out), "--report", str(rep),
                                       *given])
            assert res.exit_code == 0, res.output
            runs.append((res.output, out.read_bytes(), rep.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][2])["certificate"]["ancilla_budget"] == 2

    def test_map_ancillas_until_full(self, runner, tmp_path):
        circuit = _qasm_file(tmp_path, "cx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];", n=3)
        rep = tmp_path / "report.json"
        res = runner.invoke(main, ["map", "--platform", "guadalupe", "--circuit", circuit,
                                   "--ancillas", "until-full", "--report", str(rep),
                                   "--out", str(tmp_path / "mapped.qasm")])
        assert res.exit_code == 0, res.output
        doc = json.loads(rep.read_text())
        assert doc["certificate"]["ancilla_budget"] == "unbounded"
        assert (len(doc["outcomes"]), doc["map_calls"]) == (91, 2)

    @pytest.mark.parametrize("full", [[], ["--full-architecture"]])
    def test_map_budget_expiry(self, runner, c5_path, ring_path, tmp_path, full):
        out, rep = tmp_path / "mapped.qasm", tmp_path / "report.json"
        res = runner.invoke(main, ["map", "--platform", c5_path, "--circuit", ring_path,
                                   "--budget", "1e-9", "--out", str(out),
                                   "--report", str(rep), *full])
        assert res.exit_code == 3
        assert res.output == "TO\n"
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("full", [[], ["--full-architecture"]])
    def test_map_generous_budget_changes_nothing(self, runner, ring_path, tmp_path, full):
        runs = {}
        for budget in ([], ["--budget", "1000"]):
            out, rep = tmp_path / f"m{len(budget)}.qasm", tmp_path / f"r{len(budget)}.json"
            res = runner.invoke(main, ["map", "--platform", "guadalupe", "--circuit",
                                       ring_path, "--out", str(out), "--report", str(rep),
                                       *full, *budget])
            assert res.exit_code == 0, res.output
            runs[len(budget)] = (res.output, out.read_bytes(), rep.read_bytes())
        assert runs[0] == runs[2]

    def test_map_infeasible_bound(self, runner, c5_path, ring_path):
        res = runner.invoke(main, ["map", "--platform", c5_path,
                                   "--circuit", ring_path, "--ancillas", "0",
                                   "--bound", "0"])
        assert res.exit_code == 1
        assert json.loads(res.output)["success"] is False

    def test_map_bad_ancillas(self, runner, c5_path, ring_path):
        res = runner.invoke(main, ["map", "--platform", c5_path,
                                   "--circuit", ring_path, "--ancillas", "few"])
        assert res.exit_code == 2

    def test_verify_roundtrip(self, runner, c5_path, ring_path, tmp_path):
        out = tmp_path / "mapped.qasm"
        runner.invoke(main, ["map", "--platform", c5_path, "--circuit",
                             ring_path, "--ancillas", "1", "--out", str(out)])
        res = runner.invoke(main, ["verify", "--platform", c5_path,
                                   "--circuit", ring_path, "--mapped", str(out)])
        assert res.exit_code == 0, res.output
        verdict = json.loads(res.output)
        assert verdict["feasible"] and verdict["equivalent"]

    def test_verify_detects_tampering(self, runner, c5_path, ring_path,
                                      tmp_path):
        out = tmp_path / "mapped.qasm"
        runner.invoke(main, ["map", "--platform", c5_path, "--circuit",
                             ring_path, "--ancillas", "1", "--out", str(out)])
        text = out.read_text().replace("swap", "cx", 1)
        out.write_text(text)
        res = runner.invoke(main, ["verify", "--platform", c5_path,
                                   "--circuit", ring_path, "--mapped", str(out)])
        assert res.exit_code == 1

    def test_verify_layout_file(self, runner, c5_path, tmp_path):
        circ = tmp_path / "one.qasm"
        circ.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n")
        mapped = tmp_path / "mapped.qasm"
        mapped.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[1], q[0];\n")
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({"0": 1, "1": 0}))
        res = runner.invoke(main, ["verify", "--platform", c5_path,
                                   "--circuit", str(circ), "--mapped",
                                   str(mapped), "--layout", str(layout)])
        assert res.exit_code == 0, res.output

    def test_verify_missing_layout(self, runner, c5_path, tmp_path):
        circ = tmp_path / "one.qasm"
        circ.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n")
        res = runner.invoke(main, ["verify", "--platform", c5_path,
                                   "--circuit", str(circ), "--mapped", str(circ)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("comments, layout", [
        ("", '{"0": 0, "1": 1, "5": 2}'),
        ("// q[0] -> Q[0]\n// q[5] -> Q[2]\n", None),
    ])
    def test_verify_logical_label_beyond_allocation(self, runner, c5_path, tmp_path,
                                                     comments, layout):
        circ = tmp_path / "two.qasm"
        circ.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n")
        mapped = tmp_path / "mapped.qasm"
        mapped.write_text(comments + "OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[2];\n")
        args = ["verify", "--platform", c5_path, "--circuit", str(circ),
                "--mapped", str(mapped)]
        if layout is not None:
            (tmp_path / "layout.json").write_text(layout)
            args += ["--layout", str(tmp_path / "layout.json")]
        res = runner.invoke(main, args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        verdict = json.loads(res.output)
        assert verdict["equivalent"] is False
        assert any("logical qubit 5" in v["reason"] for v in verdict["violations"])

    @pytest.mark.parametrize("comments, layout", [
        ("", '{"0": 0, "1": 1, "5": 2}'),
        ("// q[0] -> Q[0]\n// q[1] -> Q[1]\n// q[5] -> Q[2]\n", None),
    ])
    def test_verify_layout_for_other_qubits(self, runner, c5_path, tmp_path,
                                            comments, layout):
        # No gate touches logical qubit 2 or 5, so unmapping alone finds nothing.
        text = "OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[1];\n"
        circ, mapped = tmp_path / "three.qasm", tmp_path / "mapped.qasm"
        circ.write_text(text)
        mapped.write_text(comments + text)
        args = ["verify", "--platform", c5_path, "--circuit", str(circ),
                "--mapped", str(mapped)]
        if layout is not None:
            (tmp_path / "layout.json").write_text(layout)
            args += ["--layout", str(tmp_path / "layout.json")]
        res = runner.invoke(main, args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        verdict = json.loads(res.output)
        assert verdict["feasible"] is True and verdict["equivalent"] is False
        reasons = [v["reason"] for v in verdict["violations"]]
        assert len(reasons) == 2
        assert "logical qubit 2" in reasons[0] and "logical qubit 5" in reasons[1]

    @pytest.mark.parametrize("comments, layout", [
        ("// q[0] -> Q[0]\n// q[1] -> Q[1]\n// q[2] -> Q[99]\n", None),
        ("", '{"0": 0, "1": 1, "2": 99}'),
    ])
    def test_verify_layout_off_the_platform(self, runner, tmp_path, comments, layout):
        # Logical qubit 2 is idle, so only its layout entry shows where it went.
        circ, mapped = tmp_path / "three.qasm", tmp_path / "mapped.qasm"
        circ.write_text("OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[1];\n")
        mapped.write_text(comments + "OPENQASM 2.0;\nqreg q[100];\ncx q[0], q[1];\n")
        args = ["verify", "--platform", "guadalupe", "--circuit", str(circ),
                "--mapped", str(mapped)]
        if layout is not None:
            (tmp_path / "layout.json").write_text(layout)
            args += ["--layout", str(tmp_path / "layout.json")]
        res = runner.invoke(main, args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        verdict = json.loads(res.output)
        assert verdict["feasible"] is False and verdict["equivalent"] is True
        (violation,) = verdict["violations"]
        assert violation["gate"] == -1
        assert "logical qubit 2" in violation["reason"] and "99" in violation["reason"]


def _write(path, text):
    path.write_text(text)
    return str(path)


def _qasm_file(tmp_path, body, n=2):
    return _write(tmp_path / "in.qasm", f"OPENQASM 2.0;\nqreg q[{n}];\n{body}\n")


def _platform_file(tmp_path, doc):
    return _write(tmp_path / "platform.json", doc)


TWO_TRIANGLES = CouplingGraph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def _two_triangles(tmp_path):
    return _write(tmp_path / "split.json", json.dumps(
        {"qubits": 6, "edges": sorted(TWO_TRIANGLES.edges)}))


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe not text")
    return str(path)


def _other_platform(tmp_path):
    """A path that names no file, beside a platform file of that name plus .json."""
    _write(tmp_path / "other.json", '{"qubits": 3, "edges": [[0, 1], [1, 2]]}')
    return str(tmp_path / "other")


def _emit_for_name(tmp_path, name):
    return ["subarch", "--size", "2", "--emit", str(tmp_path / "members"), "--platform",
            _platform_file(tmp_path, json.dumps(
                {"name": name, "qubits": 3, "edges": [[0, 1], [1, 2]]}))]


def _emit_onto_a_directory(tmp_path):
    (tmp_path / "members" / "c5-k4-0.json").mkdir(parents=True)  # c5's one k=4 member
    return ["subarch", "--platform", _platform_file(tmp_path, C5), "--size", "4",
            "--emit", str(tmp_path / "members")]


def _map_to(tmp_path, option, target):
    return ["map", "--platform", "guadalupe", "--circuit",
            _qasm_file(tmp_path, "cx q[0],q[1];"), option, str(target)]


def _verify_with_layout(tmp_path, layout):
    return ["verify", "--platform", "guadalupe",
            "--circuit", _qasm_file(tmp_path, "cx q[0],q[1];"),
            "--mapped", _qasm_file(tmp_path, "cx q[0],q[1];"),
            "--layout", _write(tmp_path / "layout.json", layout)]


NESTED = "[" * 1100 + "]" * 1100  # deeper than the interpreter's recursion limit

MALFORMED = {
    "cx-same-qubit": lambda t: [
        "map", "--platform", "guadalupe", "--circuit",
        _qasm_file(t, "cx q[0],q[0];")],
    "ccx": lambda t: [
        "map", "--platform", "guadalupe", "--circuit",
        _qasm_file(t, "ccx q[0],q[1],q[2];", n=3)],
    "circuit-larger-than-platform": lambda t: [
        "map", "--platform", "guadalupe", "--circuit",
        _qasm_file(t, "cx q[0],q[19];", n=20)],
    "circuit-larger-than-platform-verify": lambda t: [
        "verify", "--platform", "guadalupe", "--circuit",
        _qasm_file(t, "cx q[0],q[19];", n=20),
        "--mapped", _write(t / "mapped.qasm", "OPENQASM 2.0;\n// q[0] -> Q[0]\n"
                           "// q[1] -> Q[1]\nqreg q[2];\ncx q[0],q[1];\n")],
    "circuit-operand-beyond-qreg": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _qasm_file(t, "cx q[0],q[2];")],
    "mapped-operand-beyond-qreg": lambda t: [
        "verify", "--platform", "guadalupe",
        "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--mapped", _write(t / "mapped.qasm", "// q[0] -> Q[0]\n// q[1] -> Q[1]\n"
                           "qreg q[1];\ncx q[0],q[1];\n")],
    "circuit-without-qubits": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _qasm_file(t, "", n=0)],
    "circuit-without-qubits-verify": lambda t: [
        "verify", "--platform", "guadalupe", "--circuit", _qasm_file(t, "", n=0),
        "--mapped", _write(t / "mapped.qasm", "OPENQASM 2.0;\nqreg q[2];\n"),
        "--layout", _write(t / "layout.json", "{}")],
    "disconnected-platform-subarch": lambda t: [
        "subarch", "--platform", _two_triangles(t), "--size", "3"],
    "disconnected-platform-map": lambda t: [
        "map", "--platform", _two_triangles(t), "--circuit",
        _qasm_file(t, "cx q[0],q[1];")],
    "disconnected-platform-subarch-connected": lambda t: [
        "subarch", "--platform", _two_triangles(t), "--size", "3", "--stage", "connected"],
    "disconnected-platform-map-full-architecture": lambda t: [
        "map", "--platform", _two_triangles(t), "--circuit",
        _qasm_file(t, "cx q[0],q[1];"), "--full-architecture"],
    "edgeless-platform-map-full-architecture": lambda t: [
        "map", "--platform", _platform_file(t, json.dumps({"qubits": 4096, "edges": []})),
        "--circuit", _qasm_file(t, "cx q[0],q[1];"), "--full-architecture"],
    "size-zero-subarch": lambda t: ["subarch", "--platform", "guadalupe", "--size", "0"],
    "size-above-platform-subarch-connected": lambda t: [
        "subarch", "--platform", "guadalupe", "--size", "17", "--stage", "connected"],
    "layout-not-json": lambda t: _verify_with_layout(t, "{0: 1"),
    "layout-value-bool": lambda t: _verify_with_layout(t, '{"0": false, "1": 1}'),
    "layout-value-float": lambda t: _verify_with_layout(t, '{"0": 0, "1": 1.7}'),
    "layout-value-string": lambda t: _verify_with_layout(t, '{"0": 0, "1": "1"}'),
    "layout-key-negative": lambda t: _verify_with_layout(t, '{"-1": 0, "0": 1, "1": 2}'),
    "layout-key-with-space": lambda t: _verify_with_layout(t, '{"0": 0, "1": 1, "1 ": 4}'),
    "layout-key-leading-zero": lambda t: _verify_with_layout(t, '{"00": 0, "1": 1}'),
    "layout-key-twice": lambda t: _verify_with_layout(t, '{"0": 5, "0": 0, "1": 1}'),
    "layout-nested-too-deep": lambda t: _verify_with_layout(t, NESTED),
    "layout-comment-twice": lambda t: [
        "verify", "--platform", "guadalupe",
        "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--mapped", _write(t / "mapped.qasm", "OPENQASM 2.0;\n// q[0] -> Q[5]\n"
                           "// q[0] -> Q[0]\n// q[1] -> Q[1]\nqreg q[2];\n"
                           "cx q[0],q[1];\n")],
    "name-not-a-string": lambda t: [
        "subarch", "--platform",
        _platform_file(t, '{"name": [1], "qubits": 3, "edges": [[0, 1], [1, 2]]}'),
        "--size", "2"],
    "negative-ancillas": lambda t: [
        "map", "--platform", "guadalupe", "--circuit",
        _qasm_file(t, "cx q[0],q[1];"), "--ancillas", "-1"],
    "negative-ancillas-full-architecture": lambda t: [
        "map", "--platform", "guadalupe", "--circuit",
        _qasm_file(t, "cx q[0],q[1];"), "--ancillas", "-1", "--full-architecture"],
    "negative-bound": lambda t: [
        "map", "--platform", "guadalupe", "--circuit",
        _qasm_file(t, "cx q[0],q[1];"), "--bound", "-1"],
    "ancillas-not-a-number": lambda t: [
        "map", "--platform", "guadalupe", "--circuit",
        _qasm_file(t, "cx q[0],q[1];"), "--ancillas", "x"],
    "manifest-row-without-k": lambda t: [
        "bench", "--manifest", _write(t / "m.json", '[{"platform": "guadalupe"}]')],
    "manifest-k-bool": lambda t: [
        "bench", "--manifest",
        _write(t / "m.json", '[{"platform": "guadalupe", "k": true}]')],
    "manifest-k-float": lambda t: [
        "bench", "--manifest",
        _write(t / "m.json", '[{"platform": "guadalupe", "k": 2.7}]')],
    "manifest-k-string": lambda t: [
        "bench", "--manifest",
        _write(t / "m.json", '[{"platform": "guadalupe", "k": "4"}]')],
    "manifest-nested-too-deep": lambda t: [
        "bench", "--manifest", _write(t / "m.json", NESTED)],
    "manifest-platform-null": lambda t: [
        "bench", "--manifest", _write(t / "m.json", '[{"platform": null, "k": 2}]')],
    "manifest-platform-number": lambda t: [
        "bench", "--manifest", _write(t / "m.json", '[{"platform": 5, "k": 2}]')],
    "manifest-json-object": lambda t: [
        "bench", "--manifest", _write(t / "m.json", '{"platform": "guadalupe", "k": 2}')],
    "manifest-empty": lambda t: ["bench", "--manifest", _write(t / "m.json", "")],
    "manifest-whitespace": lambda t: ["bench", "--manifest", _write(t / "m.json", " \n\t")],
    "platform-empty": lambda t: [
        "subarch", "--platform", _platform_file(t, ""), "--size", "2"],
    "platform-whitespace": lambda t: [
        "subarch", "--platform", _platform_file(t, " \n\t"), "--size", "2"],
    "circuit-empty": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _write(t / "in.qasm", "")],
    "circuit-whitespace": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _write(t / "in.qasm", " \n\t")],
    "layout-empty": lambda t: _verify_with_layout(t, ""),
    "layout-whitespace": lambda t: _verify_with_layout(t, " \n\t"),
    "layout-json-list": lambda t: _verify_with_layout(t, "[0, 1]"),
    "layout-json-number": lambda t: _verify_with_layout(t, "5"),
    "layout-json-string": lambda t: _verify_with_layout(t, '"x"'),
    "layout-json-null": lambda t: _verify_with_layout(t, "null"),
    "platform-nested-too-deep": lambda t: [
        "map", "--platform", _platform_file(t, NESTED),
        "--circuit", _qasm_file(t, "cx q[0],q[1];")],
    "platform-key-twice": lambda t: [
        "subarch", "--platform",
        _platform_file(t, '{"qubits": 3, "qubits": 2, "edges": [[0, 1]]}'), "--size", "2"],
    "edges-null": lambda t: [
        "subarch", "--platform", _platform_file(t, '{"qubits": 3, "edges": null}'),
        "--size", "2"],
    "edges-not-a-list": lambda t: [
        "map", "--platform", _platform_file(t, '{"qubits": 3, "edges": 5}'),
        "--circuit", _qasm_file(t, "cx q[0],q[1];")],
    "qubits-bool": lambda t: [
        "subarch", "--platform", _platform_file(t, '{"qubits": true}'), "--size", "1"],
    "qubits-above-the-limit-verify": lambda t: [
        "verify", "--platform", _platform_file(t, json.dumps({"qubits": MAX_QUBITS + 1})),
        "--circuit", _qasm_file(t, "h q[0];"),
        "--mapped", _write(t / "mapped.qasm", "OPENQASM 2.0;\n// q[0] -> Q[0]\n"
                           "// q[1] -> Q[1]\nqreg q[2];\nh q[0];\n")],
    "emit-is-a-file": lambda t: [
        "subarch", "--platform", "guadalupe", "--size", "2",
        "--emit", _write(t / "out", "")],
    "budget-nan-subarch": lambda t: [
        "subarch", "--platform", "tokyo", "--size", "8", "--budget", "nan"],
    "budget-negative-subarch": lambda t: [
        "subarch", "--platform", "tokyo", "--size", "8", "--budget", "-1"],
    "budget-zero-subarch": lambda t: [
        "subarch", "--platform", "tokyo", "--size", "8", "--budget", "0"],
    "budget-nan-map": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--budget", "nan"],
    "budget-negative-map": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--budget", "-1"],
    "budget-zero-map": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--budget", "0"],
    "budget-negative-bench": lambda t: [
        "bench", "--manifest", _write(t / "m.json", '[{"platform": "guadalupe", "k": 2}]'),
        "--budget", "-1"],
    "budget-nan-bench": lambda t: [
        "bench", "--manifest", _write(t / "m.json", '[{"platform": "guadalupe", "k": 2}]'),
        "--budget", "nan"],
    "circuit-is-a-directory-map": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", str(t)],
    "circuit-is-a-directory-verify": lambda t: [
        "verify", "--platform", "guadalupe", "--circuit", str(t),
        "--mapped", _qasm_file(t, "cx q[0],q[1];")],
    "mapped-is-a-directory": lambda t: [
        "verify", "--platform", "guadalupe", "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--mapped", str(t)],
    "manifest-is-a-directory": lambda t: ["bench", "--manifest", str(t)],
    "circuit-not-utf8-map": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _not_utf8(t / "in.qasm")],
    "circuit-not-utf8-verify": lambda t: [
        "verify", "--platform", "guadalupe", "--circuit", _not_utf8(t / "in.qasm"),
        "--mapped", _write(t / "mapped.qasm", "OPENQASM 2.0;\nqreg q[2];\n")],
    "mapped-not-utf8": lambda t: [
        "verify", "--platform", "guadalupe", "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--mapped", _not_utf8(t / "mapped.qasm")],
    "platform-not-utf8-subarch": lambda t: [
        "subarch", "--platform", _not_utf8(t / "platform.json"), "--size", "2"],
    "platform-not-utf8-map": lambda t: [
        "map", "--platform", _not_utf8(t / "platform.json"),
        "--circuit", _qasm_file(t, "cx q[0],q[1];")],
    "platform-not-utf8-verify": lambda t: [
        "verify", "--platform", _not_utf8(t / "platform.json"),
        "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--mapped", _qasm_file(t, "cx q[0],q[1];")],
    "out-is-a-directory": lambda t: _map_to(t, "--out", t),
    "report-is-a-directory": lambda t: _map_to(t, "--report", t),
    "out-in-a-missing-directory": lambda t: _map_to(t, "--out", t / "missing" / "m.qasm"),
    "report-in-a-missing-directory": lambda t: _map_to(t, "--report", t / "missing" / "r.json"),
    "emit-name-climbs-out": lambda t: _emit_for_name(t, "../escaped"),
    "emit-name-absolute": lambda t: _emit_for_name(t, str(t / "elsewhere")),
    "emit-name-with-nul": lambda t: _emit_for_name(t, "a\0b"),
    "emit-under-a-file": lambda t: [
        "subarch", "--platform", "guadalupe", "--size", "2",
        "--emit", str(Path(_write(t / "out", "")) / "members")],
    "emit-file-is-a-directory": _emit_onto_a_directory,
    "emit-empty": lambda t: [
        "subarch", "--platform", "guadalupe", "--size", "4", "--emit", ""],
    "out-empty": lambda t: _map_to(t, "--out", ""),
    "report-empty": lambda t: _map_to(t, "--report", ""),
    "cache-option-removed-subarch": lambda t: [
        "subarch", "--platform", "guadalupe", "--size", "2", "--cache", str(t / "c")],
    "cache-option-removed-map": lambda t: _map_to(t, "--cache", t / "c"),
    "cache-option-removed-bench": lambda t: [
        "bench", "--manifest", _write(t / "m.json", '[{"platform": "guadalupe", "k": 2}]'),
        "--cache", str(t / "c")],
    "platform-path-without-suffix-subarch": lambda t: [
        "subarch", "--platform", _other_platform(t), "--size", "2"],
    "platform-path-without-suffix-map": lambda t: [
        "map", "--platform", _other_platform(t), "--circuit", _qasm_file(t, "cx q[0],q[1];")],
    "platform-path-without-suffix-verify": lambda t: [
        "verify", "--platform", _other_platform(t),
        "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--mapped", _write(t / "mapped.qasm", "OPENQASM 2.0;\n// q[0] -> Q[0]\n"
                           "// q[1] -> Q[1]\nqreg q[2];\ncx q[0],q[1];\n")],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_a_message(runner, tmp_path, case):
    args = MALFORMED[case](tmp_path)
    before = set(tmp_path.rglob("*"))
    res = runner.invoke(main, args)
    assert res.exit_code == 2, (res.output, res.exception)
    assert isinstance(res.exception, SystemExit)
    assert "Error: " in res.output and "Traceback" not in res.output
    assert set(tmp_path.rglob("*")) == before  # and nothing was written


GUADALUPE = load_platform("guadalupe")
CX_01, CX_0_19 = Circuit(2, (Gate("cx", (0, 1)),)), Circuit(20, (Gate("cx", (0, 19)),))

# The library call that refuses the same input as each MALFORMED case the
# library judges; the CLI only reports that refusal.
REFUSED_BY = {
    "circuit-larger-than-platform": lambda: map_with_subarch(GUADALUPE, CX_0_19),
    "circuit-larger-than-platform-verify": lambda: check_mappable(CX_0_19, GUADALUPE, None),
    "circuit-without-qubits": lambda: map_with_subarch(GUADALUPE, Circuit(0, ())),
    "circuit-without-qubits-verify": lambda: check_mappable(Circuit(0, ()), GUADALUPE, None),
    "disconnected-platform-subarch": lambda: subarchitectures(TWO_TRIANGLES, 3),
    "disconnected-platform-subarch-connected":
        lambda: next(connected_subgraphs(TWO_TRIANGLES, 3)),
    "disconnected-platform-map": lambda: map_with_subarch(TWO_TRIANGLES, CX_01),
    "disconnected-platform-map-full-architecture": lambda: map_optimal(CX_01, TWO_TRIANGLES),
    "edgeless-platform-map-full-architecture":
        lambda: map_optimal(CX_01, CouplingGraph(range(4096), [])),
    "size-zero-subarch": lambda: subarchitectures(GUADALUPE, 0),
    "size-above-platform-subarch-connected": lambda: next(connected_subgraphs(GUADALUPE, 17)),
    "negative-ancillas": lambda: map_with_subarch(
        GUADALUPE, CX_01, StrategyConfig(max_ancillas=-1)),
    "negative-bound": lambda: map_with_subarch(
        GUADALUPE, CX_01, StrategyConfig(initial_bound=-1)),
}


@pytest.mark.parametrize("case", sorted(REFUSED_BY))
def test_the_cli_reports_the_library_refusal(runner, tmp_path, case):
    with pytest.raises(ValueError) as refusal:
        REFUSED_BY[case]()
    res = runner.invoke(main, MALFORMED[case](tmp_path))
    assert res.exit_code == 2, res.output
    assert str(refusal.value) in res.output


def test_an_ancilla_count_that_is_not_a_number_is_named(runner, tmp_path):
    res = runner.invoke(main, MALFORMED["ancillas-not-a-number"](tmp_path))
    assert res.exit_code == 2
    assert "'--ancillas': must be an integer or \"until-full\"" in res.output


@pytest.mark.parametrize("case", ["layout-json-list", "layout-json-number",
                                  "layout-json-string", "layout-json-null"])
def test_a_layout_that_is_not_an_object_is_named(runner, tmp_path, case):
    res = runner.invoke(main, MALFORMED[case](tmp_path))
    assert res.exit_code == 2
    assert "Invalid value for --layout: must be a JSON object" in res.output


# The malformed-input oracle: every command on one malformed input file at a
# time, the others valid. The structural cases (empty files, deep nesting,
# bytes that are not UTF-8, duplicate keys, bools, floats and huge integers
# where ints belong) run for every file; seeded draws add mutated valid files
# and platform documents with odd fields. Platforms keep at most 64 qubits,
# or MAX_QUBITS + 1 with no edges, so no input allocates much, and --budget
# caps every search.
CIRCUIT = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncx q[0], q[1];\nh q[2];\n' \
    "cx q[1], q[2];\n"
MAPPED = "// q[0] -> Q[0]\n// q[1] -> Q[1]\n// q[2] -> Q[2]\nOPENQASM 2.0;\nqreg q[5];\n" \
    "cx q[0], q[1];\nh q[2];\nswap q[3], q[4];\ncx q[1], q[2];\n"  # CIRCUIT on C5
VALID = {"platform": C5, "circuit": CIRCUIT, "mapped": MAPPED,
         "layout": '{"0": 0, "1": 1, "2": 2}',
         # the manifest that is mutated; beside a bad platform, one that names it
         "manifest": '[{"platform": "guadalupe", "k": 3}, {"platform": "guadalupe", "k": 2}]'}
ROLES = {"subarch": ["platform"], "map": ["platform", "circuit"],
         "verify": ["platform", "circuit", "mapped", "layout"],
         "bench": ["platform", "manifest"]}
HUGE = str(10**20)
STRUCTURAL = [text.encode() for text in [
    "", " \n\t", NESTED, "null", "[]", "{}", '{"0": 0, "0": 1}',
    '{"qubits": 3, "qubits": 2, "edges": [[0, 1]]}',
    '{"qubits": 3.0, "edges": [[0, 1], [1, 2]]}', '{"qubits": 3, "edges": [[0, true], [1, 2]]}',
    f'{{"qubits": 3, "edges": [[0, {HUGE}]]}}', f'{{"qubits": {MAX_QUBITS + 1}}}',
    '{"0": 0, "1": 1.0, "2": 2}', '{"0": 0, "1": true, "2": 2}',
    f'{{"0": 0, "1": 1, "2": {HUGE}}}',
    '[{"platform": "guadalupe", "k": 2.0}]', '[{"platform": "guadalupe", "k": false}]',
    f'[{{"platform": "guadalupe", "k": {HUGE}}}]',
    f"OPENQASM 2.0;\nqreg q[{HUGE}];\n", f"qreg q[3];\ncx q[0], q[{HUGE}];\n",
]] + [b"\xff\xfe not text"]
TOKENS = [b"[", b"]", b"{", b"}", b",", b":", b'"', b";", b"\n", b" ", b"-", b"0", b"1", b"7",
          b"true", b"null", b"1.5", b"1e400", b"NaN", b"\xff", b"\xc3", b"q[", b"Q[", b"cx",
          b"swap", b"h", b"//", b"->", b"qreg", b"(", b")", HUGE.encode(),
          b'"qubits"', b'"edges"', b'"k"', b'"platform"']
ODD_INTS = st.one_of(st.booleans(), st.floats(), st.sampled_from([10**20, -(10**20)]),
                     st.text(max_size=2), st.none())


@st.composite
def mutated(draw, valid: str) -> bytes:
    data = bytearray(valid.encode())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 6)))
        data[i:j] = draw(st.sampled_from(TOKENS) | st.binary(max_size=2))
    return bytes(data)


@st.composite
def platform_docs(draw) -> bytes:
    """A platform document with odd values in its fields, or with a field missing."""
    n = draw(st.integers(0, 8) | st.sampled_from([64, MAX_QUBITS + 1]) | ODD_INTS)
    label = st.integers(-1, 9) | ODD_INTS
    doc = {"qubits": n, "name": draw(st.sampled_from(["p", ""]) | ODD_INTS),
           "edges": [] if n == MAX_QUBITS + 1 else draw(
               st.lists(st.lists(label, min_size=1, max_size=3), max_size=10) | ODD_INTS)}
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return json.dumps(doc).encode()


def _few_qubits(text: bytes) -> bool:
    """False for a platform document that would allocate more than 64 qubits."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return True
    n = doc.get("qubits") if isinstance(doc, dict) else None
    return not (type(n) is int and n > 64 and (n != MAX_QUBITS + 1 or doc.get("edges")))


BUDGET = ["--budget", "0.5"]


def _command_line(command: str, d: Path, bad: str, content: bytes,
                  options: list[str]) -> list[str]:
    """`command` with the file of role `bad` holding content and its other files valid;
    "{d}" in an option stands for the directory d."""
    options = [o.format(d=d) for o in options]
    paths = {}
    for role in ROLES[command]:
        if role == bad:
            text = content
        elif role == "manifest":  # the platform file's path, already written
            text = json.dumps([{"platform": paths["platform"], "k": 3}]).encode()
        else:
            text = VALID[role].encode()
        (d / role).write_bytes(text)
        paths[role] = str(d / role)
    if command == "subarch":
        return ["subarch", "--platform", paths["platform"], *options, *BUDGET]
    if command == "map":
        return ["map", "--platform", paths["platform"], "--circuit", paths["circuit"],
                "--out", str(d / "out.qasm"), "--report", str(d / "report.json"),
                *options, *BUDGET]
    if command == "verify":
        return ["verify", "--platform", paths["platform"], "--circuit", paths["circuit"],
                "--mapped", paths["mapped"], "--layout", paths["layout"], *options]
    return ["bench", "--manifest", paths["manifest"], *options, *BUDGET]


def _runs_without_traceback(command: str, bad: str, content: bytes,
                            options: list[str]) -> None:
    with tempfile.TemporaryDirectory() as d:
        res = CliRunner().invoke(main, _command_line(command, Path(d), bad, content, options))
    assert res.exit_code in (0, 1, 2, 3), (res.output, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", sorted(ROLES))
def test_structural_input_never_gives_a_traceback(command):
    options = ["--size", "3"] if command == "subarch" else []
    for bad in ROLES[command]:
        for content in STRUCTURAL:
            _runs_without_traceback(command, bad, content, options)


OPTIONS = {
    "subarch": st.tuples(st.sampled_from([[], ["--stage", "connected"]]),
                         st.sampled_from([[], ["--list"], ["--json"], ["--emit", "{d}/m"]]),
                         st.integers(-1, 6).map(lambda k: ["--size", str(k)])),
    "map": st.tuples(st.sampled_from([[], ["--full-architecture"], ["--ancillas", "0"],
                                      ["--ancillas", "until-full"], ["--ancillas", "-1"],
                                      ["--ancillas", "x"]]),
                     st.sampled_from([[], ["--bound", "0"], ["--bound", "1"],
                                      ["--bound", "-1"]])),
    "verify": st.tuples(st.sampled_from([["--mode", "strict"], ["--mode", "relaxed"]]),
                        st.sampled_from([[], ["--layout", "auto"]])),
    "bench": st.tuples(st.sampled_from([[], ["--json"]])),
}


@pytest.mark.parametrize("command", sorted(ROLES))
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_mutated_input_never_gives_a_traceback(command, data):
    bad = data.draw(st.sampled_from(ROLES[command]))
    valid = VALID[bad]
    drawn = mutated(valid) | st.just(valid.encode())
    if bad == "platform":
        drawn = (drawn | platform_docs()).filter(_few_qubits)
    options = [o for group in data.draw(OPTIONS[command]) for o in group]
    _runs_without_traceback(command, bad, data.draw(drawn), options)


class TestBench:
    def test_manifest_run(self, runner, c5_path, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"platform": c5_path, "k": 3},
            {"platform": "guadalupe", "k": 4},
        ]))
        res = runner.invoke(main, ["bench", "--manifest", str(manifest),
                                   "--json"])
        assert res.exit_code == 0
        rows = json.loads(res.output)["rows"]
        assert rows[1]["connected"] == 24

    def test_repeated_row_is_served_from_the_store(self, runner, c5_path, tmp_path):
        manifest = _write(tmp_path / "m.json", json.dumps(
            [{"platform": c5_path, "k": 3}, {"platform": "guadalupe", "k": 4},
             {"platform": c5_path, "k": 3}]))
        res = runner.invoke(main, ["bench", "--manifest", manifest, "--json"])
        assert res.exit_code == 0, res.output
        rows = json.loads(res.output)["rows"]
        assert [r["cached"] for r in rows] == [False, False, True]
        assert rows[2]["stage_seconds"] == rows[0]["stage_seconds"]
        assert {key: rows[2][key] for key in ("connected", "noniso", "max")} \
            == {key: rows[0][key] for key in ("connected", "noniso", "max")}

    def test_manifest_error_row(self, runner, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"platform": "nowhere", "k": 3}]))
        res = runner.invoke(main, ["bench", "--manifest", str(manifest)])
        assert res.exit_code == 1
        assert "nowhere" in res.output

    def test_table_is_followed_by_the_error_rows(self, runner, tmp_path):
        manifest = _write(tmp_path / "m.json", json.dumps(
            [{"platform": "nope", "k": 2}, {"platform": "guadalupe", "k": 2}]))
        res = runner.invoke(main, ["bench", "--manifest", manifest])
        assert res.exit_code == 1, res.output
        header, row, error = res.output.splitlines()
        assert header.startswith("Platform") and row.startswith("guadalupe")
        assert error.startswith("nope k=2: unknown platform")

    def test_manifest_platform_path_without_suffix_is_an_error_row(self, runner, tmp_path):
        platform = _other_platform(tmp_path)
        manifest = _write(tmp_path / "m.json", json.dumps([{"platform": platform, "k": 2}]))
        res = runner.invoke(main, ["bench", "--manifest", manifest, "--json"])
        assert res.exit_code == 1, res.output
        (row,) = json.loads(res.output)["rows"]
        assert row["error"].startswith("unknown platform")

    def test_manifest_platform_of_wrong_shape_is_an_error_row(self, runner, tmp_path):
        platform = _platform_file(tmp_path, '{"qubits": 3, "edges": null}')
        manifest = _write(tmp_path / "m.json",
                          json.dumps([{"platform": platform, "k": 2},
                                      {"platform": "guadalupe", "k": 2}]))
        res = runner.invoke(main, ["bench", "--manifest", manifest, "--json"])
        assert res.exit_code == 1, res.output
        rows = json.loads(res.output)["rows"]
        assert "'edges' must be a list" in rows[0]["error"]
        assert rows[1]["connected"] == 16

    def test_manifest_timeout(self, runner, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"platform": "tokyo", "k": 10}]))
        res = runner.invoke(main, ["bench", "--manifest", str(manifest),
                                   "--budget", "0.01"])
        assert res.exit_code == 3


def test_networkx_stays_out_of_the_program(tmp_path):
    # networkx serves the tests as an oracle only; the CLI must run without it
    circuit = _qasm_file(tmp_path, "cx q[0],q[1];\ncx q[1],q[2];", n=3)
    script = ("import sys; sys.modules['networkx'] = None; "
              "from subarchmap.cli import main; main()")
    env = dict(os.environ, PYTHONPATH=str(Path(maximal.__file__).parents[1]))
    for args in (["subarch", "--platform", "guadalupe", "--size", "4"],
                 ["map", "--platform", "guadalupe", "--circuit", circuit]):
        res = subprocess.run([sys.executable, "-c", script, *args], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
