import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from subarchmap import load_platform, maximal
from subarchmap.cli import main

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


def _two_triangles(tmp_path):
    return _write(tmp_path / "split.json", json.dumps(
        {"qubits": 6, "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]}))


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
    "layout-not-json": lambda t: _verify_with_layout(t, "{0: 1"),
    "layout-value-bool": lambda t: _verify_with_layout(t, '{"0": false, "1": 1}'),
    "layout-value-float": lambda t: _verify_with_layout(t, '{"0": 0, "1": 1.7}'),
    "layout-value-string": lambda t: _verify_with_layout(t, '{"0": 0, "1": "1"}'),
    "layout-key-negative": lambda t: _verify_with_layout(t, '{"-1": 0, "0": 1, "1": 2}'),
    "layout-key-with-space": lambda t: _verify_with_layout(t, '{"0": 0, "1": 1, "1 ": 4}'),
    "layout-key-leading-zero": lambda t: _verify_with_layout(t, '{"00": 0, "1": 1}'),
    "layout-key-twice": lambda t: _verify_with_layout(t, '{"0": 5, "0": 0, "1": 1}'),
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
    "edges-null": lambda t: [
        "subarch", "--platform", _platform_file(t, '{"qubits": 3, "edges": null}'),
        "--size", "2"],
    "edges-not-a-list": lambda t: [
        "map", "--platform", _platform_file(t, '{"qubits": 3, "edges": 5}'),
        "--circuit", _qasm_file(t, "cx q[0],q[1];")],
    "qubits-bool": lambda t: [
        "subarch", "--platform", _platform_file(t, '{"qubits": true}'), "--size", "1"],
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
