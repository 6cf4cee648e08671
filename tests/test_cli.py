import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from subarchmap import maximal
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

    @pytest.mark.parametrize("option", ["--emit", "--cache"])
    def test_connected_stage_refuses_emit_and_cache(self, runner, c5_path, tmp_path,
                                                    option):
        res = runner.invoke(main, ["subarch", "--platform", c5_path, "--size", "3",
                                   "--stage", "connected", option, str(tmp_path / "d")])
        assert res.exit_code == 2
        assert option in res.output
        assert not (tmp_path / "d").exists()

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

    def test_cache_replay_is_marked(self, runner, c5_path, tmp_path):
        args = ["subarch", "--platform", c5_path, "--size", "3", "--json",
                "--cache", str(tmp_path / "cache")]
        first, again = (json.loads(runner.invoke(main, args).output) for _ in range(2))
        assert (first["cached"], again["cached"]) == (False, True)
        assert first["max"] == again["max"]

    def test_cache_dir_that_does_not_exist_yet(self, runner, c5_path, tmp_path):
        cache = tmp_path / "new" / "cache"
        res = runner.invoke(main, ["subarch", "--platform", c5_path, "--size", "3",
                                   "--cache", str(cache)])
        assert res.exit_code == 0, res.output
        assert list(cache.glob("*.json"))

    def test_cache_file_of_another_shape_is_recomputed(self, runner, c5_path, tmp_path):
        args = ["subarch", "--platform", c5_path, "--size", "3", "--json",
                "--cache", str(tmp_path / "cache")]
        first = json.loads(runner.invoke(main, args).output)
        (path,) = (tmp_path / "cache").glob("*.json")
        doc = json.loads(path.read_text())
        del doc["stage_times"]["total"]
        path.write_text(json.dumps(doc))
        maximal._store.clear()
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        again = json.loads(res.output)
        assert again["cached"] is False and again["max"] == first["max"]

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

    def test_full_architecture_refuses_cache(self, runner, c5_path, ring_path, tmp_path):
        res = runner.invoke(main, ["map", "--platform", c5_path, "--circuit", ring_path,
                                   "--full-architecture", "--cache", str(tmp_path / "d")])
        assert res.exit_code == 2
        assert "--cache" in res.output

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
    "circuit-without-qubits": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _qasm_file(t, "", n=0)],
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
    "cache-is-a-file-subarch": lambda t: [
        "subarch", "--platform", "guadalupe", "--size", "2",
        "--cache", _write(t / "cache", "")],
    "cache-is-a-file-map": lambda t: [
        "map", "--platform", "guadalupe", "--circuit", _qasm_file(t, "cx q[0],q[1];"),
        "--cache", _write(t / "cache", "")],
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
    "cache-is-a-file-bench": lambda t: [
        "bench", "--manifest", _write(t / "m.json", '[{"platform": "guadalupe", "k": 2}]'),
        "--cache", _write(t / "cache", "")],
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
