import importlib
import json
from pathlib import Path

import pytest

from perfbench.run import BASELINE, PROGRAM, paired_pass
from perfbench.workloads import WORKLOADS


def test_baseline_computes_what_the_program_computes():
    program, baseline = (importlib.import_module(p) for p in (PROGRAM, BASELINE))
    assert baseline is not program
    rows = []
    for pkg in (program, baseline):
        ss = pkg.max_subarchitectures(pkg.load_platform("guadalupe"), 6)
        rows.append((ss.counts_row(), sorted(sorted(m.vertices) for m in ss.members)))
    assert rows[0] == rows[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_operations_pair_up(name, tmp_path):
    workload = WORKLOADS[name]
    expected = json.loads((Path(__file__).resolve().parents[1] / "expected.json").read_text())
    names = [[op for op, _, _ in workload.operations(
        pkg, workload.setup(pkg, 1, expected, tmp_path / pkg), None)]
        for pkg in (PROGRAM, BASELINE)]
    assert names[0] == names[1] and names[0]


class Recorder:
    """A workload of three operations that only note the order they ran in."""

    def __init__(self):
        self.order = []

    def operations(self, package, inputs, tracer):
        return [(f"op{i}", lambda i=i: self.order.append((package, i)), 1.0)
                for i in range(3)]


@pytest.mark.parametrize("flip", [0, 1])
def test_paired_pass_alternates_which_side_goes_first(flip):
    w = Recorder()
    program_ops, baseline_ops = paired_pass(w, None, None, None, flip)
    assert [op.name for op in program_ops] == [op.name for op in baseline_ops] \
        == ["op0", "op1", "op2"]
    firsts = [w.order[2 * i][0] for i in range(3)]
    sides = [PROGRAM, BASELINE] if flip == 0 else [BASELINE, PROGRAM]
    assert firsts == [sides[0], sides[1], sides[0]]
    assert sorted(w.order) == sorted((p, i) for p in (PROGRAM, BASELINE) for i in range(3))
