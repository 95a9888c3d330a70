"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import EXPECTED, WORKLOADS, Sizes, deadline_budget_class

TINY = Sizes(limit_s=0.2, mid_grafts=2, mid_ops=20, mid_max_vertices=40,
             mid_edges=(0, 10**9), fuzz_sequences=20, small_graphs=40,
             pair_level=3)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, expected=EXPECTED):
    code = run.run(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                    "--trace", str(trace)], sizes=TINY, expected=expected)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, _lines, res = _run(capsys, workload, trace)
    assert code == 0 and res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_every_layer_metric_comes_from_some_workload(capsys):
    unused = None
    for workload in sorted(WORKLOADS):
        _code, lines, _res = _run(capsys, workload, 1)
        names = set()
        for line in lines:
            if line.startswith("# not called here"):
                names = set(line.split(":", 1)[1].split())
        unused = names if unused is None else unused & names
    assert unused == set()


@pytest.mark.parametrize("workload, change", [
    ("construct", lambda e: e["chi"].update({"G2": 4})),
    ("certify", lambda e: e.update({"clean": False})),
])
def test_wrong_reference_answer_fails_the_run(capsys, workload, change):
    expected = copy.deepcopy(EXPECTED)
    change(expected)
    code, lines, res = _run(capsys, workload, 0, expected)
    assert code == 1
    assert not res["correct"] and res["failed"] >= 1
    assert any(line.startswith("# WRONG:") for line in lines)


def test_decided_counts_only_verdicts_held_to_the_limit(capsys):
    # g4's five conditions and five per mid-size graft; the CLI check and
    # the tiny inputs are not verdicts
    _code, lines, _res = _run(capsys, "certify", 0)
    assert any(line.startswith(f"# verdicts={5 + 5 * TINY.mid_grafts} ")
               for line in lines)


def test_a_search_past_its_deadline_is_undecided():
    bl = run.import_library()
    g4 = bl.build_graft(4)[0]
    budget = deadline_budget_class(bl)(0.0)
    with pytest.raises(bl.SearchBudgetExceeded):
        bl.find_mountable_path(g4, budget=budget)
    assert budget.nodes > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
