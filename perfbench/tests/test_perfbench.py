"""Tests of the benchmark itself.  Run from the repository root with
``python -m pytest perfbench/tests``; they take about a minute."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import calibrate  # noqa: E402
from corpus import Corpus, self_check  # noqa: E402
from tracer import UNITS  # noqa: E402

WORKLOADS = ("check", "sec", "replay")


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_agrees_with_enumeration(workload):
    assert self_check(workload) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_corpus(workload, tmp_path):
    a = Corpus(workload, 7, str(tmp_path))
    b = Corpus(workload, 7, str(tmp_path))
    assert a.files == b.files
    assert [i.argv for i in a.instances] == [i.argv for i in b.instances]


def test_reference_solvers_agree():
    """The two solvers of the reference job decide the same formulas the
    same way, and the pigeonhole formulas as they must."""
    for seed in range(20):
        f = calibrate.random_3cnf(8, 36, seed)
        assert calibrate.satisfiable(f) == (
            not calibrate.eliminated_to_empty(f))
    assert calibrate.satisfiable(calibrate.pigeonhole(4, 4))
    assert not calibrate.satisfiable(calibrate.pigeonhole(5, 4))
    assert calibrate.reference_seconds() > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    """The engine is deterministic, so two traced runs on one seed must
    count the same work."""
    runs = [result(bench(workload, 5, 1))["metrics"] for _ in range(2)]
    counts = [k for k, unit in UNITS.items() if unit != "s"]
    assert counts
    for key in counts:
        assert runs[0][key]["value"] == runs[1][key]["value"], key
    if workload == "replay":
        assert runs[0]["pqe.calls"]["value"] == 0


def test_known_defects_are_counted_failures():
    for workload in ("sec", "replay"):
        r = result(bench(workload, 5, 0))
        assert r["correct"] is True
        assert r["failed"] >= 1
        assert r["metrics"]["decided_frac"]["value"] < 1


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    str(tmp_path / "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = bench("sec", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
