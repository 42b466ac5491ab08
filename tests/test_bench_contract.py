"""The benchmark harness under perfbench/ wraps and imports lorcheck names by
string; these tests fail when the program drops or renames one of them."""

import ast
import importlib
import json
import os
import sys

import pytest

from lorcheck.cli import main
from conftest import (DFF_SRC, INV_DFF_SRC, TOGGLE_SRC,
                      deep_ctr_miter_sources, shreg_source)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")



@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/tracer.py, imported as run.py imports it."""
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracer")


def test_every_target_resolves(perfbench):
    for owner, attr, name, _, _ in perfbench.TARGETS:
        assert attr in vars(owner), "%s: %r has no %r" % (name, owner, attr)


def test_corpus_imports_exist():
    # corpus.py is read, not imported, so that a missing name is reported
    # by name
    with open(os.path.join(PERFBENCH, "corpus.py")) as f:
        tree = ast.parse(f.read())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("lorcheck")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)


def test_corpus_self_check(perfbench, tmp_path):
    """Every workload's corpus builds and its answers agree with
    enumeration, so an attribute that corpus.py reads from the program,
    such as ts.state_ids(0) or ts.circuit, cannot go missing unnoticed."""
    corpus = importlib.import_module("corpus")
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    assert workloads
    for w in workloads:
        assert corpus.Corpus(w, 1, str(tmp_path)).instances, w
        assert corpus.self_check(w) == [], w


def test_replay_corpus_answers(perfbench, tmp_path):
    """verify-witness gives every witness of the replay corpus its known
    answer, so a verifier that wrongly accepts or rejects one fails here
    and not only in the benchmark."""
    corpus = importlib.import_module("corpus")
    c = corpus.Corpus("replay", 1, str(tmp_path))
    c.write()
    assert c.instances
    for inst in c.instances:
        assert main(inst.argv) == corpus.EXIT_CODE[inst.answer], inst.name


def test_check_and_sec_corpus_answers(perfbench, tmp_path):
    """check and sec give every instance of their seed-1 corpora its known
    answer, and verify-witness accepts each witness, so a wrong makeup
    answer fails here and not only in the benchmark."""
    corpus = importlib.import_module("corpus")
    for workload in ("check", "sec"):
        c = corpus.Corpus(workload, 1, str(tmp_path / workload))
        c.write()
        assert c.instances
        for inst in c.instances:
            assert main(inst.argv) == corpus.EXIT_CODE[inst.answer], \
                inst.name
            assert main(inst.replay) == 0, inst.name


def _bindings(targets):
    """Every module-level binding of the lorcheck modules, and every
    attribute of the classes in targets."""
    out = {}
    for n, m in list(sys.modules.items()):
        if n == "lorcheck" or n.startswith("lorcheck."):
            out.update(((n, k), v) for k, v in vars(m).items())
    for owner, attr, _, _, _ in targets:
        if isinstance(owner, type):
            out[(owner, attr)] = vars(owner)[attr]
    return out


def test_traced_runs(perfbench, tmp_path, capfd):
    files = {}
    deep_n, deep_k = deep_ctr_miter_sources()
    for name, src in (("dff", DFF_SRC), ("inv", INV_DFF_SRC),
                      ("toggle", TOGGLE_SRC), ("shreg3", shreg_source(3)),
                      ("shreg2", shreg_source(2)), ("deep_n", deep_n),
                      ("deep_k", deep_k)):
        files[name] = str(tmp_path / (name + ".scirc"))
        with open(files[name], "w") as f:
            f.write(src)
    before = _bindings(perfbench.TARGETS)
    tr = perfbench.Tracer()
    tr.install()
    try:
        codes = [main(["check", files["toggle"]]),
                 main(["sec", files["dff"], files["dff"]]),
                 main(["sec", files["dff"], files["inv"]]),
                 # unequal, with its counterexample at depth 2, which
                 # mining's simulation finds
                 main(["sec", files["shreg3"], files["shreg2"]]),
                 # unequal at depth 16, deeper than simulation goes: the
                 # frames need the educated-guess seed
                 main(["sec", files["deep_n"], files["deep_k"]])]
    finally:
        tr.uninstall()
    after = _bindings(perfbench.TARGETS)
    assert codes == [1, 0, 1, 1, 1]
    assert [k for k in before if after.get(k) is not before[k]] == []
    metrics = tr.metrics()
    assert set(metrics) == set(perfbench.UNITS)
    for name in ("pclor.run", "pclor.fin_rlx", "indclause.seed",
                 "pqe.take_out", "cli.write_witness"):
        assert tr.calls[name] > 0, name
