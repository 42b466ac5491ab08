import ast
import itertools
import os
import random

import pytest

from lorcheck.circuit import parse_circuit, encode, stutter
from lorcheck.cnf import Clause, evaluate, variables
from lorcheck.qe_oracle import (OracleBudgetError, qe_bruteforce, check_pqe,
                                initial_states, reach_bruteforce, image_under,
                                verify_boundary, _project_models)
from conftest import STUCK0_SRC, TOGGLE_SRC, make_rng


def random_cnf(rng, max_var=6, max_clauses=10, max_len=3):
    n = rng.randint(1, max_var)
    out = []
    for _ in range(rng.randint(0, max_clauses)):
        k = rng.randint(1, min(max_len, n))
        vs = rng.sample(range(1, n + 1), k)
        out.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    return out, n


class TestQeBruteforce:
    def test_equivalent_to_projection(self):
        rng = make_rng(21)
        for _ in range(150):
            f, n = random_cnf(rng)
            w = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            g = qe_bruteforce(w, f)
            assert not (variables(g) & w)
            v_ids = sorted(set(range(1, n + 1)) - w)
            for bits in itertools.product([False, True], repeat=len(v_ids)):
                va = dict(zip(v_ids, bits))
                want = any(
                    evaluate(f, {**va, **dict(zip(sorted(w), wb))}) is True
                    for wb in itertools.product([False, True], repeat=len(w)))
                assert (evaluate(g, va) is True) == want

    def test_budget(self):
        f = [Clause((v,)) for v in range(1, 26)]
        with pytest.raises(OracleBudgetError):
            qe_bruteforce({1}, f)


class TestCheckPqe:
    def test_accepts_exact_answer(self):
        rng = make_rng(22)
        for _ in range(100):
            a, n1 = random_cnf(rng, max_clauses=4)
            b, n2 = random_cnf(rng, max_clauses=6)
            n = max(n1, n2)
            w = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            # QE(A∧B) is always a valid answer: it equals ∃W[A∧B], which
            # already implies ∃W[B], so conjoining ∃W[B] changes nothing.
            a_star = qe_bruteforce(w, a + b)
            assert check_pqe(w, a, b, a_star)

    def test_rejects_wrong_answer(self):
        # A = (v1), B = empty, W = {2}: A* must be equivalent to (v1)
        a = [Clause((1,))]
        b = []
        assert check_pqe({2}, a, b, [Clause((1,))])
        assert not check_pqe({2}, a, b, [])
        assert not check_pqe({2}, a, b, [Clause((-1,))])

    def test_quantified_var_in_answer_rejected(self):
        with pytest.raises(ValueError):
            check_pqe({2}, [], [], [Clause((2,))])


class TestReachability:
    def test_stuck0_reach(self):
        ts = encode(stutter(parse_circuit(STUCK0_SRC)))
        assert reach_bruteforce(ts, 0) == {(False,)}
        assert reach_bruteforce(ts, 5) == {(False,)}

    def test_toggle_reach(self):
        ts = encode(stutter(parse_circuit(TOGGLE_SRC)))
        assert reach_bruteforce(ts, 0) == {(False,)}
        assert reach_bruteforce(ts, 1) == {(False,), (True,)}

    def test_free_init(self):
        ts = encode(parse_circuit("input x\nlatch a init * next x\n"
                                  "latch b init 0 next a\n"))
        assert initial_states(ts) == {(False, False), (True, False)}

    def test_reach_matches_cnf_image(self):
        rng = make_rng(23)
        from conftest import random_system
        for _ in range(10):
            ts = random_system(rng, rng.randint(1, 3), rng.randint(1, 2))
            cur = initial_states(ts)
            for depth in range(4):
                nxt = cur | image_under(ts, ts.trans, cur)
                assert nxt == reach_bruteforce(ts, depth + 1)
                cur = nxt

    @pytest.mark.parametrize("latches, inputs, fits", [
        (16, 4, True), (17, 0, False), (16, 5, False)])
    def test_budget(self, latches, inputs, fits):
        """At most 16 latches, and 20 latches and inputs together."""
        src = "".join("input x%d\n" % i for i in range(inputs)) + "".join(
            "latch s%d init 0 next s%d\n" % (i, i) for i in range(latches))
        ts = encode(parse_circuit(src))
        if fits:
            assert reach_bruteforce(ts, 0) == {(False,) * latches}
        else:
            with pytest.raises(OracleBudgetError):
                reach_bruteforce(ts, 0)


class TestProjectModels:
    def test_no_model_projects_nothing(self):
        f = [Clause((1, 2)), Clause((-1,)), Clause((-2,))]
        assert _project_models(f, {}, [1, 2]) == set()
        assert _project_models([Clause((1, 2))], {1: False, 2: False},
                               [1]) == set()

    def test_free_projection_variables(self):
        assert _project_models([Clause((1, 2))], {1: True}, [2, 3]) == {
            (a, b) for a in (False, True) for b in (False, True)}

    def test_node_budget(self):
        """The search visits 7 nodes here; past the budget the oracle
        raises rather than return part of the projection."""
        f = [Clause((1, 2)), Clause((3, 4))]
        assert len(_project_models(f, {}, [1, 2, 3, 4], budget=7)) == 9
        with pytest.raises(OracleBudgetError):
            _project_models(f, {}, [1, 2, 3, 4], budget=6)


class TestVerifyBoundary:
    def test_init_is_boundary_at_zero(self, stuck0):
        assert verify_boundary(stuck0.init, stuck0, stuck0.trans, 0)

    def test_exact_reachability_formula_accepted(self, toggle):
        # Reach(1) of TOGGLE is everything, so the empty CNF is H_1 for the
        # unrelaxed system (no relaxed-only states exist).
        assert verify_boundary([], toggle, toggle.trans, 1)

    def test_relaxed_only_state_must_be_excluded(self, stuck0):
        s = stuck0.state_ids(0)[0]
        # drop every transition clause: relaxation reaches s=1, so H_1 must
        # be 0 there; the constant-true formula is rejected, (¬s) accepted.
        empty_rlx = []
        assert not verify_boundary([], stuck0, empty_rlx, 1)
        assert verify_boundary([Clause((-s,))], stuck0, empty_rlx, 1)

    def test_reach_state_must_be_included(self, toggle):
        s = toggle.state_ids(0)[0]
        assert not verify_boundary([Clause((-s,))], toggle,
                                   toggle.trans, 1)


class TestIndependence:
    """The oracles stay outside the production path."""

    def test_production_does_not_import_oracle(self):
        import lorcheck
        src = os.path.dirname(lorcheck.__file__)
        offending = []
        for fn in sorted(os.listdir(src)):
            if not fn.endswith(".py") or fn == "qe_oracle.py":
                continue
            with open(os.path.join(src, fn)) as f:
                tree = ast.parse(f.read())
            for node, where in _imports(tree, ()):
                names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                         else []) + [a.name for a in node.names]
                if not any("qe_oracle" in n for n in names):
                    continue
                if fn == "cli.py" and where == ("cmd_pqe", "args.verify"):
                    continue
                offending.append("%s in %s" % (fn, "/".join(where) or "module"))
        assert offending == []


def _imports(node, where):
    """(import node, enclosing function names and if-conditions) pairs."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node, where
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = where + (node.name,)
    elif isinstance(node, ast.If):
        test = ast.unparse(node.test)
        for stmt in node.body:
            yield from _imports(stmt, where + (test,))
        for stmt in node.orelse:
            yield from _imports(stmt, where + ("not " + test,))
        return
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, where)
