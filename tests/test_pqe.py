import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from lorcheck.cnf import Cnf, Clause, TAUTOLOGY
from lorcheck.pqe import (PqeTask, PqeBudgetError, conflict_clause_dsequent,
                          take_out, trivially_redundant, _Solver,
                          _PoolClause)
from lorcheck.qe_oracle import check_pqe


def random_task(rng, max_var=8, max_clauses=16):
    n = rng.randint(2, max_var)
    def cnf(lo, hi):
        out = []
        for _ in range(rng.randint(lo, hi)):
            k = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), k)
            out.append(Clause(tuple(v if rng.random() < 0.5 else -v
                                    for v in vs)))
        return Cnf(out)
    w = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    return PqeTask(w, cnf(1, max_clauses // 3), cnf(0, max_clauses))


def chain_task(n):
    """w_1..w_n quantified, x = n + 1 free: A = (x ∨ w_1), B = the chain
    w_1 → w_2 → … → w_n with ¬w_n.  The search trail goes n + 1 deep."""
    b = [Clause((-i, i + 1)) for i in range(1, n)] + [Clause((-n,))]
    return PqeTask(range(1, n + 1), Cnf([Clause((n + 1, 1))]), Cnf(b))


class TestDSequentAlgebra:
    def test_conflict_resolvent(self):
        r = conflict_clause_dsequent(2, Clause((1, 2)), Clause((-2, 3)))
        assert r == Clause((1, 3))
        with pytest.raises(ValueError):
            conflict_clause_dsequent(2, Clause((1, 2)), Clause((2, 3)))


class TestTrivialRedundancy:
    def test_satisfied(self):
        assert trivially_redundant(Clause((1, 2)), [], {1: True}, {2})

    def test_subsumed_cofactor(self):
        # (1 ∨ 2) with pool clause (2) cofactored under nothing
        assert trivially_redundant(Clause((1, 2)), [Clause((2,))], {}, {1})

    def test_blocked(self):
        # w-var 2 appears only positively: no resolution partner
        assert trivially_redundant(Clause((1, 2)), [Clause((3, 2))], {}, {2})

    def test_open_obligation(self):
        assert not trivially_redundant(
            Clause((1, 2)), [Clause((-2, 3))], {}, {2})


class TestTakeOut:
    def test_answer_is_w_free(self):
        rng = random.Random(31)
        for _ in range(50):
            t = random_task(rng)
            a_star = take_out(t)
            assert not (a_star.variables() & t.w)

    def test_random_differential(self):
        rng = random.Random(32)
        for _ in range(300):
            t = random_task(rng)
            a_star = take_out(t)
            assert check_pqe(t.w, t.a, t.b, a_star)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_differential_property(self, seed):
        t = random_task(random.Random(seed))
        assert check_pqe(t.w, t.a, t.b, take_out(t))

    def test_empty_a(self):
        t = PqeTask({1}, Cnf([]), Cnf([Clause((1, 2))]))
        assert list(take_out(t)) == []

    def test_w_free_a_passes_through(self):
        t = PqeTask({3}, Cnf([Clause((1, 2))]), Cnf([Clause((3, 1))]))
        a_star = take_out(t)
        assert check_pqe(t.w, t.a, t.b, a_star)

    def test_tracked_clauses_hold_w_variables(self):
        # the open obligations are the live tracked clauses, relying on no
        # tracked clause being W-free
        rng = random.Random(34)
        for _ in range(200):
            t = random_task(rng)
            s = _Solver(t, budget=10 ** 6)
            s.run()
            assert all(pc.clause.variables() & t.w
                       for pc in s.pool if pc.tracked)

    def test_subsumer_is_first_in_occurrence_order(self):
        # the signature filter may skip only non-subsumers: the subsumer
        # found is the first live subset met in the clause's literal order
        rng = random.Random(35)
        for _ in range(100):
            t = random_task(rng, max_var=12, max_clauses=30)
            s = _Solver(t, budget=10 ** 6)
            for j in range(len(s.pool)):
                if j != s._empty and rng.random() < 0.3:
                    s.kill(j)
            for c in random_task(rng, max_var=12, max_clauses=30).b:
                want = next((j for l in c for j in s.occ.get(l, ())
                             if set(s.pool[j].clause.lits) <= set(c.lits)),
                            s._empty)
                assert s._find_subsumer(_PoolClause(c, False)) == want

    def test_search_deeper_than_the_recursion_limit(self, monkeypatch):
        # the search runs on its own stack: it neither recurses nor touches
        # the interpreter's recursion limit
        def refuse(limit):
            raise AssertionError("take_out changed the recursion limit")
        limit = sys.getrecursionlimit()
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 1500
        assert n + 1 > limit
        assert list(take_out(chain_task(n))) == [Clause((n + 1,))]
        assert sys.getrecursionlimit() == limit

    def test_search_work_is_pinned(self):
        # (nodes, answer) of _Solver.run on fixed tasks, as recorded before
        # the search state was rewritten: a change of pool order, branch
        # order or discharge shows here first
        want = [
            (11, [(6,), (2, 4)]), (2, []), (1, []), (4, [()]), (2, [(-3,)]),
            (1, [(-4,)]), (1, [(-7,)]), (1, [(1,)]), (1, []),
            (1, [(4, -5)]), (2, [(-1,)]), (4, [()]), (8, [(2,)]), (2, []),
            (1, []), (1, [(1,)]), (5, [(3,), (-3,)]), (2, [(-2,)]),
            (1, [(2,)]), (1, [(5,), (-3, -5), (3,), (-5,)]), (1, []),
            (2, [(-1,)]), (12, [(-2,), (-3,)]), (38, [(8,)]), (2, []),
            (2, []), (2, []), (5, []), (1, [(-2,)]), (2, [(-4,)]),
            (10501, [(1501,)])]
        tasks = [random_task(random.Random(seed)) for seed in range(30)]
        got = []
        for t in tasks + [chain_task(1500)]:
            s = _Solver(t, budget=10 ** 6)
            a_star = s.run()
            got.append((s.nodes, [c.lits for c in a_star]))
        assert got == want

    def test_unsat_core_case(self):
        # A ∧ B unsatisfiable: A* must be (equivalent to) false wherever
        # ∃W[B] holds; B alone is satisfiable everywhere here.
        t = PqeTask({1}, Cnf([Clause((1,))]), Cnf([Clause((-1,))]))
        a_star = take_out(t)
        assert check_pqe(t.w, t.a, t.b, a_star)

    def test_budget_error_when_enumeration_impossible(self):
        # a one-node budget cannot finish a 26-variable task
        big = Cnf([Clause((v, v + 1)) for v in range(1, 26)])
        t = PqeTask(set(range(1, 26, 2)), big, Cnf([]))
        with pytest.raises(PqeBudgetError):
            take_out(t, budget=1)

    def test_budget_fallback_when_small(self):
        # a spent budget is an error even when the task is small enough to
        # enumerate: take_out never switches to another algorithm
        t = PqeTask({2}, Cnf([Clause((1, 2))]), Cnf([Clause((-2, 3))]))
        with pytest.raises(PqeBudgetError):
            take_out(t, budget=1)
        assert check_pqe(t.w, t.a, t.b, take_out(t))

    def test_throughput(self):
        rng = random.Random(33)
        times = []
        for _ in range(100):
            t = random_task(rng, max_var=10, max_clauses=24)
            t0 = time.perf_counter()
            a_star = take_out(t)
            times.append(time.perf_counter() - t0)
            assert check_pqe(t.w, t.a, t.b, a_star)
        times.sort()
        assert times[len(times) // 2] < 0.05
