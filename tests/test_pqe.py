import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from lorcheck import pqe
from lorcheck.cnf import Clause, evaluate, longest_falsified_clause, variables
from lorcheck.pqe import PqeTask, PqeBudgetError, take_out
from lorcheck.qe_oracle import all_assignments, check_pqe, qe_bruteforce
from lorcheck.sat import Solver


def random_task(rng, max_var=8, max_clauses=16):
    n = rng.randint(2, max_var)
    def cnf(lo, hi):
        out = []
        for _ in range(rng.randint(lo, hi)):
            k = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), k)
            out.append(Clause(tuple(v if rng.random() < 0.5 else -v
                                    for v in vs)))
        return out
    w = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    return PqeTask(w, cnf(1, max_clauses // 3), cnf(0, max_clauses))


def chain_task(n):
    """w_1..w_n quantified, x = n + 1 free: A = (x ∨ w_1), B = the chain
    w_1 → w_2 → … → w_n with ¬w_n, a chain of n implications."""
    b = [Clause((-i, i + 1)) for i in range(1, n)] + [Clause((-n,))]
    return PqeTask(range(1, n + 1), [Clause((n + 1, 1))], b)


class TestTrivialRedundancy:
    # an A-clause that is redundant in ∃W[A ∧ B] for a local reason is
    # taken out with nothing left in its place

    def test_satisfied(self):
        # every model of B satisfies the free literal 1 of (1 ∨ 2)
        t = PqeTask({2, 3}, [Clause((1, 2))],
                    [Clause((1, 3)), Clause((1, -3))])
        assert list(take_out(t)) == []

    def test_subsumed_cofactor(self):
        # (1 ∨ 2) with B clause (2)
        t = PqeTask({1}, [Clause((1, 2))], [Clause((2,))])
        assert list(take_out(t)) == []

    def test_blocked(self):
        # w-var 2 appears only positively: no resolution partner
        t = PqeTask({2}, [Clause((1, 2))], [Clause((3, 2))])
        assert list(take_out(t)) == []

    def test_open_obligation(self):
        # the resolvent (1 ∨ 3) on w-var 2 is what A adds to ∃W[B]
        t = PqeTask({2}, [Clause((1, 2))], [Clause((-2, 3))])
        assert list(take_out(t)) == [Clause((1, 3))]


class TestTakeOut:
    def test_answer_is_w_free(self):
        rng = random.Random(31)
        for _ in range(50):
            t = random_task(rng)
            a_star = take_out(t)
            assert not (variables(a_star) & t.w)

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
        t = PqeTask({1}, [], [Clause((1, 2))])
        assert list(take_out(t)) == []

    def test_w_free_a_passes_through(self):
        t = PqeTask({3}, [Clause((1, 2))], [Clause((3, 1))])
        a_star = take_out(t)
        assert check_pqe(t.w, t.a, t.b, a_star)

    def test_search_deeper_than_the_recursion_limit(self, monkeypatch):
        # take_out neither recurses along the chain nor touches the
        # interpreter's recursion limit
        def refuse(limit):
            raise AssertionError("take_out changed the recursion limit")
        limit = sys.getrecursionlimit()
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 1500
        assert n + 1 > limit
        assert list(take_out(chain_task(n))) == [Clause((n + 1,))]
        assert sys.getrecursionlimit() == limit

    def test_search_work_is_pinned(self):
        # (least budget that finishes, answer) of take_out on fixed tasks:
        # a change of enumeration order, lifting or core use shows here
        # first
        want = [
            (1, []), (2, []), (1, []), (1, []), (3, [(-3,)]), (1, []),
            (2, [(-7,)]), (2, [(1,)]), (1, []), (2, [(4, -5)]), (1, []),
            (2, [()]), (2, [()]), (3, []), (1, []), (2, [(1,)]), (2, [()]),
            (2, [(-2,)]), (1, []), (2, [()]), (1, []), (2, [(-1,)]),
            (1, []), (1, []), (2, []), (1, []), (3, []), (2, []), (1, []),
            (1, []), (2, [(1501,)])]
        tasks = [random_task(random.Random(seed)) for seed in range(30)]
        got = []
        for t in tasks + [chain_task(1500)]:
            budget = 1
            while True:
                try:
                    a_star = take_out(t, budget)
                    break
                except PqeBudgetError:
                    budget += 1
            got.append((budget, [c.lits for c in a_star]))
        assert got == want

    def test_lifting_skips_only_clauses_without_a_free_literal(
            self, monkeypatch):
        # take_out lifts over the clauses of A ∧ B that hold a free
        # literal; each cube, and so the answer, is what lifting over all
        # of A ∧ B gives
        real = pqe._lift
        rng = random.Random(32)
        tasks = [random_task(random.Random(seed)) for seed in range(30)] + \
            [random_task(rng) for _ in range(100)]
        shorter = 0
        for t in tasks:
            full = list(t.a) + list(t.b)

            def lift(clauses, model, w):
                nonlocal shorter
                shorter += len(clauses) < len(full)
                cube = real(clauses, model, w)
                assert cube == real(full, model, w)
                return cube
            monkeypatch.setattr(pqe, "_lift", lift)
            got = list(take_out(t))
            monkeypatch.setattr(pqe, "_lift",
                                lambda c, m, w: real(full, m, w))
            assert got == list(take_out(t))
        assert shorter > 20

    def test_unsat_core_case(self):
        # A ∧ B unsatisfiable: A* must be (equivalent to) false wherever
        # ∃W[B] holds; B alone is satisfiable everywhere here.
        t = PqeTask({1}, [Clause((1,))], [Clause((-1,))])
        a_star = take_out(t)
        assert check_pqe(t.w, t.a, t.b, a_star)

    def test_budget_error_when_enumeration_impossible(self):
        # a one-point budget cannot finish a 26-variable task
        big = [Clause((v, v + 1)) for v in range(1, 26)]
        t = PqeTask(set(range(1, 26, 2)), big, [])
        with pytest.raises(PqeBudgetError):
            take_out(t, budget=1)

    def test_budget_fallback_when_small(self):
        # a spent budget is an error even when the task is small enough to
        # enumerate: take_out never switches to another algorithm
        t = PqeTask({2}, [Clause((1, 2))], [Clause((-2, 3))])
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


def allowed_points(t):
    """The free points on which ∃W[B] implies ∃W[A ∧ B], by enumeration;
    the free variables first."""
    free = sorted((variables(t.a) | variables(t.b)) - t.w)
    eb = qe_bruteforce(t.w, t.b)
    eab = qe_bruteforce(t.w, t.a + t.b)
    return free, [y for y in all_assignments(free)
                  if evaluate(eb, y) is False or evaluate(eab, y) is True]


def region_inside(rng, free, allowed):
    """A random CNF over `free` whose every point is allowed: random short
    clauses, then one blocking clause per point outside `allowed`."""
    inside = {tuple(sorted(y.items())) for y in allowed}
    out = [Clause(tuple(v if rng.random() < 0.5 else -v
                        for v in rng.sample(free, rng.randint(1, len(free)))))
           for _ in range(rng.randint(0, 3) if free else 0)]
    region = list(out)
    for y in all_assignments(free):
        if tuple(sorted(y.items())) not in inside and \
                evaluate(region, y) is True:
            out.append(longest_falsified_clause(y))
    return out


class TestGivenSolver:
    """A caller may hand take_out its A ∧ B solver, as the makeup step
    hands it the frame solver that relaxing the step drops: a solver that
    answered other questions first and gained clauses one at a time."""

    @staticmethod
    def used_solver(rng, t):
        """A solver over A ∧ B that holds part of it from the start, is
        asked three questions, and then gains the rest clause by clause."""
        ab = t.a + t.b
        ids = sorted(variables(ab))
        cut = rng.randint(0, len(ab))
        s = Solver(ab[:cut], extra_vars=ids)
        for _ in range(3):
            s.solve([v if rng.random() < 0.5 else -v
                     for v in rng.sample(ids, min(2, len(ids)))])
        for c in ab[cut:]:
            s.add_clause(c)
        return s

    @pytest.mark.parametrize("given", [False, True],
                             ids=["built", "given"])
    def test_random_differential(self, given):
        rng = random.Random(33)
        for _ in range(300):
            t = random_task(rng)
            kw = {"ab_solver": self.used_solver(rng, t)} if given else {}
            assert check_pqe(t.w, t.a, t.b, take_out(t, **kw))

    def test_builds_only_the_points_solver(self, built_solvers):
        t = chain_task(5)
        given = Solver(t.a + t.b)
        before = len(built_solvers)
        assert take_out(t, ab_solver=given) == take_out(t)
        # the given call builds the points solver, the other one two
        assert len(built_solvers) - before == 3


class TestCovered:
    # `covered` is a region of free points on which ∃W[B] implies
    # ∃W[A ∧ B]; take_out blocks its cubes without asking for a lift

    def test_regions_inside_the_allowed_points(self, monkeypatch):
        # the clauses of `covered` taken as answers block most points that
        # would take a covered cube, so it takes 400 tasks for 50 cubes
        rng = random.Random(34)
        cubes = 0
        real = pqe._lift
        for _ in range(400):
            t = random_task(rng)
            free, allowed = allowed_points(t)
            covered = region_inside(rng, free, allowed)
            for y in all_assignments(free):
                if evaluate(covered, y) is True:
                    assert y in allowed
            calls = []

            def lift(clauses, model, w):
                calls.append(not w)
                return real(clauses, model, w)
            monkeypatch.setattr(pqe, "_lift", lift)
            a_star = take_out(t, covered=covered)
            cubes += sum(calls)
            assert check_pqe(t.w, t.a, t.b, a_star)
        assert cubes > 50

    def test_a_region_outside_the_contract_gives_a_wrong_answer(self):
        # ∃W[B] is true and ∃W[A ∧ B] is (1 ∨ 3); the region ¬1 holds the
        # point 1 = 3 = 0 of the first but not of the second.  take_out
        # finds the satisfiable point 1 = 0, 3 = 1 first and blocks all of
        # ¬1, so the answer loses (1 ∨ 3)
        t = PqeTask({2}, [Clause((1, 2))], [Clause((-2, 3))])
        assert list(take_out(t)) == [Clause((1, 3))]
        a_star = take_out(t, covered=[Clause((-1,))])
        assert list(a_star) == []
        assert not check_pqe(t.w, t.a, t.b, a_star)

    def test_true_region(self):
        # where ∃W[B] implies ∃W[A ∧ B] everywhere, covered = [] ends the
        # search at its first point with an empty answer
        rng = random.Random(35)
        seen = 0
        for _ in range(200):
            t = random_task(rng)
            free, allowed = allowed_points(t)
            if len(allowed) < 2 ** len(free):
                continue
            seen += 1
            a_star = take_out(t, budget=2, covered=[])
            assert list(a_star) == []
            assert check_pqe(t.w, t.a, t.b, a_star)
        assert seen > 50

    def test_variables_outside_the_free_ones_count_as_false(self):
        # 9 is in no clause of the task: ¬1 ∨ 9 is read as ¬1, a region
        # outside the contract as above, and 1 ∨ 9 as 1, one inside it
        t = PqeTask({2}, [Clause((1, 2))], [Clause((-2, 3))])
        assert list(take_out(t, covered=[Clause((-1, 9))])) == []
        a_star = take_out(t, covered=[Clause((1, 9))])
        assert list(a_star) == [Clause((1, 3))]


def implied_by(eab, free, clause):
    """Does ∃W[A ∧ B], given by enumeration, imply `clause` over `free`?"""
    return all(evaluate([clause], y) is True for y in all_assignments(free)
               if evaluate(eab, y) is True)


class TestSeeding:
    # take_out tries each clause of `covered`, restricted to the free
    # variables, as an answer before it enumerates a point

    def test_every_implied_candidate_is_an_answer(self):
        """Random tasks, each with a region inside the contract that also
        holds random implied and unimplied clauses, some with literals over
        variables outside the task: the answer passes the oracle, holds
        every implied candidate restricted to the free variables, and no
        unimplied one."""
        rng = random.Random(36)
        implied = unimplied = outside = 0
        for _ in range(300):
            t = random_task(rng)
            free, allowed = allowed_points(t)
            if not free:
                continue
            eab = qe_bruteforce(t.w, t.a + t.b)
            top = max(t.w | set(free))
            extra = []
            for _ in range(rng.randint(1, 6)):
                lits = [v if rng.random() < 0.5 else -v
                        for v in rng.sample(free, rng.randint(1, len(free)))]
                if rng.random() < 0.3:
                    lits.append(rng.choice((1, -1)) * rng.randint(top + 1,
                                                                  top + 3))
                extra.append(Clause(lits))
            covered = extra + region_inside(rng, free, allowed)
            a_star = take_out(t, covered=covered)
            assert check_pqe(t.w, t.a, t.b, a_star)
            answer = set(a_star)
            for c in covered:
                r = Clause(l for l in c if abs(l) in free)
                outside += len(r) < len(c)
                if r and implied_by(eab, free, r):
                    implied += 1
                    assert r in answer
                elif r:
                    unimplied += 1
                    assert r not in answer
        assert min(implied, unimplied, outside) > 50

    def test_candidate_checks_are_not_enumerated_points(self):
        # the chain task's answer (x) needs two points without it as a
        # candidate: one to find it and one to see that nothing is left
        n = 50
        t = chain_task(n)
        with pytest.raises(PqeBudgetError):
            take_out(t, budget=1)
        x = Clause((n + 1,))
        assert list(take_out(t, budget=1, covered=[x])) == [x]

    def test_an_emptied_candidate_is_skipped(self):
        # 9 is in no clause of the task, so (9) restricts to the empty
        # clause, which is no answer
        t = PqeTask({2}, [Clause((1, 2))], [Clause((-2, 3))])
        a_star = take_out(t, covered=[Clause((9,)), Clause((1, 3, 9))])
        assert list(a_star) == [Clause((1, 3))]
