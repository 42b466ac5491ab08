import itertools
import random

from hypothesis import given, settings, strategies as st

from lorcheck.cnf import Clause, Cnf, evaluate
from lorcheck.sat import (Solver, _luby, first_model, implies,
                          max_relax_solve, solve)


def random_cnf(rng, max_var=8, max_clauses=20, max_len=4):
    n = rng.randint(1, max_var)
    out = []
    for _ in range(rng.randint(0, max_clauses)):
        k = rng.randint(1, min(max_len, n))
        vs = rng.sample(range(1, n + 1), k)
        out.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    return Cnf(out), n


def pigeonhole(p, h):
    """p pigeons in h holes, each hole holding at most one pigeon."""
    v = lambda i, j: i * h + j + 1
    out = [Clause(tuple(v(i, j) for j in range(h))) for i in range(p)]
    for j in range(h):
        for a, b in itertools.combinations(range(p), 2):
            out.append(Clause((-v(a, j), -v(b, j))))
    return Cnf(out)


def truth_table_sat(f, n):
    for bits in itertools.product([False, True], repeat=n):
        if evaluate(f, dict(zip(range(1, n + 1), bits))) is True:
            return True
    return False


class TestSolveDifferential:
    def test_against_truth_tables(self):
        rng = random.Random(11)
        for _ in range(800):
            f, n = random_cnf(rng)
            res = solve(f)
            assert bool(res) == truth_table_sat(f, n)
            if res:
                assert evaluate(f, res.model) is True

    def test_model_covers_extra_vars(self):
        f = Cnf([Clause((1,))])
        res = solve(f, extra_vars=[5, 6])
        assert 5 in res.model and 6 in res.model

    def test_trivial(self):
        assert solve(Cnf([]))
        assert not solve(Cnf([Clause((1,)), Clause((-1,))]))


class TestRestarts:
    def test_luby_sequence(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_solve_past_the_fourth_restart(self):
        # restarts fall after 100, 200 and 400 conflicts
        f = pigeonhole(7, 6)
        s = Solver(f)
        assert not s.solve()
        assert len(s.clauses) - len(f) >= 400


class TestIncremental:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reused_solver_agrees_with_fresh(self, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        f, n = random_cnf(rng, max_var=8, max_clauses=30)
        s = Solver(f)
        for _ in range(rng.randint(1, 10)):
            # variables beyond n are unknown to the solver until assumed
            vs = rng.sample(range(1, n + 3), rng.randint(0, n))
            assume = [v if rng.random() < 0.5 else -v for v in vs]
            res = s.solve(assume)
            assert bool(res) == bool(Solver(f).solve(assume))
            if res:
                assert evaluate(f, res.model) is True
                for l in assume:
                    assert res.model[abs(l)] == (l > 0)
            else:
                assert res.core <= set(assume)
                assert not Solver(f).solve(sorted(res.core))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_added_clauses_agree_with_fresh(self, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        f, n = random_cnf(rng, max_var=8, max_clauses=12)
        s = Solver(f)
        clauses = list(f)
        for _ in range(rng.randint(1, 10)):
            # new clauses may hold variables the solver has not seen yet
            more, _ = random_cnf(rng, max_var=n + 2, max_clauses=3)
            for c in more:
                s.add_clause(c)
            clauses += more
            vs = rng.sample(range(1, n + 3), rng.randint(0, n))
            assume = [v if rng.random() < 0.5 else -v for v in vs]
            res = s.solve(assume)
            assert bool(res) == bool(Solver(clauses).solve(assume))
            if res:
                assert evaluate(Cnf(clauses), res.model) is True
                for l in assume:
                    assert res.model[abs(l)] == (l > 0)
            else:
                assert res.core <= set(assume)
                assert not Solver(clauses).solve(sorted(res.core))

    def test_add_clause_at_level_0(self):
        s = Solver([Clause((1,)), Clause((-1, 2))])
        assert s.solve()                 # level 0 holds 1 and 2
        s.add_clause([2, 3])             # true at level 0: skipped
        assert len(s.clauses) == 1
        s.add_clause([-1, 3, 4])         # -1 is false at level 0: dropped
        assert s.clauses[-1] == [3, 4]
        s.add_clause([-3])               # a unit
        res = s.solve()
        assert res and not res.model[3] and res.model[4]
        assert not s.solve([-4]) and s.ok
        s.add_clause([])                 # the empty clause
        assert not s.solve() and not s.ok

    def test_learnt_clauses_answer_a_repeated_query(self):
        # pigeonhole(6, 5) guarded by a selector: unsat only under it
        f = pigeonhole(6, 5)
        sel = 6 * 5 + 1
        s = Solver(Cnf(Clause((-sel,) + c.lits) for c in f))
        first = s.solve([sel])
        learnt = len(s.clauses)
        assert not first and first.core == {sel}
        again = s.solve([sel])
        assert not again and again.core == {sel}
        assert len(s.clauses) == learnt
        assert s.solve()

    def test_unsat_without_assumptions_is_final(self):
        s = Solver(pigeonhole(5, 4))
        assert not s.solve()
        assert not s.ok
        res = s.solve([1])
        assert not res and res.core == set()

    def test_first_model_answers_the_first_satisfiable_query(self):
        rng = random.Random(14)
        for _ in range(200):
            f, n = random_cnf(rng, max_var=6, max_clauses=12)
            queries = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n + 1),
                                            rng.randint(1, n))]
                       for _ in range(rng.randint(1, 5))]
            sat = [truth_table_sat(f + Cnf(Clause((l,)) for l in q), n)
                   for q in queries]
            m = first_model(Solver(f, extra_vars=[n + 1]), queries)
            if not any(sat):
                assert m is None
                continue
            q = queries[sat.index(True)]
            assert evaluate(f, m) is True and n + 1 in m
            assert all(m[abs(l)] == (l > 0) for l in q)


class TestAssumptions:
    def test_core_subset_of_assumptions(self):
        rng = random.Random(12)
        for _ in range(400):
            f, n = random_cnf(rng, max_var=6)
            k = rng.randint(1, n)
            assume = [v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, n + 1), k)]
            res = solve(f, assumptions=assume)
            want = truth_table_sat(
                f + Cnf([Clause((l,)) for l in assume]), n)
            assert bool(res) == want
            if res:
                for l in assume:
                    assert res.model[abs(l)] == (l > 0)
            else:
                assert res.core is not None
                assert res.core <= set(assume)
                # the core itself must be unsatisfiable with f
                again = solve(f, assumptions=sorted(res.core))
                assert not again

    def test_conflicting_assumptions(self):
        res = solve(Cnf([]), assumptions=[1, -1])
        assert not res and res.core == {1, -1}


class TestImplies:
    def test_basic(self):
        a = Cnf([Clause((1,)), Clause((2,))])
        b = Cnf([Clause((1, 2))])
        assert implies(a, b)
        assert not implies(b, a)

    def test_one_solver_per_call(self, built_solvers):
        rng = random.Random(15)
        for _ in range(50):
            a, _ = random_cnf(rng, max_var=5, max_clauses=6)
            b, _ = random_cnf(rng, max_var=5, max_clauses=6)
            if not len(b):
                continue
            del built_solvers[:]
            implies(a, b)
            assert len(built_solvers) == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_semantic(self, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        a, n1 = random_cnf(rng, max_var=5, max_clauses=6)
        b, n2 = random_cnf(rng, max_var=5, max_clauses=6)
        n = max(n1, n2)
        want = all(
            evaluate(b, dict(zip(range(1, n + 1), bits))) is True
            for bits in itertools.product([False, True], repeat=n)
            if evaluate(a, dict(zip(range(1, n + 1), bits))) is True)
        assert implies(a, b) == want


class TestMaxRelaxSolve:
    def test_target_reached_with_max_softs(self):
        rng = random.Random(13)
        for _ in range(200):
            hard, n = random_cnf(rng, max_var=6, max_clauses=5)
            if not solve(hard):
                continue
            soft = [random_cnf(rng, max_var=6, max_clauses=1)[0].clauses
                    for _ in range(rng.randint(1, 6))]
            soft = Cnf([c for cs in soft for c in cs])
            target_var = rng.randint(1, n)
            target = {target_var: rng.random() < 0.5}
            try:
                res = max_relax_solve(hard, soft, target)
            except ValueError:
                assert not solve(hard, assumptions=[
                    target_var if target[target_var] else -target_var])
                continue
            # the kept softs are satisfiable with hard and the target, and
            # each left-out one is not; fresh solvers check both
            kept = list(hard) + [c for i, c in enumerate(soft)
                                 if i not in res]
            lits = [target_var if target[target_var] else -target_var]
            assert Solver(kept).solve(lits)
            for i in res:
                assert not Solver(kept + [soft.clauses[i]]).solve(lits)

    def test_drops_exactly_the_blocking_clause(self):
        hard = Cnf([])
        soft = Cnf([Clause((-1,)), Clause((2,))])
        assert max_relax_solve(hard, soft, {1: True}) == {0}

    def test_one_solver_per_call(self, built_solvers):
        hard = Cnf([Clause((1, 2))])
        soft = Cnf([Clause((-1,)), Clause((-2,)), Clause((3,)),
                    Clause((-3, 1))])
        assert max_relax_solve(hard, soft, {3: True}) == {0}
        assert len(built_solvers) == 1
