import hashlib
import itertools
import random

from hypothesis import given, settings, strategies as st

from lorcheck.cnf import Clause, evaluate
from lorcheck.sat import (Solver, _luby, first_model, implies,
                          max_relax_solve)


def random_cnf(rng, max_var=8, max_clauses=20, max_len=4):
    n = rng.randint(1, max_var)
    out = []
    for _ in range(rng.randint(0, max_clauses)):
        k = rng.randint(1, min(max_len, n))
        vs = rng.sample(range(1, n + 1), k)
        out.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    return out, n


def pigeonhole(p, h):
    """p pigeons in h holes, each hole holding at most one pigeon."""
    v = lambda i, j: i * h + j + 1
    out = [Clause(tuple(v(i, j) for j in range(h))) for i in range(p)]
    for j in range(h):
        for a, b in itertools.combinations(range(p), 2):
            out.append(Clause((-v(a, j), -v(b, j))))
    return out


def probed(s, assumptions):
    """The literals true after s.probe(assumptions), read from s.value, or
    None when the probe conflicts."""
    if not s.probe(assumptions):
        return None
    return {l for v in s.var_ids for l in (v, -v) if s.value[l]}


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
            res = Solver(f).solve()
            assert bool(res) == truth_table_sat(f, n)
            if res:
                assert evaluate(f, res.model) is True

    def test_model_covers_extra_vars(self):
        f = [Clause((1,))]
        res = Solver(f, extra_vars=[5, 6]).solve()
        assert 5 in res.model and 6 in res.model

    def test_trivial(self):
        assert Solver([]).solve()
        assert not Solver([Clause((1,)), Clause((-1,))]).solve()


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
                assert evaluate(clauses, res.model) is True
                for l in assume:
                    assert res.model[abs(l)] == (l > 0)
            else:
                assert res.core <= set(assume)
                assert not Solver(clauses).solve(sorted(res.core))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_propagate_keeps_answers(self, data):
        # probe calls between the solves of a reused solver change no
        # answer: it agrees with a fresh solver
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        f, n = random_cnf(rng, max_var=8, max_clauses=30)
        s = Solver(f)
        for _ in range(rng.randint(1, 10)):
            for _ in range(rng.randint(0, 3)):
                vs = rng.sample(range(1, n + 3), rng.randint(0, 3))
                s.probe([v if rng.random() < 0.5 else -v for v in vs])
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
        s = Solver([Clause((-sel,) + c.lits) for c in f])
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

    def test_activities_rescale_above_1e100(self):
        """A bump past 1e100 scales every activity and the increment by
        1e-100; the answer stays the same."""
        s = Solver(pigeonhole(5, 4))
        s.act_inc = 1e99
        assert not s.solve()
        assert s.act_inc < 1e99
        assert max(s.activity) <= 1e100

    def test_first_model_answers_the_first_satisfiable_query(self):
        rng = random.Random(14)
        for _ in range(200):
            f, n = random_cnf(rng, max_var=6, max_clauses=12)
            queries = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n + 1),
                                            rng.randint(1, n))]
                       for _ in range(rng.randint(1, 5))]
            sat = [truth_table_sat(f + [Clause((l,)) for l in q], n)
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
            res = Solver(f).solve(assume)
            want = truth_table_sat(
                f + [Clause((l,)) for l in assume], n)
            assert bool(res) == want
            if res:
                for l in assume:
                    assert res.model[abs(l)] == (l > 0)
            else:
                assert res.core is not None
                assert res.core <= set(assume)
                # the core itself must be unsatisfiable with f
                again = Solver(f).solve(sorted(res.core))
                assert not again

    def test_conflicting_assumptions(self):
        res = Solver([]).solve([1, -1])
        assert not res and res.core == {1, -1}


class TestPrefer:
    def test_false_preferred_literal_is_refuted_by_earlier_true_ones(self):
        # a reused solver answers several (assumptions, prefer) queries; a
        # preferred literal false in the model must be refuted by the
        # clauses, the assumptions and the earlier preferred literals true
        # in the model, which fresh solvers check
        rng = random.Random(31)
        refuted = 0
        for _ in range(150):
            f, n = random_cnf(rng, max_var=12, max_clauses=40, max_len=3)
            s = Solver(f)
            for _ in range(3):
                assume = [v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, n + 1),
                                              rng.randint(0, min(2, n)))]
                prefer = [v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, n + 3),
                                              rng.randint(1, n))]
                res = s.solve(assume, prefer=prefer)
                assert bool(res) == bool(Solver(f).solve(assume))
                if not res:
                    assert res.core <= set(assume)
                    assert not Solver(f).solve(sorted(res.core))
                    continue
                m = res.model
                assert evaluate(f, m) is True
                assert all(m[abs(l)] == (l > 0) for l in assume)
                for i, p in enumerate(prefer):
                    if m[abs(p)] != (p > 0):
                        earlier = [q for q in prefer[:i]
                                   if m[abs(q)] == (q > 0)]
                        assert not Solver(f).solve(assume + earlier + [p])
                        refuted += 1
        assert refuted > 50

    def test_assumptions_win(self):
        res = Solver([Clause((1, 2))]).solve([-1], prefer=[1, -2])
        assert res.model == {1: False, 2: True}

    def test_preferred_literals_decided_in_order(self):
        res = Solver([Clause((-1, -2))]).solve(prefer=[-3, 2, 1])
        assert res.model == {1: False, 2: True, 3: False}

    def test_unregistered_preferred_variable_is_registered(self):
        s = Solver([Clause((1, 2))])
        res = s.solve([3], prefer=[-5, 4])
        assert s.order == [1, 2, 3, 4, 5] and s.var_ids == {1, 2, 3, 4, 5}
        assert res.model[5] is False and res.model[4] is True
        TestKernelBookkeeping.assert_consistent(s)


class TestImplies:
    def test_basic(self):
        a = [Clause((1,)), Clause((2,))]
        b = [Clause((1, 2))]
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

    def test_against_one_solve_per_clause(self):
        # a may be unsatisfiable or hold units (literals true at level 0),
        # b may be empty or hold units or the empty clause; a solver over a
        # that answered another implies first answers the same
        rng = random.Random(41)
        seen = {"unsat a": 0, "empty b": 0, "empty clause": 0,
                "unit in b": 0, "level-0 literal": 0, "implied": 0,
                "not implied": 0}
        # implied and not implied count satisfiable a only

        def some_units(n):
            return [Clause((v if rng.random() < 0.5 else -v,))
                    for v in rng.sample(range(1, n + 1),
                                        rng.randint(0, min(2, n)))]
        for _ in range(400):
            a, n = random_cnf(rng, max_var=7, max_clauses=10)
            units = some_units(n)
            a = a + units
            b = list(random_cnf(rng, max_var=n, max_clauses=8)[0])
            b += some_units(n)
            rng.shuffle(b)
            if rng.random() < 0.2:
                b = []
            if rng.random() < 0.1:
                b.insert(rng.randint(0, len(b)), Clause(()))
            want = not any(Solver(a).solve([-l for l in c]) for c in b)
            assert implies(a, b) == want
            s = Solver(a)
            other = random_cnf(rng, max_var=n + 2, max_clauses=4)[0]
            assert implies(s, other) == implies(a, other)
            assert implies(s, b) == want
            seen["unsat a"] += not Solver(a).solve()
            seen["empty b"] += not b
            seen["empty clause"] += any(not c for c in b)
            seen["unit in b"] += any(len(c) == 1 for c in b)
            seen["level-0 literal"] += any(
                -u.lits[0] in c or u.lits[0] in c for u in units for c in b)
            seen["implied" if want else "not implied"] += bool(
                Solver(a).solve())
        assert min(seen.values()) > 10, seen

    def test_settled_clauses_need_no_probe_or_solve(self, monkeypatch):
        # a implies (1 2), as probing -1 makes 2 true, and (1 3) only by
        # resolution, so one probe and one solve settle both; (5 6) holds
        # at level 0 and is not probed
        calls = []
        for name in ("probe", "solve"):
            def counting(self, *args, _name=name, _fn=getattr(Solver, name)):
                calls.append(_name)
                return _fn(self, *args)
            monkeypatch.setattr(Solver, name, counting)
        a = [Clause((1, 2)), Clause((1, 3, 4)), Clause((1, 3, -4)),
             Clause((5,))]
        assert implies(a, [Clause((1, 3)), Clause((1, 2)), Clause((5, 6))])
        assert calls == ["probe", "solve"]

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


class TestPropagate:
    def test_sound_and_closed(self):
        # the answer is a conflict only when f and the assumptions are
        # unsatisfiable; otherwise it holds the assumptions, f and them imply
        # each of its literals, and no clause of f is unit or false under it
        rng = random.Random(43)
        conflicts = 0
        for _ in range(200):
            f, n = random_cnf(rng, max_var=8, max_clauses=25)
            s = Solver(f)
            for _ in range(rng.randint(1, 5)):
                vs = rng.sample(range(1, n + 3), rng.randint(0, 3))
                assume = [v if rng.random() < 0.5 else -v for v in vs]
                if rng.random() < 0.3:
                    s.solve(assume)
                true = probed(s, assume)
                TestKernelBookkeeping.assert_consistent(s)
                if true is None:
                    conflicts += 1
                    assert not Solver(f).solve(assume)
                    continue
                assert set(assume) <= true
                assert not any(-l in true for l in true)
                for c in f:
                    open_lits = [l for l in c if -l not in true]
                    assert any(l in true for l in c) or len(open_lits) >= 2
                for l in true:
                    assert not Solver(f).solve(assume + [-l])
        assert conflicts > 20

    def test_learns_nothing(self):
        # pigeon i in hole j is variable 3i + j + 1; no pigeon fits in
        # 1 (pigeon 0, hole 0) and 5 (pigeon 1, hole 1) leave pigeon 3 none
        f = pigeonhole(4, 3)
        s = Solver(f)
        order, activity = list(s.order), list(s.activity)
        assert probed(s, [1, 5]) is None
        assert probed(s, [1]) == {1, -4, -7, -10}
        assert len(s.clauses) == len(f)
        assert s.order == order and s.activity == activity

    def test_level_0_conflict_is_final(self):
        s = Solver([Clause((1,)), Clause((-1, 2)), Clause((-1, -2))])
        assert not s.probe([]) and not s.ok
        assert not s.solve()


def assert_minimal_correction_set(hard, soft, lits, left_out):
    """hard, the literals and the softs outside left_out are satisfiable,
    and adding any one left-out soft makes them unsatisfiable; fresh
    solvers check both."""
    assert left_out <= set(range(len(soft)))
    kept = list(hard) + [c for i, c in enumerate(soft) if i not in left_out]
    assert Solver(kept).solve(lits)
    for i in left_out:
        assert not Solver(kept + [soft[i]]).solve(lits)


class TestMaxRelaxSolve:
    def test_target_reached_with_max_softs(self):
        rng = random.Random(13)
        for _ in range(200):
            hard, n = random_cnf(rng, max_var=6, max_clauses=5)
            if not Solver(hard).solve():
                continue
            soft = [random_cnf(rng, max_var=6, max_clauses=1)[0]
                    for _ in range(rng.randint(1, 6))]
            soft = [c for cs in soft for c in cs]
            target_var = rng.randint(1, n)
            target = {target_var: rng.random() < 0.5}
            try:
                res, _ = max_relax_solve(hard, soft, target)
            except ValueError:
                assert not Solver(hard).solve(
                    [target_var if target[target_var] else -target_var])
                continue
            assert_minimal_correction_set(
                hard, soft, [target_var if target[target_var] else -target_var],
                res)

    def test_left_out_set_is_a_minimal_correction_set(self):
        rng = random.Random(29)
        nonempty = 0
        for _ in range(150):
            n = rng.randint(6, 12)
            hard, _ = random_cnf(rng, max_var=n, max_clauses=n, max_len=3)
            target = {v: rng.random() < 0.5
                      for v in rng.sample(range(1, n + 1), 2)}
            lits = [v if b else -v for v, b in target.items()]
            if not Solver(hard).solve(lits):
                continue
            soft = [Clause(tuple(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, n + 1),
                                                     rng.randint(1, 3))))
                    for _ in range(rng.randint(6, 20))]
            res, _ = max_relax_solve(hard, soft, target)
            assert_minimal_correction_set(hard, soft, lits, res)
            nonempty += bool(res)
        assert nonempty > 50

    def test_drops_exactly_the_blocking_clause(self):
        hard = []
        soft = [Clause((-1,)), Clause((2,))]
        assert max_relax_solve(hard, soft, {1: True})[0] == {0}

    def test_one_solver_per_call(self, built_solvers, monkeypatch):
        solves = []
        solve_ = Solver.solve

        def counting(self, *args, **kw):
            solves.append(self)
            return solve_(self, *args, **kw)
        monkeypatch.setattr(Solver, "solve", counting)
        hard = [Clause((1, 2))]
        soft = [Clause((-1,)), Clause((-2,)), Clause((3,)),
                    Clause((-3, 1))]
        res, _ = max_relax_solve(hard, soft, {3: True})
        assert len(built_solvers) == 1 and solves == built_solvers
        assert_minimal_correction_set(hard, soft, [3], res)


class TestKernelBookkeeping:
    @staticmethod
    def assert_consistent(s):
        # order lists the registered ids in ascending order; value holds
        # both signs of each, True/False exactly for the literals on the
        # trail; an id without a variable has None and no watchers on both
        assert s.order == sorted(s.var_ids)
        assert len(s.value) == len(s.watches) == 2 * s.cap + 1
        assert len(s.level) == len(s.reason) == len(s.activity) == s.cap + 1
        assert max(s.var_ids, default=0) <= s.cap
        on_trail = {abs(l): l for l in s.trail}
        for v in s.var_ids:
            if v in on_trail:
                l = on_trail[v]
                assert s.value[l] is True and s.value[-l] is False
            else:
                assert s.value[v] is None and s.value[-v] is None
        for v in set(range(1, s.cap + 1)) - s.var_ids:
            assert s.value[v] is None and s.value[-v] is None
            assert not s.watches[v] and not s.watches[-v]
            assert s.activity[v] == 0.0

    def test_ids_first_seen_late_and_out_of_order(self):
        s = Solver([Clause((5, -9))], extra_vars=[2])
        s.add_clause([7, -3])
        assert s.solve([-12, 1])
        s.add_clause([11, 4, -9])
        assert s.solve([6, -8])
        assert s.order == [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12]
        self.assert_consistent(s)

    def test_model_covers_every_registered_variable(self):
        s = Solver([Clause((1, 2))])
        assert s.solve()
        s.add_clause([3, -4])
        s.add_clause([-5])
        res = s.solve([6])
        assert list(res.model) == [abs(l) for l in s.trail]
        assert set(res.model) == s.var_ids == {1, 2, 3, 4, 5, 6}

    def test_random_scripts(self):
        rng = random.Random(16)
        for _ in range(100):
            f, n = random_cnf(rng, max_var=10, max_clauses=25)
            s = Solver(f)
            for _ in range(rng.randint(1, 6)):
                for c in random_cnf(rng, max_var=n + 4, max_clauses=2)[0]:
                    s.add_clause(c)
                vs = rng.sample(range(1, n + 6), rng.randint(0, 4))
                true = probed(s, [v if rng.random() < 0.5 else -v
                                  for v in vs])
                self.assert_consistent(s)
                if true is not None:
                    assert true == set(s.trail)
                vs = rng.sample(range(1, n + 6), rng.randint(0, 4))
                res = s.solve([v if rng.random() < 0.5 else -v for v in vs])
                self.assert_consistent(s)
                if res:
                    assert set(res.model) == s.var_ids
                s._backtrack(0)
                self.assert_consistent(s)

    def test_growth_past_capacity(self):
        # each round, an id above the solver's room first appears in an
        # added clause, then in an assumption, then in a preferred literal;
        # the reused solver must answer as fresh solvers over its clauses
        rng = random.Random(18)
        sign = lambda v: v if rng.random() < 0.5 else -v
        for _ in range(60):
            f, n = random_cnf(rng, max_var=8, max_clauses=20, max_len=3)
            s = Solver(f)
            clauses = list(f)
            for _ in range(3):
                old = rng.sample(sorted(s.var_ids), min(2, len(s.var_ids)))
                c = Clause(tuple(sign(v) for v in old + [s.cap + 1]))
                s.add_clause(c)
                clauses.append(c)
                assume = [sign(v) for v in rng.sample(sorted(s.var_ids),
                                                      min(2, len(s.var_ids)))]
                assume.append(sign(s.cap + 1))
                prefer = [sign(v) for v in sorted(s.var_ids)]
                prefer.append(sign(s.cap + 1 + len(assume)))
                res = s.solve(assume, prefer=prefer)
                self.assert_consistent(s)
                assert bool(res) == bool(Solver(clauses).solve(assume))
                if res:
                    assert evaluate(clauses, res.model) is True
                    assert all(res.model[abs(l)] == (l > 0) for l in assume)
                    assert set(res.model) == s.var_ids
                else:
                    assert res.core <= set(assume)
                    assert not Solver(clauses).solve(sorted(res.core))


def random_3cnf(rng, n):
    """Random 3-CNF over n variables at the satisfiability threshold."""
    return [Clause(tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, n + 1), 3)))
            for _ in range(round(4.26 * n))]


class TestSearchIsPinned:
    """The solver's search, step by step: every status, model (in dict
    order), core, learnt clause and watched-literal order of a fixed script
    over 40 seeded instances hashes to DIGEST.  DIGEST gives the same value
    on the solver before its kernel was rewritten for speed, so a change to
    the kernel that moves any decision fails here even where the answers
    agree.  Preferred literals, and so max_relax_solve, are pinned by
    TestPreferSearchIsPinned."""

    DIGEST = ("16e9f88c588762a18964f0a49d6abec7"
              "066087f5459b03cc1bba870ce963843b")

    @staticmethod
    def transcript(seed):
        rng = random.Random(seed)
        n = rng.randint(40, 70)
        f = random_3cnf(rng, n)
        s = Solver(f, extra_vars=[n + 1])
        out = []
        for _ in range(4):
            # assumptions may name variables the solver has not seen yet
            vs = rng.sample(range(1, n + 4), rng.randint(0, 4))
            res = s.solve([v if rng.random() < 0.5 else -v for v in vs])
            out.append((res.status, list(res.model.items()) if res
                        else sorted(res.core)))
            more, _ = random_cnf(rng, max_var=n + 3, max_clauses=3,
                                 max_len=3)
            for c in more:
                s.add_clause(c)
        out.append(s.clauses)
        return out

    def test_transcript_digest(self):
        h = hashlib.sha256()
        for seed in range(40):
            h.update(repr(self.transcript(seed)).encode())
        assert h.hexdigest() == self.DIGEST


class TestPreferSearchIsPinned:
    """The preferred-literal search that max_relax_solve relies on, pinned
    like TestSearchIsPinned: every status, model (in dict order), core and
    learnt clause of a fixed script of solve(assumptions, prefer) calls,
    and the set that max_relax_solve returns, over 40 seeded instances,
    hash to DIGEST.  DIGEST was recorded on the solver before its kernel
    moved from dicts to literal-indexed lists."""

    DIGEST = ("91176c7fd958e7f3769e308885ed9eac"
              "39f52c2df16133c6b936fec53b4a3cd3")

    @staticmethod
    def transcript(seed):
        rng = random.Random(seed)
        n = rng.randint(30, 60)
        # below the threshold, so that most solves are satisfiable
        s = Solver(list(random_3cnf(rng, n))[:round(3.6 * n)])
        out = []
        for _ in range(4):
            # assumptions and preferred literals may name unseen variables
            vs = rng.sample(range(1, n + 4), rng.randint(0, 3))
            ps = rng.sample(range(1, n + 8), rng.randint(1, n))
            res = s.solve([v if rng.random() < 0.5 else -v for v in vs],
                          prefer=[v if rng.random() < 0.5 else -v
                                  for v in ps])
            out.append((res.status, list(res.model.items()) if res
                        else sorted(res.core)))
            more, _ = random_cnf(rng, max_var=n + 3, max_clauses=3,
                                 max_len=3)
            for c in more:
                s.add_clause(c)
        out.append(s.clauses)
        hard = random_3cnf(rng, n)[:3 * n]
        soft = [Clause(tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, n + 1), 2)))
                for _ in range(2 * n)]
        target = {v: rng.random() < 0.5 for v in rng.sample(range(1, n + 1), 3)}
        try:
            out.append(sorted(max_relax_solve(hard, soft, target)[0]))
        except ValueError:
            out.append("unsat")
        return out

    def test_transcript_digest(self):
        h = hashlib.sha256()
        for seed in range(40):
            h.update(repr(self.transcript(seed)).encode())
        assert h.hexdigest() == self.DIGEST


class TestPropagateSearchIsPinned:
    """Unit propagation and what it leaves behind, pinned like
    TestSearchIsPinned: a fixed script interleaves probe, implies, solve
    and add_clause over 40 seeded instances, and every literal set a probe
    leaves true, every answer of implies, every status, model (in dict
    order) and core, and at the end the clauses and the watch list of
    every literal, hash to DIGEST.  A probe reorders watch lists and so
    steers the models of later solves; implies and clause_implied rest on
    it.  DIGEST was recorded on the solver before its propagation loop was
    rewritten for speed, when a probe was a method that returned the set
    of literals true after it."""

    DIGEST = ("a8262f4740e3e6903dd774b13577fe50"
              "ef72a9e6109ca4240ca9e792c40ca7c3")

    @staticmethod
    def transcript(seed):
        rng = random.Random(seed)
        n = rng.randint(30, 60)
        sign = lambda v: v if rng.random() < 0.5 else -v
        f = list(random_3cnf(rng, n))[:round(3.8 * n)]
        s = Solver(f)
        out = []
        for _ in range(5):
            for _ in range(rng.randint(1, 4)):
                # assumptions may name variables the solver has not seen yet
                vs = rng.sample(range(1, n + 4), rng.randint(1, 5))
                true = probed(s, [sign(v) for v in vs])
                out.append(None if true is None else sorted(true))
            b, _ = random_cnf(rng, max_var=n, max_clauses=6, max_len=4)
            out.append(implies(f, b))
            vs = rng.sample(range(1, n + 4), rng.randint(0, 4))
            res = s.solve([sign(v) for v in vs])
            out.append((res.status, list(res.model.items()) if res
                        else sorted(res.core)))
            more, _ = random_cnf(rng, max_var=n + 3, max_clauses=3,
                                 max_len=3)
            for c in more:
                s.add_clause(c)
                f.append(c)
        out.append(s.clauses)
        out.append([(l, s.watches[l]) for v in range(1, s.cap + 1)
                    for l in (v, -v)])
        return out

    def test_transcript_digest(self):
        h = hashlib.sha256()
        for seed in range(40):
            h.update(repr(self.transcript(seed)).encode())
        assert h.hexdigest() == self.DIGEST
