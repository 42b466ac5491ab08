import pytest

from lorcheck import boundary
from lorcheck.boundary import (FrameChain, unrolled_lhs, makeup_clauses,
                               clause_implied, detect_invariant)
from lorcheck.circuit import (CircuitError, build_miter, encode,
                              parse_circuit, stutter)
from lorcheck.cnf import Clause, rename, evaluate, variables
from lorcheck.indclause import IcChecker
from lorcheck.pclor import Checker
from lorcheck.pqe import PqeBudgetError, take_out
from lorcheck.sat import Solver, implies
from lorcheck.qe_oracle import (all_assignments, check_pqe, qe_bruteforce,
                                verify_boundary)
from conftest import (STUCK0_SRC, TOGGLE_SRC, DFF_SRC, INV_DFF_SRC,
                      deep_ctr_miter, make_rng, random_system, shreg_source,
                      check_co)


def stuck0_drop_indices(ts):
    """Indices of the transition clauses forcing s@1 false when s@0 is."""
    chain = FrameChain(ts)
    s1 = ts.state_ids(1)[0]
    return [i for i, c in enumerate(chain.ts.trans) if -s1 in c]


class TestFrameChain:
    def test_requires_a_stuttered_system(self):
        # CO condition 4 and the covered region of the makeup step rest on
        # the stutter step, so no engine runs without it
        ts = encode(parse_circuit(STUCK0_SRC))
        for build in (FrameChain, Checker, IcChecker):
            with pytest.raises(CircuitError,
                               match="requires a stuttered system"):
                build(ts)

    def test_h0_is_initial(self, stuck0):
        chain = FrameChain(stuck0)
        assert chain.j == 0
        assert chain.h[0] == stuck0.init

    def test_relax_and_restore_rebuild_one_solver(self, stuck0,
                                                  built_solvers):
        chain = FrameChain(stuck0)
        chain.add_frame()
        chain.add_frame()
        solvers = [chain.solver(k) for k in range(3)]
        before = len(built_solvers)
        for change in (chain.relax, chain.restore):
            change(1, [0])
            again = [chain.solver(k) for k in range(3)]
            assert again[0] is solvers[0] and again[2] is solvers[2]
            assert again[1] is not solvers[1]
            solvers = again
        assert len(built_solvers) - before == 2

    def test_relax_restore_roundtrip(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        n = len(chain.ts.trans)
        chain.relax(0, [0, 1])
        assert len(list(chain.trlx_cnf(0))) == n - 2
        chain.restore(0, [1])
        assert len(list(chain.trlx_cnf(0))) == n - 1
        # T = T^rlx ∧ R syntactically
        assert set(chain.trlx_cnf(0)) | \
            {chain.ts.trans[i] for i in chain.removed[0]} == \
            set(chain.ts.trans)

    def test_strengthen_dedups(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        c = Clause((stuck0.state_ids(0)[0],))
        chain.strengthen(1, [c, c])
        chain.strengthen(1, [c])
        assert chain.h[1] == [c]


class TestStepSolver:
    """Frame k's solver over H_k ∧ T, kept for relative induction."""

    def test_agrees_with_a_fresh_solver(self):
        """After random strengthen, relax and restore calls, a live step
        solver answers as a fresh Solver(H_k ∧ T)."""
        rng = make_rng(38)
        for _ in range(25):
            ts = random_system(rng, rng.randint(1, 3), rng.randint(1, 2))
            chain = FrameChain(ts)
            for _ in range(2):
                chain.add_frame()
            n_trans = len(chain.ts.trans)
            ids = ts.state_ids(0) + ts.state_ids(1)

            def random_lits(pool, n):
                return [v if rng.random() < 0.5 else -v
                        for v in rng.sample(pool, min(n, len(pool)))]

            steps = [chain.step_solver(k) for k in range(chain.j + 1)]
            for _ in range(10):
                op = rng.choice(("strengthen", "strengthen", "relax",
                                 "restore"))
                k = rng.randint(0, chain.j)
                if op == "strengthen":
                    lits = random_lits(ts.state_ids(0), rng.randint(1, 3))
                    chain.strengthen(k, [Clause(lits)])
                elif op == "relax" and k < chain.j:
                    chain.relax(k, rng.sample(range(n_trans),
                                              rng.randint(1, min(3, n_trans))))
                elif op == "restore" and k < chain.j and chain.removed[k]:
                    chain.restore(k, sorted(chain.removed[k])[:1])
                for m in range(chain.j + 1):
                    assert chain.step_solver(m) is steps[m]
                    fresh = Solver(list(chain.h[m]) + list(ts.trans))
                    for _ in range(3):
                        a = random_lits(ids, rng.randint(1, len(ids)))
                        assert (bool(steps[m].solve(a))
                                == bool(fresh.solve(a)))

    def test_relax_and_restore_keep_it(self, stuck0, built_solvers):
        chain = FrameChain(stuck0)
        chain.add_frame()
        relaxed, step = chain.solver(0), chain.step_solver(0)
        for change in (chain.relax, chain.restore):
            change(0, [0])
            assert chain.step_solver(0) is step
            assert chain.solver(0) is not relaxed
            relaxed = chain.solver(0)
        # the first two, and one relaxed solver per change
        assert len(built_solvers) == 4

    def test_a_duplicate_reaches_neither_solver(self, stuck0, monkeypatch):
        chain = FrameChain(stuck0)
        chain.add_frame()
        s = stuck0.state_ids(0)[0]
        c, d = Clause((-s,)), Clause((s,))
        chain.strengthen(1, [c])
        solvers = [chain.solver(1), chain.step_solver(1)]
        added = []
        monkeypatch.setattr(Solver, "add_clause", lambda self, lits:
                            added.append((self, list(lits))))
        chain.strengthen(1, [c, d, d])
        assert chain.h[1] == [c, d]
        assert added == [(x, [s]) for x in solvers]


class TestUnrolledLhs:
    def test_task_shape_and_answer(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        extra = [chain.ts.trans[i] for i in stuck0_drop_indices(stuck0)]
        task = unrolled_lhs(chain, 1, extra)
        assert not (set(stuck0.state_ids(1)) & task.w)
        assert set(stuck0.state_ids(0)) <= task.w
        from lorcheck.pqe import take_out
        a_star = take_out(task)
        assert check_pqe(task.w, task.a, task.b, a_star)

    def test_constant_size_in_depth(self, stuck0):
        """The task at frame k only ever contains two transition copies'
        worth of variables and clauses, however deep the chain is, also
        when every frame is strengthened."""
        chain = FrameChain(stuck0)
        s = stuck0.state_ids(0)[0]
        sizes = []
        for k in range(1, 6):
            chain.add_frame()
            chain.strengthen(k, [Clause((-s,))])
            extra = [chain.ts.trans[0]]
            task = unrolled_lhs(chain, k, extra)
            sizes.append((len(variables(task.a) | variables(task.b)),
                          len(task.a) + len(task.b)))
            chain.restore(k - 1, [0])
        assert len(set(sizes)) == 1, sizes


class TestMakeupClauses:
    def test_stuck0_makeup_restores_boundary(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        g = makeup_clauses(chain, 1, stuck0_drop_indices(stuck0))
        chain.strengthen(1, list(g))
        assert verify_boundary(chain.h[1], stuck0, chain.trlx_cnf(0), 1)

    def test_double_removal_rejected(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        makeup_clauses(chain, 1, [0])
        with pytest.raises(ValueError):
            makeup_clauses(chain, 1, [0])

    def test_empty_removal_is_noop(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        assert list(makeup_clauses(chain, 1, [])) == []

    @pytest.mark.parametrize("built", [True, False],
                             ids=["frame-solver", "none-built"])
    def test_the_dropped_frame_solver_answers_a_and_b(self, toggle,
                                                      monkeypatch, built):
        """relax hands back frame k-1's solver over H_{k-1} ∧ T^rlx_old;
        with H_k′ added, which H_{k-1} ∧ T does not imply here, it is
        take_out's solver over A ∧ B, and the answer meets the PQE
        contract.  With none built, take_out builds one."""
        calls = []

        def record(task, **kw):
            calls.append((task, kw, take_out(task, **kw)))
            return calls[-1][2]
        monkeypatch.setattr(boundary, "take_out", record)
        chain = FrameChain(toggle)
        chain.add_frame()
        chain.strengthen(1, [Clause((-toggle.state_ids(0)[0],))])
        old = chain.solver(0) if built else None
        assert not built or not implies(chain.solver(0), chain.h1[1])
        makeup_clauses(chain, 1, [0])
        (task, kw, a_star), = calls
        assert kw["ab_solver"] is old and 0 not in chain.solvers
        assert check_pqe(task.w, task.a, task.b, a_star)
        if built:
            assert implies(old, chain.h1[1])

    def test_makeup_preserves_projection(self, toggle):
        """∃-projection onto frame-1 state of (prefix ∧ T) equals that of
        (prefix ∧ T^rlx) ∧ G — checked pointwise by the PQE oracle."""
        chain = FrameChain(toggle)
        chain.add_frame()
        drop = [chain.ts.trans[0]]
        task_before = unrolled_lhs(chain, 1, drop)
        chain.restore(0, [0])
        g = makeup_clauses(chain, 1, [0])
        g1 = rename(g, toggle.next)
        assert check_pqe(task_before.w, task_before.a, task_before.b, g1)


def recorded_makeup_tasks(monkeypatch):
    """A list that gains (task, covered, answer) for every take_out call
    of makeup_clauses; covered is copied, as H_{k-1}′ grows later."""
    calls = []

    def record(task, **kw):
        a_star = take_out(task, **kw)
        covered = kw.get("covered")
        calls.append((task, covered if covered is None else list(covered),
                      a_star))
        return a_star
    monkeypatch.setattr(boundary, "take_out", record)
    return calls


def inside_the_contract(task, covered):
    """Does ∃W[B] imply ∃W[A ∧ B] on every free point of `covered`?"""
    free = (variables(task.a) | variables(task.b)) - task.w
    eb = qe_bruteforce(task.w, task.b)
    eab = qe_bruteforce(task.w, task.a + task.b)
    return all(evaluate(eb, y) is False or evaluate(eab, y) is True
               for y in all_assignments(free)
               if evaluate(covered, y) is True)


class TestMakeupAnswers:
    ORACLE_VARS = 14    # larger tasks take the oracle too long

    def test_every_answer_meets_the_pqe_contract(self, monkeypatch):
        """Both engines on the fixture systems and on small random ones:
        H_{k-1}′ meets take_out's precondition on each makeup task, and
        each answer passes the PQE oracle."""
        calls = recorded_makeup_tasks(monkeypatch)
        systems = [encode(stutter(parse_circuit(src)))
                   for src in (STUCK0_SRC, TOGGLE_SRC)]
        systems += [encode(stutter(build_miter(
            parse_circuit(a), parse_circuit(b))))
            for a, b in ((DFF_SRC, DFF_SRC), (DFF_SRC, INV_DFF_SRC),
                         (shreg_source(3), shreg_source(2)))]
        rng = make_rng(5)
        systems += [random_system(rng, rng.randint(2, 3), rng.randint(1, 2))
                    for _ in range(40)]
        for ts in systems:
            Checker(ts).run()
            IcChecker(ts).run()
        checked = 0
        for task, covered, a_star in calls:
            assert covered is not None
            if len(variables(task.a) | variables(task.b)) \
                    > self.ORACLE_VARS:
                continue
            checked += 1
            assert inside_the_contract(task, covered)
            assert check_pqe(task.w, task.a, task.b, a_star)
        assert checked >= 50

    def test_seed_calls_are_pinned(self, monkeypatch):
        """The points the 15 seed calls of sec on the deep counter miter
        enumerate (least budget that finishes each call): 209 in all with
        nothing covered, 49 with H_{k-1}′ covered, whose implied clauses
        make up every answer."""
        calls = recorded_makeup_tasks(monkeypatch)
        ts = deep_ctr_miter()
        assert IcChecker(ts).run().kind == "counterexample"
        budgets = []
        for task, covered, _ in calls:
            budget = 1
            while True:
                try:
                    take_out(task, budget, covered=covered)
                    break
                except PqeBudgetError:
                    budget += 1
            budgets.append(budget)
        assert budgets == [2, 2, 2, 2, 3, 2, 2, 2, 3, 4, 5, 5, 5, 5, 5]


class TestCheckCo:
    def make_good_chain(self, ts):
        chain = FrameChain(ts)
        chain.add_frame()
        s = ts.state_ids(0)[0]
        chain.strengthen(1, [Clause((-s,))])
        return chain

    def test_passes_on_sound_chain(self, stuck0):
        chain = self.make_good_chain(stuck0)
        assert check_co(chain) == []

    def test_condition1_failure(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        s = stuck0.state_ids(0)[0]
        chain.strengthen(1, [Clause((s,))])      # I does not imply s
        assert (1, 1) in check_co(chain)

    def test_condition2_failure(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        # H_1 empty: does not imply the property ¬s
        assert (2, 1) in check_co(chain)

    def test_condition3_failure(self, stuck0):
        chain = self.make_good_chain(stuck0)
        chain.relax(0, stuck0_drop_indices(stuck0))
        assert (3, 1) in check_co(chain)

    def test_condition4_failure(self, stuck0):
        chain = FrameChain(stuck0)
        chain.add_frame()
        s = stuck0.state_ids(0)[0]
        chain.strengthen(0, [])
        chain.h[0] = []                           # H_0 = true
        chain.strengthen(1, [Clause((-s,))])
        assert (4, 1) in check_co(chain)


class TestInvariantDetection:
    def test_detects_fixpoint(self, stuck0):
        chain = FrameChain(stuck0)
        s = stuck0.state_ids(0)[0]
        chain.add_frame()
        chain.strengthen(1, [Clause((-s,))])
        inv = detect_invariant(chain)
        assert inv is not None
        assert implies(inv, [Clause((-s,))])
        assert implies([Clause((-s,))], inv)

    def test_no_fixpoint(self, toggle):
        chain = FrameChain(toggle)
        chain.add_frame()                         # H_1 = true, H_0 = ¬s
        assert detect_invariant(chain) is None

    def test_one_solver_per_frame(self, dff_miter, built_solvers):
        ts = dff_miter
        init = list(ts.init)
        assert len(init) == 4
        chain = FrameChain(ts)
        chain.add_frame()
        chain.add_frame()
        chain.strengthen(1, init[:1])             # H_1 misses I's 2nd clause
        # H_2 implies H_1's clause without holding it, so frame 2 is asked
        chain.strengthen(2, init[1:])
        before = len(built_solvers)
        inv = detect_invariant(chain)
        # frame 1 fails on one of I's four clauses, frame 2 implies H_1
        assert inv == init[:1]
        assert len(built_solvers) - before == 2
        # the new clause goes to H_1's solver, and a second scan reuses it
        # for the clauses of I that H_1 implies without holding them
        chain.strengthen(1, init[2:3])
        assert detect_invariant(chain) == init
        assert len(built_solvers) - before == 2

    def test_a_member_is_implied_without_a_solve(self, stuck0, monkeypatch):
        chain = FrameChain(stuck0)
        s = stuck0.state_ids(0)[0]
        chain.add_frame()
        chain.strengthen(1, [Clause((-s,))])
        chain.solver(1)
        monkeypatch.setattr(Solver, "solve", None)    # any solve fails
        assert clause_implied(chain, 1, Clause((-s,)))

    def test_clause_implied_caches(self, stuck0):
        chain = FrameChain(stuck0)
        s = stuck0.state_ids(0)[0]
        chain.add_frame()
        chain.strengthen(1, [Clause((-s,))])
        assert clause_implied(chain, 1, Clause((-s,)))
        assert (Clause((-s,)).lits, 1) in chain.implied_marks
        assert not clause_implied(chain, 1, Clause((s,)))


class TestFrameSolvers:
    def test_agree_with_fresh_solvers(self):
        """Random strengthen/relax/restore/add_frame sequences: after each
        step, every frame's solver answers state queries as a fresh solver
        over H_k ∧ T^rlx_{k,k+1} (T for the last frame) does, and
        clause_implied as a fresh solver over H_k does."""
        rng = make_rng(18)
        for _ in range(25):
            ts = random_system(rng, rng.randint(1, 3), rng.randint(1, 2))
            chain = FrameChain(ts)
            chain.add_frame()
            n_trans = len(chain.ts.trans)
            ids = ts.state_ids(0) + ts.state_ids(1)

            def random_lits(pool, n):
                return [v if rng.random() < 0.5 else -v
                        for v in rng.sample(pool, min(n, len(pool)))]

            for _ in range(10):
                op = rng.choice(("strengthen", "strengthen", "relax",
                                 "restore", "add_frame"))
                k = rng.randint(0, chain.j)
                if op == "strengthen":
                    lits = random_lits(ts.state_ids(0), rng.randint(2, 3))
                    chain.strengthen(k, [Clause(lits)])
                elif op == "add_frame" and chain.j < 4:
                    chain.add_frame()
                elif op == "relax" and k < chain.j:
                    chain.relax(k, rng.sample(range(n_trans),
                                              rng.randint(1, min(3, n_trans))))
                elif op == "restore" and k < chain.j and chain.removed[k]:
                    dropped = sorted(chain.removed[k])
                    chain.restore(k, rng.sample(dropped,
                                                rng.randint(1, len(dropped))))
                for m in range(chain.j + 1):
                    trans = chain.trlx_cnf(m) if m < chain.j else ts.trans
                    for _ in range(3):
                        a = random_lits(ids, rng.randint(1, len(ids)))
                        fresh = Solver(list(chain.h[m]) + list(trans))
                        assert (bool(chain.solver(m).solve(a))
                                == bool(fresh.solve(a)))
                    c = Clause(random_lits(ts.state_ids(0), rng.randint(1, 2)))
                    fresh = Solver(chain.h[m])
                    assert (clause_implied(chain, m, c)
                            == (not fresh.solve([-l for l in c])))
