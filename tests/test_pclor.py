import itertools
import random

import pytest

from lorcheck.circuit import (CircuitError, parse_circuit, encode, simulate,
                              stutter, build_miter)
from lorcheck.cnf import Clause, evaluate, rename
from lorcheck.sat import Solver, implies
from lorcheck.pclor import Checker, CheckerError, Witness
from lorcheck.indclause import IcChecker
from lorcheck.boundary import FrameChain, check_co
from lorcheck.qe_oracle import reach_bruteforce, verify_boundary
from conftest import (STUCK0_SRC, random_system, random_system_source,
                      brute_force_verdict, make_rng, shreg_source, ring_source,
                      ctr_source, deep_ctr_miter)
from test_boundary import stuck0_drop_indices


def replay_trace(ts, trace):
    """Assert a counterexample trace is a real execution ending in a bad
    state, using gate-level simulation only."""
    first_inputs, state = trace[0]
    assert first_inputs is None
    assert evaluate(ts.init, {ts.table.get(n, 0).id: b
                              for n, b in state.items()}) is True
    for inputs, nxt in trace[1:]:
        _, got = simulate(ts.circuit, state, inputs)
        assert got == nxt
        state = nxt
    assert evaluate(ts.prop, {ts.table.get(n, 0).id: b
                              for n, b in state.items()}) is False


def check_cex_steps(w, iterations):
    """A lor counterexample found by rem_bad_st(j) has exactly j steps,
    where `iterations` = j - 1 main-loop iterations completed before it;
    a bad initial state gives a trace of no steps before any iteration."""
    steps = len(w.trace) - 1
    assert steps == iterations + 1 or steps == iterations == 0


def check_invariant_witness(ts, inv):
    prop = ts.prop
    inv1 = rename(inv, ts.next)
    assert implies(ts.init, inv)
    assert implies(inv, prop)
    assert implies(inv + ts.trans, inv1)


class TestVerdicts:
    def test_stuck0_invariant(self, stuck0):
        w = Checker(stuck0).run()
        assert w.kind == "invariant"
        check_invariant_witness(stuck0, w.invariant)
        s = stuck0.state_ids(0)[0]
        assert implies(w.invariant, [Clause((-s,))])

    def test_toggle_counterexample(self, toggle):
        w = Checker(toggle).run()
        assert w.kind == "counterexample"
        assert len(w.trace) == 2
        replay_trace(toggle, w.trace)

    def test_bad_initial_state(self):
        ts = encode(stutter(parse_circuit(
            "input x\nlatch s init 1 next x\nprop NOT s\n")))
        w = Checker(ts).run()
        assert w.kind == "counterexample" and len(w.trace) == 1

    def test_requires_stuttering(self):
        ts = encode(parse_circuit(STUCK0_SRC))
        with pytest.raises(CircuitError):
            Checker(ts)

    def test_frame_limit(self):
        src = ("input x0\n"
               "latch s0 init 0 next ((s0 AND s2) AND x0)\n"
               "latch s1 init 0 next x0\n"
               "latch s2 init 0 next ((s0 XOR NOT s0) AND (s1 AND s0))\n"
               "prop NOT (s2 AND s0)\n")
        ts = encode(stutter(parse_circuit(src)))
        with pytest.raises(CheckerError):
            Checker(ts, max_frames=1).run()
        assert Checker(ts).run().kind == "invariant"

    def test_frame_limit_zero(self, stuck0):
        with pytest.raises(CheckerError, match="frame limit 0 "):
            Checker(stuck0, max_frames=0).run()

    @pytest.mark.parametrize("engine, system, kw, where", [
        (Checker, lambda: encode(stutter(parse_circuit(ring_source(7)))),
         {"pqe_budget": 1}, "in fin_rlx at frame 1"),
        (IcChecker, deep_ctr_miter, {"max_frames": 1, "pqe_budget": 1},
         "in the sec seed at frame 1"),
    ], ids=["ring7-lor", "deep-ctr-miter-lor-ic"])
    def test_spent_budget_names_phase_and_frame(self, engine, system, kw,
                                                 where):
        """A spent PQE budget ends a library run with the reason that
        `check` prints after `no verdict:`."""
        with pytest.raises(CheckerError) as e:
            engine(system(), **kw).run()
        assert str(e.value) == ("PQE budget of %d points exhausted "
                                "(--pqe-budget) %s"
                                % (kw["pqe_budget"], where))

    def test_unsatisfiable_frame_names_it(self, stuck0):
        c = Checker(stuck0)
        s = stuck0.state_ids(0)[0]
        c.chain.add_frame()
        c.chain.strengthen(0, [Clause((s,))])   # H_0 = I ∧ s is empty
        target = {v: False for v in stuck0.state_ids(0)}
        with pytest.raises(CheckerError, match="^frame 1: H_0 "):
            c.select_relaxation(1, target)


def _shreg3_self_miter():
    c = parse_circuit(shreg_source(3))
    return encode(stutter(build_miter(c, c)))


# (system, engine): stuck0 under lor, and the shreg3 self-miter under
# lor-ic, the engine sec runs by default
CHAIN_INPUTS = [
    pytest.param(lambda: encode(stutter(parse_circuit(STUCK0_SRC))),
                 Checker, id="stuck0-lor"),
    pytest.param(_shreg3_self_miter, IcChecker, id="shreg3-miter-lor-ic"),
]


class TestChainSoundness:
    @pytest.mark.parametrize("system, engine", CHAIN_INPUTS)
    def test_co_holds_each_iteration(self, system, engine):
        reports = []
        engine(system(), iter_hook=lambda ch: reports.append(
            check_co(ch))).run()
        assert reports and all(r == [] for r in reports)

    @pytest.mark.parametrize("system, engine", CHAIN_INPUTS)
    def test_boundaries_verified(self, system, engine):
        ts, results = system(), []

        def hook(ch):
            for k in range(1, ch.j + 1):
                results.append(verify_boundary(
                    ch.h[k], ts, ch.trlx_cnf(k - 1), k))
        engine(ts, iter_hook=hook).run()
        assert results and all(results)

    @pytest.mark.parametrize("engine", [Checker, IcChecker],
                             ids=["lor", "lor-ic"])
    def test_frames_keep_every_reachable_state(self, engine):
        """The half of Definition 5 that soundness rests on: after every
        iteration, each H_k is 1 on every state reachable in k steps.  The
        draws are the first of the seed-11 boundary scan, where some frames
        keep a state that only a relaxed step reaches."""
        rng, frames = make_rng(11), []
        for _ in range(360):
            ts = random_system(rng, rng.randint(3, 6), rng.randint(1, 2))
            ids, reach = ts.state_ids(0), {}

            def hook(ch):
                frames.append(ch.j)
                for k in range(ch.j + 1):
                    if k not in reach:
                        reach[k] = reach_bruteforce(ts, k)
                    for s in reach[k]:
                        assert evaluate(ch.h[k], dict(zip(ids, s))) is True
            engine(ts, iter_hook=hook).run()
        assert frames

    @pytest.mark.xfail(strict=True, reason=(
        "boundary-formula gap: on lor, H_4 at j = 4 keeps the state "
        "(s0..s4) = 00010, which only the relaxed step 3->4 reaches "
        "(removed[3] = {33}, the stutter clause (s3 OR stut OR NOT s3'))"))
    def test_boundaries_verified_beyond_the_fixture(self):
        rng = make_rng(11)
        for _ in range(86):
            src = random_system_source(rng, rng.randint(3, 6),
                                       rng.randint(1, 2))
        ts = encode(stutter(parse_circuit(src)))
        results = []

        def hook(ch):
            for k in range(1, ch.j + 1):
                results.append(verify_boundary(
                    ch.h[k], ts, ch.trlx_cnf(k - 1), k))
        for engine in (Checker, IcChecker):
            engine(ts, iter_hook=hook).run()
        assert results and all(results)


class TestThirdCoCond:
    def test_repairs_then_leaves_chain_alone(self, stuck0):
        """On a chain whose frame-1 relaxation breaks condition 3, the first
        call repairs it; a second call changes nothing."""
        c = Checker(stuck0)
        c.chain.add_frame()
        c.chain.strengthen(1, [Clause((-stuck0.state_ids(0)[0],))])
        c.chain.relax(0, stuck0_drop_indices(stuck0))
        assert (3, 1) in check_co(c.chain)
        c.third_co_cond()
        assert (3, 1) not in check_co(c.chain)
        h, removed = [list(f) for f in c.chain.h], list(c.chain.removed)
        c.third_co_cond()
        assert c.chain.h == h and c.chain.removed == removed

    @staticmethod
    def ring_checker(monkeypatch, frames):
        """A lor checker of the 5-stage ring after `frames` iterations, and
        the list of (frame, assumptions) of every later solve, where frame
        is the chain frame whose solver answers it (None for another)."""
        ts = encode(stutter(parse_circuit(ring_source(5))))
        c = Checker(ts)
        for j in range(1, frames + 1):
            assert c.rem_bad_st(j) is None and c.fin_rlx(j) is None
            c.third_co_cond()
        solves = []
        solve = Solver.solve

        def recorded(solver, assumptions=()):
            frame = next((k for k, s in c.chain.solvers.items()
                          if s is solver), None)
            solves.append((frame, list(assumptions)))
            return solve(solver, assumptions)
        monkeypatch.setattr(Solver, "solve", recorded)
        return c, solves

    def test_relaxing_step_m_1_requeries_all_of_h_m(self, monkeypatch):
        c, solves = self.ring_checker(monkeypatch, 3)
        chain, m = c.chain, 2
        assert chain.co3_done[m] == len(chain.h[m]) > 1
        free = next(i for i in range(len(chain.ts.trans))
                    if i not in chain.removed[m - 1])
        chain.relax(m - 1, [free])
        assert chain.co3_done[m] == 0
        c.third_co_cond()
        asked = {tuple(a) for k, a in solves if k == m - 1}
        h1 = chain.h1[m]
        assert all(tuple(-l for l in cl) in asked for cl in h1)
        assert chain.co3_done[m] == len(chain.h[m])

    def test_second_call_makes_no_solve(self, monkeypatch):
        c, solves = self.ring_checker(monkeypatch, 3)
        c.third_co_cond()
        assert solves == []

    def test_co_holds_after_every_iteration(self):
        rng = make_rng(88)
        reports = []
        for _ in range(40):
            src = random_system_source(rng, rng.randint(2, 4),
                                       rng.randint(1, 2))
            for engine in (Checker, IcChecker):
                ts = encode(stutter(parse_circuit(src)))
                engine(ts, iter_hook=lambda ch: reports.append(
                    check_co(ch))).run()
        assert len(reports) > 80 and all(r == [] for r in reports)


class TestReplay:
    """A walk step is proved by the model that found it: the replay asks T
    only about a step whose model falsifies a clause dropped from the step,
    and the counterexample's inputs come from the kept models."""

    @staticmethod
    def relaxed_step(allowed, k=0):
        """A lor checker of ctr2 with one clause dropped from step k, and a
        walk stack whose step from the initial state at frame k has a model
        that falsifies the dropped clause; T allows the step iff
        `allowed`."""
        ts = encode(stutter(parse_circuit(ctr_source(2))))
        c = Checker(ts)
        for _ in range(k + 1):
            c.chain.add_frame()
        a = dict.fromkeys(ts.state_ids(0), False)
        for i, cl in enumerate(c.chain.ts.trans):
            c.chain.restore(k, c.chain.removed[k])
            c.chain.relax(k, [i])
            rlx = Solver(c.chain.trlx_cnf(k), extra_vars=ts.step_vars)
            for bits in itertools.product((False, True), repeat=2):
                b = dict(zip(ts.state_ids(0), bits))
                lits = c._step(a, b)
                res = rlx.solve(lits + [-l for l in cl])
                if res and bool(Solver(ts.trans).solve(lits)) == allowed:
                    return c, [(k + 1, b, None), (k, a, res.model)]
        raise AssertionError("no such step")

    @staticmethod
    def count_sat(monkeypatch):
        """Counts of Solver constructions and solve calls from now on."""
        n = {"init": 0, "solve": 0}
        init, solve = Solver.__init__, Solver.solve

        def counted_init(self, *args, **kw):
            n["init"] += 1
            init(self, *args, **kw)

        def counted_solve(self, *args, **kw):
            n["solve"] += 1
            return solve(self, *args, **kw)
        monkeypatch.setattr(Solver, "__init__", counted_init)
        monkeypatch.setattr(Solver, "solve", counted_solve)
        return n

    def test_step_model_within_t_asks_nothing(self, monkeypatch):
        c, stack = self.relaxed_step(True)
        k, a, _ = stack[1]
        stack[1] = (k, a, Solver(c.ts.trans, extra_vars=c.ts.step_vars)
                    .solve(c._step(a, stack[0][1])).model)
        n = self.count_sat(monkeypatch)
        assert c._replay(stack) is None
        assert n == {"init": 0, "solve": 0}

    def test_step_allowed_by_t_costs_one_query(self, monkeypatch):
        c, stack = self.relaxed_step(True)
        removed = set(c.chain.removed[0])
        n = self.count_sat(monkeypatch)
        assert c._replay(stack) is None
        assert n["solve"] == 1
        assert c.chain.removed[0] == removed
        # T's model now stands for the step
        (_, b, _), (_, a, m) = stack
        assert evaluate(c.ts.trans, m) is True
        assert all(m[abs(l)] == (l > 0) for l in c._step(a, b))

    def test_step_refused_by_t_restores_what_its_model_breaks(self,
                                                             monkeypatch):
        c, stack = self.relaxed_step(False)
        n = self.count_sat(monkeypatch)
        assert c._replay(stack) == 1
        assert n["solve"] == 1 and n["init"] == 1
        assert c.chain.removed[0] == set()

    def test_cut_step_above_frame_0(self):
        # the walk stops at an initial state of any frame, so the step that
        # T refuses may leave frame 1; its own step gets the clauses back
        c, stack = self.relaxed_step(False, k=1)
        assert c._replay(stack) == 1
        assert c.chain.removed == [set(), set(), set()]

    @pytest.mark.parametrize("engine", [Checker, IcChecker])
    def test_convert_cex_makes_no_sat_call(self, monkeypatch, engine):
        ts = encode(stutter(parse_circuit(ctr_source(3))))
        convert = Checker.convert_cex
        counts = []

        def converted(checker, path):
            n = self.count_sat(monkeypatch)
            w = convert(checker, path)
            counts.append(dict(n))
            return w
        monkeypatch.setattr(Checker, "convert_cex", converted)
        w = engine(ts).run()
        assert w.kind == "counterexample" and len(w.trace) == 5
        replay_trace(ts, w.trace)
        assert counts == [{"init": 0, "solve": 0}]


class TestFinTouch:
    """fin_touch pushes no clause toward frame 0: CO condition 4 holds by
    construction, since every clause lor adds to H_k holds on H_{k-1}."""

    @staticmethod
    def systems():
        rng = make_rng(61)
        for _ in range(40):
            yield random_system(rng, rng.randint(2, 5), rng.randint(1, 2))
        for src in [ring_source(n) for n in (3, 4, 5, 6)] + \
                [ctr_source(n) for n in (2, 3, 4)]:
            yield encode(stutter(parse_circuit(src)))

    def test_every_added_clause_holds_on_the_frame_below(self, monkeypatch):
        added = []
        strengthen = FrameChain.strengthen

        def checked(chain, k, clauses):
            clauses = list(clauses)
            assert implies(chain.h[k - 1], clauses)
            added.extend(clauses)
            strengthen(chain, k, clauses)
        monkeypatch.setattr(FrameChain, "strengthen", checked)
        kinds = [Checker(ts).run().kind for ts in self.systems()]
        assert len(added) > 100
        assert set(kinds) == {"invariant", "counterexample"}

    def test_one_repair_per_frame(self):
        """The run repairs condition 3 once after each new frame and
        fin_touch changes no frame."""
        ts = encode(stutter(parse_circuit(ring_source(5))))
        frames, repairs, touched = [], [], []
        c = Checker(ts, iter_hook=lambda ch: frames.append(ch.j))
        repair, touch = c.third_co_cond, c.fin_touch

        def fin_touch():
            before = [list(h) for h in c.chain.h]
            inv = touch()
            touched.append(before == [list(h) for h in c.chain.h])
            return inv
        c.third_co_cond = lambda: repairs.append(1) or repair()
        c.fin_touch = fin_touch
        assert c.run().kind == "invariant"
        assert len(repairs) == len(touched) == len(frames) > 2
        assert all(touched)


class TestFrames:
    def test_no_variable_past_frame_1(self):
        """PQE tasks and condition-3 queries stay in frames 0 and 1, so
        a run makes no variable."""
        ts = encode(stutter(parse_circuit(ring_source(6))))
        before = dict(ts.table.by_key)
        frames = []
        w = Checker(ts, iter_hook=lambda ch: frames.append(ch.j)).run()
        assert w.kind == "invariant" and max(frames) > 2
        assert ts.table.by_key == before

    def test_no_variable_past_frame_1_in_a_counterexample(self):
        """The trace is the walk's path, so nothing unrolls T: ctr4 fails
        at depth 8 on lor, the unequal shift registers at depth 3 on
        lor-ic."""
        ctr = encode(stutter(parse_circuit(ctr_source(4))))
        miter = encode(stutter(build_miter(
            parse_circuit(shreg_source(4)), parse_circuit(shreg_source(3)))))
        for engine, ts, depth in ((Checker, ctr, 8), (IcChecker, miter, 3)):
            before = dict(ts.table.by_key)
            w = engine(ts).run()
            assert w.kind == "counterexample" and len(w.trace) == depth + 1
            replay_trace(ts, w.trace)
            assert ts.table.by_key == before


class TestDifferential:
    def test_matches_brute_force(self):
        rng = make_rng(41)
        for _ in range(25):
            ts = random_system(rng, rng.randint(1, 3), rng.randint(1, 2))
            want = brute_force_verdict(ts)
            reports = []
            w = Checker(ts, iter_hook=lambda ch: reports.append(
                check_co(ch))).run()
            assert w.kind == want
            assert all(r == [] for r in reports)
            if w.kind == "counterexample":
                replay_trace(ts, w.trace)
                check_cex_steps(w, len(reports))
            else:
                check_invariant_witness(ts, w.invariant)

    def test_free_initial_states(self):
        rng = make_rng(42)
        for _ in range(10):
            ts = random_system(rng, rng.randint(1, 3), 1, init_zero=False)
            frames = []
            w = Checker(ts, iter_hook=frames.append).run()
            assert w.kind == brute_force_verdict(ts)
            if w.kind == "counterexample":
                replay_trace(ts, w.trace)
                check_cex_steps(w, len(frames))

    def test_matches_brute_force_on_larger_systems(self):
        # draws of a fixed scan of random 6-8-latch systems; on draw 43 the
        # walk first reaches I through a step that only T^rlx allows
        wanted = {13, 15, 21, 23, 36, 43, 44, 45, 59}
        rng = random.Random(11)
        for i in range(max(wanted) + 1):
            n_latch, n_in = rng.choice([6, 7, 8]), rng.choice([1, 2, 3])
            src = random_system_source(rng, n_latch, n_in)
            if i not in wanted:
                continue
            ts = encode(stutter(parse_circuit(src)))
            frames = []
            w = Checker(ts, iter_hook=frames.append).run()
            assert w.kind == brute_force_verdict(ts), i
            if w.kind == "counterexample":
                replay_trace(ts, w.trace)
                check_cex_steps(w, len(frames))
            else:
                check_invariant_witness(ts, w.invariant)
