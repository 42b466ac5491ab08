import inspect
import itertools
import re
import sys

import pytest

from lorcheck.cnf import (Clause, evaluate, longest_falsified_clause,
                          rename)
from lorcheck.sat import Solver, implies
from lorcheck.boundary import FrameChain
from lorcheck.circuit import parse_circuit, encode, stutter, build_miter
import lorcheck.indclause as indclause
from lorcheck.indclause import (Cti, IcChecker, make_inductive_clause,
                                generalize, educat_guess_rlx, houdini,
                                mine)
from lorcheck.cli import main
from lorcheck.pclor import Checker
from lorcheck.qe_oracle import verify_boundary, image_under, reach_bruteforce
from conftest import (random_system, random_system_source,
                      brute_force_verdict, make_rng, shreg_source, ctr_source,
                      deep_ctr_miter, deep_ctr_miter_sources, check_co)
from test_pclor import replay_trace, check_invariant_witness


def step_solver(ts, f):
    """A relative-induction solver over f ∧ T, as IcChecker keeps per frame."""
    return Solver(list(f) + list(ts.trans), extra_vars=ts.step_vars)


def fresh_answer(ts, f, c):
    """Is c not inductive relative to f, by a fresh Solver(f ∧ c ∧ T)?"""
    c1 = rename([c], ts.next)[0]
    step = Solver(list(f) + [c] + list(ts.trans), extra_vars=ts.step_vars)
    return bool(step.solve([-l for l in c1]))


def assert_inductive_clause(ts, f, c, wide):
    """c is a subset of the clause `wide`, I implies it and it is inductive
    relative to f, by fresh solvers."""
    assert set(c.lits) <= set(wide.lits)
    assert implies(ts.init, [c])
    assert implies(list(f) + [c] + ts.trans,
                   rename([c], ts.next))


class TestMakeInductiveClause:
    def test_excludes_unreachable_state(self, stuck0):
        s = stuck0.state_ids(0)[0]
        step = step_solver(stuck0, [])
        c = make_inductive_clause(stuck0, step, {s: True},
                                  Solver(stuck0.init))
        assert c == Clause((-s,))
        # c joined the kept solver only under an activation literal, which
        # is retired, so the solver still holds T alone
        assert step.solve([s])

    def test_reachable_state_yields_predecessor_cti(self, toggle):
        s = toggle.state_ids(0)[0]
        r = make_inductive_clause(toggle, step_solver(toggle, toggle.init),
                                  {s: True}, Solver(toggle.init))
        assert isinstance(r, Cti)
        assert r.state == {s: False}

    def test_clause_really_is_inductive(self):
        rng = make_rng(51)
        for _ in range(20):
            ts = random_system(rng, 2, 1)
            ids = ts.state_ids(0)
            f = ts.init
            step, init = step_solver(ts, f), Solver(ts.init)
            for bits in itertools.product([False, True], repeat=2):
                s = dict(zip(ids, bits))
                if evaluate(ts.init, s):
                    continue  # make_inductive_clause needs a non-initial s
                c = make_inductive_clause(ts, step, s, init)
                if isinstance(c, Cti):
                    continue
                assert evaluate([c], s) is False
                assert_inductive_clause(ts, f, c, longest_falsified_clause(s))

    def test_kept_solver_answers_as_a_fresh_one(self):
        """Differential check: a series of calls on one kept solver while F
        gains clauses between them, as H_k does.  Each answer is a fresh
        Solver(F ∧ C ∧ T)'s, and each clause, before and after
        generalize, is a subset of C that I implies and that is inductive
        relative to F."""
        rng = make_rng(58)
        outcomes = {True: 0, False: 0}
        trimmed = 0
        for _ in range(25):
            ts = random_system(rng, rng.randint(2, 4), rng.randint(1, 2),
                               init_zero=False)
            ids = ts.state_ids(0)
            f = list(ts.init)
            step, init = step_solver(ts, f), Solver(ts.init)
            for _ in range(12):
                s = {v: rng.random() < 0.5 for v in ids}
                if evaluate(ts.init, s):
                    continue
                wide = longest_falsified_clause(s)
                r = make_inductive_clause(ts, step, s, init)
                cti = isinstance(r, Cti)
                assert cti == fresh_answer(ts, f, wide)
                outcomes[cti] += 1
                if cti:
                    assert evaluate(f + [wide] + ts.trans,
                                    r.model) is True
                    assert evaluate(rename([wide], ts.next),
                                    r.model) is False
                    continue
                assert_inductive_clause(ts, f, r, wide)
                g = generalize(r, step, ts, init)
                assert_inductive_clause(ts, f, g, r)
                trimmed += len(r) < len(wide)
                # F gains the clause, and now and then a random clause,
                # which I need not imply: then a core can lose every
                # literal that I implies
                new = [g]
                if rng.random() < 0.3:
                    new.append(Clause(v if rng.random() < 0.5 else -v
                                      for v in rng.sample(ids, 2)))
                for c in new:
                    f.append(c)
                    step.add_clause(c)
        assert outcomes[True] >= 30 and outcomes[False] >= 100
        assert trimmed >= 50


class TestGeneralize:
    def test_drops_redundant_literals(self):
        ts = encode(stutter(parse_circuit(
            "input x\nlatch s init 0 next (s AND x)\n"
            "latch t init 0 next x\nprop NOT s\n")))
        s, t = ts.state_ids(0)
        # ¬s alone is inductive; ¬t is not, as x sets t
        wide = Clause((-s, -t))
        g = generalize(wide, step_solver(ts, ts.init), ts, Solver(ts.init))
        assert g == Clause((-s,))

    def test_result_still_inductive(self):
        rng = make_rng(52)
        for _ in range(15):
            ts = random_system(rng, 3, 1)
            ids = ts.state_ids(0)
            s = dict(zip(ids, (True, True, True)))
            if evaluate(ts.init, s):
                continue
            step, init = step_solver(ts, ts.init), Solver(ts.init)
            c = make_inductive_clause(ts, step, s, init)
            if isinstance(c, Cti):
                continue
            g = generalize(c, step, ts, init)
            assert_inductive_clause(ts, ts.init, g, c)

    def test_two_solvers_give_the_fresh_solver_answer(self, built_solvers):
        """One solver over I and one over F ∧ T serve every call on a
        system, and their answers are those of fresh solvers: the same
        sat/unsat answer, and a clause that holds its properties."""
        rng = make_rng(54)
        shrunk = 0
        for _ in range(10):
            ts = random_system(rng, 3, 1)
            step, init = step_solver(ts, ts.init), Solver(ts.init)
            for bits in itertools.product([False, True], repeat=3):
                s = dict(zip(ts.state_ids(0), bits))
                if evaluate(ts.init, s):
                    continue
                wide = longest_falsified_clause(s)
                n = len(built_solvers)
                r = make_inductive_clause(ts, step, s, init)
                g = None if isinstance(r, Cti) else generalize(r, step, ts,
                                                               init)
                assert len(built_solvers) == n
                assert isinstance(r, Cti) == fresh_answer(ts, ts.init, wide)
                if g is not None:
                    assert_inductive_clause(ts, ts.init, g, wide)
                    shrunk += len(g) < len(wide)
        assert shrunk

    def test_skips_a_literal_an_earlier_trim_dropped(self, monkeypatch):
        """Draw 884 of this scan under lor-ic is a run where the core of an
        accepted trial drops a literal of c that the loop has not reached:
        the loop skips it, and the clause returned is still implied by I
        and inductive relative to F."""
        rng = make_rng(3)
        for _ in range(885):
            src = random_system_source(rng, rng.randint(3, 7),
                                       rng.randint(1, 2),
                                       init_zero=rng.random() < 0.5)
        chk = IcChecker(encode(stutter(parse_circuit(src))))
        code = generalize.__code__
        body = inspect.getsource(generalize).splitlines()
        skip_line = code.co_firstlineno + 1 + next(
            i for i, l in enumerate(body) if "if l not in lits" in l)
        skips = []

        def tracer(frame, event, arg):
            if frame.f_code is not code:
                return None
            if event == "line" and frame.f_lineno == skip_line:
                skips.append(frame.f_locals["l"])
            return tracer

        skipped = []

        def recording(c, step, ts, init):
            n, old = len(skips), sys.gettrace()
            sys.settrace(tracer)
            try:
                g = generalize(c, step, ts, init)
            finally:
                sys.settrace(old)
            if len(skips) > n:
                k = next(k for k, x in chk.chain.step_solvers.items()
                         if x is step)
                skipped.append((c, g, list(chk.chain.h[k]), skips[n:]))
            return g
        monkeypatch.setattr(indclause, "generalize", recording)
        chk.run()
        assert skipped
        for c, g, f, lits in skipped:
            assert set(lits) <= set(c.lits) - set(g.lits)
            assert_inductive_clause(chk.ts, f, g, c)


class TestGuessSeeding:
    def test_interface_drop_recovers_state_equality(self, dff_miter):
        ts = dff_miter
        chain = FrameChain(ts)
        chain.add_frame()
        seed = educat_guess_rlx(chain, 1)
        sn, sk = ts.state_ids(0)
        eq = [Clause((sn, -sk)), Clause((-sn, sk))]
        assert implies(seed, eq) and implies(eq, seed)
        assert verify_boundary(seed, ts, chain.trlx_cnf(0), 1)


def _inductive_by_enumeration(ts, clauses, succ):
    """Every successor of a state satisfying `clauses` satisfies them too."""
    ids = ts.state_ids(0)

    def holds(s):
        return evaluate(clauses, dict(zip(ids, s))) is True
    return all(holds(t) for s in succ if holds(s) for t in succ[s])


def _random_clauses(rng, ids):
    return list(dict.fromkeys(
        Clause(v if rng.random() < 0.5 else -v
               for v in rng.sample(ids, rng.randint(1, 2)))
        for _ in range(rng.randint(1, 8))))


def _renamed(src):
    return re.sub(r"\bs(\d+)", r"t\1", src)


def _inverted_s0(src):
    """src with latch s0 stored inverted: every read of s0 reads NOT s0,
    and s0 starts at and steps to the complement."""
    src = re.sub(r"\bs0\b(?! init)", "NOT s0", src)
    return re.sub(r"latch s0 init 0 next (.*)", r"latch s0 init 1 next NOT \1",
                  src)


def _small_miter(src_n, src_k):
    return encode(stutter(build_miter(parse_circuit(src_n),
                                      parse_circuit(src_k))))


def _random_miter_sources(rng, count):
    """Equal source pairs: `count` random 2-latch systems, each with its
    property as its output, against a renamed copy (which I cannot pair)
    and against a copy that stores s0 inverted."""
    for _ in range(count):
        src = random_system_source(rng, 2, 1).replace("prop ", "output z = ")
        for copy in (_renamed(src), _inverted_s0(src)):
            yield src, copy


def _random_miters(rng, count):
    """Stuttered miters of _random_miter_sources."""
    for pair in _random_miter_sources(rng, count):
        yield _small_miter(*pair)


def _unrelated_miter_sources(rng, count):
    """Source pairs of two unrelated random 2-latch systems, mostly
    unequal."""
    for _ in range(count):
        yield tuple(random_system_source(rng, 2, 1).replace(
            "prop ", "output z = ") for _ in range(2))


def _houdini_cases():
    """(system, candidates): 40 random systems with random candidates, then
    small miters whose candidates are drawn from I, the mined clauses, P
    and random clauses."""
    rng = make_rng(54)
    for _ in range(40):
        ts = random_system(rng, rng.randint(2, 3), rng.randint(1, 2))
        yield ts, _random_clauses(rng, ts.state_ids(0))
    for ts in _random_miters(rng, 8):
        pool = list(dict.fromkeys(ts.init + (mine(ts)[0] or []) + ts.prop
                                  + _random_clauses(rng, ts.state_ids(0))))
        yield ts, rng.sample(pool, min(8, len(pool)))


class TestHoudini:
    def test_largest_inductive_subset(self):
        """Differential check against state enumeration: the result is the
        union of all inductive subsets of the candidates, so it is itself
        inductive and contains every other one."""
        strict = 0
        for ts, cands in _houdini_cases():
            ids = ts.state_ids(0)
            succ = {s: image_under(ts, ts.trans, {s})
                    for s in itertools.product((False, True), repeat=len(ids))}
            got = houdini(ts, cands)
            assert got == [c for c in cands if c in got]
            assert _inductive_by_enumeration(ts, got, succ)
            for n in range(len(cands) + 1):
                for sub in itertools.combinations(cands, n):
                    if _inductive_by_enumeration(ts, sub, succ):
                        assert set(sub) <= set(got)
            strict += 0 < len(got) < len(cands)
        assert strict >= 5

    def test_required_clause_dropped_stops_early(self):
        """Differential check against the full fixpoint on the same
        systems: with required clauses, houdini returns None exactly when
        the full result lacks one of them, and the full result otherwise."""
        pick = make_rng(55)
        outcomes = {True: 0, False: 0}
        for ts, cands in _houdini_cases():
            full = houdini(ts, cands)
            for required in ([], full, list(cands),
                             [c for c in cands if pick.random() < 0.3]):
                got = houdini(ts, cands, required=required)
                lacks = not set(required) <= set(full)
                assert (got is None) == lacks
                if not lacks:
                    assert got == full
                outcomes[lacks] += 1
        assert outcomes[True] >= 5 and outcomes[False] >= 5

    def test_simulation_prunes_whole_rounds(self, monkeypatch):
        """On a shift-register self-miter each solver model sets one more
        stage, so without simulation each round drops one stage's initial
        values; simulation from the first model drops them all."""
        built = []
        monkeypatch.setattr(indclause, "Solver", lambda *a, **kw:
                            built.append(a) or Solver(*a, **kw))
        ts = _small_miter(shreg_source(16), shreg_source(16))
        got = houdini(ts, list(ts.init) + list(ts.prop))
        # the last pair's equality is also P
        assert got == [c for c in ts.init if len(c) == 2]
        assert len(built) == 2

    def test_shift_register_miter_invariant_at_frame_1(self):
        ts = encode(stutter(build_miter(
            parse_circuit(shreg_source(4)), parse_circuit(shreg_source(4)))))
        frames = []
        chk = IcChecker(ts, iter_hook=lambda ch: frames.append(ch.j))
        w = chk.run()
        assert w.kind == "invariant" and frames == [1]
        assert list(w.invariant) == list(IcChecker(ts).fin_rlx(1).invariant)
        check_invariant_witness(ts, w.invariant)
        # the state-pair equalities of I survive, the zero initial values not
        assert set(w.invariant) >= {c for c in ts.init if len(c) == 2}
        assert not any(len(c) == 1 for c in w.invariant)

    def test_unequal_miter_falls_back(self):
        # simulation does not reach the first difference, so Houdini runs
        # and drops a clause of P
        ts = deep_ctr_miter()
        chain = FrameChain(ts)
        chain.add_frame()
        seed = educat_guess_rlx(chain, 1)
        chk = IcChecker(ts)
        assert chk.fin_rlx(1) is None
        # H_1 holds the seed and P only, as without Houdini
        want = list(dict.fromkeys(seed + ts.prop))
        assert chk.chain.h[1] == want
        w = IcChecker(ts).run()
        assert w.kind == "counterexample"
        replay_trace(ts, w.trace)


class TestMine:
    def test_repeats(self):
        """Two calls mine the same candidates, in the same order."""
        rng = make_rng(56)
        mined = 0
        for ts in _random_miters(rng, 6):
            assert mine(ts) == mine(ts)
            mined += bool(mine(ts)[0])
        assert mined >= 3

    def test_path_only_where_a_bad_state_is_reachable(self):
        """A path comes back only where enumeration reaches a bad state.
        It starts in I, every step is a transition of T, it ends in a
        state that falsifies P, and it is no shorter than the shallowest
        bad state."""
        rng = make_rng(57)
        systems = [random_system(rng, rng.randint(2, 4), rng.randint(1, 2))
                   for _ in range(30)]
        systems += _random_miters(rng, 6)
        systems += [_small_miter(*pair)
                    for pair in _unrelated_miter_sources(rng, 10)]
        outcomes = {True: 0, False: 0}
        for ts in systems:
            cands, path = mine(ts)
            assert (cands is None) == (path is not None)
            if path is not None:
                ids = ts.state_ids(0)
                depth = 0
                while not any(evaluate(ts.prop, dict(zip(ids, s))) is False
                              for s in reach_bruteforce(ts, depth)):
                    depth += 1
                    assert depth <= 2 ** len(ids)
                assert len(path) - 1 >= depth
                replay_trace(ts, Checker(ts).convert_cex(path).trace)
            outcomes[path is not None] += 1
        assert outcomes[True] >= 5 and outcomes[False] >= 5

    def test_steps_len_latches_plus_one_times(self):
        """Without inputs every lane follows the one path from I, never
        stuttering: a token ring of m stages against a constant 0 first
        differs at depth m - 1, and its miter has m + 1 latches."""
        m = 30
        ring = ["latch s0 init 1 next s%d" % (m - 1)]
        ring += ["latch s%d init 0 next s%d" % (i, i - 1) for i in range(1, m)]
        ts = _small_miter("\n".join(ring) + "\noutput z = s%d\n" % (m - 1),
                          "latch c init 0 next c\noutput z = c\n")
        cands, path = mine(ts)
        assert cands is None and len(path) == m
        replay_trace(ts, Checker(ts).convert_cex(path).trace)

    @pytest.mark.parametrize("n", [1, 5])
    def test_renamed_shift_register(self, n):
        """Each stage of a renamed copy equals its original and none is
        constant, so mining gives exactly n.s_i = k.t_i, each chained to
        n.s_i."""
        ts = _small_miter(shreg_source(n), _renamed(shreg_source(n)))
        ids = {v.name: v.id for v in ts.state_vars}
        want = []
        for i in range(n):
            a, b = ids["n.s%d" % i], ids["k.t%d" % i]
            want += [Clause([a, -b]), Clause([-a, b])]
        assert mine(ts) == (want, None)

    def test_inverted_stage(self):
        """I pairs every stage but s0, whose inits differ; their signatures
        are complementary."""
        ts = _small_miter(shreg_source(4), _inverted_s0(shreg_source(4)))
        a, b = (v.id for v in ts.state_vars if v.name.endswith(".s0"))
        assert mine(ts) == ([Clause([a, b]), Clause([-a, -b])], None)


class TestSimulatedCounterexample:
    def test_sec_on_random_and_small_miters(self, tmp_path, capfd):
        """sec ends a miter whose first difference mining's simulation
        reaches with that lane's trace: verify-witness accepts every
        counterexample, two runs write the same witness, and no equal miter
        gets a simulated one."""
        rng = make_rng(58)
        pairs = list(_random_miter_sources(rng, 6))
        pairs += _unrelated_miter_sources(rng, 10)
        a, b = tmp_path / "n.scirc", tmp_path / "k.scirc"
        simulated = 0
        for src_n, src_k in pairs:
            ts = _small_miter(src_n, src_k)
            want = brute_force_verdict(ts)
            path = mine(ts)[1]
            assert path is None or want == "counterexample"
            simulated += path is not None
            a.write_text(src_n)
            b.write_text(src_k)
            runs = []
            for w in (tmp_path / "w0", tmp_path / "w1"):
                runs.append((main(["sec", str(a), str(b), "--witness",
                                   str(w)]), w.read_bytes()))
            assert runs[0] == runs[1]
            assert runs[0][0] == (1 if want == "counterexample" else 0)
            assert main(["verify-witness", str(a), str(tmp_path / "w0"),
                         "--miter-with", str(b)]) == 0
        assert simulated >= 3


class TestIcChecker:
    def test_stuck0_invariant(self, stuck0):
        w = IcChecker(stuck0).run()
        assert w.kind == "invariant"
        check_invariant_witness(stuck0, w.invariant)

    def test_toggle_counterexample(self, toggle):
        w = IcChecker(toggle).run()
        assert w.kind == "counterexample"
        replay_trace(toggle, w.trace)

    def test_sec_with_guess_converges_fast(self, dff_miter):
        frames = []
        w = IcChecker(dff_miter,
                      iter_hook=lambda ch: frames.append(ch.j)).run()
        assert w.kind == "invariant"
        check_invariant_witness(dff_miter, w.invariant)
        assert max(frames) <= 2
        sn, sk = dff_miter.state_ids(0)
        eq = [Clause((sn, -sk)), Clause((-sn, sk))]
        assert implies(w.invariant, eq)

    def test_matches_plain_engine(self):
        rng = make_rng(53)
        for _ in range(20):
            ts = random_system(rng, rng.randint(1, 3), rng.randint(1, 2))
            want = brute_force_verdict(ts)
            reports = []
            w = IcChecker(ts, iter_hook=lambda ch: reports.append(
                check_co(ch))).run()
            assert w.kind == want == Checker(ts).run().kind
            assert all(r == [] for r in reports)
            if w.kind == "counterexample":
                replay_trace(ts, w.trace)
            else:
                check_invariant_witness(ts, w.invariant)

    def test_one_init_solver_per_run(self, built_clauses, monkeypatch):
        # generalize asks every I question of a run on the checker's one
        # solver over I
        calls = []
        monkeypatch.setattr(indclause, "generalize",
                            lambda *a: calls.append(a) or generalize(*a))
        ts = deep_ctr_miter()
        assert IcChecker(ts).run().kind == "counterexample"
        assert calls
        assert all(a[3] is calls[0][3] for a in calls)
        assert built_clauses.count([list(c) for c in ts.init]) == 1

    @pytest.mark.parametrize("n, k, kind, init_solvers", [
        (8, 7, "counterexample", 0), (6, 6, "invariant", 1)],
        ids=["shreg8-vs-7", "shreg6-vs-6"])
    def test_init_solver_built_on_first_question(self, n, k, kind,
                                                 init_solvers, built_clauses):
        # mining ends shreg8 against shreg7 at frame 0, before any I
        # question; Houdini's invariant on the equal miter asks one
        ts = _small_miter(shreg_source(n), shreg_source(k))
        assert IcChecker(ts).run().kind == kind
        assert built_clauses.count([list(c) for c in ts.init]) == init_solvers

    @pytest.mark.parametrize("circuit", [
        lambda: parse_circuit(random_system_source(make_rng(3), 8, 1)),
        lambda: build_miter(*map(parse_circuit, deep_ctr_miter_sources()))],
        ids=["rand8", "deep-ctr-miter"])
    def test_one_step_solver_per_frame(self, circuit, monkeypatch):
        """A run builds at most one relative-induction solver per frame,
        on a random system and on a counter miter, both walk-heavy."""
        asked = []
        kept = FrameChain.step_solver
        monkeypatch.setattr(FrameChain, "step_solver", lambda self, k:
                            asked.append((k, kept(self, k))) or asked[-1][1])
        assert IcChecker(encode(stutter(circuit()))).run().kind \
            == "counterexample"
        frames = {k for k, _ in asked}
        assert len(asked) > 2 * len(frames)
        # one solver per frame, and no frame shares another's
        assert (len({(k, id(s)) for k, s in asked})
                == len({id(s) for _, s in asked}) == len(frames))


class TestBlock:
    """An inductive clause added to H_k goes to every lower frame that does
    not imply it yet, so CO condition 4 needs no later push."""

    def checker(self, ts, frames):
        c = IcChecker(ts)
        for h in frames:
            c.chain.add_frame()
            c.chain.strengthen(c.chain.j, h)
        return c

    def test_lower_frame_gains_the_clause(self, stuck0):
        s = stuck0.state_ids(0)[0]
        c = self.checker(stuck0, [[], []])
        assert c._block(2, {s: True}) is None
        assert c.chain.h[1] == c.chain.h[2] == [Clause((-s,))]
        assert check_co(c.chain) == []

    def test_stops_at_the_first_frame_that_implies_it(self, stuck0,
                                                      monkeypatch):
        s = stuck0.state_ids(0)[0]
        not_s = Clause((-s,))
        c = self.checker(stuck0, [[not_s], [not_s], [], []])
        asked = []
        implied = indclause.clause_implied
        monkeypatch.setattr(indclause, "clause_implied",
                            lambda ch, i, cl: asked.append(i) or
                            implied(ch, i, cl))
        assert c._block(4, {s: True}) is None
        assert asked == [3, 2]
        assert all(h == [not_s] for h in c.chain.h[1:])
        assert check_co(c.chain) == []


SHIFT2_SRC = """\
input x
latch a init 0 next x
latch b init 0 next a
prop NOT b
"""

RING3_SRC = """\
latch s0 init 1 next s2
latch s1 init 0 next s0
latch s2 init 0 next s1
prop NOT (s0 AND s1)
"""


@pytest.mark.parametrize("engine", [Checker, IcChecker])
class TestBackwardWalk:
    """The walk both engines share, started above frame 1."""

    def checker(self, engine, src, frames):
        ts = encode(stutter(parse_circuit(src)))
        c = engine(ts)
        for _ in range(frames):
            c.chain.add_frame()
        return c, ts

    def assert_path(self, ts, path, s0):
        """path runs from an initial state to s0 through transitions of T,
        as (state, model) pairs; the model kept with a state below s0 is a
        model of T over the step out of it."""
        states = [s for s, _ in path]
        assert evaluate(ts.init, states[0]) is True
        shift = dict(zip(ts.state_ids(0), ts.state_ids(1)))
        for (a, m), b in zip(path, states[1:]):
            lits = [v if x else -v for v, x in a.items()]
            lits += [shift[v] if x else -shift[v] for v, x in b.items()]
            assert Solver(ts.trans).solve(lits)
            assert evaluate(ts.trans, m) is True
            assert all(m[abs(l)] == (l > 0) for l in lits)
        assert states[-1] == s0

    def test_reachable_from_frame_2(self, engine):
        c, ts = self.checker(engine, SHIFT2_SRC, 2)
        a, b = ts.state_ids(0)
        s0 = {a: False, b: True}
        path = c._backward_walk(2, s0, None)
        assert len(path) == 3
        self.assert_path(ts, path, s0)

    def test_initial_state_above_frame_0(self, engine):
        # both engines stop at once, as the state is itself initial
        c, ts = self.checker(engine, SHIFT2_SRC, 2)
        s0 = dict.fromkeys(ts.state_ids(0), False)
        path = c._backward_walk(2, s0, None)
        assert len(path) == 1
        self.assert_path(ts, path, s0)

    def test_initial_state_makes_no_sat_call(self, engine, monkeypatch):
        # the walk tells an initial state by evaluating I on it
        c, ts = self.checker(engine, RING3_SRC, 3)
        s0 = dict(zip(ts.state_ids(0), (True, False, False)))
        m0 = object()
        solves = []
        monkeypatch.setattr(Solver, "solve",
                            lambda *a, **kw: solves.append(a))
        assert c._backward_walk(3, s0, m0) == [(s0, m0)]
        assert solves == []

    def test_unreachable_state_is_excluded(self, engine):
        c, ts = self.checker(engine, RING3_SRC, 2)
        s = dict(zip(ts.state_ids(0), (True, True, False)))
        assert c._backward_walk(2, s, None) is None
        assert evaluate(c.chain.h[2], s) is False

    def test_each_predecessor_question_asked_once(self, engine):
        c, ts = self.checker(engine, RING3_SRC, 2)
        asked = []
        ask = c._block

        def block(k, s):
            chain = c.chain
            asked.append((k, tuple(sorted(s.items())), tuple(chain.h[k - 1]),
                          frozenset(chain.removed[k - 1])))
            return ask(k, s)
        c._block = block
        c._backward_walk(2, dict(zip(ts.state_ids(0), (True, True, False))),
                         None)
        # a question repeats only if the chain it is asked of is unchanged
        assert asked
        assert len(set(asked)) == len(asked)
