"""End-to-end acceptance checks.  Each test prints exactly one PASS/FAIL
line for its criterion; the suite is the release gate."""

import itertools
import random
import time

import pytest

from lorcheck.cnf import Clause, evaluate, variables
from lorcheck.sat import Solver, implies
from lorcheck.circuit import parse_circuit, encode, stutter, build_miter
from lorcheck.pqe import PqeTask, take_out
from lorcheck.pclor import Checker
from lorcheck.indclause import IcChecker, educat_guess_rlx
from lorcheck.boundary import FrameChain
from lorcheck.qe_oracle import check_pqe, verify_boundary
from lorcheck.cli import main as cli_main
from conftest import (STUCK0_SRC, TOGGLE_SRC, DFF_SRC, INV_DFF_SRC,
                      random_system_source, random_system,
                      brute_force_verdict, make_rng, check_co)


def report(num, label, ok):
    print("criterion %d (%s): %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok


def fixture_corpus():
    rng = make_rng(900)
    sources = [STUCK0_SRC, TOGGLE_SRC]
    sources += [random_system_source(rng, rng.randint(1, 3), rng.randint(1, 2))
                for _ in range(10)]
    systems = [encode(stutter(parse_circuit(s))) for s in sources]
    m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
    systems.append(encode(stutter(m)))
    return systems


def random_pqe_task(rng):
    n = rng.randint(2, 12)

    def cnf(lo, hi):
        out = []
        for _ in range(rng.randint(lo, hi)):
            k = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), k)
            out.append(Clause(tuple(v if rng.random() < 0.5 else -v
                                    for v in vs)))
        return out
    w = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    return PqeTask(w, cnf(1, 10), cnf(0, 20))


def test_criterion_1_pqe_correct_and_fast():
    rng = make_rng(1001)
    times = []
    ok = True
    for _ in range(500):
        t = random_pqe_task(rng)
        t0 = time.perf_counter()
        a_star = take_out(t)
        times.append(time.perf_counter() - t0)
        if not check_pqe(t.w, t.a, t.b, a_star):
            ok = False
            break
    times.sort()
    median = times[len(times) // 2]
    report(1, "500 random PQE tasks solved and verified, median %.1fms"
           % (median * 1000), ok and median < 0.05)


def test_criterion_2_boundary_formulas_verified():
    results = []

    def make_hook(ts):
        def hook(ch):
            for k in range(1, ch.j + 1):
                results.append(verify_boundary(
                    ch.h[k], ts, ch.trlx_cnf(k - 1), k))
        return hook

    for ts in fixture_corpus():
        for engine in (Checker, IcChecker):
            engine(ts, iter_hook=make_hook(ts)).run()
    report(2, "%d boundary formulas accepted by the enumeration oracle"
           % len(results), bool(results) and all(results))


def test_criterion_3_sec_seed_exact_and_fast():
    m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
    ts = encode(stutter(m))
    chain = FrameChain(ts)
    chain.add_frame()
    seed = educat_guess_rlx(chain, 1)
    sn, sk = ts.state_ids(0)
    eq = [Clause((sn, -sk)), Clause((-sn, sk))]
    exact = implies(seed, eq) and implies(eq, seed)
    frames = []
    t0 = time.perf_counter()
    w = IcChecker(ts, iter_hook=lambda ch: frames.append(ch.j)).run()
    dt = time.perf_counter() - t0
    ok = (exact and w.kind == "invariant" and max(frames) <= 2 and dt < 1.0)
    report(3, "interface-drop seed is exact state equality; equivalence "
              "proved in %d frame(s), %.2fs" % (max(frames), dt), ok)


def test_criterion_4_witnesses_verify(tmp_path):
    rng = make_rng(1004)
    checked = 0
    ok = True
    for i in range(12):
        src = random_system_source(rng, rng.randint(1, 3), rng.randint(1, 2))
        f = tmp_path / ("sys%d.scirc" % i)
        f.write_text(src)
        for engine in ("lor", "lor-ic"):
            wpath = str(f) + "." + engine + ".witness"
            code = cli_main(["check", str(f), "--engine", engine,
                             "--witness", wpath])
            if code not in (0, 1):
                ok = False
                continue
            checked += 1
            if cli_main(["verify-witness", str(f), wpath]) != 0:
                ok = False
    # plus an equivalence proof over a miter
    a = tmp_path / "a.scirc"; a.write_text(DFF_SRC)
    b = tmp_path / "b.scirc"; b.write_text(DFF_SRC)
    w = tmp_path / "proof"
    ok &= cli_main(["sec", str(a), str(b), "--witness", str(w)]) == 0
    ok &= cli_main(["verify-witness", str(a), str(w),
                    "--miter-with", str(b)]) == 0
    checked += 1
    report(4, "%d/%d produced witnesses independently verified"
           % (checked if ok else 0, checked), ok)


def test_criterion_5_engines_match_brute_force():
    rng = make_rng(1005)
    ok = True
    worst = 0.0
    for _ in range(50):
        n_latch = rng.randint(1, 4)
        n_in = rng.randint(1, max(1, 5 - n_latch))
        ts = random_system(rng, n_latch, n_in,
                           init_zero=rng.random() < 0.7)
        want = brute_force_verdict(ts)
        for engine in (Checker, IcChecker):
            t0 = time.perf_counter()
            w = engine(ts).run()
            worst = max(worst, time.perf_counter() - t0)
            if w.kind != want:
                ok = False
    report(5, "50 random systems, both engines agree with explicit "
              "reachability, worst case %.2fs" % worst, ok and worst < 10.0)


def bmc_sat(ts, depth):
    """Does a bad state lie exactly `depth` steps from I?  A test-local
    unroller, independent of the checker's renaming: step i moves every id
    v of T to v + i·size, and each next-state id to its state id one block
    up, where step i+1 reads it."""
    s0, s1 = ts.state_ids(0), ts.state_ids(1)
    size = max(variables(ts.trans) | set(s0) | set(s1))

    def move(f, ids):
        return [Clause([ids[l] if l > 0 else -ids[-l] for l in c])
                for c in f]

    def block(i):
        ids = {v: v + i * size for v in range(1, size + 1)}
        ids.update((b, a + (i + 1) * size) for a, b in zip(s0, s1))
        return ids

    f = ts.init
    for i in range(depth):
        f = f + move(ts.trans, block(i))
    for c in move(ts.prop, block(depth)):
        if Solver(f).solve([-l for l in c]):
            return True
    return False


def test_criterion_6_bmc_agrees_with_verdicts():
    rng = make_rng(1006)
    ok = True
    for _ in range(15):
        ts = random_system(rng, rng.randint(1, 3), rng.randint(1, 2))
        frames = []
        w = Checker(ts, iter_hook=lambda ch: frames.append(ch.j)).run()
        if w.kind == "invariant":
            # no depth up to (and beyond) convergence reaches a bad state
            for d in range(max(frames) + 2):
                if bmc_sat(ts, d):
                    ok = False
        else:
            cex_len = len(w.trace) - 1
            if not bmc_sat(ts, cex_len):
                ok = False
            for d in range(cex_len):
                if bmc_sat(ts, d):
                    ok = False
    report(6, "bounded model checking agrees with every verdict at every "
              "depth", ok)


def test_criterion_7_co_conditions_hold_every_iteration():
    reports = []
    for ts in fixture_corpus():
        for engine in (Checker, IcChecker):
            engine(ts, iter_hook=lambda ch: reports.append(
                check_co(ch))).run()
    report(7, "CO conditions hold after each of %d loop iterations"
           % len(reports), bool(reports) and all(r == [] for r in reports))


def test_criterion_8_stuttering_preserves_verdict():
    rng = make_rng(1008)
    ok = True
    for _ in range(20):
        src = random_system_source(rng, rng.randint(1, 3), rng.randint(1, 2))
        plain = encode(parse_circuit(src))
        want = brute_force_verdict(plain)
        stuttered = encode(stutter(parse_circuit(src)))
        for engine in (Checker, IcChecker):
            if engine(stuttered).run().kind != want:
                ok = False
    report(8, "verdicts on stuttered systems match the unstuttered "
              "semantics", ok)


def test_criterion_9_sat_differential():
    rng = make_rng(1009)
    ok = True
    for _ in range(10000):
        n = rng.randint(1, 12)
        clauses = []
        for _ in range(rng.randint(0, 12)):
            k = rng.randint(1, min(4, n))
            vs = rng.sample(range(1, n + 1), k)
            clauses.append(Clause(tuple(v if rng.random() < 0.5 else -v
                                        for v in vs)))
        f = clauses
        res = Solver(f).solve()
        want = any(
            evaluate(f, dict(zip(range(1, n + 1), bits))) is True
            for bits in itertools.product([False, True], repeat=n))
        if bool(res) != want or (res and evaluate(f, res.model) is not True):
            ok = False
            break
    report(9, "10000 random formulas, solver agrees with truth tables", ok)
