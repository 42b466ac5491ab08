import hashlib
import io
import os
import re
from pathlib import Path

import pytest

from lorcheck.cli import (main, build_parser, parse_pqe_dimacs, write_witness,
                          verify_trace, verify_invariant)
from lorcheck.circuit import parse_circuit, encode, stutter, build_miter
from lorcheck.pclor import Checker, Witness
from lorcheck.cnf import Clause, rename
from lorcheck.sat import Solver, implies
from lorcheck import boundary
from conftest import (STUCK0_SRC, TOGGLE_SRC, DFF_SRC, INV_DFF_SRC,
                      FORWARD_REF_SRCS, make_rng, random_system_source,
                      shreg_source, xorreg_source, ctr_source, ring_source,
                      deep_ctr_miter_sources)


# Draw 43 of the random 6-8-latch systems that
# test_pclor.py::TestDifferential::test_matches_brute_force_on_larger_systems
# draws
RAND43_SRC = """\
input x0
input x1
latch s0 init 0 next ((s2 AND x0) XOR (s4 AND s1))
latch s1 init 0 next (NOT s5 XOR (s2 AND x1))
latch s2 init 0 next (s4 AND s0)
latch s3 init 0 next s0
latch s4 init 0 next x0
latch s5 init 0 next ((NOT s4 AND s5) OR (NOT s3 OR s0))
latch s6 init 0 next ((NOT x1 AND x1) OR NOT s5)
prop NOT (s3 AND s1)
"""


@pytest.fixture
def stuck0_file(tmp_path):
    p = tmp_path / "stuck0.scirc"
    p.write_text(STUCK0_SRC)
    return str(p)


@pytest.fixture
def toggle_file(tmp_path):
    p = tmp_path / "toggle.scirc"
    p.write_text(TOGGLE_SRC)
    return str(p)


class TestParserDefaults:
    def test_engine_and_guess(self):
        parse = build_parser().parse_args
        args = parse(["check", "f"])
        assert args.engine == "lor" and not hasattr(args, "guess")
        args = parse(["sec", "n", "k"])
        assert args.engine == "lor-ic" and not hasattr(args, "guess")
        assert parse(["sec", "n", "k", "--engine", "lor"]).engine == "lor"


PQE_SRC = "c example\nc\n\tc\tnote\np pqe 3 1 1\nw 3 0\n1 3 0\n%\n-3 2 0\n"


class TestUsageErrors:
    """Malformed command lines exit 3, as malformed files do."""

    @pytest.mark.parametrize("argv", [
        ["sec", "{f}", "{f}", "--guess", "bogus"],
        ["sec", "{f}", "{f}", "--guess", "drop:interface"],
        ["check", "{f}", "--bogus"],
        ["check", "{f}", "--oracle-check"],
        ["sec", "{f}", "{f}", "--oracle-check"],
        ["check", "{f}", "--max-frames", "0"],
        ["check", "{f}", "--max-frames", "-1"],
        ["check", "{f}", "--pqe-budget", "-5"],
        ["sec", "{f}", "{f}", "--pqe-budget", "0"],
        ["pqe", "{p}", "--pqe-budget", "-1"],
    ])
    def test_exit_3(self, stuck0_file, tmp_path, capfd, argv):
        p = tmp_path / "t.pqe"
        p.write_text(PQE_SRC)
        assert main([a.format(f=stuck0_file, p=p) for a in argv]) == 3
        got = capfd.readouterr()
        assert "error:" in got.err
        assert "verdict" not in got.out


class TestCheck:
    def test_holds(self, stuck0_file, capfd):
        assert main(["check", stuck0_file]) == 0
        out = capfd.readouterr().out
        assert "verdict: holds" in out
        assert os.path.exists(stuck0_file + ".witness")

    def test_fails_and_witness_verifies(self, toggle_file, capfd):
        assert main(["check", toggle_file]) == 1
        assert "verdict: fails" in capfd.readouterr().out
        assert main(["verify-witness", toggle_file,
                     toggle_file + ".witness"]) == 0
        assert "witness accepted" in capfd.readouterr().out

    def test_walk_through_a_relaxed_step(self, tmp_path, capfd):
        # the lor walk's first path to I takes a step that only T^rlx
        # allows; the real counterexample has 4 steps
        p = tmp_path / "rand43.scirc"
        p.write_text(RAND43_SRC)
        assert main(["check", str(p), "--engine", "lor"]) == 1
        out = capfd.readouterr().out
        assert "verdict: fails" in out and "frames: 4\n" in out
        assert main(["verify-witness", str(p), str(p) + ".witness"]) == 0
        assert "witness accepted" in capfd.readouterr().out

    @pytest.mark.parametrize("engine", ["lor", "lor-ic"])
    def test_input_that_t_does_not_read(self, tmp_path, capfd, engine):
        # every step's model must value y, which no clause of T reads
        p = tmp_path / "unread.scirc"
        p.write_text("input x\ninput y\nlatch s init 0 next (s OR x)\n"
                     "prop NOT s\n")
        assert main(["check", str(p), "--engine", engine]) == 1
        assert "verdict: fails" in capfd.readouterr().out
        assert main(["verify-witness", str(p), str(p) + ".witness"]) == 0
        assert "witness accepted" in capfd.readouterr().out

    @pytest.mark.parametrize("circuit", ["stuck0_file", "toggle_file"])
    def test_unwritable_witness_exits_3(self, circuit, request, tmp_path,
                                        capfd):
        f = request.getfixturevalue(circuit)
        w = tmp_path / "no-such-dir" / "w"
        assert main(["check", f, "--witness", str(w)]) == 3
        got = capfd.readouterr()
        assert re.fullmatch(r"error: .*no-such-dir/w'\n", got.err)
        assert "verdict:" not in got.out

    def test_invariant_witness_verifies(self, stuck0_file, capfd):
        main(["check", stuck0_file])
        capfd.readouterr()
        assert main(["verify-witness", stuck0_file,
                     stuck0_file + ".witness"]) == 0

    def test_both_engines(self, stuck0_file, toggle_file):
        for engine in ("lor", "lor-ic"):
            assert main(["check", stuck0_file, "--engine", engine,
                         "--witness", stuck0_file + ".w2"]) == 0
            assert main(["check", toggle_file, "--engine", engine,
                         "--witness", toggle_file + ".w2"]) == 1

    def test_lor_ic_does_not_seed_a_circuit(self, tmp_path, monkeypatch):
        import lorcheck.indclause as indclause

        def refuse(*args):
            raise AssertionError("miter seeding on a circuit")
        monkeypatch.setattr(indclause, "houdini", refuse)
        monkeypatch.setattr(indclause, "educat_guess_rlx", refuse)
        p = tmp_path / "ring6.scirc"
        p.write_text(_ring_out(6) + "prop NOT (s0 AND s3)\n")
        assert main(["check", str(p), "--engine", "lor-ic"]) == 0

    def test_report_clause_counts(self, stuck0, stuck0_file, capfd):
        seen = []
        Checker(stuck0, iter_hook=lambda chain: seen.append(
            [len(h) for h in chain.h])).run()
        assert main(["check", stuck0_file]) == 0
        out = capfd.readouterr().out
        assert "frames: %d\n" % (len(seen[-1]) - 1) in out
        assert "clauses: %s\n" % " ".join(
            "H%d=%d" % kn for kn in enumerate(seen[-1])) in out

    def test_missing_file(self, tmp_path, capfd):
        assert main(["check", str(tmp_path / "nope.scirc")]) == 3

    def test_parse_error(self, tmp_path, capfd):
        p = tmp_path / "bad.scirc"
        p.write_text("latch s init 7 next s\n")
        assert main(["check", str(p)]) == 3
        assert "error:" in capfd.readouterr().err

    @pytest.mark.parametrize("src", FORWARD_REF_SRCS)
    def test_forward_reference(self, tmp_path, capfd, src):
        p = tmp_path / "fwd.scirc"
        p.write_text(src)
        assert main(["check", str(p)]) == 3
        assert "error:" in capfd.readouterr().err

    def test_property_compiled_once(self, stuck0_file, tmp_path, monkeypatch):
        import lorcheck.circuit as circuit
        calls = []
        compile_prop = circuit.compile_state_predicate

        def counting(*args):
            calls.append(args)
            return compile_prop(*args)
        monkeypatch.setattr(circuit, "compile_state_predicate", counting)
        assert main(["check", stuck0_file]) == 0
        assert len(calls) == 1
        a = tmp_path / "a.scirc"; a.write_text(DFF_SRC)
        assert main(["sec", str(a), str(a)]) == 0
        assert len(calls) == 2

    def test_frame_budget_unknown(self, tmp_path, capfd):
        p = tmp_path / "m.scirc"
        p.write_text("input x0\n"
                     "latch s0 init 0 next ((s0 AND s2) AND x0)\n"
                     "latch s1 init 0 next x0\n"
                     "latch s2 init 0 next ((s0 XOR NOT s0) AND (s1 AND s0))\n"
                     "prop NOT (s2 AND s0)\n")
        assert main(["check", str(p), "--max-frames", "1"]) == 2
        assert "verdict: unknown" in capfd.readouterr().out

    @pytest.mark.parametrize("src, budget, where", [
        ("ring7", 1, "in fin_rlx at frame 1"),
        ("ring7", 2, "in fin_rlx at frame 2"),
        ((17, 5), 1, "in the rem_bad_st walk at frame 1"),
        ((76, 6), 2, "in the third_co_cond walk at frame 2"),
    ])
    def test_pqe_budget_names_its_phase(self, tmp_path, capfd, src, budget,
                                        where):
        if src == "ring7":
            src = _ring_out(7).replace("output z = s0",
                                       "prop NOT (s0 AND s1)")
        else:
            seed, n = src
            src = random_system_source(make_rng(seed), n, 1)
        p = tmp_path / "c.scirc"
        p.write_text(src)
        assert main(["check", str(p), "--pqe-budget", str(budget)]) == 2
        got = capfd.readouterr()
        assert "verdict: unknown" in got.out
        assert re.search(r"^no verdict: PQE budget of %d points exhausted "
                         r"\(--pqe-budget\) %s$" % (budget, where),
                         got.err, re.M)

    def test_makeup_failure_names_frame(self, tmp_path, capfd, monkeypatch):
        import lorcheck.pclor as pclor
        # makeup clauses that relax nothing and exclude nothing
        monkeypatch.setattr(pclor, "makeup_clauses",
                            lambda chain, k, r_new: [])
        p = tmp_path / "ring7.scirc"
        p.write_text("latch s0 init 1 next s6\n"
                     + "".join("latch s%d init 0 next s%d\n" % (i, i - 1)
                               for i in range(1, 7))
                     + "prop NOT (s0 AND s2)\n")
        assert main(["check", str(p)]) == 2
        got = capfd.readouterr()
        assert "verdict: unknown" in got.out
        assert re.search(r"^no verdict: frame \d+: ", got.err, re.M)

    @pytest.mark.parametrize("src", [ring_source(7), ctr_source(4)],
                             ids=["ring7", "ctr4"])
    def test_broken_invariant_is_no_verdict(self, tmp_path, capfd,
                                            monkeypatch, src):
        """A third_co_cond violation reachable from I that breaks no
        dropped clause would be a real transition out of a boundary
        formula; with _broken finding none, the run ends without a
        verdict."""
        import lorcheck.pclor as pclor
        monkeypatch.setattr(pclor.Checker, "_broken", lambda self, k, m: [])
        p = tmp_path / "c.scirc"
        p.write_text(src)
        assert main(["check", str(p)]) == 2
        got = capfd.readouterr()
        assert "verdict: unknown" in got.out
        assert got.err == ("no verdict: reachable state drives a real "
                           "transition out of a boundary formula; invariant "
                           "broken\n")


class TestSec:
    @pytest.mark.parametrize("engine", ["lor", "lor-ic"])
    def test_conflicting_inits(self, tmp_path, capfd, engine):
        a = tmp_path / "a.scirc"
        a.write_text("input x\nlatch s init 0 next s\noutput z = s\n")
        b = tmp_path / "b.scirc"
        b.write_text("input x\nlatch s init 1 next s\noutput z = s\n")
        w = tmp_path / "sec.witness"
        assert main(["sec", str(a), str(b), "--engine", engine,
                     "--witness", str(w)]) == 1
        assert capfd.readouterr().out.startswith("inequivalent\n")
        assert main(["verify-witness", str(a), str(w),
                     "--miter-with", str(b)]) == 0
        assert "witness accepted" in capfd.readouterr().out

    def test_equivalent(self, tmp_path, capfd):
        a = tmp_path / "a.scirc"; a.write_text(DFF_SRC)
        b = tmp_path / "b.scirc"; b.write_text(DFF_SRC)
        assert main(["sec", str(a), str(b)]) == 0
        assert "equivalent" in capfd.readouterr().out

    def test_inequivalent(self, tmp_path, capfd):
        a = tmp_path / "a.scirc"; a.write_text(DFF_SRC)
        b = tmp_path / "b.scirc"; b.write_text(INV_DFF_SRC)
        assert main(["sec", str(a), str(b)]) == 1
        assert "inequivalent" in capfd.readouterr().out

    def test_sec_witness_verifies_against_miter(self, tmp_path, capfd):
        a = tmp_path / "a.scirc"; a.write_text(DFF_SRC)
        b = tmp_path / "b.scirc"; b.write_text(DFF_SRC)
        w = tmp_path / "proof"
        assert main(["sec", str(a), str(b), "--witness", str(w)]) == 0
        capfd.readouterr()
        assert main(["verify-witness", str(a), str(w),
                     "--miter-with", str(b)]) == 0
        assert "witness accepted" in capfd.readouterr().out

    def test_pqe_budget_unknown(self, tmp_path, capfd):
        # the Gray-coded copy shares no latch name and no latch signature
        # but u0 with the shift register, so Houdini over I, P and the mined
        # candidates finds no invariant and the frame-1 seed asks PQE
        a = tmp_path / "shreg4.scirc"; a.write_text(shreg_source(4))
        b = tmp_path / "gray4.scirc"; b.write_text(GRAY_SHREG4_SRC)
        assert main(["sec", str(a), str(b), "--max-frames", "1",
                     "--pqe-budget", "2"]) == 2
        got = capfd.readouterr()
        assert "verdict: unknown" in got.out
        assert re.search(r"^no verdict: PQE budget of 2 points exhausted "
                         r"\(--pqe-budget\) in the sec seed at frame 1$",
                         got.err, re.M)

    def test_pqe_budget_spent_in_the_seed_of_a_deep_miter(self, tmp_path,
                                                         capfd):
        # mining cannot refute the deep counter miter, so frame 1 is
        # seeded by PQE, and one point does not finish the seed
        a, b = tmp_path / "a.scirc", tmp_path / "b.scirc"
        for f, src in zip((a, b), deep_ctr_miter_sources()):
            f.write_text(src)
        assert main(["sec", str(a), str(b), "--max-frames", "1",
                     "--pqe-budget", "1"]) == 2
        got = capfd.readouterr()
        assert "verdict: unknown" in got.out
        assert re.search(r"^no verdict: PQE budget of 1 points exhausted "
                         r"\(--pqe-budget\) in the sec seed at frame 1$",
                         got.err, re.M)

    def test_unknown_reports_the_last_completed_iteration(self, tmp_path,
                                                          capfd):
        # budget 2 finishes the seed, so iteration 1 completes and the run
        # ends at the frame limit
        a, b = tmp_path / "a.scirc", tmp_path / "b.scirc"
        for f, src in zip((a, b), deep_ctr_miter_sources()):
            f.write_text(src)
        assert main(["sec", str(a), str(b), "--max-frames", "1",
                     "--pqe-budget", "2"]) == 2
        got = capfd.readouterr()
        assert got.err == ("no verdict: frame limit 1 reached without a "
                           "verdict\n")
        assert "verdict: unknown" in got.out
        assert re.search(r"^frames: 1$", got.out, re.M)
        assert re.search(r"^clauses: H0=\d+ H1=\d+$", got.out, re.M)

    def test_pqe_budget_unused_on_equal_miter(self, tmp_path, capfd):
        p = tmp_path / "xorreg4.scirc"; p.write_text(xorreg_source(4))
        assert main(["sec", str(p), str(p), "--max-frames", "1",
                     "--pqe-budget", "1000"]) == 0
        out = capfd.readouterr().out
        assert out.startswith("equivalent\n")
        assert re.search(r"^frames: 1$", out, re.M)

    # In each pair, n.a may start at 1 and output 1 forever, while k
    # outputs 0: its output latch is a different one, or has init 0.
    @pytest.mark.parametrize("src_n, src_k", [
        ("input x\nlatch a init * next a\n"
         "latch c init 0 next c\noutput z = a\n",
         "input x\nlatch c init 0 next c\n"
         "latch a init * next a\noutput z = c\n"),
        ("input x\nlatch a init * next a\noutput z = a\n",
         "input x\nlatch a init 0 next a\noutput z = a\n"),
    ], ids=["swapped", "free-vs-0"])
    @pytest.mark.parametrize("engine", ["lor", "lor-ic"])
    def test_free_latch_start_is_checked(self, tmp_path, capfd, engine,
                                         src_n, src_k):
        a = tmp_path / "a.scirc"; a.write_text(src_n)
        b = tmp_path / "b.scirc"; b.write_text(src_k)
        w = tmp_path / "sec.witness"
        assert main(["sec", str(a), str(b), "--engine", engine,
                     "--witness", str(w)]) == 1
        assert capfd.readouterr().out.startswith("inequivalent\n")
        assert main(["verify-witness", str(a), str(w),
                     "--miter-with", str(b)]) == 0
        assert "witness accepted" in capfd.readouterr().out

    def test_arity_mismatch(self, tmp_path, capfd):
        a = tmp_path / "a.scirc"; a.write_text(DFF_SRC)
        b = tmp_path / "b.scirc"
        b.write_text("input p\ninput q\nlatch s init 0 next p\noutput z = s\n")
        assert main(["sec", str(a), str(b)]) == 3

    @pytest.mark.parametrize("src_n, src_k, tail", [
        ("input x\noutput z = x\n", None, "'z' of the first"),
        ("input x\nlatch s init 0 next x\nsignal q = (s AND x)\n"
         "output z = s\noutput w = q\n", None, "'w' of the first"),
        (DFF_SRC, "input x\noutput z = NOT x\n", "'z' of the second"),
    ])
    def test_output_reading_an_input_exits_3(self, tmp_path, capfd, src_n,
                                             src_k, tail):
        # the message names the user's output and input, not a miter signal
        a = tmp_path / "a.scirc"; a.write_text(src_n)
        b = tmp_path / "b.scirc"; b.write_text(src_k or src_n)
        assert main(["sec", str(a), str(b)]) == 3
        assert capfd.readouterr().err == (
            "error: sec compares outputs that read only latches, but output "
            "%s circuit reads input 'x'\n" % tail)


# shreg_source(4) storing u0 = s0 and u_i = s(i-1) XOR s(i) for i > 0: an
# equivalent copy whose invariant is not a latch correspondence
GRAY_SHREG4_SRC = """\
input x
latch u0 init 0 next x
latch u1 init 0 next (x XOR u0)
latch u2 init 0 next u1
latch u3 init 0 next u2
output z = ((u0 XOR u1) XOR (u2 XOR u3))
"""


def _renamed_shreg(n):
    """shreg_source(n) with latches named t0..t(n-1), declared in reverse."""
    lines = ["input x"]
    lines += ["latch t%d init 0 next %s" % (i, "t%d" % (i - 1) if i else "x")
              for i in reversed(range(n))]
    lines.append("output z = t%d" % (n - 1))
    return "\n".join(lines) + "\n"


def _ring_out(n):
    """One-hot token ring of n stages without inputs; stage 0 is the
    output."""
    lines = ["latch s0 init 1 next s%d" % (n - 1)]
    lines += ["latch s%d init 0 next s%d" % (i, i - 1) for i in range(1, n)]
    return "\n".join(lines) + "\noutput z = s0\n"


def _inverted_stage_shreg(n):
    """shreg_source(n) with stage 0 stored inverted."""
    lines = ["input x", "latch s0 init 1 next NOT x",
             "latch s1 init 0 next NOT s0"]
    lines += ["latch s%d init 0 next s%d" % (i, i - 1) for i in range(2, n)]
    lines.append("output z = s%d" % (n - 1))
    return "\n".join(lines) + "\n"


def _count_take_out(monkeypatch):
    """A list that gets one entry per engine PQE call."""
    calls = []
    real = boundary.take_out

    def counted(task, **kw):
        calls.append(task)
        return real(task, **kw)
    monkeypatch.setattr(boundary, "take_out", counted)
    return calls


def _sec_and_replay(tmp_path, capfd, src_n, src_k, *options):
    """Run sec with the given options on two sources, replay its witness
    against their miter and return sec's exit code and stdout."""
    a = tmp_path / "n.scirc"; a.write_text(src_n)
    b = tmp_path / "k.scirc"; b.write_text(src_k)
    w = tmp_path / "sec.witness"
    code = main(["sec", str(a), str(b), "--witness", str(w), *options])
    out = capfd.readouterr().out
    assert main(["verify-witness", str(a), str(w),
                 "--miter-with", str(b)]) == 0
    assert "witness accepted" in capfd.readouterr().out
    return code, out


class TestSecFamilies:
    """Register miters: equal ones are proved within two frames, unequal
    ones still give counterexamples that replay."""

    @pytest.mark.parametrize("source, n",
                             [(shreg_source, n) for n in range(2, 9)]
                             + [(xorreg_source, n) for n in range(1, 5)])
    def test_equal_within_two_frames(self, tmp_path, capfd, source, n):
        code, out = _sec_and_replay(tmp_path, capfd, source(n), source(n))
        assert code == 0
        assert out.startswith("equivalent\n")
        assert int(re.search(r"^frames: (\d+)$", out, re.M).group(1)) <= 2

    @pytest.mark.parametrize("source, n",
                             [(shreg_source, n) for n in range(2, 17)]
                             + [(xorreg_source, n)
                                for n in (1, 2, 3, 4, 5, 6, 8, 12, 16)])
    def test_equal_at_frame_1_without_pqe(self, tmp_path, capfd, monkeypatch,
                                          source, n):
        calls = _count_take_out(monkeypatch)
        code, out = _sec_and_replay(tmp_path, capfd, source(n), source(n))
        assert code == 0 and calls == []
        assert re.search(r"^frames: 1$", out, re.M)

    def test_inverted_stage_by_mined_anti_equivalence(self, tmp_path, capfd,
                                                      monkeypatch):
        # I leaves n.s0 (init 0) and k.s0 (init 1) unpaired; simulation
        # mines their complementary signatures, and the invariant keeps
        # n.s0 = NOT k.s0 (ids 1 and 5) without the seed's PQE call
        calls = _count_take_out(monkeypatch)
        code, out = _sec_and_replay(tmp_path, capfd, shreg_source(4),
                                    _inverted_stage_shreg(4))
        assert code == 0 and calls == []
        assert re.search(r"^frames: 1$", out, re.M)
        lines = (tmp_path / "sec.witness").read_text().splitlines()
        assert {"1 5 0", "-1 -5 0"} <= set(lines)

    @pytest.mark.parametrize("copy, n", [(copy, n) for copy in (
        _renamed_shreg, _inverted_stage_shreg) for n in range(2, 21)])
    def test_renamed_or_inverted_at_frame_1_without_pqe(
            self, tmp_path, capfd, monkeypatch, copy, n):
        calls = _count_take_out(monkeypatch)
        code, out = _sec_and_replay(tmp_path, capfd, shreg_source(n),
                                    copy(n))
        assert code == 0 and calls == []
        assert re.search(r"^frames: 1$", out, re.M)

    @pytest.mark.parametrize("n", [3, 4])
    def test_inverted_stage_on_lor(self, tmp_path, capfd, n):
        # lor's walk reaches I through relaxed steps before it finds that
        # no real path exists
        code, out = _sec_and_replay(tmp_path, capfd, shreg_source(n),
                                    _inverted_stage_shreg(n),
                                    "--engine", "lor")
        assert code == 0
        assert out.startswith("equivalent\n")

    @pytest.mark.parametrize("n", range(2, 13))
    def test_shreg_against_shorter(self, tmp_path, capfd, n):
        # rem_bad_st(1) or, deeper, mining's simulation finds the first
        # difference, so the run ends before frame 1 completes
        code, out = _sec_and_replay(tmp_path, capfd, shreg_source(n),
                                    shreg_source(n - 1))
        assert code == 1
        assert out.startswith("inequivalent\n")
        assert re.search(r"^frames: 0$", out, re.M)

    @pytest.mark.parametrize("n, i", [(n, i) for n in range(1, 5)
                                      for i in range(n)] + [(16, 0), (16, 15)])
    def test_xorreg_with_inverted_input(self, tmp_path, capfd, n, i):
        code, out = _sec_and_replay(tmp_path, capfd, xorreg_source(n),
                                    xorreg_source(n, inverted=i))
        assert code == 1
        assert out.startswith("inequivalent\n")

    def test_input_free_equal_miter_at_frame_1(self, tmp_path, capfd,
                                               monkeypatch):
        # no input, so no interface clause: still a miter, still seeded
        calls = _count_take_out(monkeypatch)
        code, out = _sec_and_replay(tmp_path, capfd, _ring_out(5),
                                    _ring_out(5))
        assert code == 0 and calls == []
        assert re.search(r"^frames: 1$", out, re.M)

    def test_input_free_unequal_miter(self, tmp_path, capfd):
        code, out = _sec_and_replay(tmp_path, capfd, _ring_out(5),
                                    _ring_out(4))
        assert code == 1
        assert out.startswith("inequivalent\n")


class TestDeterminism:
    """The per-frame solvers keep what they learn, so a model depends on
    the queries before it; two runs in one process must still agree."""

    def _twice(self, tmp_path, capfd, argv_of):
        runs = []
        for n in range(2):
            w = tmp_path / ("w%d" % n)
            main(argv_of(str(w)))
            out = capfd.readouterr().out.splitlines()
            runs.append(([l for l in out if not l.startswith(("time:",
                                                              "witness:"))],
                         w.read_bytes()))
        assert runs[0] == runs[1]
        return runs[0][0]

    @pytest.mark.parametrize("seed", [2, 16])
    def test_check(self, tmp_path, capfd, seed):
        f = tmp_path / "rand.scirc"
        f.write_text(random_system_source(make_rng(seed), 3, 1))
        out = self._twice(tmp_path, capfd,
                          lambda w: ["check", str(f), "--witness", w])
        assert int(out[1].split()[1]) >= 2        # frames: n

    def test_sec(self, tmp_path, capfd):
        a, b = tmp_path / "a.scirc", tmp_path / "b.scirc"
        for n in range(2, 13):
            a.write_text(shreg_source(n))
            b.write_text(shreg_source(n - 1))
            out = self._twice(tmp_path, capfd, lambda w: [
                "sec", str(a), str(b), "--witness", w])
            assert out[0] == "inequivalent"


class TestEngineSearchIsPinned:
    """The engines' search end to end: the exit code, the `frames:` and
    `clauses:` lines and the witness bytes of each run hash to its digest.
    The digests were recorded once the makeup step tried H_{k-1}′'s
    clauses as answers, so a change anywhere below the engine that moves
    a model, and with it a relaxation, a makeup clause or a frame, fails
    here even where the verdict stays."""

    RUNS = {
        # name: (source, engine, sha256 of the transcript)
        "ring7": (_ring_out(7).replace("output z = s0",
                                       "prop NOT (s0 AND s1)"), "lor",
                  "41bd0a14b592cc719f2f83c8bf15d2a0"
                  "7c886c6b498dff1512c390c171cd0bc2"),
        # a 6-latch random system that holds at frame 4
        "rand6": (random_system_source(make_rng(14), 6, 1), "lor",
                  "3aca6dfa24260523b756437ea1840b8d"
                  "1760f6b3b00c0ed18525ad2f705b4862"),
        # both engines end at frame 7 with the same clause counts and
        # write the same trace
        "ctr4": (ctr_source(4), "lor",
                 "b23c17124dda38141bbb716f3786ee70"
                 "f8f621f84ee4b5a5cda920dcae2b0666"),
        "ctr4-ic": (ctr_source(4), "lor-ic",
                    "b23c17124dda38141bbb716f3786ee70"
                    "f8f621f84ee4b5a5cda920dcae2b0666"),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_transcript_digest(self, tmp_path, capfd, name):
        src, engine, digest = self.RUNS[name]
        f, w = tmp_path / "c.scirc", tmp_path / "c.witness"
        f.write_text(src)
        code = main(["check", str(f), "--engine", engine, "--witness",
                     str(w)])
        lines = [l for l in capfd.readouterr().out.splitlines()
                 if l.startswith(("frames:", "clauses:"))]
        h = hashlib.sha256(repr((code, lines)).encode())
        h.update(w.read_bytes())
        assert h.hexdigest() == digest, lines


class TestPqe:
    def test_round_trip(self, tmp_path, capfd):
        p = tmp_path / "t.pqe"
        p.write_text(PQE_SRC)
        assert main(["pqe", str(p), "--verify"]) == 0
        got = capfd.readouterr()
        assert "verified" in got.err
        assert "1 2 0" in got.out

    def test_large_ids_are_renumbered(self, tmp_path, capfd, monkeypatch):
        # the same task over ids {1, 2, 3} and {1, 2, 10**9} gives the same
        # answer, mapped back; no solver makes room for more than 3 ids
        grow = Solver._grow

        def bounded(self, vid):
            assert vid <= 3 + 2  # the task's ids and A's selectors
            grow(self, vid)
        monkeypatch.setattr(Solver, "_grow", bounded)
        outs = []
        for top in (3, 10 ** 9):
            p = tmp_path / ("t%d.pqe" % top)
            p.write_text("p pqe {0} 2 2\nw 1 0\n1 {0} 0\n-1 -2 0\n%\n"
                         "-1 2 {0} 0\n1 -{0} 0\n".format(top))
            assert main(["pqe", str(p), "--verify"]) == 0
            got = capfd.readouterr()
            assert got.err == "verified\n"
            outs.append(got.out)
        assert outs[0] == "-2 0\n2 3 0\n"
        assert outs[1] == outs[0].replace("3", str(10 ** 9))

    def test_parser_rejections(self):
        for text in ["", "p pqe 1 0\n", "p pqe 1 1 0\n",  # counts wrong
                     "p pqe 1 0 0\nw 1\n",                # w without 0
                     "p pqe 1 1 0\n1\n",                  # clause without 0
                     "p pqe 3 1 1\nw -3 0\n1 3 0\n%\n-3 2 0\n",  # w literal
                     "p pqe 2 1 1\nw 3 0\n1 3 0\n%\n-3 2 0\n"]:  # var 3 > 2
            with pytest.raises(ValueError):
                parse_pqe_dimacs(text)

    @pytest.mark.parametrize("text, why", [
        ("p pqe 2 1 0\n1 x 0\n", "line 2: 'x' is not an integer"),
        ("p pqe 2 1 0\n1 0 2 0\n",
         "line 2: a clause must end in its only 0"),
        ("p pqe 2 1 0\n1\n", "line 2: a clause must end in its only 0"),
        ("p pqe 2 1 0\nw 1\n1 0\n", "line 2: a w line must end in its only 0"),
        ("p pqe 2 1 0\np pqe 2 1 0\n1 0\n", "line 2: second `p` line"),
        ("p pqe 2 1 0\ncnf junk\n1 0\n", "line 2: 'cnf' is not an integer"),
        ("c\np pqe 2 x 0\n", "line 2: 'x' is not an integer"),
        ("p cnf 2 1\n1 0\n",
         "line 1: expected header 'p pqe <vars> <A> <B>'"),
        ("p pqe 2 1 0\n1 -1 0\n", "line 2: tautological clause"),
        ("p pqe 2 2 0\n1 0\n",
         "line 1: header clause counts do not match body"),
        ("p pqe 2 1 1\nw 1 0\n1 0\n%\n\n2 -3 0\n",
         "line 6: variable 3 is not in 1..2"),
        ("p pqe 3 1 1\nw -3 0\n1 3 0\n%\n-3 2 0\n",
         "line 2: variable -3 is not in 1..3"),
        ("p pqe 2 1 1\n1 0\n%\n2 0\n%\n", "line 5: second `%` line")])
    def test_malformed_task_names_the_line(self, tmp_path, capfd, text, why):
        p = tmp_path / "t.pqe"
        p.write_text(text)
        assert main(["pqe", str(p)]) == 3
        assert capfd.readouterr().err == "error: %s\n" % why

    # B ties variable 1 to each of 2..26: 26 variables, more than the
    # verification oracle enumerates
    WIDE_PQE_SRC = "p pqe 26 1 25\nw 1 0\n1 2 0\n%\n" + "".join(
        "-1 %d 0\n" % i for i in range(2, 27))

    @pytest.mark.parametrize("task, argv, answer, code, why", [
        (PQE_SRC, ["--pqe-budget", "1"], None, 2, "no answer within budget"),
        (WIDE_PQE_SRC, ["--verify"], None, 0,
         "task too large for the verification oracle"),
        (PQE_SRC, ["--verify"], [], 1, "verification FAILED")])
    def test_answer_not_verified(self, tmp_path, capfd, monkeypatch, task,
                                 argv, answer, code, why):
        if answer is not None:  # take_out gives this wrong answer
            monkeypatch.setattr("lorcheck.cli.take_out",
                                lambda task, budget: answer)
        p = tmp_path / "t.pqe"
        p.write_text(task)
        assert main(["pqe", str(p), *argv]) == code
        assert capfd.readouterr().err == why + "\n"

    def test_bad_file_exit_code(self, tmp_path):
        p = tmp_path / "bad.pqe"
        p.write_text("no header\n")
        assert main(["pqe", str(p)]) == 3


class TestWitnessVerification:
    def test_corrupted_trace_rejected(self, toggle_file, tmp_path, capfd):
        main(["check", toggle_file])
        capfd.readouterr()
        path = toggle_file + ".witness"
        lines = Path(path).read_text().splitlines()
        # flip the final state bit
        last = lines[-1]
        lines[-1] = last[:-1] + ("0" if last.endswith("1") else "1")
        Path(path).write_text("\n".join(lines) + "\n")
        assert main(["verify-witness", toggle_file, path]) == 1
        assert "witness rejected" in capfd.readouterr().out

    def test_corrupted_invariant_rejected(self, stuck0_file, tmp_path, capfd):
        main(["check", stuck0_file])
        capfd.readouterr()
        path = stuck0_file + ".witness"
        text = Path(path).read_text().replace("-1 0", "1 0")
        Path(path).write_text(text)
        assert main(["verify-witness", stuck0_file, path]) == 1
        got = capfd.readouterr()
        assert "witness rejected" in got.out
        assert "condition" in got.err

    def test_wide_miter_invariant(self, tmp_path, capfd):
        """The 9-output xor register miter: its P reads 18 latches, as one
        conjunct per output pair."""
        f = tmp_path / "xorreg9.scirc"
        f.write_text(xorreg_source(9))
        names = ["%s.s%d" % (p, i) for p in "nk" for i in range(9)]
        equal = ["%d -%d 0" % (i + 1, i + 10) for i in range(9)]
        equal += ["-%d %d 0" % (i + 1, i + 10) for i in range(9)]

        def replay(clauses):
            w = tmp_path / "inv.witness"
            w.write_text("invariant\n" + "".join(
                "c var %d %s\n" % (i, nm) for i, nm in enumerate(names, 1))
                + "p cnf 18 %d\n" % len(clauses) + "\n".join(clauses) + "\n")
            return main(["verify-witness", str(f), str(w),
                         "--miter-with", str(f)])
        assert replay(equal) == 0
        assert "witness accepted" in capfd.readouterr().out
        assert replay(equal[:4] + equal[5:]) == 1
        assert "witness rejected" in capfd.readouterr().out

    @pytest.mark.parametrize("second, why", [
        ("c var 1 x", "variable 1 named twice"),
        ("c var 2 x", "'x' is not a latch"),
        ("c var 2 g", "'g' is not a latch"),
        ("c var 2 nosuch", "'nosuch' is not a latch")])
    def test_invariant_names_latches_once(self, tmp_path, capfd, second, why):
        src = tmp_path / "g.scirc"
        src.write_text("input x\nlatch s init 0 next g\n"
                       "signal g = (s AND x)\nprop NOT s\n")
        assert main(["check", str(src)]) == 0
        assert main(["verify-witness", str(src), str(src) + ".witness"]) == 0
        capfd.readouterr()
        p = tmp_path / "w"
        p.write_text("invariant\nc var 1 s\n%s\np cnf 2 2\n-1 0\n-1 -2 0\n"
                     % second)
        assert main(["verify-witness", str(src), str(p)]) == 3
        assert capfd.readouterr().err == (
            "error: malformed witness: line 3: %s\n" % why)

    @pytest.mark.parametrize("body, why", [
        ("c var 1 s\np cnf 1 2\n-1 0\n-1 -2 0\n",
         "line 5: no `c var` line names variable 2"),
        ("c var 1 s\np cnf 1 1\n-1 x 0\n", "line 4: 'x' is not an integer"),
        ("c var one s\np cnf 1 1\n-1 0\n", "line 2: 'one' is not an integer"),
        ("c var 1 s\nc var 2 s\np cnf 2 1\n-1 2 0\n",
         "line 3: latch 's' named twice"),
        ("c var 1 s\nc var 2 s\np cnf 2 2\n-1 0\n-2 0\n",
         "line 3: latch 's' named twice"),
        ("c var 0 s\np cnf 1 1\n0 0\n", "line 2: variable 0 is not positive"),
        ("c var 1 s\np cnf 1 1\n-1 0 1 0\n",
         "line 4: a clause must end in its only 0"),
        ("c var 1 s\np cnf 1 1\n-1\n",
         "line 4: a clause must end in its only 0"),
        ("c var 1 s\np cnf 1 2\n-1 0\n1 -1 0\n",
         "line 5: tautological clause"),
        ("c var 1 s\np garbage\n-1 0\n",
         "line 3: the `p` line must read 'p cnf 1 1'"),
        ("c var 1 s\np cnf 7 1\n-1 0\n-1 0\n",
         "line 3: the `p` line must read 'p cnf 1 2'"),
        ("c var 1 s\nc note\n-1 0\np cnf 2 1\n",
         "line 5: the `p` line must read 'p cnf 1 1'"),
        ("c var 1 s\np cnf 1 1\np cnf 1 1\n-1 0\n",
         "line 4: second `p` line"),
        ("c var 1\nc var 1 s\np cnf 1 1\n-1 0\n",
         "line 2: a `c var` line must read `c var <n> <latch>`"),
        ("c var 1 s\nc var 2 s extra\np cnf 1 1\n-1 0\n",
         "line 3: a `c var` line must read `c var <n> <latch>`"),
        ("\nc var 1 s\n \np cnf 1 1\n\t\n-1 0\n\n", None)])
    def test_malformed_invariant_names_the_line(self, stuck0_file, tmp_path,
                                                capfd, body, why):
        p = tmp_path / "w"
        p.write_text("invariant\n" + body)
        got = main(["verify-witness", stuck0_file, str(p)])
        if why is None:  # blank lines are allowed
            assert got == 0
            assert "witness accepted" in capfd.readouterr().out
            return
        assert got == 3
        assert capfd.readouterr().err == (
            "error: malformed witness: %s\n" % why)

    @pytest.mark.parametrize("circuit, text, why", [
        ("stuck0.scirc", "maybe\n", "unknown witness kind 'maybe'"),
        ("stuck0.scirc", "", "empty witness file"),
        ("stuck0.scirc", "counterexample\n# inputs: x stut\n# state: s\n",
         "malformed witness: trace has no steps"),
        ("nosuch.scirc", "invariant\n", "[Errno 2] No such file")])
    def test_unusable_witness_exits_3(self, stuck0_file, tmp_path, capfd,
                                      circuit, text, why):
        p = tmp_path / "w"
        p.write_text(text)
        assert main(["verify-witness", str(tmp_path / circuit), str(p)]) == 3
        assert capfd.readouterr().err.startswith("error: " + why)

    @pytest.mark.parametrize("clause, why", [
        ("1 1 0", "condition 1: initial states do not satisfy the invariant"),
        ("-1 -1 0", "condition 3: invariant is not inductive")])
    def test_repeated_literal_counts_once(self, tmp_path, capfd, clause,
                                          why):
        # s := x from s = 0: the clause (s) fails in the initial state and
        # (NOT s) is not inductive, as when written once
        src = tmp_path / "dff.scirc"
        src.write_text("input x\nlatch s init 0 next x\nprop NOT s\n")
        p = tmp_path / "w"
        p.write_text("invariant\nc var 1 s\np cnf 1 1\n%s\n" % clause)
        assert main(["verify-witness", str(src), str(p)]) == 1
        assert capfd.readouterr() == ("witness rejected\n", why + "\n")

    def test_conditions_2_and_3_share_a_solver(self, built_clauses):
        ts = encode(parse_circuit(STUCK0_SRC))
        lines = ["invariant", "c var 1 s", "-1 0"]
        assert verify_invariant(ts, lines, None)
        s = ts.state_ids(0)[0]
        assert built_clauses == [[list(c) for c in ts.init],
                                 [[-s]] + [list(c) for c in ts.trans]]

    def test_against_a_solver_per_condition(self):
        # candidate invariants over random systems, stuttered or not, and
        # miters: one solver over Inv ∧ T for conditions 2 and 3 names the
        # same condition as a solver for each
        rng = make_rng(77)
        systems = []
        for _ in range(12):
            c = parse_circuit(random_system_source(rng, rng.randint(2, 4),
                                                   rng.randint(1, 2)))
            systems += [encode(c), encode(stutter(c))]
        for n in (2, 3):
            m = build_miter(parse_circuit(shreg_source(n)),
                            parse_circuit(shreg_source(n)))
            systems += [encode(m), encode(stutter(m))]
        seen = set()
        for ts in systems:
            names = [v.name for v in ts.state_vars]
            ids = [v.id for v in ts.state_vars]
            for _ in range(25):
                lines = ["invariant"] + ["c var %d %s" % (i, nm) for i, nm
                                         in enumerate(names, 1)]
                inv = []
                for _ in range(rng.randint(0, 4)):
                    vs = rng.sample(range(1, len(ids) + 1),
                                    rng.randint(1, min(2, len(ids))))
                    lits = [v if rng.random() < 0.5 else -v for v in vs]
                    lines.append(" ".join(map(str, lits)) + " 0")
                    inv.append(Clause(ids[abs(l) - 1] * (1 if l > 0 else -1)
                                      for l in lits))
                if not implies(ts.init, inv):
                    want = "condition 1"
                elif not implies(inv, ts.prop):
                    want = "condition 2"
                elif not implies(inv + ts.trans, rename(inv, ts.next)):
                    want = "condition 3"
                else:
                    want = None
                got = []
                assert verify_invariant(ts, lines, got.append) == (
                    want is None)
                assert [m.split(":")[0] for m in got] == [want] * bool(want)
                seen.add(want)
        assert seen == {None, "condition 1", "condition 2", "condition 3"}

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_trace_replay_builds_no_solver(self, toggle, length,
                                           built_solvers):
        # toggle: stut=0 holds s, stut=1 steps s to s XOR x; a trace is
        # replayed on the gates, so no step needs a solve
        steps = ["step %d: inputs 00 state 0" % i for i in range(1, length)]
        lines = (["counterexample", "# inputs: x stut", "# state: s",
                  "step 0: inputs - state 0"] + steps
                 + ["step %d: inputs 11 state 1" % length])
        assert verify_trace(toggle, lines, pytest.fail)
        assert built_solvers == []

    @pytest.mark.parametrize("step2, step3", [
        # stut=0 holds s at 0; s = 1 under x = 1 steps to 0
        ("inputs 00 state 1", "inputs 11 state 1"),
        # x alone holds s at 0; s = 1 under x = 0 steps to 1
        ("inputs 10 state 1", "inputs 01 state 0")],
        ids=["stutter", "no-stutter"])
    def test_first_refuted_step_is_named(self, toggle, step2, step3):
        lines = ["counterexample", "# inputs: x stut", "# state: s",
                 "step 0: inputs - state 0", "step 1: inputs 00 state 0",
                 "step 2: " + step2, "step 3: " + step3]
        reports = []
        assert not verify_trace(toggle, lines, reports.append)
        assert reports == ["step 2: not a transition of the system"]

    @staticmethod
    def _dff_miter():
        return encode(stutter(build_miter(parse_circuit(DFF_SRC),
                                          parse_circuit(INV_DFF_SRC))))

    @pytest.mark.parametrize("bad", [1, 2, 3])
    def test_miter_inputs_must_agree(self, bad):
        # n latches x and k latches NOT x, so a step whose n.x and k.x
        # differ has a next state of its own; only T's interface clauses
        # rule it out
        ts = self._dff_miter()
        assert [v.name for v in ts.input_vars] == ["n.x", "k.x", "stut"]
        lines = ["counterexample", "# inputs: n.x k.x stut",
                 "# state: n.s k.s", "step 0: inputs - state 00"]
        good = lines + ["step %d: inputs 111 state 10" % i for i in (1, 2, 3)]
        assert verify_trace(ts, good, pytest.fail)
        lines += ["step %d: inputs %s" % (i, "101 state 11" if i == bad
                                          else "111 state 10")
                  for i in (1, 2, 3)]
        reports = []
        assert not verify_trace(ts, lines, reports.append)
        assert reports == ["step %d: not a transition of the system" % bad]

    def test_headers_in_any_order(self):
        # each bit string follows its own header, not the circuit's order
        ts = self._dff_miter()
        lines = ["counterexample", "# inputs: k.x stut n.x",
                 "# state: k.s n.s", "step 0: inputs - state 00"]
        # k.x = n.x = 1 under stut = 0 holds the state
        held = "step 1: inputs 101 state 00"
        assert verify_trace(ts, lines + [held, "step 2: inputs 111 state 01"],
                            pytest.fail)
        for tail in (["step 1: inputs 111 state 10"],  # the state swapped
                     ["step 1: inputs 011 state 00",  # the inputs swapped
                      "step 2: inputs 111 state 01"]):
            reports = []
            assert not verify_trace(ts, lines + tail, reports.append)
            assert reports == ["step 1: not a transition of the system"]

    @pytest.fixture
    def ctr12(self, tmp_path):
        """ctr12 and its count-up trace of 2,048 steps, as a file and as
        the list of its state bit strings, c0 first."""
        src = tmp_path / "ctr12.scirc"
        src.write_text(ctr_source(12))
        states = ["".join("1" if t >> i & 1 else "0" for i in range(12))
                  for t in range(2 ** 11 + 1)]
        return str(src), states

    @staticmethod
    def _replay_ctr12(ctr12, tmp_path, states):
        src, _ = ctr12
        w = tmp_path / "ctr12.witness"
        w.write_text("counterexample\n# inputs: en\n# state: %s\n"
                     % " ".join("c%d" % i for i in range(12)) + "".join(
                         "step %d: inputs %s state %s\n"
                         % (t, "1" if t else "-", bits)
                         for t, bits in enumerate(states)))
        return main(["verify-witness", src, str(w)])

    def test_long_trace_accepted(self, ctr12, tmp_path, capfd):
        assert self._replay_ctr12(ctr12, tmp_path, ctr12[1]) == 0
        assert capfd.readouterr().out == "witness accepted\n"

    @pytest.mark.parametrize("flipped, named", [
        ((1500, 700), 700), ((2048,), 2048)])
    def test_corrupted_step_named(self, ctr12, tmp_path, capfd, flipped,
                                  named):
        # a flipped c0 in state t breaks the steps into and out of t
        states = list(ctr12[1])
        for t in flipped:
            states[t] = ("1" if states[t][0] == "0" else "0") + states[t][1:]
        assert self._replay_ctr12(ctr12, tmp_path, states) == 1
        got = capfd.readouterr()
        assert got.out == "witness rejected\n"
        assert got.err == "step %d: not a transition of the system\n" % named

    STRICT_SRC = "input x\nlatch s init 0 next (s OR x)\nprop NOT s\n"

    @pytest.mark.parametrize("extra, why", [
        ("hello world", "line 4: not a header, step or blank line: "
                        "'hello world'"),
        ("# state: q", "line 4: second '# state:' header"),
        ("# inputs: x stut", "line 4: second '# inputs:' header"),
        ("  ", None)])
    def test_trace_lines_are_strict(self, tmp_path, capfd, extra, why):
        src = tmp_path / "s.scirc"
        src.write_text(self.STRICT_SRC)
        assert main(["check", str(src)]) == 1
        path = str(src) + ".witness"
        lines = Path(path).read_text().splitlines()
        assert lines[1:3] == ["# inputs: x stut", "# state: s"]
        assert main(["verify-witness", str(src), path]) == 0
        capfd.readouterr()
        with open(path, "w") as f:
            f.write("\n".join(lines[:3] + [extra] + lines[3:]) + "\n")
        got = main(["verify-witness", str(src), path])
        if why is None:  # a blank line is allowed
            assert got == 0
            return
        assert got == 3
        assert capfd.readouterr().err == "error: malformed witness: %s\n" % why

    def test_trace_with_wrong_init_rejected(self, stuck0_file, tmp_path, capfd):
        p = tmp_path / "w"
        p.write_text("counterexample\n"
                     "# inputs: x stut\n"
                     "# state: s\n"
                     "step 0: inputs - state 1\n")
        assert main(["verify-witness", stuck0_file, str(p)]) == 1
        assert "not initial" in capfd.readouterr().err

    @pytest.mark.parametrize("inputs, bits", [("", "x"), ("stut", "1")])
    def test_trace_must_name_every_latch(self, tmp_path, capfd, inputs, bits):
        # b is free at every step of a trace whose header omits it, so the
        # trace could pick b afresh each step and reach a state with a and c
        src = tmp_path / "abc.scirc"
        src.write_text("latch a init 0 next (a OR b)\n"
                       "latch c init 0 next (c OR NOT b)\n"
                       "latch b init * next b\n"
                       "prop NOT (a AND c)\n")
        assert main(["check", str(src)]) == 0
        p = tmp_path / "w"
        p.write_text("counterexample\n# inputs: %s\n# state: a c\n"
                     "step 0: inputs - state 00\n"
                     "step 1: inputs %s state 10\n"
                     "step 2: inputs %s state 11\n" % (inputs, bits, bits))
        capfd.readouterr()
        assert main(["verify-witness", str(src), str(p)]) == 3
        assert "error:" in capfd.readouterr().err

    @pytest.mark.parametrize("line, why", [
        ("step 1: inputs 11", "line 5: malformed trace line"),
        ("step 1: inputs 1 state 1", "line 5: wrong bit strings"),
        ("step 1: inputs 12 state 1", "line 5: wrong bit strings"),
        ("step 1: inputs 11 state 10", "line 5: wrong bit strings"),
        ("step 2: inputs 11 state 1", "line 5: trace steps are not "
                                      "consecutive"),
        ("step one: inputs 11 state 1", "line 5: 'one' is not an integer")])
    def test_malformed_step_line(self, toggle_file, tmp_path, capfd, line,
                                 why):
        p = tmp_path / "w"
        p.write_text("counterexample\n# inputs: x stut\n# state: s\n"
                     "step 0: inputs - state 0\n%s\n" % line)
        assert main(["verify-witness", toggle_file, str(p)]) == 3
        assert capfd.readouterr().err.startswith(
            "error: malformed witness: " + why)

    @pytest.mark.parametrize("engine", ["lor", "lor-ic"])
    @pytest.mark.parametrize("cmd, sources", [
        ("check", ["input x\noutput z = x\nprop 0\n"]),
        ("sec", ["input x\noutput z = 0\n", "input x\noutput z = 1\n"])])
    def test_latch_free_counterexample(self, tmp_path, capfd, engine, cmd,
                                       sources):
        # a system without latches writes "-" for every state
        files = []
        for i, src in enumerate(sources):
            files.append(tmp_path / ("c%d.scirc" % i))
            files[-1].write_text(src)
        w = tmp_path / "w"
        assert main([cmd, *map(str, files), "--engine", engine,
                     "--witness", str(w)]) == 1
        assert "verdict: fails" in capfd.readouterr().out
        assert w.read_text().endswith("# state: \nstep 0: inputs - state -\n")
        miter = ["--miter-with", str(files[1])] if cmd == "sec" else []
        assert main(["verify-witness", str(files[0]), str(w), *miter]) == 0
        assert "witness accepted" in capfd.readouterr().out


@pytest.mark.parametrize("cmd", ["check", "sec"])
def test_undecodable_circuit_exits_3(tmp_path, capfd, cmd):
    p = tmp_path / "latin1.scirc"
    p.write_bytes("input x\nlatch s init 0 next s\nprop NOT s\n"
                  "output café = s\n".encode("latin-1"))
    assert main([cmd, str(p)] + [str(p)] * (cmd == "sec")) == 3
    got = capfd.readouterr()
    assert re.fullmatch(r"error: [^\n]*\n", got.err)
    assert got.out == ""
