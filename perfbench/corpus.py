"""Seeded corpus for the time-to-verdict benchmark.

Every instance carries the answer it must get and the reason it is in the
corpus.  Answers of the fixed families (rings, counters, shift and xor
registers, their miters and the witnesses built for them) follow from their
construction; answers of the random systems come from explicit reachability
in ``lorcheck.qe_oracle``.  ``self_check`` re-derives the constructed answers
of the small family members by the same kind of enumeration, independently of
the SAT-based paths the benchmark times.
"""

from __future__ import annotations

import itertools
import os
import random

from lorcheck.circuit import (parse_circuit, encode, add_stuttering,
                              build_miter, simulate, eval_expr)
from lorcheck.cnf import evaluate
from lorcheck.qe_oracle import reach_bruteforce

# answer -> exit code of the lorcheck command that reaches it
EXIT_CODE = {"holds": 0, "fails": 1, "equivalent": 0, "inequivalent": 1,
             "accepted": 0, "rejected": 1}


class Instance:
    """One timed command with its known answer.

    ``argv`` is the lorcheck command line; ``replay`` is the verify-witness
    command line that must accept the witness the timed command writes (None
    for the replay workload, whose timed command is the replay itself).
    ``defect`` names a known program defect the instance triggers; it still
    carries the true answer, so it counts as a failed operation until the
    defect is fixed."""

    def __init__(self, name, argv, answer, why, replay=None, defect=None):
        self.name = name
        self.argv = argv
        self.answer = answer
        self.why = why
        self.replay = replay
        self.defect = defect


# ------------------------------------------------------------- circuits


def ring_source(n, k=1):
    """One-hot token ring; stages 0 and k never both hold a token (holds)."""
    lines = ["latch s0 init 1 next s%d" % (n - 1)]
    lines += ["latch s%d init 0 next s%d" % (i, i - 1) for i in range(1, n)]
    lines.append("prop NOT (s0 AND s%d)" % k)
    return "\n".join(lines) + "\n"


def ctr_source(n):
    """n-bit counter enabled by input en; the top bit is reached after
    2^(n-1) enabled steps, so the property fails at exactly that depth."""
    lines = ["input en", "latch c0 init 0 next (c0 XOR en)"]
    carry = "en"
    for i in range(1, n):
        lines.append("signal k%d = (%s AND c%d)" % (i, carry, i - 1))
        carry = "k%d" % i
        lines.append("latch c%d init 0 next (c%d XOR %s)" % (i, i, carry))
    lines.append("prop NOT c%d" % (n - 1))
    return "\n".join(lines) + "\n"


def shreg_source(n):
    """n-stage shift register; output is the last stage."""
    lines = ["input x", "latch s0 init 0 next x"]
    lines += ["latch s%d init 0 next s%d" % (i, i - 1) for i in range(1, n)]
    lines.append("output z = s%d" % (n - 1))
    return "\n".join(lines) + "\n"


def xorreg_source(n, inverted=None):
    """n latches toggled together by input x, every latch an output.  With
    ``inverted`` = i, latch i sees NOT x, which the other version tells
    apart after one step."""
    lines = ["input x"]
    for i in range(n):
        x = "NOT x" if i == inverted else "x"
        lines.append("latch s%d init 0 next (s%d XOR %s)" % (i, i, x))
    lines += ["output z%d = s%d" % (i, i) for i in range(n)]
    return "\n".join(lines) + "\n"


def random_system_source(rng, n_latch, n_in):
    """A random system with a property over two latches.  Same construction
    as the test suite's generator, kept here so that the corpus of a given
    seed does not change when the tests change."""
    names = ["s%d" % i for i in range(n_latch)]
    ins = ["x%d" % i for i in range(n_in)]
    atoms = names + ins

    def expr(d=2, ops=("AND", "AND", "OR", "XOR")):
        if d == 0 or rng.random() < 0.35:
            a = rng.choice(atoms)
            return a if rng.random() < 0.75 else "NOT %s" % a
        return "(%s %s %s)" % (expr(d - 1, ops), rng.choice(ops),
                               expr(d - 1, ops))

    lines = ["input %s" % x for x in ins]
    for nm in names:
        lines.append("latch %s init 0 next %s" % (nm, expr()))
    lines.append("prop NOT (%s AND %s)" % tuple(rng.sample(names, 2)))
    return "\n".join(lines) + "\n"


def reach_verdict(circ):
    """Ground truth by explicit reachability over the stuttered system."""
    ts = add_stuttering(encode(circ))
    ids = ts.state_ids(0)
    for s in reach_bruteforce(ts, 2 ** len(ts.state_vars) + 1):
        if evaluate(ts.prop, dict(zip(ids, s))) is False:
            return "fails"
    return "holds"


def reach_class(circ, max_depth):
    """(answer, depth) by explicit reachability over the stuttered system:
    the depth of the shallowest bad state when the property fails, else the
    number of steps until the reachable set stops growing; None when that
    depth exceeds max_depth."""
    ts = add_stuttering(encode(circ))
    ids = ts.state_ids(0)
    size = None
    for j in range(max_depth + 2):
        reach = reach_bruteforce(ts, j)
        if any(evaluate(ts.prop, dict(zip(ids, s))) is False for s in reach):
            return "fails", j
        if len(reach) == size:
            return "holds", j - 1
        size = len(reach)
    return None


def random_systems(rng, n_latch, n_in, classes):
    """One random system of each wanted (answer, depth) class: the first of
    its class in a pool of RANDOM_POOL drawn systems, all classified, so
    that the cost of generating them does not depend on the seed.  Draws on
    past the pool only while a class is still missing.  Drawing per class
    keeps the cost of solving the random part of the corpus comparable from
    seed to seed; deep cases come from the fixed families."""
    depth = max(d for _, d in classes)
    found, drawn = {}, 0
    while drawn < RANDOM_POOL or len(found) < len(classes):
        src = random_system_source(rng, n_latch, n_in)
        drawn += 1
        found.setdefault(reach_class(parse_circuit(src), depth), src)
    return [found[c] for c in classes]


# ------------------------------------------------------------ witnesses


def invariant_text(names, clauses):
    """Witness file for an invariant given as clauses of (name, sign)."""
    idx = {nm: i for i, nm in enumerate(names, 1)}
    out = ["invariant"]
    out += ["c var %d %s" % (i, nm) for nm, i in idx.items()]
    out.append("p cnf %d %d" % (len(names), len(clauses)))
    for c in clauses:
        out.append(" ".join(str(idx[nm] if pos else -idx[nm])
                            for nm, pos in c) + " 0")
    return "\n".join(out) + "\n"


def trace_text(input_names, state_names, steps):
    """Witness file for a counterexample: steps are (input bits or None,
    state bits) in declaration order."""
    out = ["counterexample", "# inputs: " + " ".join(input_names),
           "# state: " + " ".join(state_names)]
    for i, (ins, st) in enumerate(steps):
        ibits = "-" if ins is None else "".join("1" if b else "0" for b in ins)
        out.append("step %d: inputs %s state %s"
                   % (i, ibits, "".join("1" if b else "0" for b in st)))
    return "\n".join(out) + "\n"


def miter_equal_clauses(latches):
    """n.s ≡ k.s for every latch: inductive whenever both sides are the
    same circuit, and it implies the miter property."""
    out = []
    for s in latches:
        out.append([("n." + s, True), ("k." + s, False)])
        out.append([("n." + s, False), ("k." + s, True)])
    return out


def one_hot_clauses(n):
    names = ["s%d" % i for i in range(n)]
    out = [[(s, True) for s in names]]
    out += [[(a, False), (b, False)] for a, b in itertools.combinations(names, 2)]
    return out


def ctr_trace(n):
    """The shortest trace to the top bit: count up with en=1 every step."""
    steps = []
    for t in range(2 ** (n - 1) + 1):
        st = [bool(t >> i & 1) for i in range(n)]
        steps.append((None if t == 0 else [True], st))
    return steps


# ------------------------------------------------- independent semantics


def _states(circ):
    names = circ.latch_names()
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


def _input_vectors(circ):
    for bits in itertools.product([False, True], repeat=len(circ.inputs)):
        x = dict(zip(circ.inputs, bits))
        if all(x[a] == x[b] for a, b in circ.eq_input_pairs):
            yield x


def _is_initial(circ, st):
    return (all(l.init is None or st[l.name] == l.init for l in circ.latches)
            and all(st[a] == st[b] for a, b in circ.state_pairs))


def _prop_ok(circ, st):
    env, _ = simulate(circ, st, dict.fromkeys(circ.inputs, False))
    return eval_expr(circ.prop, env)


def semantic_invariant_ok(circ, clauses):
    """Is the invariant initial, property-implying and inductive?  Decided
    by enumerating states and simulating gates, not by SAT."""
    def holds(st):
        return all(any(st[nm] == pos for nm, pos in c) for c in clauses)
    for st in _states(circ):
        if not holds(st):
            if _is_initial(circ, st):
                return False
            continue
        if not _prop_ok(circ, st):
            return False
        for x in _input_vectors(circ):
            if not holds(simulate(circ, st, x)[1]):
                return False
    return True


def semantic_trace_ok(circ, input_names, state_names, steps):
    """Does the trace start initial, follow the gates and end in a bad
    state?  Decided by simulation."""
    st = dict(zip(state_names, steps[0][1]))
    if not _is_initial(circ, st):
        return False
    for ins, bits in steps[1:]:
        st2 = simulate(circ, st, dict(zip(input_names, ins)))[1]
        if st2 != dict(zip(state_names, bits)):
            return False
        st = st2
    return not _prop_ok(circ, st)


# ------------------------------------------------------------ self-check


def _miter(src_n, src_k):
    return build_miter(parse_circuit(src_n), parse_circuit(src_k))


def _drops(clauses, first=0):
    return [clauses[:i] + clauses[i + 1:] for i in range(first, len(clauses))]


def _flips(steps):
    for at in range(1, len(steps)):
        for bit in range(len(steps[at][1])):
            bad = [(ins, list(st)) for ins, st in steps]
            bad[at][1][bit] = not bad[at][1][bit]
            yield bad


def self_check(workload):
    """Re-derive by enumeration the constructed answers of the small
    members of every family the workload uses, including every corruption
    the generator can pick.  Returns a list of mismatches."""
    bad = []

    def expect(label, got, want):
        if got != want:
            bad.append("%s: enumeration says %s, corpus says %s"
                       % (label, got, want))

    if workload == "check":
        for n in range(3, 11):
            for k in range(1, n // 2 + 1):
                expect("ring%d-%d" % (n, k),
                       reach_verdict(parse_circuit(ring_source(n, k))),
                       "holds")
        for n in range(2, 10):
            expect("ctr%d" % n, reach_verdict(parse_circuit(ctr_source(n))),
                   "fails")
    elif workload == "sec":
        for n in range(2, 6):
            expect("shreg%d" % n, reach_verdict(
                _miter(shreg_source(n), shreg_source(n))), "holds")
            expect("shreg%d-vs-%d" % (n, n - 1), reach_verdict(
                _miter(shreg_source(n), shreg_source(n - 1))), "fails")
        for n in range(1, 5):
            expect("xorreg%d" % n, reach_verdict(
                _miter(xorreg_source(n), xorreg_source(n))), "holds")
            for i in range(n):
                expect("xorreg%d-inv%d" % (n, i), reach_verdict(
                    _miter(xorreg_source(n), xorreg_source(n, i))), "fails")
    else:
        for n in range(3, 10):
            circ = parse_circuit(ring_source(n))
            good = one_hot_clauses(n)
            expect("ring%d-onehot" % n, semantic_invariant_ok(circ, good),
                   True)
            for i, c in enumerate(_drops(good, 1)):
                expect("ring%d-onehot-bad%d" % (n, i),
                       semantic_invariant_ok(circ, c), False)
        for fam, source in (("shreg", shreg_source), ("xorreg", xorreg_source)):
            for n in range(1, 5):
                circ = _miter(source(n), source(n))
                good = miter_equal_clauses(["s%d" % i for i in range(n)])
                expect("%s%d-miter" % (fam, n),
                       semantic_invariant_ok(circ, good), True)
                for i, c in enumerate(_drops(good)):
                    expect("%s%d-miter-bad%d" % (fam, n, i),
                           semantic_invariant_ok(circ, c), False)
        for n in range(2, 7):
            circ = parse_circuit(ctr_source(n))
            names = ["c%d" % i for i in range(n)]
            steps = ctr_trace(n)
            expect("ctr%d-trace" % n,
                   semantic_trace_ok(circ, ["en"], names, steps), True)
            for i, b in enumerate(_flips(steps)):
                expect("ctr%d-trace-bad%d" % (n, i),
                       semantic_trace_ok(circ, ["en"], names, b), False)
            expect("ctr%d-trace-short" % n,
                   semantic_trace_ok(circ, ["en"], names, steps[:-1]), False)
    return bad


# --------------------------------------------------------------- corpus

# Family sizes.  Every decided instance takes at most a few seconds on a
# 2-core x86 container, far below the per-instance limit in run.py.  The
# median and the tail (ten runs from the top) of each workload fall among
# the runs of a group of instances of about the same cost, not on the edge
# between two groups, where they would jump with small changes of speed.

# (stages, second stage of the property).  check has five cheap instances
# (ctr3, the random systems), four of about 0.3 s (the ring6s, ctr4) that
# hold the median and three of about 0.5 s (the ring7s) that hold the tail.
CHECK_RINGS = ((6, 1), (6, 2), (6, 3), (7, 1), (7, 2), (7, 3))
CHECK_CTRS = (3, 4)
# (latches, inputs, wanted (answer, depth) classes)
CHECK_RANDOM = ((5, 1, (("fails", 2), ("holds", 1))),
                (6, 1, (("fails", 2), ("holds", 1))))
RANDOM_POOL = 32
# (family, size, two equal copies or not); an unequal shreg-N is paired
# with shreg-(N-1), an unequal xorreg-N has one input inverted.  The equal
# xorreg3 miter would take tens of seconds.  shreg3 and shreg5-vs-4 cost
# about the same and hold the median, shreg4 and xorreg2 the tail.
SEC_MITERS = (("shreg", 3, True), ("shreg", 4, True),
              ("shreg", 2, False), ("shreg", 3, False), ("shreg", 4, False),
              ("shreg", 5, False), ("shreg", 6, False),
              ("xorreg", 2, True), ("xorreg", 2, False))
# The accepted ring32 and shreg112 witnesses cost about the same and hold
# the tail of replay.
REPLAY_RINGS = (16, 24, 32)
REPLAY_CTRS = (6, 8, 10)
REPLAY_SHREG = (16, 32, 112)
REPLAY_XORREG = (4, 5, 6)
DEFECT_SEC_XORREG = 4
DEFECT_REPLAY_XORREG = 9


class Corpus:
    """Files plus instances of one workload, generated from a seed."""

    def __init__(self, workload, seed, root):
        self.root = root
        self.files = {}          # path under root -> text
        self.instances = []
        getattr(self, "_" + workload)(random.Random(seed))

    def _file(self, name, text):
        path = os.path.join(self.root, name)
        self.files[path] = text
        return path

    def _check(self, rng):
        for n, k in CHECK_RINGS:
            name = "ring%d" % n if k == 1 else "ring%d-%d" % (n, k)
            f = self._file(name + ".scirc", ring_source(n, k))
            self._check_instance(name, f, "holds",
                                 "token ring: many frames of relax, PQE "
                                 "makeup and push")
        for n in CHECK_CTRS:
            f = self._file("ctr%d.scirc" % n, ctr_source(n))
            self._check_instance("ctr%d" % n, f, "fails",
                                 "counter: counterexample at depth %d"
                                 % 2 ** (n - 1))
        i = 0
        for nl, ni, classes in CHECK_RANDOM:
            sources = random_systems(rng, nl, ni, classes)
            for (answer, depth), src in zip(classes, sources):
                f = self._file("rand%d.scirc" % i, src)
                self._check_instance("rand%d" % i, f, answer,
                                     "random %d-latch system, %s, depth %d "
                                     "by enumeration" % (nl, answer, depth))
                i += 1

    def _check_instance(self, name, f, answer, why):
        w = os.path.join(self.root, "%s.witness" % name)
        self.instances.append(Instance(
            name, ["check", f, "--witness", w], answer, why,
            replay=["verify-witness", f, w]))

    def _sec(self, rng):
        for fam, n, equal in SEC_MITERS:
            if fam == "shreg":
                a = self._file("shreg%d.scirc" % n, shreg_source(n))
                if equal:
                    self._sec_instance("shreg%d" % n, a, a, "equivalent",
                                       "identical shift registers: frames "
                                       "grow with N")
                else:
                    b = self._file("shreg%d.scirc" % (n - 1),
                                   shreg_source(n - 1))
                    self._sec_instance("shreg%d-vs-%d" % (n, n - 1), a, b,
                                       "inequivalent", "shift registers of "
                                       "different length")
                continue
            a = self._file("xorreg%d.scirc" % n, xorreg_source(n))
            if equal:
                self._sec_instance("xorreg%d" % n, a, a, "equivalent",
                                   "identical xor registers: one huge PQE "
                                   "seed call")
                continue
            inv = rng.randrange(n)
            b = self._file("xorreg%d-inv%d.scirc" % (n, inv),
                           xorreg_source(n, inverted=inv))
            self._sec_instance("xorreg%d-inv%d" % (n, inv), a, b,
                               "inequivalent", "xor register with one "
                               "inverted input")
        n = DEFECT_SEC_XORREG
        a = self._file("xorreg%d.scirc" % n, xorreg_source(n))
        self._sec_instance(
            "xorreg%d-budget" % n, a, a, "equivalent",
            "PQE budget too small for the seed call",
            extra=["--max-frames", "1", "--pqe-budget", "1000"],
            defect="PqeBudgetError escapes cmd_sec instead of exit code 2")

    def _sec_instance(self, name, a, b, answer, why, extra=(), defect=None):
        w = os.path.join(self.root, "%s.sec.witness" % name)
        self.instances.append(Instance(
            name, ["sec", a, b, "--witness", w] + list(extra), answer, why,
            replay=["verify-witness", a, w, "--miter-with", b],
            defect=defect))

    def _replay(self, rng):
        # How long a replay takes to reject a corrupted witness depends
        # steeply on where the corruption sits (the checker stops at the
        # first failing clause or step), so every corruption sits at a fixed
        # place and this workload does not vary with the seed; self_check
        # shows that every place the generator could pick is rejected.
        for n in REPLAY_RINGS:
            f = self._file("ring%d.scirc" % n, ring_source(n))
            good = one_hot_clauses(n)
            names = ["s%d" % i for i in range(n)]
            self._replay_pair("ring%d-onehot" % n, f, None, names, good,
                              len(good) // 2,
                              "one-hot invariant: %d clauses" % len(good))
        for n in REPLAY_SHREG:
            self._miter_replay("shreg", n, shreg_source(n))
        for n in REPLAY_XORREG:
            self._miter_replay("xorreg", n, xorreg_source(n))
        for n in REPLAY_CTRS:
            f = self._file("ctr%d.scirc" % n, ctr_source(n))
            steps = ctr_trace(n)
            names = ["c%d" % i for i in range(n)]
            self._replay_file("ctr%d-trace" % n, f, None,
                              trace_text(["en"], names, steps), "accepted",
                              "count-up trace of %d steps" % (len(steps) - 1))
            bad = [(ins, list(st)) for ins, st in steps]
            bad[len(steps) // 2][1][0] = not bad[len(steps) // 2][1][0]
            self._replay_file("ctr%d-trace-bad" % n, f, None,
                              trace_text(["en"], names, bad), "rejected",
                              "count-up trace with a flipped bit")
        n = REPLAY_CTRS[-1]
        f = self._file("ctr%d.scirc" % n, ctr_source(n))
        self._replay_file("ctr%d-trace-short" % n, f, None,
                          trace_text(["en"], ["c%d" % i for i in range(n)],
                                     ctr_trace(n)[:-1]), "rejected",
                          "count-up trace one step short of the bad state")
        n = DEFECT_REPLAY_XORREG
        f = self._file("xorreg%d.scirc" % n, xorreg_source(n))
        names = ["%s.s%d" % (p, i) for p in "nk" for i in range(n)]
        self._replay_file(
            "xorreg%d-miter" % n, f, f,
            invariant_text(names, miter_equal_clauses(
                ["s%d" % i for i in range(n)])),
            "accepted", "miter with 9 outputs",
            defect="compile_state_predicate rejects a property over more "
                   "than 16 latches")

    def _miter_replay(self, fam, n, src):
        f = self._file("%s%d.scirc" % (fam, n), src)
        latches = ["s%d" % i for i in range(n)]
        names = ["%s.%s" % (p, s) for p in "nk" for s in latches]
        good = miter_equal_clauses(latches)
        self._replay_pair("%s%d-miter" % (fam, n), f, f, names, good,
                          len(good) - 1,
                          "miter invariant n.x = k.x, %d outputs"
                          % (n if fam == "xorreg" else 1))

    def _replay_pair(self, name, f, other, names, good, drop, why):
        self._replay_file(name, f, other, invariant_text(names, good),
                          "accepted", why)
        bad = good[:drop] + good[drop + 1:]
        self._replay_file(name + "-bad", f, other, invariant_text(names, bad),
                          "rejected", why + ", one clause dropped")

    def _replay_file(self, name, f, other, text, answer, why, defect=None):
        w = self._file(name + ".witness", text)
        argv = ["verify-witness", f, w]
        if other is not None:
            argv += ["--miter-with", other]
        self.instances.append(Instance(name, argv, answer, why,
                                       defect=defect))

    def write(self):
        os.makedirs(self.root, exist_ok=True)
        for path, text in self.files.items():
            with open(path, "w") as f:
                f.write(text)
