import random

import pytest

from lorcheck.circuit import parse_circuit, encode, stutter, build_miter
from lorcheck.cnf import evaluate
from lorcheck.qe_oracle import reach_bruteforce
from lorcheck.sat import Solver, implies

STUCK0_SRC = """\
input x
latch s init 0 next (s AND x)
prop NOT s
"""

TOGGLE_SRC = """\
input x
latch s init 0 next (s XOR x)
prop NOT s
"""

DFF_SRC = """\
input x
latch s init 0 next x
output z = s
"""

INV_DFF_SRC = """\
input x
latch s init 0 next NOT x
output z = s
"""


def ring_source(n, k=1):
    """One-hot token ring of n stages; stages 0 and k never both hold."""
    return "\n".join(["latch s0 init 1 next s%d" % (n - 1)] +
                     ["latch s%d init 0 next s%d" % (i, i - 1)
                      for i in range(1, n)] +
                     ["prop NOT (s0 AND s%d)" % k, ""])


def shreg_source(n):
    """n-stage shift register; output is the last stage."""
    lines = ["input x", "latch s0 init 0 next x"]
    lines += ["latch s%d init 0 next s%d" % (i, i - 1) for i in range(1, n)]
    lines.append("output z = s%d" % (n - 1))
    return "\n".join(lines) + "\n"


def xorreg_source(n, inverted=None):
    """n latches toggled together by input x, every latch an output; latch
    `inverted`, if given, sees NOT x instead."""
    lines = ["input x"]
    for i in range(n):
        x = "NOT x" if i == inverted else "x"
        lines.append("latch s%d init 0 next (s%d XOR %s)" % (i, i, x))
    lines += ["output z%d = s%d" % (i, i) for i in range(n)]
    return "\n".join(lines) + "\n"


def ctr_source(n):
    """n-bit counter enabled by input en; the property fails once the top
    bit is set, after 2^(n-1) enabled steps."""
    lines = ["input en", "latch c0 init 0 next (c0 XOR en)"]
    carry = "en"
    for i in range(1, n):
        lines.append("signal k%d = (%s AND c%d)" % (i, carry, i - 1))
        carry = "k%d" % i
        lines.append("latch c%d init 0 next (c%d XOR %s)" % (i, i, carry))
    lines.append("prop NOT c%d" % (n - 1))
    return "\n".join(lines) + "\n"


def deep_ctr_miter_sources():
    """Two 5-bit counters whose outputs, c4 and (c4 AND c0), first differ
    after 16 enabled steps: their miter has 10 latches, so the 12 steps
    that mining simulates cannot refute it, and lor-ic fails it at frame
    15 by the educated-guess seed and the backward walk."""
    src = ctr_source(5).replace("prop NOT c4", "output z = c4")
    return src, src.replace("output z = c4", "output z = (c4 AND c0)")


def deep_ctr_miter():
    """The stuttered miter of deep_ctr_miter_sources."""
    return encode(stutter(build_miter(
        *map(parse_circuit, deep_ctr_miter_sources()))))


# Definitions read before encode defines them: a signal reading a later
# signal, a signal reading an output, and a cycle through outputs.
FORWARD_REF_SRCS = [
    "latch s init 0 next a\nsignal a = b\nsignal b = s\nprop NOT s\n",
    "latch s init 0 next a\nsignal a = z\noutput z = s\nprop NOT s\n",
    "latch s init 0 next z\noutput z = (s AND w)\noutput w = z\n"
    "prop NOT s\n",
]


@pytest.fixture
def stuck0():
    return encode(stutter(parse_circuit(STUCK0_SRC)))


@pytest.fixture
def toggle():
    return encode(stutter(parse_circuit(TOGGLE_SRC)))


@pytest.fixture
def dff_miter():
    m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
    return encode(stutter(m))


@pytest.fixture
def built_solvers(monkeypatch):
    """A list that gains one entry per Solver built during the test."""
    built = []
    init = Solver.__init__

    def counting(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)
    monkeypatch.setattr(Solver, "__init__", counting)
    return built


@pytest.fixture
def built_clauses(monkeypatch):
    """A list that gains the clauses, as lists, of each Solver built during
    the test."""
    built = []
    init = Solver.__init__

    def recording(self, clauses, *args, **kw):
        clauses = list(clauses)
        built.append([list(c) for c in clauses])
        init(self, clauses, *args, **kw)
    monkeypatch.setattr(Solver, "__init__", recording)
    return built


def random_system_source(rng, n_latch, n_in, init_zero=True):
    """A random SCIRC source with a property over the latches."""
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
        init = "0" if init_zero else rng.choice("01*")
        lines.append("latch %s init %s next %s" % (nm, init, expr()))
    picks = rng.sample(names, min(len(names), 2))
    if len(picks) == 2:
        lines.append("prop NOT (%s AND %s)" % tuple(picks))
    else:
        lines.append("prop NOT %s" % picks[0])
    return "\n".join(lines) + "\n"


def degenerate_system_source(rng, n_latch, n_in):
    """A random SCIRC source whose expressions also read the constants 0
    and 1 and signals, and often repeat an operand, as it is or negated."""
    ins = ["x%d" % i for i in range(n_in)]
    names = ["s%d" % i for i in range(n_latch)]
    atoms = ins + names + ["0", "1"]

    def expr(d=2):
        if d == 0 or rng.random() < 0.3:
            a = rng.choice(atoms)
            return a if rng.random() < 0.75 else "NOT %s" % a
        a, r = expr(d - 1), rng.random()
        b = a if r < 0.25 else "NOT " + a if r < 0.5 else expr(d - 1)
        if rng.random() < 0.5:
            a, b = b, a
        return "(%s %s %s)" % (a, rng.choice(("AND", "OR", "XOR")), b)

    lines = ["input %s" % x for x in ins]
    for i in range(rng.randint(0, 2)):
        lines.append("signal a%d = %s" % (i, expr()))
        atoms.append("a%d" % i)
    lines += ["latch %s init %s next %s" % (nm, rng.choice("01*"), expr())
              for nm in names]
    picks = rng.sample(names, min(len(names), 2))
    lines.append("prop NOT (%s)" % " AND ".join(picks) if len(picks) == 2
                 else "prop NOT %s" % picks[0])
    return "\n".join(lines) + "\n"


def random_system(rng, n_latch, n_in, **kw):
    src = random_system_source(rng, n_latch, n_in, **kw)
    return encode(stutter(parse_circuit(src)))


def brute_force_verdict(ts):
    """Ground-truth verdict by explicit reachability."""
    reach = reach_bruteforce(ts, 2 ** len(ts.state_vars) + 1)
    ids = ts.state_ids(0)
    for s in reach:
        if evaluate(ts.prop, dict(zip(ids, s))) is False:
            return "counterexample"
    return "invariant"


def make_rng(seed):
    return random.Random(seed)


def check_co(chain):
    """The (condition, frame) pairs of the four CO conditions that the
    frame chain fails, each asked by `implies`; a test instrument, run
    from an engine's iter_hook."""
    ts = chain.ts
    entries = []
    h = chain.h
    for m in range(chain.j + 1):
        entries.append((1, m, implies(h[0], h[m])))
        entries.append((2, m, implies(h[m], ts.prop)))
    for m in range(1, chain.j + 1):
        lhs = h[m - 1] + chain.trlx_cnf(m - 1)
        entries.append((3, m, implies(lhs, chain.h1[m])))
        entries.append((4, m, implies(h[m - 1], h[m])))
    return [(c, m) for c, m, passed in entries if not passed]
