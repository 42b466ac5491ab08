import random

import pytest

from lorcheck.circuit import parse_circuit, encode, add_stuttering, build_miter
from lorcheck.cnf import evaluate
from lorcheck.qe_oracle import reach_bruteforce
from lorcheck.sat import Solver

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
    return add_stuttering(encode(parse_circuit(STUCK0_SRC)))


@pytest.fixture
def toggle():
    return add_stuttering(encode(parse_circuit(TOGGLE_SRC)))


@pytest.fixture
def dff_miter():
    m = build_miter(parse_circuit(DFF_SRC), parse_circuit(DFF_SRC))
    return add_stuttering(encode(m))


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


def random_system(rng, n_latch, n_in, **kw):
    src = random_system_source(rng, n_latch, n_in, **kw)
    return add_stuttering(encode(parse_circuit(src)))


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
