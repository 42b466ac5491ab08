"""Inductive-clause machinery and the hybrid checker built on it: bad
states are excluded by clauses that are inductive relative to the previous
frame, and an initial relaxation can be seeded from a declarative guess
(e.g. dropping the interface-equality clauses of a miter)."""

from __future__ import annotations

from .cnf import Cnf, Clause, evaluate, longest_falsified_clause, rename_frame
from .sat import solve, implies
from .boundary import makeup_clauses
from .pclor import Checker, Options, Witness


class Cti:
    """Counterexample to induction: an F-state one transition before the
    state we tried to exclude.  target is None when the excluded state is
    itself initial."""

    __slots__ = ("state", "target")

    def __init__(self, state, target):
        self.state = state
        self.target = target


def _consecution_model(ts, f, clause):
    """A model of F ∧ C ∧ T ∧ ¬C′, or None when C is inductive w.r.t. F."""
    c1 = rename_frame(Cnf([clause]), ts.table, {0: 1}).clauses[0]
    lhs = f + Cnf([clause]) + ts.trans
    res = solve(lhs, assumptions=[-l for l in c1],
                extra_vars=ts.state_ids(0))
    return res.model if res else None


def make_inductive_clause(ts, f, s):
    """A clause excluding state s, implied by I and inductive relative to f;
    or the Cti blocking it."""
    c = longest_falsified_clause(s)
    if not implies(ts.init, Cnf([c])):
        # s is an initial state: nothing implied by I can exclude it
        return Cti(s, None)
    m = _consecution_model(ts, f, c)
    if m is not None:
        pred = {v: m[v] for v in ts.state_ids(0)}
        return Cti(pred, s)
    return c


def generalize(c, f, ts):
    """Drop literals of c greedily (ascending variable order) while the
    result stays implied by I and inductive relative to f."""
    lits = list(c.lits)
    for l in sorted(lits, key=abs):
        if len(lits) == 1:
            break
        trial = Clause(x for x in lits if x != l)
        if not implies(ts.init, Cnf([trial])):
            continue
        if _consecution_model(ts, f, trial) is None:
            lits = list(trial.lits)
    return Clause(lits)


def educat_guess_rlx(chain, j, guess):
    """Seed H_j from a guessed relaxation: drop every transition clause
    matching the guess at step j-1→j and return the PQE makeup clauses."""
    kind, tag = guess
    if kind != "drop":
        raise ValueError("unknown guess kind %r" % kind)
    r = [c for i, c in enumerate(chain.trans_clauses)
         if c.tag == tag and i not in chain.removed[j - 1]]
    if not r:
        return Cnf([])
    return makeup_clauses(chain, j, r)


class IcChecker(Checker):
    """pc_lor with each backward-walk step strengthening H_k by a
    generalized inductive clause instead of relax-and-make-up, and optional
    guess-driven seeding of each new frame."""

    def _block(self, k, s):
        f = self.chain.h_cnf(k - 1)
        r = make_inductive_clause(self.ts, f, s)
        if isinstance(r, Cti):
            return "reachable" if r.target is None or k == 1 else r.state
        self.chain.strengthen(k, [generalize(r, f, self.ts)])
        return None

    def fin_rlx(self, j):
        if self.opts.guess is None:
            return super().fin_rlx(j)
        self.chain.add_frame()
        seed = educat_guess_rlx(self.chain, j, self.opts.guess)
        self.chain.strengthen(j, list(seed) + list(self.ts.prop))


def pc_lor_ic(ts, opts=None):
    """Decide the property with the inductive-clause hybrid; returns a
    Witness like pc_lor."""
    return IcChecker(ts, opts).run()
