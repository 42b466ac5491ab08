"""Inductive-clause machinery and the hybrid checker built on it: bad
states are excluded by clauses that are inductive relative to the previous
frame.  On a miter, each new frame is seeded from the educated guess of
dropping the interface-equality clauses, and at frame 1 Houdini looks for
an invariant among I and P first, and among the seed, I and P only when
that fails."""

from __future__ import annotations

import functools

from .cnf import Cnf, Clause, lit_sat, longest_falsified_clause, rename
from .sat import Solver
from .boundary import makeup_clauses, clause_implied
from .pclor import Checker


class Cti:
    """Counterexample to induction: an F-state one transition before the
    state we tried to exclude, with the model of that step."""

    __slots__ = ("state", "model")

    def __init__(self, state, model):
        self.state = state
        self.model = model


def make_inductive_clause(ts, f, s):
    """A clause C excluding the non-initial state s, implied by I and
    inductive relative to f, and the solver over F ∧ C ∧ T that showed it;
    or the Cti blocking it, whose state starts a model of F ∧ C ∧ T ∧ ¬C′.
    C starts as the clause false only at s, which I implies as s is not
    initial."""
    c = longest_falsified_clause(s)
    c1 = rename(Cnf([c]), ts.next).clauses[0]
    step = Solver(list(f) + [c] + list(ts.trans), extra_vars=ts.step_vars)
    res = step.solve([-l for l in c1])
    if res:
        return Cti({v: res.model[v] for v in ts.state_ids(0)}, res.model)
    return c, step


def generalize(c, step, ts, init):
    """Drop literals of c greedily (ascending variable order) while the
    result stays implied by I and inductive relative to F.

    `init` over I and `step` over F ∧ C ∧ T serve every trial (a trial
    implies C, so C changes no answer).  A trial joins `step` under an
    activation literal, which the check assumes and a unit then retires."""
    c1 = [u.lits[0] for u in rename(Cnf((l,) for l in c), ts.next)]
    shift = dict(zip(c, c1))
    act = max(step.var_ids | c.variables() | {abs(l) for l in c1})
    lits = list(c)
    for l in c:
        if len(lits) == 1:
            break
        trial = [x for x in lits if x != l]
        if init.solve([-x for x in trial]):
            continue
        act += 1
        step.add_clause([-act] + trial)
        if not step.solve([act] + [-shift[x] for x in trial]):
            lits = trial
        step.add_clause([-act])
    return Clause(lits)


def educat_guess_rlx(chain, j):
    """Seed H_j of a miter from the educated guess: drop its interface
    clauses still present at step j-1→j and return the PQE makeup clauses."""
    return makeup_clauses(chain, j, [i for i in chain.ts.interface
                                     if i not in chain.removed[j - 1]])


def houdini(ts, cands, required=()):
    """The largest subset of the clauses `cands` (over frame-0 state
    variables) that is inductive under T, in the order given; None as soon
    as a round drops a clause of `required`, which the result would then
    lack.

    Each round loads the surviving candidates and T into one solver.  A
    model of Cands ∧ T ∧ ¬c′ starts in a state where every subset of Cands
    holds, so an inductive subset holds at its frame 1 too: the round drops
    every candidate the model falsifies there, c among them.  Rounds repeat
    until one drops nothing, so the result does not depend on the models
    the solver returns."""
    cands = list(Cnf(cands).normalize())
    required = set(required)
    while True:
        solver = Solver(cands + list(ts.trans))
        shifted = rename(Cnf(cands), ts.next).clauses
        alive = [True] * len(cands)
        for i, c1 in enumerate(shifted):
            if not alive[i]:
                continue
            res = solver.solve([-l for l in c1])
            if res:
                for k, d1 in enumerate(shifted):
                    if alive[k] and all(lit_sat(l, res.model) is False
                                        for l in d1):
                        alive[k] = False
        if all(alive):
            return cands
        if any(not keep and c in required for c, keep in zip(cands, alive)):
            return None
        cands = [c for c, keep in zip(cands, alive) if keep]


def _houdini_invariant(ts, seed, init):
    """Houdini over seed ∪ I ∪ P.  The survivors are an inductive invariant
    when I implies them and every clause of P survived; otherwise None."""
    inv = houdini(ts, list(seed) + list(ts.init) + list(ts.prop),
                  required=ts.prop)
    if inv is not None and not any(init.solve([-l for l in c]) for c in inv):
        return Cnf(inv)
    return None


class IcChecker(Checker):
    """pc_lor with each backward-walk step strengthening H_k by a
    generalized inductive clause instead of relax-and-make-up.  On a miter,
    each new frame is seeded by educat_guess_rlx, and fin_rlx(1) runs
    Houdini over I and P before it seeds H_1, and over the seed, I and P
    when that finds no invariant; it returns an invariant found either
    way."""

    @functools.cached_property
    def _init_solver(self):
        """One solver over I for every I question of the run; they are all
        sat/unsat questions, so sharing it changes no answer."""
        return Solver(self.ts.init)

    def _block(self, k, s):
        """One walk step at a non-initial H_k-state s: the Cti's (state,
        model), or None after excluding s from H_k by a generalized
        inductive clause C, and from the lower frames down to the first
        that implies C, so that H_{i-1} still implies H_i.  C holds on every
        state reachable within k steps."""
        r = make_inductive_clause(self.ts, self.chain.h_cnf(k - 1), s)
        if isinstance(r, Cti):
            return r.state, r.model
        c = generalize(*r, self.ts, self._init_solver)
        for i in range(k, 0, -1):
            if i < k and clause_implied(self.chain, i, c):
                break
            self.chain.strengthen(i, [c])
        return None

    def fin_rlx(self, j):
        if self.ts.interface is None:
            return super().fin_rlx(j)
        self.chain.add_frame()
        if j == 1:
            inv = _houdini_invariant(self.ts, [], self._init_solver)
            if inv is not None:
                self.chain.strengthen(j, list(self.ts.prop))
                return inv
        seed = list(educat_guess_rlx(self.chain, j))
        self.chain.strengthen(j, seed + list(self.ts.prop))
        if j == 1 and seed:
            return _houdini_invariant(self.ts, seed, self._init_solver)
        return None


def pc_lor_ic(ts, opts=None):
    """Decide the property with the inductive-clause hybrid; returns a
    Witness like pc_lor."""
    return IcChecker(ts, opts).run()
