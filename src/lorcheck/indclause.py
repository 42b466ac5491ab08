"""Inductive-clause machinery and the hybrid checker built on it: bad
states are excluded by clauses that are inductive relative to the previous
frame.  On a miter, Houdini first looks for an invariant at frame 1 among
I, P and the latch correspondences that simulation mines (van Eijk,
*Sequential Equivalence Checking Based on Structural Similarities*, IEEE
TCAD 2000); a simulated state that falsifies P ends the run with its path
instead.  Each new frame is then seeded from the educated guess of
dropping the interface-equality clauses."""

from __future__ import annotations

import functools
import random

from .circuit import simulate_lanes
from .cnf import Clause, longest_falsified_clause, rename
from .sat import Solver
from .boundary import makeup_clauses, clause_implied
from .pclor import Checker, Witness


class Cti:
    """Counterexample to induction: an F-state one transition before the
    state we tried to exclude, with the model of that step."""

    __slots__ = ("state", "model")

    def __init__(self, state, model):
        self.state = state
        self.model = model


def _relative_induction(step, ts, lits, init):
    """Ask `step`, a solver over F ∧ T, whether the clause `lits` over
    frame-0 state variables is inductive relative to F.  The clause joins
    under an activation literal just above the solver's largest id, which
    the query assumes and a unit then retires.  Returns the model of
    F ∧ C ∧ T ∧ ¬C′ and C, or None and C trimmed by the UNSAT core to the
    literals whose primed negation the core holds.  Any subset of C is
    still inductive relative to F, as it implies C; the trimmed clause is
    kept when it is not empty and I implies it."""
    act = max(step.var_ids) + 1
    step.add_clause([-act] + lits)
    primed = {-ts.next[l] if l > 0 else ts.next[-l]: l for l in lits}
    res = step.solve([act, *primed])
    step.add_clause([-act])
    if res:
        return res.model, lits
    core = [l for p, l in primed.items() if p in res.core]
    if core and not init.solve([-l for l in core]):
        return None, core
    return None, lits


def make_inductive_clause(ts, step, s, init):
    """A clause C excluding the non-initial state s, implied by I and
    inductive relative to F, asked of `step` over F ∧ T and trimmed by its
    core (see _relative_induction); or the Cti blocking it, whose state
    starts a model of F ∧ C ∧ T ∧ ¬C′.  C starts as the clause false only
    at s, which I implies as s is not initial; `init` is a solver over I."""
    model, lits = _relative_induction(
        step, ts, list(longest_falsified_clause(s)), init)
    if model is not None:
        return Cti({v: model[v] for v in ts.state_ids(0)}, model)
    return Clause(lits)


def generalize(c, step, ts, init):
    """Drop literals of c greedily (ascending variable order) while the
    result stays implied by I and inductive relative to F.

    `init` over I and `step` over F ∧ T serve every trial.  A trial that
    holds also drops the literals outside its core (see
    _relative_induction)."""
    lits = list(c)
    for l in c:
        if len(lits) == 1:
            break
        if l not in lits:
            continue
        trial = [x for x in lits if x != l]
        if init.solve([-x for x in trial]):
            continue
        model, kept = _relative_induction(step, ts, trial, init)
        if model is None:
            lits = kept
    return Clause(lits)


def educat_guess_rlx(chain, j):
    """Seed H_j of a miter from the educated guess: drop its interface
    clauses still present at step j-1→j and return the PQE makeup clauses."""
    return makeup_clauses(chain, j, [i for i in chain.ts.interface
                                     if i not in chain.removed[j - 1]])


# Simulation runs this many lanes at once, each on its own random inputs,
# from a fixed seed so that runs repeat.
LANES = 64
FULL = (1 << LANES) - 1
SIM_SEED = 0


class _Simulator:
    """Random simulation of the circuit of ts in LANES lanes.  Inputs are
    random, tied as T ties the interface pairs.  The stuttering input is
    held at 1, as a stutter step reaches no new state.  Every simulated
    state is reachable under T from the start, by the recorded inputs."""

    def __init__(self, ts):
        self.ts = ts
        self.rng = random.Random(SIM_SEED)
        self.inputs = []

    def run(self, state):
        """The states from `state`, a mask of lanes per latch name, each as
        a mask per frame-0 state id, starting with `state` itself.  Once the
        run goes past the state of step t, self.inputs[t] holds the masks
        per input name of the step out of it."""
        c = self.ts.circuit
        self.inputs = []
        while True:
            yield {v.id: state[v.name] for v in self.ts.state_vars}
            ins = {x: self.rng.getrandbits(LANES) for x in c.inputs}
            if c.stutter_input is not None:
                ins[c.stutter_input] = FULL
            ins.update((b, ins[a]) for a, b in c.eq_input_pairs)
            self.inputs.append(ins)
            state = simulate_lanes(c, {**state, **ins}, FULL)


def _falsified(clause, masks):
    """The mask of the lanes where the clause is false in the state
    `masks`."""
    out = FULL
    for l in clause:
        out &= ~masks[l] if l > 0 else masks[-l]
    return out


def _lane_path(ts, states, inputs, lane):
    """Lane `lane` of the simulated states and of the inputs between them,
    as a path for Checker.convert_cex: each state by id with the input
    model of the step out of it, the last state with None."""
    def bit(mask):
        return bool(mask >> lane & 1)
    models = [{v.id: bit(ins[v.name]) for v in ts.input_vars}
              for ins in inputs]
    return [({v: bit(m) for v, m in s.items()}, model)
            for s, model in zip(states, models + [None])]


def mine(ts):
    """Simulate ts from I, len(latches) + 1 steps in LANES lanes.  Returns
    candidate invariant clauses and None; or, at the first step where a
    simulated state falsifies P, so that no invariant implies P, None and
    the path of T-steps from I to that state of the lowest lane bad there.
    Only latches that I leaves unpaired are mined: a unit for each one
    constant in every lane and step, and for each class of equal or
    complementary signatures an equivalence or anti-equivalence clause
    pair between each member and the first."""
    c = ts.circuit
    sim = _Simulator(ts)
    init = {l.name: sim.rng.getrandbits(LANES) if l.init is None
            else FULL if l.init else 0 for l in c.latches}
    init.update((b, init[a]) for a, b in c.state_pairs)
    paired = {x for pair in c.state_pairs for x in pair}
    sig = {v.id: 0 for v in ts.state_vars if v.name not in paired}
    steps = len(c.latches) + 2
    states = []
    for t, masks in zip(range(steps), sim.run(init)):
        states.append(masks)
        bad = 0
        for p in ts.prop:
            bad |= _falsified(p, masks)
        if bad:
            lane = (bad & -bad).bit_length() - 1
            return None, _lane_path(ts, states, sim.inputs, lane)
        for v in sig:
            sig[v] |= masks[v] << (LANES * t)
    ones = (1 << (LANES * steps)) - 1
    out, reps = [], {}
    for v, s in sig.items():
        if s in (0, ones):
            out.append(Clause([v if s else -v]))
            continue
        r, rs = reps.setdefault(min(s, s ^ ones), (v, s))
        if r != v:
            w = v if rs == s else -v
            out += [Clause([r, -w]), Clause([-r, w])]
    return out, None


def houdini(ts, cands, required=()):
    """The largest subset of the clauses `cands` (over frame-0 state
    variables) that is inductive under T, in the order given; None as soon
    as a clause of `required` is dropped, which the result would then
    lack.

    Each round loads the surviving candidates and T into one solver.  A
    model of Cands ∧ T ∧ ¬c′ starts in a state where every subset of Cands
    holds, so an inductive subset holds at its frame 1 too, and at every
    state simulated from there: the round drops every candidate that a
    simulated state falsifies, c among them, simulating until a step drops
    nothing.  Rounds repeat until one drops nothing, so the result does not
    depend on the models the solver returns."""
    cands = list(dict.fromkeys(cands))
    required = set(required)
    sim = _Simulator(ts)
    while True:
        solver = Solver(cands + ts.trans)
        alive = [True] * len(cands)
        for i, c1 in enumerate(rename(cands, ts.next)):
            if not alive[i] or not (res := solver.solve([-l for l in c1])):
                continue
            start = {v.name: FULL if res.model[ts.next[v.id]] else 0
                     for v in ts.state_vars}
            for masks in sim.run(start):
                dropped = [k for k, d in enumerate(cands)
                           if alive[k] and _falsified(d, masks)]
                if not dropped:
                    break
                if any(cands[k] in required for k in dropped):
                    return None
                for k in dropped:
                    alive[k] = False
        if all(alive):
            return cands
        cands = [c for c, keep in zip(cands, alive) if keep]


class IcChecker(Checker):
    """Checker with each backward-walk step strengthening H_k by a
    generalized inductive clause instead of relax-and-make-up.  On a miter,
    fin_rlx(1) runs Houdini over I, P and the mined candidates and returns
    an invariant it finds, or the path to a bad state that mining
    simulated; otherwise each new frame is seeded by educat_guess_rlx."""

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
        step = self.chain.step_solver(k - 1)
        r = make_inductive_clause(self.ts, step, s, self._init_solver)
        if isinstance(r, Cti):
            return r.state, r.model
        c = generalize(r, step, self.ts, self._init_solver)
        for i in range(k, 0, -1):
            if i < k and clause_implied(self.chain, i, c):
                break
            self.chain.strengthen(i, [c])
        return None

    def fin_rlx(self, j):
        """Houdini's survivors are an inductive invariant when I implies
        them and every clause of P survived."""
        ts, chain = self.ts, self.chain
        if ts.interface is None:
            return super().fin_rlx(j)
        chain.add_frame()
        if j == 1:
            mined, path = mine(ts)
            if path is not None:
                return self.convert_cex(path)
            inv = houdini(ts, ts.init + mined + ts.prop, required=ts.prop)
            if inv is not None and not any(
                    self._init_solver.solve([-l for l in c]) for c in inv):
                chain.strengthen(j, ts.prop)
                return Witness("invariant", invariant=inv)
        self.phase = "the sec seed"
        chain.strengthen(j, educat_guess_rlx(chain, j) + ts.prop)
        return None
