"""The main checking loop: relax, make up with PQE-derived clauses, repair
CO condition 3, and stop on an invariant or counterexample."""

from __future__ import annotations

import functools

from .cnf import evaluate, lit_sat, rename
from .sat import Solver, first_model, max_relax_solve
from .boundary import FrameChain, makeup_clauses, detect_invariant
from .pqe import DEFAULT_BUDGET, PqeBudgetError


class CheckerError(Exception):
    """Engine failure without a verdict (e.g. PQE budget, frame limit)."""


class Witness:
    """Either a counterexample trace or an inductive invariant."""

    def __init__(self, kind, trace=None, invariant=None):
        self.kind = kind          # "counterexample" | "invariant"
        self.trace = trace        # [(inputs dict | None, state dict)], by name
        self.invariant = invariant  # clauses over canonical state vars


class Checker:
    """One run on a stuttered system: run() returns a Witness, or raises
    CheckerError at the frame limit or a spent PQE budget.  `iter_hook` is
    called with the chain after each main-loop iteration."""

    def __init__(self, ts, *, max_frames=None, pqe_budget=DEFAULT_BUDGET,
                 iter_hook=None):
        self.ts = ts
        if max_frames is None:
            max_frames = 2 ** len(ts.state_vars) + 1
        self.max_frames = max_frames
        self.iter_hook = iter_hook
        self.chain = FrameChain(ts, pqe_budget)
        self.state_ids = ts.state_ids(0)
        self.phase = None   # names the phase in a spent PQE budget

    # ------------------------------------------------------------ helpers

    def _violation(self, k, clauses):
        """(frame-0 state, model) of the first model of frame k's solver
        that falsifies a clause of `clauses`, or None."""
        m = first_model(self.chain.solver(k),
                        ([-l for l in c] for c in clauses))
        return None if m is None else ({v: m[v] for v in self.state_ids}, m)

    def select_relaxation(self, k, target):
        """Clause indices to drop from T^rlx_{k-1,k} so that `target`
        becomes reachable from an H_{k-1}-state in one transition."""
        chain = self.chain
        kept = [i for i in range(len(self.ts.trans))
                if i not in chain.removed[k - 1]]
        try:
            left_out = max_relax_solve(
                chain.h[k - 1], chain.trlx_cnf(k - 1),
                {self.ts.next[v]: b for v, b in target.items()})
        except ValueError:
            raise CheckerError("frame %d: H_%d is unsatisfiable, so no "
                               "relaxation reaches a state" % (k, k - 1)) from None
        return [kept[i] for i in sorted(left_out)]

    def _exclude_state(self, k, s):
        """Make H_k false at s, which has no H_{k-1}-predecessor under
        T^rlx_{k-1,k}: relax that step until s is reachable and conjoin the
        PQE makeup clauses, which exclude s by the makeup equality."""
        chain = self.chain
        idx = self.select_relaxation(k, s)
        chain.strengthen(k, makeup_clauses(chain, k, idx))
        if evaluate(chain.h[k], s) is not False:
            raise CheckerError("frame %d: the makeup clauses do not exclude "
                               "a state without a predecessor" % k)

    def _backward_walk(self, k0, s0, m0):
        """Fig.-3 style reverse extension from an H_{k0}-state s0.

        Returns the path of T-steps from an initial state to s0 that the
        walk finds, each state paired with the model of the step out of it
        (m0 for s0), or strengthens the chain until s0 falsifies H_{k0} and
        returns None.  The walk stops at the first initial state on top of
        the stack, at any frame; every state of frame 0 is one, as H_0 = I.
        Only the top state is popped after a strengthening step, and a
        replay that restores a step's clauses cuts the walk back to that
        step's target."""
        stack = [(k0, s0, m0)]
        while stack:
            k, s, _ = stack[-1]
            if evaluate(self.ts.init, s):
                if (cut := self._replay(stack)) is None:
                    return [e[1:] for e in reversed(stack)]
                del stack[cut:]
            elif (r := self._block(k, s)) is None:
                stack.pop()
            else:
                stack.append((k - 1, *r))
        return None

    def _block(self, k, s):
        """One walk step at a non-initial H_k-state s: (predecessor in
        H_{k-1} one T^rlx_{k-1,k}-transition before s, model of the step),
        or None once H_k is false at s."""
        res = self.chain.solver(k - 1).solve(self._step({}, s))
        if res:
            return {v: res.model[v] for v in self.state_ids}, res.model
        self._exclude_state(k, s)
        return None

    def _replay(self, stack):
        """Replay the walk's path, from its initial state at the top of the
        stack upward, under T.  A step's model that falsifies no clause
        dropped from the step (unchanged since) is a model of T; T is asked
        only for another step, and its model replaces the step's.  At the
        first step that only T^rlx allows, restore the dropped clauses its
        model falsifies and return the stack position of the step's source;
        None when every step is a transition of T."""
        for i in range(len(stack) - 1, 0, -1):
            k, a, m = stack[i]
            if not (broken := self._broken(k, m)):
                continue
            res = self._t_solver.solve(self._step(a, stack[i - 1][1]))
            if not res:
                self.chain.restore(k, broken)
                return i
            stack[i] = (k, a, res.model)
        return None

    def _step(self, a, b):
        """Assumptions that put state a at frame 0 and state b at frame 1."""
        both = sorted(a.items()) + sorted((self.ts.next[v], x)
                                          for v, x in b.items())
        return [v if val else -v for v, val in both]

    @functools.cached_property
    def _t_solver(self):
        """One solver over T for the replay steps whose model is not T's."""
        return Solver(self.ts.trans, extra_vars=self.ts.step_vars)

    # ---------------------------------------------------- main operations

    def _reachable_violation(self, k, targets):
        """The walk's path to the source state of the first model of frame
        k's solver that falsifies a clause of `targets` (over frame-1
        variables), ending in that model; None once the walks have excluded
        every such source from H_k."""
        while (start := self._violation(k, targets)) is not None:
            if (path := self._backward_walk(k, *start)) is not None:
                return path
        return None

    def rem_bad_st(self, j):
        """Strengthen H_{j-1} until no bad state is one original-T
        transition away, or return a path of T-steps from an initial state
        to a bad one.  Frame j-1 is the last frame, so R_{j-1} is empty, its
        solver holds all of T and its model's frame-1 state is the bad
        successor."""
        path = self._reachable_violation(
            j - 1, rename(self.ts.prop, self.ts.next))
        if path is None:
            return None
        bad = {v: path[-1][1][w] for v, w in self.ts.next.items()}
        return path + [(bad, None)]

    def fin_rlx(self, j):
        """Create H_j and strengthen it until it implies P.  After
        rem_bad_st(j), no bad state of H_j has a predecessor in H_{j-1}.
        An override may end the run by returning a Witness it found."""
        self.chain.add_frame()
        while (bad := self._violation(j, self.ts.prop)) is not None:
            self._exclude_state(j, bad[0])
        return None

    def third_co_cond(self):
        """Repair condition 3: no H_{m-1}-state may reach a ¬H_m-state in
        one relaxed transition.  A violation source that proves reachable
        from I forces restoring dropped clauses instead.  Only clauses of
        H_m past chain.co3_done[m] are checked: strengthening H_{m-1} and
        restoring step m-1 keep the rest implied, and relaxing step m-1
        resets the mark.  The walks from frame m-1 neither strengthen H_m
        nor relax step m-1, so the new clauses are read once, from H_m′."""
        chain = self.chain
        for m in range(chain.j, 0, -1):
            new = chain.h1[m][chain.co3_done[m]:]
            while new and (viol := self._reachable_violation(m - 1, new)):
                if not (broken := self._broken(m - 1, viol[-1][1])):
                    raise CheckerError(
                        "reachable state drives a real transition out of "
                        "a boundary formula; invariant broken")
                chain.restore(m - 1, broken)
            chain.co3_done[m] = len(chain.h[m])

    def _broken(self, k, model):
        """The clauses dropped from step k that the model falsifies."""
        trans = self.ts.trans
        return [i for i in sorted(self.chain.removed[k])
                if all(lit_sat(l, model) is False for l in trans[i])]

    def fin_touch(self):
        """Look for an invariant.  No clause needs pushing toward frame 0,
        as I ⊆ H_1 ⊆ … ⊆ H_j (CO condition 4) throughout a run: each H_k
        starts empty, and PQE makes a clause G added to H_k true wherever
        ∃W[H_{k-1} ∧ H_k′ ∧ T^rlx_old] holds at the next state.  That holds
        at every state t of H_{k-1}, and so of H_k, by the stutter step
        t → t (see makeup_clauses), so G holds at t.  IcChecker._block
        keeps it too."""
        inv = detect_invariant(self.chain)
        return None if inv is None else Witness("invariant", invariant=inv)

    # ------------------------------------------------------------- result

    def convert_cex(self, path):
        """The trace along `path`, T-steps from an initial state to a bad
        one; the model kept with each state gives the step's inputs."""
        ts = self.ts
        ins = [None] + [{v.name: m[v.id] for v in ts.input_vars}
                        for _, m in path[:-1]]
        return Witness("counterexample", trace=[
            (i, {v.name: s[v.id] for v in ts.state_vars})
            for i, (s, _) in zip(ins, path)])

    def run(self):
        if (bad := self._violation(0, self.ts.prop)) is not None:
            return self.convert_cex([(bad[0], None)])
        try:
            for j in range(1, self.max_frames + 1):
                self.phase = "the rem_bad_st walk"
                if (path := self.rem_bad_st(j)) is not None:
                    return self.convert_cex(path)
                self.phase = "fin_rlx"
                found = self.fin_rlx(j)
                if found is not None and found.kind == "counterexample":
                    return found
                self.phase = "the third_co_cond walk"
                self.third_co_cond()
                if found is None:
                    found = self.fin_touch()
                if self.iter_hook:
                    self.iter_hook(self.chain)
                if found is not None:
                    return found
        except PqeBudgetError as e:
            raise CheckerError("PQE budget of %d points exhausted "
                               "(--pqe-budget) in %s at frame %d"
                               % (self.chain.pqe_budget, self.phase, e.frame)
                               ) from None
        raise CheckerError("frame limit %d reached without a verdict"
                           % self.max_frames)
