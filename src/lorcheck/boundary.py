"""Boundary-formula chains: per-frame over-approximations H_0..H_j tied to
per-frame relaxed transition relations, the PQE step that converts a
relaxation into makeup clauses, and invariant detection."""

from __future__ import annotations

from .circuit import CircuitError
from .cnf import rename, variables
from .sat import Solver
from .pqe import DEFAULT_BUDGET, PqeBudgetError, PqeTask, take_out


class FrameChain:
    """H_0..H_j plus removed-clause sets R_k defining T^rlx_{k,k+1}.

    H_k is stored over frame-0 state variables, and beside it H_k′, its
    copy over frame 1 by the map ts.next; both change only through
    strengthen.  R_k is a set of indices into the canonical transition
    clauses, so T = T^rlx ∧ R holds syntactically for every frame.  Every
    frame has an R_k; the last frame's is empty, as its step is not
    relaxed yet.

    Each frame keeps one incremental solver over H_k ∧ T^rlx_{k,k+1}.  It
    gains the clauses that strengthen H_k, and is rebuilt on the next
    request after R_k changes.  T^rlx allows a step from every state, so
    the solver agrees with H_k alone on every query over frame-0 variables.
    relax hands the dropped solver back: over H_{k-1} ∧ T^rlx_old, it is
    most of the makeup step's A ∧ B (see makeup_clauses).

    Each frame m ≥ 1 keeps a condition-3 certificate co3[m] = (R, n): the
    first n clauses of H_m meet CO condition 3, H_{m-1} ∧ T^rlx_{m-1,m} ⇒
    H_m′, whenever R_{m-1} ⊆ R.  It stays true as the chain changes: H_m
    only gains clauses at its end, H_{m-1} only gains clauses, and
    T^rlx_{m-1,m} for R_{m-1} ⊆ R holds every clause of T^rlx for R.  So
    relax and restore leave it alone: a relaxation past R makes
    co3_checked read 0, and a restore back inside R makes it read n again.

    The system must stutter: CO condition 4 and the covered region of the
    makeup step both rest on the stutter step t → t being a transition.
    """

    def __init__(self, ts, pqe_budget=DEFAULT_BUDGET):
        if ts.circuit.stutter_input is None:
            raise CircuitError("frame chain requires a stuttered system")
        self.ts = ts
        self.h = [list(ts.init)]      # H_0 = I
        self.h_set = [set(ts.init)]   # h_set[k]: the clauses of H_k
        self.h1 = [rename(ts.init, ts.next)]  # h1[k]: H_k′, over frame 1
        self.removed = [set()]        # removed[k]: indices dropped in T^rlx_{k,k+1}
        self.pqe_budget = pqe_budget
        self.implied_marks = set()    # (clause, frame) with a cached "implied" verdict
        self.solvers = {}             # k -> solver over H_k ∧ T^rlx_{k,k+1}
        self.step_solvers = {}        # k -> solver over H_k ∧ T
        self.co3 = [(frozenset(), 0)]  # co3[m]: H_m's condition-3 certificate (R, n)
        self.inv_failed = {}          # m -> |H_m| when H_m last failed to imply H_{m-1}

    @property
    def j(self):
        return len(self.h) - 1

    def co3_checked(self, m):
        """How many leading clauses of H_m co3[m] certifies under the
        current R_{m-1}."""
        r, n = self.co3[m]
        return n if self.removed[m - 1] <= r else 0

    def trlx_cnf(self, k):
        """Relaxed transition relation of step k in canonical 0→1 form."""
        r = self.removed[k]
        return [c for i, c in enumerate(self.ts.trans) if i not in r]

    def solver(self, k):
        """Frame k's solver; its models value every step variable."""
        if k not in self.solvers:
            self.solvers[k] = Solver(self.h[k] + self.trlx_cnf(k),
                                     extra_vars=self.ts.step_vars)
        return self.solvers[k]

    def step_solver(self, k):
        """Frame k's relative-induction solver over H_k ∧ T, built once per
        run; it gains the clauses that strengthen H_k, and outlives relax.
        Each query leaves a retired activation id that `Solver._decide_var`
        still scans (ctr8: 176 ids for 49 step variables; r20: 309 for 94),
        but rebuilding once they outnumber the step variables did not pay
        (CLI, 2-vCPU x86): ctr8, r17 and r23 moved within noise, and r20
        went from 17 to 22 frames (1.6 to 2.4 s), as a rebuilt solver loses
        its learnt clauses and returns other models.  Under cProfile,
        `_decide_var` takes 4% of ctr8's time and 7% of r20's (0.44 of
        11.0 s and 0.59 of 8.1 s, 2-vCPU x86)."""
        if k not in self.step_solvers:
            self.step_solvers[k] = Solver(self.h[k] + self.ts.trans,
                                          extra_vars=self.ts.step_vars)
        return self.step_solvers[k]

    def add_frame(self):
        self.h.append([])
        self.h_set.append(set())
        self.h1.append([])
        self.removed.append(set())
        self.co3.append((frozenset(), 0))

    def strengthen(self, k, clauses):
        present = self.h_set[k]
        new = []
        for c in clauses:
            if c not in present:
                present.add(c)
                new.append(c)
        self.h[k] += new
        self.h1[k] += rename(new, self.ts.next)
        for solvers in (self.solvers, self.step_solvers):
            if k in solvers:
                for c in new:
                    solvers[k].add_clause(c)

    def relax(self, k, indices):
        """Drop the clauses at `indices` from step k; returns frame k's
        solver over H_k ∧ T^rlx_{k,k+1} as it was before, or None if none
        was built.  The chain no longer holds it."""
        self.removed[k] |= set(indices)
        return self.solvers.pop(k, None)

    def restore(self, k, indices):
        self.removed[k] -= set(indices)
        self.solvers.pop(k, None)


def unrolled_lhs(chain, k, extra):
    """The PQE task for frame k, over frames 0 and 1 only: take `extra`
    (transition clauses) out of H_{k-1} ∧ H_k′ ∧ T^rlx_{k-1}, quantifying
    everything but the frame-1 state variables.  Nothing is unrolled: the
    chain summarizes the prefix, so no earlier transition copy is needed.
    H_0..H_{k-2} are left out too: they share no variable with the rest
    and hold on every initial state, so they do not change ∃W[·].  The
    task stays the same size at every depth."""
    b = chain.h[k - 1] + chain.h1[k] + chain.trlx_cnf(k - 1)
    w = (variables(extra) | variables(b)) - set(chain.ts.prev)
    return PqeTask(w, extra, b)


def makeup_clauses(chain, k, indices):
    """Relax step k-1→k by the transition clauses at positions `indices`
    and return makeup clauses G over canonical state variables; conjoining
    G to H_k preserves the chain's over-approximation equality.

    H_{k-1}′ is passed to take_out as covered: the system stutters, so a
    next state y of H_{k-1}′ where ∃W[B] holds, and so H_k′ too, is
    reached from y itself by the stutter step, a transition of T and so of
    T^rlx_old, and ∃W[A ∧ B] holds at y.  take_out also tries its clauses
    as answers before it enumerates a point.  A ∧ B implies most of them,
    so H_k inherits them literally, and clause_implied answers them
    without a solve.

    The solver that relax drops holds H_{k-1} ∧ T^rlx_old; with H_k′
    added it holds A ∧ B, and take_out asks it instead of building one."""
    if chain.removed[k - 1].intersection(indices):
        raise ValueError("clause already removed from step %d" % (k - 1))
    ab = chain.relax(k - 1, indices)
    if not indices:
        return []
    if ab is not None:
        for c in chain.h1[k]:
            ab.add_clause(c)
    task = unrolled_lhs(chain, k, [chain.ts.trans[i] for i in indices])
    try:
        a_star = take_out(task, budget=chain.pqe_budget,
                          covered=chain.h1[k - 1], ab_solver=ab)
    except PqeBudgetError as e:
        e.frame = k
        raise
    return rename(a_star, chain.ts.prev)


def clause_implied(chain, m, clause):
    """Does H_m imply the clause?  A clause of H_m is answered without a
    solve; it is common, as makeup_clauses hands H_{m-1}'s clauses to
    take_out as candidates.  Positive verdicts are cached for good: frames
    only ever gain clauses, so an implied clause stays implied."""
    key = (clause, m)
    if key in chain.implied_marks:
        return True
    if clause not in chain.h_set[m] and \
            chain.solver(m).solve([-l for l in clause]):
        return False
    chain.implied_marks.add(key)
    return True


def detect_invariant(chain):
    """H_{m-1} is an inductive invariant as soon as H_m implies it.  A
    frame m is skipped while H_m has gained no clause since it last
    failed: the clause of H_{m-1} it did not imply is still there, and
    still not implied."""
    for m in range(1, chain.j + 1):
        if chain.inv_failed.get(m) == len(chain.h[m]):
            continue
        if all(clause_implied(chain, m, c) for c in chain.h[m - 1]):
            return list(chain.h[m - 1])
        chain.inv_failed[m] = len(chain.h[m])
    return None
