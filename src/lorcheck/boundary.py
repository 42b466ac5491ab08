"""Boundary-formula chains: per-frame over-approximations H_0..H_j tied to
per-frame relaxed transition relations, the PQE step that converts a
relaxation into makeup clauses, and the CO-condition checker."""

from __future__ import annotations

from .circuit import CircuitError
from .cnf import rename, variables
from .sat import Solver, implies
from .pqe import DEFAULT_BUDGET, PqeBudgetError, PqeTask, take_out


class FrameChain:
    """H_0..H_j plus removed-clause sets R_k defining T^rlx_{k,k+1}.

    H_k is stored over frame-0 state variables, and beside it H_k′, its
    copy over frame 1 by the map ts.next; both change only through
    strengthen.  R_k is a set of indices into the canonical transition
    clauses, so T = T^rlx ∧ R holds syntactically for every frame.  Every
    frame has an R_k; the last frame's is empty, as its step is not
    relaxed yet.  T^rlx_{k,k+1} is kept until relax or restore changes R_k.

    Each frame keeps one incremental solver over H_k ∧ T^rlx_{k,k+1}.  It
    gains the clauses that strengthen H_k, and is rebuilt on the next
    request after R_k changes.  T^rlx allows a step from every state, so
    the solver agrees with H_k alone on every query over frame-0 variables.

    The system must stutter: CO condition 4 and the covered region of the
    makeup step both rest on the stutter step t → t being a transition.
    """

    def __init__(self, ts, pqe_budget=DEFAULT_BUDGET):
        if ts.stuttering_var is None:
            raise CircuitError("frame chain requires a stuttered system")
        self.ts = ts
        self.trans_clauses = ts.trans
        self.h = [list(ts.init)]      # H_0 = I
        self.h_set = [set(ts.init)]   # h_set[k]: the clauses of H_k
        self.h1 = [rename(ts.init, ts.next)]  # h1[k]: H_k′, over frame 1
        self.removed = [set()]        # removed[k]: indices dropped in T^rlx_{k,k+1}
        self.pqe_budget = pqe_budget
        self.trlx = [None]            # trlx[k]: T^rlx_{k,k+1}, None once stale
        self.implied_marks = set()    # (clause, frame) with a cached "implied" verdict
        self.solvers = {}             # k -> solver over H_k ∧ T^rlx_{k,k+1}
        self.step_solvers = {}        # k -> solver over H_k ∧ T
        self.co3_done = [0]           # co3_done[m]: leading clauses of H_m known to meet CO condition 3

    @property
    def j(self):
        return len(self.h) - 1

    def trlx_cnf(self, k):
        """Relaxed transition relation of step k in canonical 0→1 form."""
        if self.trlx[k] is None:
            r = self.removed[k]
            self.trlx[k] = [c for i, c in enumerate(self.trans_clauses)
                            if i not in r]
        return self.trlx[k]

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
        self.trlx.append(None)
        self.co3_done.append(0)

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
        self.removed[k] |= set(indices)
        self.trlx[k] = None
        self.solvers.pop(k, None)
        self.co3_done[k + 1] = 0

    def restore(self, k, indices):
        self.removed[k] -= set(indices)
        self.trlx[k] = None
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
    without a solve."""
    if chain.removed[k - 1].intersection(indices):
        raise ValueError("clause already removed from step %d" % (k - 1))
    chain.relax(k - 1, indices)
    if not indices:
        return []
    task = unrolled_lhs(chain, k, [chain.trans_clauses[i] for i in indices])
    try:
        a_star = take_out(task, budget=chain.pqe_budget,
                          covered=chain.h1[k - 1])
    except PqeBudgetError as e:
        e.frame = k
        raise
    return rename(a_star, chain.ts.prev)


def check_co(chain):
    """The (condition, frame) pairs of the four CO conditions that fail."""
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
    """H_{m-1} is an inductive invariant as soon as H_m implies it."""
    for m in range(1, chain.j + 1):
        if all(clause_implied(chain, m, c) for c in chain.h[m - 1]):
            return list(chain.h[m - 1])
    return None
