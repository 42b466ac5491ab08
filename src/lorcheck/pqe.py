"""Production partial-quantifier-elimination solver.

take_out(task) finds a W-free A* with A* ∧ ∃W[B] ≡ ∃W[A ∧ B]: it "takes A out
of the scope of the quantifiers".  With F = vars(A ∧ B) \\ W, the two sides
can differ only at F-points of B ∧ ¬A, so take_out enumerates those points
with one incremental SAT solver and decides each with a second one over
A ∧ B (enumerate and generalize, after Goldberg's EG-PQE):

- where A ∧ B is satisfiable, the model lifts to a cube over F on which it
  stays satisfiable, and the cube is blocked;
- elsewhere the assumption core of A ∧ B under the point gives a clause c
  over F that A ∧ B implies; c joins A* and blocks every point it excludes.

Every clause of A* is implied by A ∧ B, and every point where ∃W[B] holds
but ∃W[A ∧ B] does not is excluded by A*, so the equivalence holds.

A caller may pass `covered`, a CNF on whose points ∃W[B] implies
∃W[A ∧ B].  Its variables are free ones, or occur in no clause of the
task; a literal of the latter counts as false.  Before enumerating,
take_out tries each clause of `covered`, restricted to the free variables,
as an answer: one solve of A ∧ B under its negation, and where that is
unsatisfiable the clause joins A* and blocks its points.  The makeup step
passes H_{k-1}′, most of whose clauses A ∧ B implies, so most of a frame's
answer is found without enumerating a point.  A candidate check is not an
enumerated point and does not count against the budget.  During the
enumeration, a satisfiable point inside `covered` blocks a cube of the
clauses of `covered` left after that (one true literal per clause) in
place of the lift of A ∧ B, which keeps nearly every free literal.  The
points it blocks that are still open satisfy the clauses taken as answers
too, so they lie inside `covered`.  Every answer clause is implied by
A ∧ B, whether a candidate or a core, so the equivalence holds whenever
the caller's claim does; a `covered` that holds a point of
∃W[B] \\ ∃W[A ∧ B] can make the answer wrong.
"""

from __future__ import annotations

from itertools import chain

from .cnf import Clause, evaluate
from .sat import Solver


DEFAULT_BUDGET = 10 ** 6   # enumerated points per take_out call


class PqeBudgetError(Exception):
    """A spent budget; makeup_clauses sets the frame that spent it."""

    frame = None


class PqeTask:
    def __init__(self, w, a, b):
        self.w = frozenset(w)
        self.a = a
        self.b = b


def take_out(task, budget=DEFAULT_BUDGET, covered=None, ab_solver=None):
    """Solve a PQE task; raises PqeBudgetError once it has enumerated
    `budget` points without finishing.  `covered` (None: no region) is
    the region of the module docstring, and its clauses, restricted to the
    free variables, are tried as answers first; an emptied clause is
    skipped, and a covered cube needs a literal only for a clause not
    taken.  A point's membership is asked only after A ∧ B is found
    satisfiable there, as most points of a costly task are not.

    `ab_solver` (None: one is built over A ∧ B) is a solver over a formula
    equivalent to A ∧ B whose models value every variable of A ∧ B; it
    answers every question about A ∧ B and gains no clause.  The makeup
    step passes the frame solver that relaxing the step drops."""
    w = task.w
    a, ab = task.a, task.a + task.b
    free_set = set(map(abs, chain.from_iterable(ab))) - w
    free = sorted(free_set)
    # ¬A: selector s_i implies that clause i of A is false, and some s_i holds
    top = max(chain(w, free), default=0)
    sels = range(top + 1, top + 1 + len(a))
    not_a = [(-s, -l) for s, c in zip(sels, a) for l in c] + [tuple(sels)]
    if ab_solver is None:
        ab_solver = Solver(ab)
    # _lift skips a clause of W-literals alone: a model of A ∧ B makes one true
    liftable = [c for c in ab if not w.issuperset(map(abs, c))]
    answer, rest = [], []     # rest: the clauses of covered not taken
    for c in covered or ():
        r = Clause(l for l in c if abs(l) in free_set)
        if r and not ab_solver.solve([-l for l in r]):
            answer.append(r)
        else:
            rest.append(c)
    # built after the candidate checks, with the taken ones among its clauses
    points = Solver(task.b + not_a + answer)
    for _ in range(budget):
        res = points.solve()
        if not res:
            return answer
        y = [v if res.model[v] else -v for v in free]
        res = ab_solver.solve(y)
        if res:
            if covered is not None and evaluate(rest, res.model):
                cube = _lift(rest, res.model, ())
            else:
                cube = _lift(liftable, res.model, w)
            points.add_clause([-l for l in cube])
        else:
            c = Clause(-l for l in y if l in res.core)
            answer.append(c)
            points.add_clause(c)
    raise PqeBudgetError("pqe point budget exceeded")


def _lift(clauses, model, w):
    """A cube over the free variables, true in `model`, on whose points
    the model's W-part still satisfies every clause: one true free literal
    for each clause that no true W-literal satisfies."""
    cube = set()
    for c in clauses:
        true = [l for l in c if model.get(abs(l)) == (l > 0)]
        if any(abs(l) in w or l in cube for l in true):
            continue
        cube.add(true[0])
    return sorted(cube, key=abs)
