"""Production partial-quantifier-elimination solver.

take_out(task) finds a W-free A* with A* ∧ ∃W[B] ≡ ∃W[A ∧ B]: it "takes A out
of the scope of the quantifiers".  The search branches on variables, proving
clauses descended from A redundant per subspace (D-sequents), joining branch
results, and turning pairs of falsified clauses into conflict resolvents.

Every global pool mutation used here preserves ∃W-equivalence on its own:
adding an implied resolvent, skipping or deleting a subsumed clause, deleting
a blocked clause, or eliminating a quantified variable by resolution.
Branch-local discharges that cannot be grounded that way are
finalized by the last of these moves, so the answer's correctness never rests
on the order in which subspace D-sequents compose.
"""

from __future__ import annotations

from .cnf import Cnf, TAUTOLOGY, resolve, lit_sat


DEFAULT_BUDGET = 10 ** 6   # search nodes per take_out call


class PqeBudgetError(Exception):
    pass


class PqeTask:
    def __init__(self, w, a, b):
        self.w = frozenset(w)
        self.a = a if isinstance(a, Cnf) else Cnf(a)
        self.b = b if isinstance(b, Cnf) else Cnf(b)


def conflict_clause_dsequent(vid, falsified0, falsified1):
    """Resolvent of the two branch-falsified clauses: the special D-sequent
    that makes every clause redundant in the current subspace."""
    r = resolve(falsified0, falsified1, vid)
    if r is TAUTOLOGY:
        raise ValueError("conflict resolvent is tautological")
    return r


def _signature(lits):
    """64-bit literal signature: a clause can only subsume another whose
    signature has every bit of its own."""
    sig = 0
    for l in lits:
        sig |= 1 << (l % 64)
    return sig


class _PoolClause:
    __slots__ = ("clause", "lits", "sig", "tracked", "n_sat", "n_false")

    def __init__(self, clause, tracked):
        self.clause = clause
        self.lits = frozenset(clause.lits)
        self.sig = _signature(clause.lits)
        self.tracked = tracked
        self.n_sat = 0
        self.n_false = 0


class _Solver:
    """Clause pool with an incremental branch assignment (trail)."""

    def __init__(self, task, budget):
        self.w = task.w
        self.budget = budget
        self.nodes = 0
        self.pool = []
        self.occ = {}          # literal -> live pool positions, in pool order
        # live tracked positions, in pool order: the open obligations.
        # add_clause untracks every W-free clause and nothing sets tracked
        # later, so a tracked clause always holds a W variable
        self.open = {}
        self.assign = {}       # current subspace q
        self.trail = []
        self.falsified = set()
        self.a_star = []
        self._empty = None     # pool position of the empty clause; it is
                               # W-free, so nothing ever kills it
        for c in task.b:
            self.add_clause(c, tracked=False)
        for c in task.a:
            self.add_clause(c, tracked=True)

    # ------------------------------------------------------------- pool

    def _find_subsumer(self, new):
        """A live clause whose literals are a subset of those of the
        _PoolClause `new`, if any.  A clause met again under a later
        literal has already failed the test, so no visited set is needed."""
        lits, sig, n = new.lits, new.sig, len(new.lits)
        for l in new.clause:
            for j in self.occ.get(l, ()):
                pc = self.pool[j]
                if not pc.sig & ~sig and len(pc.lits) <= n and pc.lits <= lits:
                    return j
        # the empty clause shares no literal but subsumes everything
        return self._empty

    def add_clause(self, clause, tracked):
        """Add a clause unless a live clause subsumes it; returns the pool
        position of the clause or its subsumer."""
        pc = _PoolClause(clause, tracked)
        sub = self._find_subsumer(pc)
        if sub is not None:
            return sub
        if tracked and not (clause.variables() & self.w):
            # W-free clauses are their own answer; no redundancy obligation
            self.a_star.append(clause)
            pc.tracked = False
        for l in clause:
            v = lit_sat(l, self.assign)
            if v is True:
                pc.n_sat += 1
            elif v is False:
                pc.n_false += 1
        self.pool.append(pc)
        pos = len(self.pool) - 1
        for l in clause:
            self.occ.setdefault(l, {})[pos] = None
        if pc.tracked:
            self.open[pos] = None
        if not clause.lits:
            self._empty = pos
        if pc.n_sat == 0 and pc.n_false == len(clause.lits):
            self.falsified.add(pos)
        return pos

    def kill(self, pos):
        for l in self.pool[pos].clause:
            del self.occ[l][pos]
        self.open.pop(pos, None)
        self.falsified.discard(pos)

    def push(self, vid, val):
        self.assign[vid] = val
        self.trail.append(vid)
        for l, sat in ((vid, val), (-vid, not val)):
            for pos in self.occ.get(l, ()):
                pc = self.pool[pos]
                if sat:
                    pc.n_sat += 1
                else:
                    pc.n_false += 1
                    if pc.n_sat == 0 and pc.n_false == len(pc.clause.lits):
                        self.falsified.add(pos)

    def pop(self):
        vid = self.trail.pop()
        val = self.assign.pop(vid)
        for l, sat in ((vid, val), (-vid, not val)):
            for pos in self.occ.get(l, ()):
                pc = self.pool[pos]
                if sat:
                    pc.n_sat -= 1
                else:
                    if pc.n_sat == 0 and pc.n_false == len(pc.clause.lits):
                        self.falsified.discard(pos)
                    pc.n_false -= 1

    # ---------------------------------------------------------- queries

    def pool_free(self, pos):
        return (l for l in self.pool[pos].clause if abs(l) not in self.assign)

    def _subsumed_now(self, pos, excluded):
        """Condition (b): a live clause's cofactor subsumes this one's."""
        rem = set(self.pool_free(pos))
        empty = self._empty
        if empty is not None and empty != pos and empty not in excluded:
            return True
        for l in rem:
            for j in self.occ.get(l, ()):
                if j == pos or j in excluded or self.pool[j].n_sat > 0:
                    continue
                if all(x in rem for x in self.pool_free(j)):
                    return True
        return False

    def _blocked_now(self, pos, excluded):
        """Condition (c): an unassigned W variable of the clause admits no
        non-tautological resolvent among the live cofactored clauses."""
        c = self.pool[pos].clause
        free = set(self.pool_free(pos))
        for l in c:
            y = abs(l)
            if y not in self.w or y in self.assign:
                continue
            for j in self.occ.get(-l, ()):
                if j == pos or j in excluded or self.pool[j].n_sat > 0:
                    continue
                taut = any(-x in free for x in self.pool_free(j) if x != -l)
                if not taut:
                    break
            else:
                return True
        return False

    def trivially_redundant(self, pos, excluded):
        """Returns the fired condition 'a' | 'b' | 'c', or None."""
        pc = self.pool[pos]
        if pc.n_sat > 0:
            return "a"
        if pc.n_false == len(pc.clause.lits):
            return None
        if self._subsumed_now(pos, excluded):
            return "b"
        if self._blocked_now(pos, excluded):
            return "c"
        return None

    # ------------------------------------------------- discharge by proof

    def dp_discharge(self, pos):
        """Ground the obligation of a tracked W-clause by eliminating its
        lowest W variable outright: add every resolvent on the pivot, then
        delete all clauses containing it.  Partial elimination would let
        later resolutions re-derive the deleted clause and loop; a fully
        eliminated variable can never reappear in the pool."""
        c = self.pool[pos].clause
        pivot = min(v for v in c.variables() if v in self.w)
        self.eliminate_var(pivot)

    def eliminate_var(self, pivot):
        up = list(self.occ.get(pivot, ()))
        dn = list(self.occ.get(-pivot, ()))
        new = []
        for i in up:
            for j in dn:
                self._tick()
                r = resolve(self.pool[i].clause, self.pool[j].clause, pivot)
                if r is not TAUTOLOGY:
                    new.append((r, self.pool[i].tracked or self.pool[j].tracked))
        for j in up + dn:
            self.kill(j)
        for r, tracked in new:
            self.add_clause(r, tracked=tracked)

    # ------------------------------------------------------------ search

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise PqeBudgetError("pqe node budget exceeded")

    def search(self):
        """Searches from the root node without recursion: a node yields to
        have its current branch searched and is sent that branch's result.
        Returns the root's result."""
        stack, result = [self._node()], None
        while stack:
            try:
                stack[-1].send(result)
            except StopIteration as stop:
                stack.pop()
                result = stop.value
            else:
                stack.append(self._node())
                result = None
        return result

    def _node(self):
        """One search node, as a generator that returns ('done',) or
        ('conflict', pool index of falsified clause)."""
        node_discharged = set()
        while True:
            self._tick()
            if self.falsified:
                return ("conflict", min(self.falsified))
            # discharge rounds until one fires nothing; that round's list
            # is then the open obligations
            while True:
                pending = [i for i in self.open if i not in node_discharged]
                fired = False
                for i in pending:
                    if self.trivially_redundant(i, node_discharged):
                        node_discharged.add(i)
                        fired = True
                if not fired:
                    break
            if not pending:
                return ("done",)
            # branch on the first open obligation: its W variables first,
            # ascending variable id
            cvars = sorted(self.pool[pending[0]].clause.variables()
                           - set(self.assign))
            branch = min((v for v in cvars if v in self.w), default=None)
            if branch is None:
                branch = cvars[0]
            self.push(branch, False)
            r0 = yield
            self.pop()
            if r0[0] == "conflict" and branch not in self.pool[r0[1]].clause.variables():
                return r0
            self.push(branch, True)
            r1 = yield
            self.pop()
            if r1[0] == "conflict" and branch not in self.pool[r1[1]].clause.variables():
                return r1
            if r0[0] == "conflict" and r1[0] == "conflict":
                c0 = self.pool[r0[1]]
                c1 = self.pool[r1[1]]
                r = conflict_clause_dsequent(branch, c0.clause, c1.clause)
                pos = self.add_clause(r, tracked=c0.tracked or c1.tracked)
                # the resolvent (or its subsumer) is falsified in this subspace
                return ("conflict", pos)
            # at most one side conflicted
            cpos = (r0[1] if r0[0] == "conflict" else
                    r1[1] if r1[0] == "conflict" else None)
            if cpos is None or not self.pool[cpos].tracked:
                # both sides discharged every pre-branch obligation, or the
                # conflicting subspace is empty modulo clauses carrying no
                # obligation: the joined discharge stands
                node_discharged.update(i for i in pending if i in self.open)
                continue
            # the conflict clause is itself an open obligation: ground it
            # by resolution and retry this node
            self.dp_discharge(cpos)

    # ------------------------------------------------------------- sweep

    def final_sweep(self):
        """Ground every still-live tracked W-clause by globally sound moves."""
        while True:
            pending = list(self.open)
            if not pending:
                return
            self._tick()
            acted = False
            for i in pending:
                if self._subsumed_now(i, set()) or self._blocked_now(i, set()):
                    self.kill(i)
                    acted = True
            if not acted:
                self.dp_discharge(pending[0])

    def run(self):
        self.search()
        self.final_sweep()
        return Cnf(self.a_star).normalize()


def take_out(task, budget=DEFAULT_BUDGET):
    """Solve a PQE task; raises PqeBudgetError once the search has spent
    `budget` nodes."""
    return _Solver(task, budget).run()


def trivially_redundant(c, pool, branch, w):
    """Standalone form of the three trivial-redundancy conditions for clause
    c against a clause pool within a branch assignment."""
    task = PqeTask(w, Cnf([c]), Cnf([p for p in pool if p != c]))
    s = _Solver(task, budget=1)
    for vid, val in branch.items():
        s.push(vid, val)
    pos = next((i for i, pc in enumerate(s.pool) if pc.clause == c), None)
    if pos is None:
        # subsumed outright on insertion
        return True
    return s.trivially_redundant(pos, set()) is not None
