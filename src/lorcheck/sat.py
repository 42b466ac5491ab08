"""Self-contained CDCL SAT engine with assumptions, cores, preferred
decisions and a soft-clause relaxation search (MCS)."""

from __future__ import annotations

import bisect
from itertools import chain


class SatResult:
    __slots__ = ("status", "model", "core")

    def __init__(self, status, model=None, core=None):
        self.status = status
        self.model = model
        self.core = core

    def __bool__(self):
        return self.status == "sat"

    def __repr__(self):
        return "SatResult(%s)" % self.status


def _luby(i):
    # Luby restart sequence, 1-based: with 2^(k-1) <= i < 2^k - 1, term i
    # repeats term i - (2^(k-1) - 1); term 2^k - 1 is 2^(k-1)
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Solver:
    """Incremental CDCL solver over signed-integer literals.

    Each ``solve`` call decides the clauses under its own assumptions,
    starting from decision level 0; ``add_clause`` adds a clause between
    calls.  Learnt clauses are kept between calls: assumptions are
    decisions and the clause set only grows, so every learnt clause
    follows from the clauses added so far.  Activities carry over too, so
    a reused solver may return a different model than a fresh one, but
    never a different answer.  ``probe`` asks unit propagation alone and
    leaves the literals it finds true in ``value``.  It learns nothing
    and moves no activity, so it changes no answer of a later ``solve``.

    First-UIP learning, two watched literals, decaying variable activities,
    Luby restarts.  Decisions break activity ties on lowest variable id and
    try positive polarity first, so runs are reproducible.  ``solve``
    decides its preferred literals in order after the assumptions and
    before any activity decision.  Unlike an assumption, one may be forced
    false: by the clauses, the assumptions and the earlier preferred
    literals true in the model.

    ``value`` and ``watches`` are lists indexed by the signed literal
    itself, ``level``, ``reason`` and ``activity`` lists indexed by the
    variable id.  With ``cap`` the largest id they have room for, the first
    two have 2·cap+1 slots: Python puts ``value[-v]`` in slot 2·cap+1-v.
    ``value`` holds True, False or None (unassigned), so a literal's value
    is one subscript.  An id above ``cap`` (in the clauses, ``extra_vars``,
    ``add_clause``, an assumption, a preferred literal or a clause that
    ``implies`` reads) at least doubles the room, and the negative half
    moves up to stay at the end.  An id
    without a variable in this solver holds None and no watchers.  So the
    memory is 2·(largest id)+1 slots per solver, whatever ids it uses, and
    ids should be dense: every id here is a ``VarTable`` id or a selector
    allocated just above the largest id of its formula, and ``lorcheck
    pqe`` renumbers a task's ids to 1..n.

    ``level`` and ``reason`` keep the entries of variables unassigned by a
    backtrack: they are read only for assigned variables (the literals of
    a conflict or reason clause, a false assumption), and assigning a
    variable overwrites both.
    """

    def __init__(self, clauses, extra_vars=()):
        self.clauses = store = []   # clause storage, lists of lits
        self.units = units = []     # unit clauses not yet on the trail
        self.ok = True
        for c in clauses:
            lits = list(c)
            if len(lits) > 1:
                store.append(lits)
            elif lits:
                units.append(lits[0])
            else:
                self.ok = False
        self.var_ids = set(extra_vars)
        self.var_ids.update(map(abs, chain.from_iterable(store)),
                            map(abs, units))
        self.cap = 0
        self.value = [None]
        self.watches = [[]]
        self.level = [0]
        self.reason = [None]
        self.activity = [0.0]
        self._grow(max(self.var_ids, default=0))
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        watches = self.watches
        for idx, lits in enumerate(store):
            watches[-lits[0]].append(idx)
            watches[-lits[1]].append(idx)
        self.act_inc = 1.0
        self.order = sorted(self.var_ids)

    def _grow(self, vid):
        """Make room for id vid, at least doubling the room if it grows."""
        if vid <= self.cap:
            return
        cap = max(vid, 2 * self.cap)
        more = cap - self.cap
        # the negative literals stay at the end: slot 2·cap+1-v holds -v
        mid = self.cap + 1
        self.value[mid:mid] = [None] * (2 * more)
        self.watches[mid:mid] = [[] for _ in range(2 * more)]
        self.level += [0] * more
        self.reason += [None] * more
        self.activity += [0.0] * more
        self.cap = cap

    def add_clause(self, lits):
        """Add a clause at decision level 0: skip it if a literal is true
        there, and drop the literals that are false there."""
        self._backtrack(0)
        self._grow(max(map(abs, lits), default=0))
        value, var_ids = self.value, self.var_ids
        rest = []
        for l in lits:
            v = value[l]
            if v is True:
                return
            if v is None:
                if abs(l) not in var_ids:
                    self._register(abs(l))
                rest.append(l)
        if not rest:
            self.ok = False
        elif len(rest) == 1:
            self.units.append(rest[0])
        else:
            idx = len(self.clauses)
            self.clauses.append(rest)
            self._watch(rest[0], idx)
            self._watch(rest[1], idx)

    def _register(self, vid):
        self._grow(vid)
        self.var_ids.add(vid)
        bisect.insort(self.order, vid)

    def _watch(self, lit, idx):
        # watcher lists are keyed by the literal whose falsification wakes them
        self.watches[-lit].append(idx)

    def _enqueue(self, lit, reason=None):
        self.value[lit] = True
        self.value[-lit] = False
        vid = abs(lit)
        self.level[vid] = len(self.trail_lim)
        self.reason[vid] = reason
        self.trail.append(lit)

    def _propagate(self):
        """Exhaustive unit propagation; returns a conflict clause or None.
        Watcher lists are compacted in place, in their order."""
        trail, value, watches = self.trail, self.value, self.watches
        clauses, level, reason = self.clauses, self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            ws = watches[lit]
            if not ws:
                continue
            false_lit = -lit
            j = 0
            for i, idx in enumerate(ws, 1):
                lits = clauses[idx]
                first = lits[0]
                if first == false_lit:  # the clause watches it at 0 or 1
                    first = lits[0] = lits[1]
                    lits[1] = false_lit
                v = value[first]
                if v is True:
                    ws[j] = idx
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if value[other] is not False:
                        lits[1] = other
                        lits[k] = false_lit
                        watches[-other].append(idx)
                        break
                else:
                    ws[j] = idx
                    j += 1
                    if v is False:
                        del ws[j:i]
                        self.qhead = qhead
                        return lits
                    value[first] = True
                    value[-first] = False
                    vid = first if first > 0 else -first
                    level[vid] = lvl
                    reason[vid] = idx
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    def _analyze(self, conflict):
        """First-UIP analysis; returns (learnt clause lits, backtrack
        level) and bumps the activity of every variable it meets.  The
        learnt clause's second literal is its first of the backtrack
        level."""
        trail, level, reason = self.trail, self.level, self.reason
        activity, inc = self.activity, self.act_inc
        cur = len(self.trail_lim)
        seen = set()
        learnt = [0]
        back = second = 0
        counter = 0
        lits = conflict
        idx = len(trail) - 1
        while True:
            for l in lits:
                vid = l if l > 0 else -l
                if vid in seen:
                    continue
                lv = level[vid]
                if lv == 0:
                    continue
                seen.add(vid)
                a = activity[vid] = activity[vid] + inc
                if a > 1e100:
                    activity[:] = [x * 1e-100 for x in activity]
                    inc = self.act_inc = inc * 1e-100
                if lv == cur:
                    counter += 1
                else:
                    if lv > back:
                        back, second = lv, len(learnt)
                    learnt.append(l)
            while abs(trail[idx]) not in seen:
                idx -= 1
            uip = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            # uip stays in seen, so its own literal in its reason is skipped
            lits = self.clauses[reason[abs(uip)]]
        learnt[0] = -uip
        if second > 1:
            learnt[1], learnt[second] = learnt[second], learnt[1]
        return learnt, back

    def _backtrack(self, lvl):
        trail_lim = self.trail_lim
        if len(trail_lim) > lvl:
            trail, value = self.trail, self.value
            mark = trail_lim[lvl]
            for lit in trail[mark:]:
                value[lit] = value[-lit] = None
            del trail[mark:]
            del trail_lim[lvl:]
            if self.qhead > mark:
                self.qhead = mark

    def _decide_var(self):
        value, activity = self.value, self.activity
        best = None
        best_act = -1.0
        for vid in self.order:
            if value[vid] is None and activity[vid] > best_act:
                best, best_act = vid, activity[vid]
        return best

    def _analyze_final(self, start_lits, assumption_set):
        """Explain the falsity of start_lits as a set of assumption literals.
        Every literal of start_lits and of a reason clause is assigned; the
        level-0 ones join `seen` but lie below the walk."""
        trail, reason, clauses = self.trail, self.reason, self.clauses
        core = set()
        seen = set(map(abs, start_lits))
        stop = self.trail_lim[0] if self.trail_lim else len(trail)
        for lit in reversed(trail[stop:]):
            vid = lit if lit > 0 else -lit
            if vid in seen:
                r = reason[vid]
                if r is not None:
                    seen.update(map(abs, clauses[r]))
                elif lit in assumption_set:
                    core.add(lit)
        return core

    def _settle(self, lits):
        """Register the variables of `lits`, then put the pending units on
        level 0 and propagate them; False, for good, on a conflict there."""
        var_ids = self.var_ids
        if not var_ids.issuperset(map(abs, lits)):
            for a in lits:
                if abs(a) not in var_ids:
                    self._register(abs(a))
        self._backtrack(0)
        if self.units:
            value = self.value
            for u in self.units:
                if value[u] is False:
                    self.ok = False
                elif value[u] is None:
                    self._enqueue(u)
            self.units.clear()  # level-0 assignments are never undone
        if self.ok and self.qhead < len(self.trail):
            self.ok = self._propagate() is None
        return self.ok

    def solve(self, assumptions=(), prefer=()):
        assumptions, prefer = list(assumptions), list(prefer)
        if not self._settle(assumptions + prefer):
            return SatResult("unsat", core=set())
        trail, trail_lim, value = self.trail, self.trail_lim, self.value
        clauses, level, reason = self.clauses, self.level, self.reason
        propagate, decide_var = self._propagate, self._decide_var
        assumption_set = set(assumptions)
        n_assumptions, n_prefer = len(assumptions), len(prefer)
        n_assumed = 0  # levels 1..n_assumed hold the assumptions
        conflicts = 0
        pi = 0  # prefer[:pi] is assigned
        restart_num = 1
        restart_lim = 100 * _luby(restart_num)
        while True:
            conflict = propagate()
            if conflict is not None:
                if not trail_lim:
                    self.ok = False
                    return SatResult("unsat", core=set())
                if len(trail_lim) <= n_assumed:
                    core = self._analyze_final(conflict, assumption_set)
                    return SatResult("unsat", core=core)
                conflicts += 1
                learnt, back = self._analyze(conflict)
                self._backtrack(back)
                n_assumed = min(n_assumed, back)
                pi = 0
                idx = len(clauses)
                clauses.append(learnt)
                if len(learnt) >= 2:
                    self._watch(learnt[0], idx)
                    self._watch(learnt[1], idx)
                    self._enqueue(learnt[0], idx)
                else:
                    self._enqueue(learnt[0])
                self.act_inc /= 0.95
                if conflicts >= restart_lim:
                    conflicts = 0
                    restart_num += 1
                    restart_lim = 100 * _luby(restart_num)
                    self._backtrack(n_assumed)
                continue
            if n_assumed < n_assumptions:
                # an assumption opens a level even when it is already true
                lit = assumptions[n_assumed]
                if value[lit] is False:
                    core = self._analyze_final([lit], assumption_set)
                    core.add(lit)
                    return SatResult("unsat", core=core)
                n_assumed += 1
            else:
                # the first unassigned preferred literal, else positive
                # polarity; the trail only grows between backtracks, so the
                # scan resumes
                while pi < n_prefer and value[prefer[pi]] is not None:
                    pi += 1
                lit = prefer[pi] if pi < n_prefer else decide_var()
                if lit is None:
                    return SatResult("sat", model=dict(
                        zip(map(abs, trail), map((0).__lt__, trail))))
            trail_lim.append(len(trail))
            if value[lit] is None:
                value[lit] = True
                value[-lit] = False
                vid = abs(lit)
                level[vid] = len(trail_lim)
                reason[vid] = None
                trail.append(lit)
        # not reached

    def probe(self, assumptions):
        """Unit propagation alone: False when propagating the assumptions
        through the clauses conflicts, else True.  The pending units go on
        level 0 and are propagated there, as ``solve`` would; all the
        assumptions then go on level 1 and are propagated once.  Every
        literal found true reads True in ``value`` until the next
        ``solve``, ``probe`` or ``add_clause``; a conflict-free probe
        that assigns every variable found a model.  Nothing is learnt and
        no activity moves; a later ``solve`` may still return another
        model, as propagation reorders the watch lists.  ``implies`` is
        its only caller."""
        if not self._settle(assumptions):
            return False
        value = self.value
        self.trail_lim.append(len(self.trail))
        for a in assumptions:
            v = value[a]
            if v is None:
                self._enqueue(a)
            elif v is False:
                return False
        return self._propagate() is None


def implies(a, b):
    """True iff formula a implies every clause of b.  a may be a Solver
    over the formula, so that one solver answers several calls.

    Unit propagation settles most clauses (failed-literal probing, Lynce
    and Marques-Silva, ICTAI 2003).  After the pending units propagate, a
    clause with a literal true at level 0 holds.  Any other clause, with
    first literal l, holds when probing ¬l conflicts or makes another of
    its literals true.  One probe serves every clause with the same first
    literal, and its values are read before any solve; only a clause it
    leaves open is decided by a solve of its negation."""
    s = a if isinstance(a, Solver) else Solver(a)
    # room for every variable of b, so that value reads None for one the
    # solver lacks
    s._grow(max(map(abs, chain.from_iterable(b)), default=0))
    if not s._settle(()):
        return True   # a is unsatisfiable
    value = s.value
    by_first = {}
    for c in b:
        if any(map(value.__getitem__, c)):
            continue
        lits = list(c)
        by_first.setdefault(lits[0] if lits else 0, []).append(lits)
    for first, group in by_first.items():
        if first and not s.probe([-first]):
            continue
        left = [lits for lits in group
                if not any(map(value.__getitem__, lits[1:]))]
        for lits in left:
            if s.solve([-l for l in lits]):
                return False
    return True


def first_model(solver, queries):
    """The solver's model under the first assumption list in `queries` that
    is satisfiable, or None."""
    for assumptions in queries:
        res = solver.solve(assumptions)
        if res:
            return res.model
    return None


def max_relax_solve(hard, soft, target, extra_vars=()):
    """Satisfy hard plus the target assignment with a minimal correction
    set of soft clauses left out, by relaxation search (Bacchus, Davies,
    Tsimpoukelli, Katsirelos, AAAI 2014).

    One solve prefers each soft clause's selector in turn, so a selector
    is false only where hard, the target and the earlier kept softs refute
    its clause.  Returns the indices of those clauses, and the solve's
    model: every model of hard, target and the rest falsifies them, and
    none can be kept alone.  The model values every id of `extra_vars`
    too; the selectors lie above them.
    """
    hard, soft = [list(c) for c in hard], [list(c) for c in soft]
    top = max(chain(map(abs, chain.from_iterable(hard + soft)), target,
                    extra_vars), default=0)
    selectors = range(top + 1, top + 1 + len(soft))
    solver = Solver(hard + [[-sel] + c for sel, c in zip(selectors, soft)],
                    extra_vars=extra_vars)
    target_lits = [vid if val else -vid for vid, val in sorted(target.items())]
    res = solver.solve(target_lits, prefer=selectors)
    if not res:
        raise ValueError("hard formula with target is unsatisfiable")
    left_out = {i for i, sel in enumerate(selectors) if not res.model[sel]}
    return left_out, res.model
