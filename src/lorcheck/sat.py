"""Self-contained CDCL SAT engine with assumptions, cores, preferred
decisions and a soft-clause relaxation search (MCS)."""

from __future__ import annotations

import bisect
from collections import deque


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
    never a different answer.  ``propagate`` asks unit propagation alone:
    it returns the literals true under its assumptions, or None when they
    conflict.  It learns nothing and moves no activity, so it changes no
    answer of a later ``solve``.

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
    ``add_clause``, an assumption or a preferred literal) at least doubles
    the room, and the negative half moves up to stay at the end.  An id
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
        self.clauses = []           # clause storage, lists of lits
        self.var_ids = set(extra_vars)
        self.ok = True
        self.units = []             # unit clauses not yet on the trail
        for c in clauses:
            lits = list(c)
            self.var_ids.update(map(abs, lits))
            if not lits:
                self.ok = False
            elif len(lits) == 1:
                self.units.append(lits[0])
            else:
                self.clauses.append(lits)
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
        for idx, lits in enumerate(self.clauses):
            watches[-lits[0]].append(idx)
            watches[-lits[1]].append(idx)
        self.act_inc = 1.0
        self.order = sorted(self.var_ids)
        self.n_assumed = 0

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
        """Exhaustive unit propagation; returns a conflict clause or None."""
        trail, value, watches = self.trail, self.value, self.watches
        clauses, level, reason = self.clauses, self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            pending = watches[lit]
            if not pending:
                continue
            false_lit = -lit
            keep = watches[lit] = []
            conflict = None
            for pos, idx in enumerate(pending):
                lits = clauses[idx]
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                v = value[first]
                if v is True:
                    keep.append(idx)
                    continue
                for k in range(2, len(lits)):
                    if value[lits[k]] is not False:
                        lits[1], lits[k] = lits[k], lits[1]
                        watches[-lits[1]].append(idx)
                        break
                else:
                    keep.append(idx)
                    if v is False:
                        keep.extend(pending[pos + 1:])
                        conflict = lits
                        break
                    value[first] = True
                    value[-first] = False
                    vid = abs(first)
                    level[vid] = lvl
                    reason[vid] = idx
                    trail.append(first)
            if conflict is not None:
                self.qhead = qhead
                return conflict
        self.qhead = qhead
        return None

    def _bump(self, vid):
        activity = self.activity
        activity[vid] += self.act_inc
        if activity[vid] > 1e100:
            activity[:] = [a * 1e-100 for a in activity]
            self.act_inc *= 1e-100

    def _analyze(self, conflict):
        """First-UIP analysis; returns (learnt clause lits, backtrack level)."""
        cur = len(self.trail_lim)
        seen = set()
        learnt = []
        counter = 0
        lits = conflict
        idx = len(self.trail) - 1
        while True:
            for l in lits:
                vid = abs(l)
                if vid in seen or self.level[vid] == 0:
                    continue
                seen.add(vid)
                self._bump(vid)
                if self.level[vid] == cur:
                    counter += 1
                else:
                    learnt.append(l)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            uip = self.trail[idx]
            seen.discard(abs(uip))
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            lits = [l for l in self.clauses[self.reason[abs(uip)]] if l != uip]
        learnt.insert(0, -uip)
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(l)] for l in learnt[1:])
        for k in range(1, len(learnt)):
            if self.level[abs(learnt[k])] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _backtrack(self, lvl):
        if len(self.trail_lim) > lvl:
            mark = self.trail_lim[lvl]
            value = self.value
            for lit in self.trail[mark:]:
                value[lit] = value[-lit] = None
            del self.trail[mark:]
            del self.trail_lim[lvl:]
        self.qhead = min(self.qhead, len(self.trail))
        self.n_assumed = min(self.n_assumed, lvl)

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
        Every literal of start_lits is assigned."""
        trail, level, reason = self.trail, self.level, self.reason
        core = set()
        seen = set()
        for l in start_lits:
            vid = abs(l)
            if level[vid] > 0:
                seen.add(vid)
        # nothing at level 0 is ever seen
        stop = self.trail_lim[0] if self.trail_lim else len(trail)
        for i in range(len(trail) - 1, stop - 1, -1):
            lit = trail[i]
            vid = abs(lit)
            if vid not in seen:
                continue
            r = reason[vid]
            if r is None:
                if lit in assumption_set:
                    core.add(lit)
            else:
                for l in self.clauses[r]:
                    if abs(l) != vid and level[abs(l)] > 0:
                        seen.add(abs(l))
        return core

    def solve(self, assumptions=(), prefer=()):
        assumptions, prefer = list(assumptions), list(prefer)
        var_ids = self.var_ids
        for a in assumptions + prefer:
            if abs(a) not in var_ids:
                self._register(abs(a))
        self._backtrack(0)
        if not self.ok:
            return SatResult("unsat", core=set())
        trail, trail_lim, value = self.trail, self.trail_lim, self.value
        clauses, level, reason = self.clauses, self.level, self.reason
        for u in self.units:
            v = value[u]
            if v is False:
                self.ok = False
                return SatResult("unsat", core=set())
            if v is None:
                self._enqueue(u)
        self.units.clear()  # level-0 assignments are never undone
        assumption_set = set(assumptions)
        conflicts = 0
        restart_num = 1
        restart_lim = 100 * _luby(restart_num)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not trail_lim:
                    self.ok = False
                    return SatResult("unsat", core=set())
                if len(trail_lim) <= self.n_assumed:
                    core = self._analyze_final(conflict, assumption_set)
                    return SatResult("unsat", core=core)
                conflicts += 1
                learnt, back = self._analyze(conflict)
                self._backtrack(back)
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
                    self._backtrack(self.n_assumed)
                continue
            if self.n_assumed < len(assumptions):
                a = assumptions[self.n_assumed]
                v = value[a]
                if v is False:
                    core = self._analyze_final([a], assumption_set)
                    core.add(a)
                    return SatResult("unsat", core=core)
                trail_lim.append(len(trail))
                self.n_assumed += 1
                if v is None:
                    value[a] = True
                    value[-a] = False
                    level[abs(a)] = len(trail_lim)
                    reason[abs(a)] = None
                    trail.append(a)
                continue
            # the first unassigned preferred literal, else positive polarity
            lit = prefer and next((p for p in prefer if value[p] is None), 0)
            lit = lit or self._decide_var()
            if lit is None:
                return SatResult("sat", model={abs(l): l > 0 for l in trail})
            trail_lim.append(len(trail))
            self._enqueue(lit)
        # not reached

    def propagate(self, assumptions):
        """The set of literals true after unit propagation under the
        assumptions, or None on a conflict.  The pending units go on level
        0 and are propagated there, as ``solve`` would; all the assumptions
        then go on level 1 and are propagated once.  A conflict-free set
        that assigns every variable is a model.  Nothing is learnt and no
        activity moves; a later ``solve`` may still return another model,
        as propagation reorders the watch lists.  ``implies`` is its only
        caller: its probes touch small cones, where one assumption set at a
        time beats ``propagate_lanes``."""
        var_ids = self.var_ids
        for a in assumptions:
            if abs(a) not in var_ids:
                self._register(abs(a))
        self._backtrack(0)
        value = self.value
        for u in self.units:
            if value[u] is False:
                self.ok = False
            elif value[u] is None:
                self._enqueue(u)
        self.units.clear()
        if not self.ok or self._propagate() is not None:
            self.ok = False
            return None
        trail, level, reason = self.trail, self.level, self.reason
        self.trail_lim.append(len(trail))
        for a in assumptions:
            v = value[a]
            if v is None:
                value[a] = True
                value[-a] = False
                level[abs(a)] = 1
                reason[abs(a)] = None
                trail.append(a)
            elif v is False:
                return None
        if self._propagate() is not None:
            return None
        return set(trail)


def propagate_lanes(clauses, lanes):
    """Unit propagation of one CNF under many assumption sets at once, one
    bit (a lane) per set.  `lanes` maps a variable id to two int masks:
    the lanes where it is true and the lanes where it is false.  The lanes
    are bits 0..n-1, n the bit length of the largest mask.  Returns two
    masks: the lanes that conflict, and the other lanes in which every
    variable of the clauses is assigned (an assumption assigns its own).

    Unit propagation is confluent, so lane i gets the answer of
    ``Solver(clauses).propagate`` under the literals that lane i assumes: a
    conflict, or a set that assigns every variable of that solver.  A
    clause worklist drives the masks to their fixpoint; a clause goes back
    on it when one of its literals turns false in more lanes."""
    clauses = list(clauses)
    variables = {abs(l) for c in clauses for l in c}
    cap = max(variables | lanes.keys(), default=0)
    true = [0] * (2 * cap + 1)      # true[l]: lanes where literal l holds
    wake = [[] for _ in range(2 * cap + 1)]  # wake[l]: clauses holding -l
    top = conflict = 0
    for v, (t, f) in lanes.items():
        true[v], true[-v] = t, f
        top = max(top, t, f)
        conflict |= t & f
    every = (1 << top.bit_length()) - 1
    for idx, c in enumerate(clauses):
        for l in c:
            wake[-l].append(idx)
    live = every & ~conflict
    queue = deque(range(len(clauses)))
    queued = [True] * len(clauses)
    while queue and live:
        idx = queue.popleft()
        queued[idx] = False
        lits = clauses[idx]
        none = live     # lanes where every literal so far is false
        one = 0         # lanes where one is open and the others false
        for l in lits:
            f = true[-l]
            one = (one & f) | (none & ~(true[l] | f))
            none &= f
        if none:
            conflict |= none
            live &= ~none
        if one:
            for l in lits:
                new = one & ~true[-l]
                if new:
                    true[l] |= new
                    for j in wake[l]:
                        if not queued[j]:
                            queued[j] = True
                            queue.append(j)
    full = live
    for v in variables:
        full &= true[v] | true[-v]
    return conflict, full


def solve(f, assumptions=(), extra_vars=()):
    """Decide CNF f under assumption literals."""
    return Solver(f, extra_vars=extra_vars).solve(assumptions)


def implies(a, b):
    """True iff formula a implies every clause of b.

    Unit propagation settles most clauses (failed-literal probing, Lynce
    and Marques-Silva, ICTAI 2003): a clause with first literal l holds
    when propagating ¬l conflicts or makes another of its literals true.
    One probe serves every clause with the same first literal; only a
    clause it leaves open is decided by a solve of its negation."""
    s = Solver(a)
    by_first = {}
    for c in b:
        lits = list(c)
        by_first.setdefault(lits[0] if lits else 0, []).append(lits)
    for first, group in by_first.items():
        true = s.propagate([-first]) if first else set()
        for lits in group:
            if true is None or any(l in true for l in lits[1:]):
                continue
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


def max_relax_solve(hard, soft, target):
    """Satisfy hard plus the target assignment with a minimal correction
    set of soft clauses left out, by relaxation search (Bacchus, Davies,
    Tsimpoukelli, Katsirelos, AAAI 2014).

    One solve prefers each soft clause's selector in turn, so a selector
    is false only where hard, the target and the earlier kept softs refute
    its clause.  Returns the indices of those clauses: every model of
    hard, target and the rest falsifies them, and none can be kept alone.
    """
    hard, soft = [list(c) for c in hard], [list(c) for c in soft]
    top = max([abs(l) for c in hard + soft for l in c] + list(target),
              default=0)
    selectors = range(top + 1, top + 1 + len(soft))
    solver = Solver(hard + [[-sel] + c for sel, c in zip(selectors, soft)])
    target_lits = [vid if val else -vid for vid, val in sorted(target.items())]
    res = solver.solve(target_lits, prefer=selectors)
    if not res:
        raise ValueError("hard formula with target is unsatisfiable")
    return {i for i, sel in enumerate(selectors) if not res.model[sel]}
