"""Reference solve that measures the speed of the host while a run goes on.

On a shared machine the speed of the CPUs drifts by a fifth or more from one
minute to the next, more than any bound worth setting.  run.py times this
fixed job between instances and scales every time it reports by
REFERENCE_S / (median time of this job in the run), so its figures read as
seconds on a host where this job takes REFERENCE_S.

The job is two solves in interpreted Python, each with a known answer: a
small CDCL solver (watched literals, first-UIP learning, activity-ordered
decisions) proves the pigeonhole formula PHP(6, 5) unsatisfiable, with the
kind of list and dict work of lorcheck's SAT layer, and Davis-Putnam
elimination over frozensets decides a fixed random 3-CNF, with the kind of
set work of its PQE layer.  On the workloads here the pair tracks the speed
of lorcheck better than either alone.  The job is kept here and imports
nothing of lorcheck, so that a change to the program under test does not
change the yardstick.
"""

from __future__ import annotations

import itertools
import random
import time

# About the time of one reference job on the 2-core x86 container the
# bounds were set on, where it took 0.018 to 0.031 s as the speed of the
# host changed.
REFERENCE_S = 0.03


def pigeonhole(pigeons, holes):
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(a, h), -var(b, h)])
    return clauses


def satisfiable(clauses):
    """Plain CDCL without restarts; returns True or False."""
    clauses = [list(c) for c in clauses]
    variables = sorted({abs(l) for c in clauses for l in c})
    assign, level, reason, trail, trail_lim = {}, {}, {}, [], []
    activity = dict.fromkeys(variables, 0.0)
    watches = {}
    for i, c in enumerate(clauses):
        watches.setdefault(-c[0], []).append(i)
        watches.setdefault(-c[1], []).append(i)

    def value(l):
        v = assign.get(abs(l))
        return None if v is None else v == (l > 0)

    def enqueue(l, why):
        assign[abs(l)] = l > 0
        level[abs(l)] = len(trail_lim)
        reason[abs(l)] = why
        trail.append(l)

    def propagate(head):
        while head < len(trail):
            lit = trail[head]
            head += 1
            pending = watches.pop(lit, [])
            keep = []
            for pos, i in enumerate(pending):
                c = clauses[i]
                if c[0] == -lit:
                    c[0], c[1] = c[1], c[0]
                if value(c[0]) is True:
                    keep.append(i)
                    continue
                for k in range(2, len(c)):
                    if value(c[k]) is not False:
                        c[1], c[k] = c[k], c[1]
                        watches.setdefault(-c[1], []).append(i)
                        break
                else:
                    keep.append(i)
                    if value(c[0]) is False:
                        keep.extend(pending[pos + 1:])
                        watches.setdefault(lit, []).extend(keep)
                        return head, c
                    enqueue(c[0], i)
            watches.setdefault(lit, []).extend(keep)
        return head, None

    head = 0
    while True:
        head, conflict = propagate(head)
        if conflict is not None:
            if not trail_lim:
                return False
            seen, learnt, count = set(), [], 0
            lits, idx = conflict, len(trail) - 1
            while True:
                for l in lits:
                    if abs(l) in seen or level[abs(l)] == 0:
                        continue
                    seen.add(abs(l))
                    activity[abs(l)] += 1.0
                    if level[abs(l)] == len(trail_lim):
                        count += 1
                    else:
                        learnt.append(l)
                while abs(trail[idx]) not in seen:
                    idx -= 1
                uip = trail[idx]
                seen.discard(abs(uip))
                idx -= 1
                count -= 1
                if count == 0:
                    break
                lits = [l for l in clauses[reason[abs(uip)]] if l != uip]
            learnt.insert(0, -uip)
            back = max((level[abs(l)] for l in learnt[1:]), default=0)
            while len(trail_lim) > back:
                mark = trail_lim.pop()
                while len(trail) > mark:
                    v = abs(trail.pop())
                    del assign[v], level[v], reason[v]
            head = min(head, len(trail))
            if len(learnt) == 1:
                enqueue(learnt[0], None)
                continue
            k = max(range(1, len(learnt)), key=lambda j: level[abs(learnt[j])])
            learnt[1], learnt[k] = learnt[k], learnt[1]
            clauses.append(learnt)
            watches.setdefault(-learnt[0], []).append(len(clauses) - 1)
            watches.setdefault(-learnt[1], []).append(len(clauses) - 1)
            enqueue(learnt[0], len(clauses) - 1)
            continue
        free = [v for v in variables if v not in assign]
        if not free:
            return True
        trail_lim.append(len(trail))
        enqueue(max(free, key=activity.__getitem__), None)


def eliminated_to_empty(clauses):
    """Davis-Putnam variable elimination; True if it derives the empty
    clause, that is if the clauses are unsatisfiable."""
    cls = {frozenset(c) for c in clauses}
    for v in sorted({abs(l) for c in clauses for l in c}):
        pos = [c for c in cls if v in c]
        neg = [c for c in cls if -v in c]
        cls.difference_update(pos)
        cls.difference_update(neg)
        for a in pos:
            for b in neg:
                r = (a - {v}) | (b - {-v})
                if not r:
                    return True
                if not any(-l in r for l in r):
                    cls.add(r)
    return False


def random_3cnf(n_vars, n_clauses, seed):
    rng = random.Random(seed)
    return [[rng.choice((-1, 1)) * v for v in rng.sample(range(1, n_vars + 1),
                                                      3)]
            for _ in range(n_clauses)]


PHP = pigeonhole(6, 5)
CNF = random_3cnf(11, 44, 7)
CNF_SAT = satisfiable(CNF)


def reference_seconds():
    """Time one reference job; a wrong answer is an error of the host."""
    t0 = time.perf_counter()
    php_sat = satisfiable(PHP)
    cnf_unsat = eliminated_to_empty(CNF)
    dt = time.perf_counter() - t0
    if php_sat or cnf_unsat == CNF_SAT:
        raise RuntimeError("reference solvers gave a wrong answer")
    return dt
