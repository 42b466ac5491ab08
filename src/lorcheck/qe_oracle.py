"""Brute-force ground-truth oracles: complete quantifier elimination, PQE
answer checking, exact reachability, boundary-formula verification.

Everything here enumerates.  Budgets are hard errors: a silently truncated
oracle would be worse than none.  Independence matters: reachability works on
the gate level via simulation, not through the CNF encoding it validates.
"""

from __future__ import annotations

import itertools

from .cnf import evaluate, longest_falsified_clause, variables
from .circuit import simulate


class OracleBudgetError(Exception):
    pass


def all_assignments(var_ids):
    var_ids = sorted(var_ids)
    for bits in itertools.product([False, True], repeat=len(var_ids)):
        yield dict(zip(var_ids, bits))


def _exists(f, v_assign, w_ids):
    for w in all_assignments(w_ids):
        a = dict(v_assign)
        a.update(w)
        if evaluate(f, a) is True:
            return True
    return False


def qe_bruteforce(w_ids, f):
    """∃W[f] as a canonical CNF: one longest-falsified clause per excluded
    point of V = vars(f) \\ W."""
    w_ids = set(w_ids)
    all_vars = variables(f)
    if len(all_vars) > 24:
        raise OracleBudgetError("qe_bruteforce: %d vars exceeds budget" % len(all_vars))
    v_ids = sorted(all_vars - w_ids)
    w_used = sorted(all_vars & w_ids)
    clauses = []
    for v in all_assignments(v_ids):
        if not _exists(f, v, w_used):
            clauses.append(longest_falsified_clause(v))
    return clauses


def check_pqe(w_ids, a, b, a_star):
    """Does a_star ∧ ∃W[b] ≡ ∃W[a ∧ b] hold on every free-variable point?"""
    w_ids = set(w_ids)
    for c in a_star:
        bad = c.variables() & w_ids
        if bad:
            raise ValueError("A* mentions quantified variable %s" % sorted(bad))
    all_vars = variables(a) | variables(b) | variables(a_star)
    if len(all_vars) > 24:
        raise OracleBudgetError("check_pqe: %d vars exceeds budget" % len(all_vars))
    v_ids = sorted(all_vars - w_ids)
    w_used = sorted(all_vars & w_ids)
    ab = a + b
    for v in all_assignments(v_ids):
        lhs = evaluate(a_star, v) is True and _exists(b, v, w_used)
        rhs = _exists(ab, v, w_used)
        if lhs != rhs:
            return False
    return True


# ------------------------------------------------------------ reachability


def initial_states(ts):
    """All initial states as tuples of bools in latch order."""
    fixed = []
    free_pos = []
    for i, l in enumerate(ts.circuit.latches):
        fixed.append(l.init)
        if l.init is None:
            free_pos.append(i)
    # miter construction may add equality pairs to I
    pairs = [(ts.circuit.latch_names().index(a), ts.circuit.latch_names().index(b))
             for a, b in ts.circuit.state_pairs]
    out = set()
    for bits in itertools.product([False, True], repeat=len(free_pos)):
        s = list(fixed)
        for pos, bval in zip(free_pos, bits):
            s[pos] = bval
        if all(s[i] == s[j] for i, j in pairs):
            out.add(tuple(s))
    return out


def reach_bruteforce(ts, j):
    """States reachable within j transitions, by gate-level simulation."""
    n_s = len(ts.state_vars)
    n_x = len(ts.input_vars)
    if n_s > 16 or n_s + n_x > 20:
        raise OracleBudgetError("reach_bruteforce: state/input space too large")
    latch_names = ts.circuit.latch_names()
    input_names = [v.name for v in ts.input_vars]
    # miter input-equality constraints live in the CNF, not in the gates
    eq_pairs = [(input_names.index(a), input_names.index(b))
                for a, b in ts.circuit.eq_input_pairs]
    reach = set(initial_states(ts))
    frontier = set(reach)
    for _ in range(j):
        nxt = set()
        for s in frontier:
            state = dict(zip(latch_names, s))
            for xbits in itertools.product([False, True], repeat=n_x):
                if any(xbits[a] != xbits[b] for a, b in eq_pairs):
                    continue
                _, ns = simulate(ts.circuit, state, dict(zip(input_names, xbits)))
                t = tuple(ns[n] for n in latch_names)
                if t not in reach:
                    nxt.add(t)
        if not nxt:
            break
        reach |= nxt
        frontier = nxt
    return reach


def _project_models(clauses, fixed, project_ids, budget=1 << 21):
    """Projections onto project_ids of all models extending `fixed`.

    Backtracking enumeration with unit propagation; independent of the
    production SAT engine on purpose."""
    project_ids = sorted(project_ids)
    results = set()
    nodes = [0]

    def rec(assign):
        nodes[0] += 1
        if nodes[0] > budget:
            raise OracleBudgetError("model projection budget exceeded")
        # propagate units
        local = dict(assign)
        while True:
            unit = None
            for c in clauses:
                unassigned = None
                sat = False
                nfree = 0
                for l in c:
                    val = local.get(abs(l))
                    if val is None:
                        nfree += 1
                        unassigned = l
                    elif val == (l > 0):
                        sat = True
                        break
                if sat:
                    continue
                if nfree == 0:
                    return
                if nfree == 1:
                    unit = unassigned
                    break
            if unit is None:
                break
            local[abs(unit)] = unit > 0
        # pick a branching variable from an unresolved clause
        branch = None
        for c in clauses:
            sat = any(local.get(abs(l)) == (l > 0) for l in c)
            if sat:
                continue
            for l in c:
                if abs(l) not in local:
                    branch = abs(l)
                    break
            if branch:
                break
        if branch is None:
            # formula satisfied; unassigned projection vars are free
            free = [v for v in project_ids if v not in local]
            for bits in itertools.product([False, True], repeat=len(free)):
                full = dict(local)
                full.update(zip(free, bits))
                results.add(tuple(full[v] for v in project_ids))
            return
        for val in (False, True):
            local2 = dict(local)
            local2[branch] = val
            rec(local2)

    rec(dict(fixed))
    return results


def image_under(ts, trlx, states):
    """One-step image of a state set under a (possibly relaxed) transition
    CNF over canonical frames 0 and 1."""
    latch_ids0 = ts.state_ids(0)
    latch_ids1 = ts.state_ids(1)
    out = set()
    for s in states:
        fixed = dict(zip(latch_ids0, s))
        out |= _project_models(list(trlx), fixed, latch_ids1)
    return out


def verify_boundary(h_j, ts, trlx, j):
    """Definition-5 check: h_j is 1 on Reach(j), 0 on Reach_rlx(j)\\Reach(j),
    where the relaxed system keeps the original relation on frames before
    j-1 and uses the CNF trlx (canonical frames 0 and 1) on the last
    transition."""
    latch_ids = ts.state_ids(0)
    reach_j = reach_bruteforce(ts, j)
    if j == 0:
        rlx_j = set(reach_j)
    else:
        prev = reach_bruteforce(ts, j - 1)
        rlx_j = prev | image_under(ts, trlx, prev)
    for s in sorted(reach_j):
        if evaluate(h_j, dict(zip(latch_ids, s))) is not True:
            return False
    for s in sorted(rlx_j - reach_j):
        if evaluate(h_j, dict(zip(latch_ids, s))) is not False:
            return False
    return True
