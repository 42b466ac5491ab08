"""Per-module tracing of lorcheck from outside the program.

``Tracer.install`` replaces public functions and methods of each lorcheck
module by wrappers that record a span (name, start, end, parent) and a few
counts.  Modules bind names with ``from .sat import solve`` and the like, so
every module-level binding of a wrapped function is replaced, not only the
defining one.  ``uninstall`` restores every binding.  Spans stay in memory
until ``dump``.

A span's self time is its duration minus the durations of its direct
children, so nested calls of one phase (``IcChecker.fin_rlx`` calling
``Checker.fin_rlx`` through ``super()``) are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from lorcheck import (boundary, circuit, cli, indclause, pclor, pqe,
                      qe_oracle, sat)

# Time metrics: summed self time of the spans of one name.
SELF_TIME = {
    "circuit.parse_s": "circuit.parse",
    "circuit.encode_s": "circuit.encode",
    "circuit.build_miter_s": "circuit.build_miter",
    "sat.init_s": "sat.init",
    "sat.solve_s": "sat.solve",
    "sat.max_relax_s": "sat.max_relax",
    "pqe.s": "pqe.take_out",
    "boundary.makeup_s": "boundary.makeup",
    "boundary.detect_invariant_s": "boundary.detect_invariant",
    "pclor.rem_bad_st_s": "pclor.rem_bad_st",
    "pclor.fin_rlx_s": "pclor.fin_rlx",
    "pclor.third_co_cond_s": "pclor.third_co_cond",
    "pclor.fin_touch_s": "pclor.fin_touch",
    "pclor.convert_cex_s": "pclor.convert_cex",
    "indclause.generalize_s": "indclause.generalize",
    "indclause.seed_s": "indclause.seed",
    "cli.write_witness_s": "cli.write_witness",
    "cli.verify_trace_s": "cli.verify_trace",
    "cli.verify_invariant_s": "cli.verify_invariant",
}

# Count metrics: number of spans of one name.
CALLS = {
    "circuit.encode_calls": "circuit.encode",
    "sat.solvers": "sat.init",
    "sat.solve_calls": "sat.solve",
    "sat.implies_calls": "sat.implies",
    "sat.max_relax_calls": "sat.max_relax",
    "pqe.calls": "pqe.take_out",
    "boundary.makeup_calls": "boundary.makeup",
    "boundary.implied_calls": "boundary.implied",
    "pclor.select_relaxation_calls": "pclor.select_relaxation",
    "indclause.generalize_calls": "indclause.generalize",
}

# Count metrics the hooks below add up.
TALLIES = ("circuit.prop_clauses", "circuit.trans_clauses", "sat.learnts",
           "pqe.task_clauses_sum", "pqe.task_clauses_max", "pqe.w_vars_sum",
           "pqe.answer_clauses", "pqe.fallbacks", "pclor.frames",
           "pclor.h_clauses", "pclor.relaxed_clauses",
           "indclause.seed_clauses", "cli.witness_clauses")

# Ratio metrics: (numerator tally, denominator span name).
RATIOS = {
    "sat.sat_frac": ("sat.sat_results", "sat.solve"),
    "boundary.implied_cache_hit_frac": ("boundary.implied_hits",
                                        "boundary.implied"),
    "indclause.cti_frac": ("indclause.ctis",
                           "indclause.make_inductive_clause"),
}

UNITS = {}
UNITS.update((k, "s") for k in SELF_TIME)
UNITS.update((k, "count") for k in list(CALLS) + list(TALLIES))
UNITS.update((k, "ratio") for k in RATIOS)


# Hooks.  A before hook sees the call's positional arguments and returns a
# value for the after hook; the after hook also runs when the call raises,
# with result None.


def _chain_after(tr, args, result, pre):
    chain = args[0].chain
    tr.tally["pclor.frames"] += chain.j
    tr.tally["pclor.h_clauses"] += sum(len(h) for h in chain.h)
    tr.tally["pclor.relaxed_clauses"] += sum(len(r) for r in chain.removed)


def _solve_before(tr, args):
    return len(args[0].clauses)


def _solve_after(tr, args, result, pre):
    tr.tally["sat.learnts"] += len(args[0].clauses) - pre
    tr.tally["sat.sat_results"] += bool(result)


def _take_out_before(tr, args):
    task = args[0]
    size = len(task.a) + len(task.b)
    tr.tally["pqe.task_clauses_sum"] += size
    tr.tally["pqe.task_clauses_max"] = max(tr.tally["pqe.task_clauses_max"],
                                           size)
    tr.tally["pqe.w_vars_sum"] += len(task.w)


def _fallback_before(tr, args):
    if tr.stack and tr.spans[tr.stack[-1]][0] == "pqe.take_out":
        tr.tally["pqe.fallbacks"] += 1


def _implied_before(tr, args):
    chain, m, clause = args
    tr.tally["boundary.implied_hits"] += (clause.lits, m) in chain.implied_marks


def _witness_after(tr, args, result, pre):
    if args[2].invariant is not None:
        tr.tally["cli.witness_clauses"] += len(args[2].invariant)


def _verify_invariant_before(tr, args):
    words = (l.split() for l in args[1][1:])
    tr.tally["cli.witness_clauses"] += sum(1 for w in words
                                           if w and w[0] not in ("c", "p"))


def _tally_len(key):
    def after(tr, args, result, pre):
        if result is not None:
            tr.tally[key] += len(result)
    return after


def _cti_after(tr, args, result, pre):
    tr.tally["indclause.ctis"] += isinstance(result, indclause.Cti)


def _encode_after(tr, args, result, pre):
    if result is not None:
        tr.tally["circuit.trans_clauses"] += len(result.trans)


# (owner, attribute, span name, before hook, after hook)
TARGETS = [
    (circuit, "parse_circuit", "circuit.parse", None, None),
    (circuit, "encode", "circuit.encode", None, _encode_after),
    (circuit, "build_miter", "circuit.build_miter", None, None),
    (circuit, "compile_state_predicate", "circuit.compile_prop", None,
     _tally_len("circuit.prop_clauses")),
    (sat.Solver, "__init__", "sat.init", None, None),
    (sat.Solver, "solve", "sat.solve", _solve_before, _solve_after),
    (sat, "implies", "sat.implies", None, None),
    (sat, "max_relax_solve", "sat.max_relax", None, None),
    (pqe, "take_out", "pqe.take_out", _take_out_before,
     _tally_len("pqe.answer_clauses")),
    (qe_oracle, "qe_bruteforce", "pqe.fallback", _fallback_before, None),
    (boundary, "makeup_clauses", "boundary.makeup", None, None),
    (boundary, "clause_implied", "boundary.implied", _implied_before, None),
    (boundary, "detect_invariant", "boundary.detect_invariant", None, None),
    (pclor.Checker, "run", "pclor.run", None, _chain_after),
    (pclor.Checker, "rem_bad_st", "pclor.rem_bad_st", None, None),
    (pclor.Checker, "fin_rlx", "pclor.fin_rlx", None, None),
    (indclause.IcChecker, "fin_rlx", "pclor.fin_rlx", None, None),
    (pclor.Checker, "third_co_cond", "pclor.third_co_cond", None, None),
    (pclor.Checker, "fin_touch", "pclor.fin_touch", None, None),
    (pclor.Checker, "convert_cex", "pclor.convert_cex", None, None),
    (pclor.Checker, "select_relaxation", "pclor.select_relaxation", None,
     None),
    (indclause, "generalize", "indclause.generalize", None, None),
    (indclause, "make_inductive_clause", "indclause.make_inductive_clause",
     None, _cti_after),
    (indclause, "educat_guess_rlx", "indclause.seed", None,
     _tally_len("indclause.seed_clauses")),
    (cli, "write_witness", "cli.write_witness", None, _witness_after),
    (cli, "verify_trace", "cli.verify_trace", None, None),
    (cli, "verify_invariant", "cli.verify_invariant",
     _verify_invariant_before, None),
]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.calls = Counter()   # span name -> number of spans
        self.tally = Counter()   # counts added up by the hooks
        self.requests = []       # (index of first span, instance name)
        self._saved = []         # (owner, attribute, original)

    def begin(self, request):
        """Label the spans that follow with the instance they serve."""
        self.requests.append((len(self.spans), request))

    def _wrap(self, fn, name, before, after):
        tr, spans, stack, clock = self, self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            tr.calls[name] += 1
            pre = before(tr, args) if before else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kw)
                return result
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if after:
                    after(tr, args, result, pre)
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "lorcheck" or n.startswith("lorcheck.")]
        for owner, attr, name, before, after in TARGETS:
            fn = owner.__dict__[attr]
            w = self._wrap(fn, name, before, after)
            if isinstance(owner, type):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, w)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, w)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_times(self):
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += t1 - t0 - c
        return out

    def metrics(self):
        """Every metric of UNITS, from this tracer's spans and tallies."""
        st = self.self_times()
        out = {k: st[name] for k, name in SELF_TIME.items()}
        out.update((k, self.calls[name]) for k, name in CALLS.items())
        out.update((k, self.tally[k]) for k in TALLIES)
        for k, (num, den) in RATIOS.items():
            out[k] = self.tally[num] / max(1, self.calls[den])
        return out

    def dump(self, path, label):
        """Append this tracer's spans to a JSON-lines file."""
        bounds = [i for i, _ in self.requests[1:]] + [len(self.spans)]
        with open(path, "a") as f:
            for (first, request), end in zip(self.requests, bounds):
                for i in range(first, end):
                    name, t0, t1, parent = self.spans[i]
                    f.write(json.dumps({
                        "pass": label, "request": request, "id": i,
                        "name": name, "start": t0, "end": t1,
                        "parent": parent}) + "\n")
