"""Command-line surface: property checking, equivalence checking, a
standalone PQE solver, and independent witness verification.

Exit codes: 0 property holds / circuits equivalent, 1 fails / inequivalent,
2 no verdict within budgets, 3 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .cnf import Clause, evaluate, rename, variables
from .sat import implies
from .circuit import (CircuitError, parse_circuit, encode, stutter,
                      build_miter, simulate_lanes)
from .pqe import DEFAULT_BUDGET, PqeTask, take_out, PqeBudgetError
from .pclor import Checker, CheckerError
from .indclause import IcChecker


def _report(out, verdict, clause_counts, witness_path, seconds):
    """The run report; clause_counts holds |H_k| for k = 0..j after the
    last completed main-loop iteration, so j frames were used."""
    out.write("verdict: %s\n" % verdict)
    out.write("frames: %d\n" % max(len(clause_counts) - 1, 0))
    if clause_counts:
        out.write("clauses: %s\n" % " ".join(
            "H%d=%d" % (k, n) for k, n in enumerate(clause_counts)))
    if witness_path:
        out.write("witness: %s\n" % witness_path)
    out.write("time: %.3fs\n" % seconds)


def _positive_int(text):
    """A --max-frames or --pqe-budget value."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return int(text)


# ------------------------------------------------------------ witness files


def write_witness(path, ts, witness):
    with open(path, "w") as f:
        if witness.kind == "counterexample":
            f.write("counterexample\n")
            f.write("# inputs: %s\n" % " ".join(v.name for v in ts.input_vars))
            f.write("# state: %s\n" % " ".join(v.name for v in ts.state_vars))
            for i, (ins, st) in enumerate(witness.trace):
                ibits = ("-" if ins is None else
                         "".join("1" if ins[v.name] else "0"
                                 for v in ts.input_vars))
                sbits = "".join("1" if st[v.name] else "0"
                                for v in ts.state_vars) or "-"
                f.write("step %d: inputs %s state %s\n" % (i, ibits, sbits))
        else:
            f.write("invariant\n")
            idx = {}
            for n, v in enumerate(ts.state_vars, 1):
                idx[v.id] = n
                f.write("c var %d %s\n" % (n, v.name))
            clauses = witness.invariant
            f.write("p cnf %d %d\n" % (len(ts.state_vars), len(clauses)))
            for c in clauses:
                f.write(" ".join(str(idx[abs(l)] * (1 if l > 0 else -1))
                                 for l in c) + " 0\n")


def _read_witness(path):
    with open(path) as f:
        lines = [l.rstrip("\n") for l in f]
    if not lines:
        raise ValueError("empty witness file")
    return lines


def _header(lines, key):
    """Names on the first trace header line that starts with key."""
    return next((l[len(key):].split() for l in lines if l.startswith(key)), [])


def verify_trace(ts, lines, report):
    """Replay a counterexample trace.  After the kind line come the
    `# inputs:` and `# state:` headers, once each, step lines and blank
    lines.  The headers must name exactly the system's inputs and latches,
    so that no step leaves a latch free.

    One ``simulate_lanes`` of the circuit replays every step, step i in
    lane i-1.  A lane whose next state, or on a miter whose paired inputs,
    differ from the trace rejects its step; the lowest names the first."""
    headers = {}
    step_lines = []
    for lineno, l in enumerate(lines[1:], 2):
        if l.startswith("step "):
            step_lines.append((lineno, l))
        elif l.startswith(("# inputs:", "# state:")):
            key = l[:l.index(":") + 1]
            if key in headers:
                raise ValueError("line %d: second %r header" % (lineno, key))
            headers[key] = l[len(key):].split()
        elif l.strip():
            raise ValueError("line %d: not a header, step or blank line: %r"
                             % (lineno, l))
    input_names = headers.get("# inputs:", [])
    state_names = headers.get("# state:", [])
    for what, names, vs in (("inputs", input_names, ts.input_vars),
                            ("state", state_names, ts.state_vars)):
        want = sorted(v.name for v in vs)
        if sorted(names) != want:
            raise ValueError("trace header '# %s:' must name exactly: %s"
                             % (what, " ".join(want)))
    steps = []
    for lineno, l in step_lines:
        head, _, rest = l.partition(":")
        words = head.split() + rest.split()
        if len(words) != 6 or words[2] != "inputs" or words[4] != "state":
            raise ValueError("line %d: malformed trace line: %r" % (lineno, l))
        i, ibits, sbits = _integer(words[1], lineno), words[3], words[5]
        if ibits == "-":  # no inputs: step 0, or a system without any
            ibits = ""
        if sbits == "-":  # a system without latches
            sbits = ""
        if (len(ibits) != (len(input_names) if i else 0)
                or len(sbits) != len(state_names)
                or (ibits + sbits).strip("01")):
            raise ValueError("line %d: wrong bit strings in trace line: %r"
                             % (lineno, l))
        steps.append((i, ibits, sbits))
    if not steps:
        raise ValueError("trace has no steps")
    for k, ((lineno, _), (i, _, _)) in enumerate(zip(step_lines, steps)):
        if i != k:
            raise ValueError("line %d: trace steps are not consecutive"
                             % lineno)

    state_ids = [ts.table.get(n, 0).id for n in state_names]

    def assignment(bits):
        return {v: b == "1" for v, b in zip(state_ids, bits)}

    if evaluate(ts.init, assignment(steps[0][2])) is not True:
        report("step 0: state is not initial")
        return False

    def masks(names, rows):
        """Each name's mask of the lanes where its bit is 1; the rows run
        from the last step to the first, so that bit i-1 is step i."""
        cols = dict.fromkeys(names, 0)
        cols.update((n, int("".join(c), 2)) for n, c in zip(names, zip(*rows)))
        return cols

    cur = masks(state_names, [s for _, _, s in steps[-2::-1]])
    cur.update(masks(input_names, [b for _, b, _ in steps[:0:-1]]))
    nxt = masks(state_names, [s for _, _, s in steps[:0:-1]])
    sim = simulate_lanes(ts.circuit, cur, (1 << (len(steps) - 1)) - 1)
    wrong = 0
    for name in state_names:
        wrong |= sim[name] ^ nxt[name]
    for a, b in ts.circuit.eq_input_pairs:  # the interface clauses of T
        wrong |= cur[a] ^ cur[b]
    if wrong:
        report("step %d: not a transition of the system"
               % (wrong & -wrong).bit_length())
        return False
    if evaluate(ts.prop, assignment(steps[-1][2])) is not False:
        report("final state does not violate the property")
        return False
    return True


def _integer(word, lineno):
    try:
        return int(word)
    except ValueError:
        raise ValueError("line %d: %r is not an integer" % (lineno, word)) \
            from None


def _zero_ended(words, lineno, what="a clause"):
    """The integers of a DIMACS line that ends in its only 0, without it."""
    nums = [_integer(x, lineno) for x in words]
    if not nums or nums[-1] != 0 or 0 in nums[:-1]:
        raise ValueError("line %d: %s must end in its only 0" % (lineno, what))
    return nums[:-1]


def verify_invariant(ts, lines, report):
    """Check an invariant over the latches that its `c var <n> <latch>`
    lines name: each positive n names one latch, and each latch has one n.
    An optional `p` line must read `p cnf <c var lines> <clause lines>`.
    A malformed line raises ValueError naming the line."""
    latches = {v.name: v.id for v in ts.state_vars}
    ids = {}
    named = set()
    clauses = []
    header = None
    for lineno, l in enumerate(lines[1:], 2):
        words = l.split()
        if not words:
            continue
        if words[0] == "p":
            if header is not None:
                raise ValueError("line %d: second `p` line" % lineno)
            header = lineno, words
            continue
        if words[0] == "c":
            if words[1:2] == ["var"]:
                if len(words) != 4:
                    raise ValueError("line %d: a `c var` line must read "
                                     "`c var <n> <latch>`" % lineno)
                n, name = _integer(words[2], lineno), words[3]
                if n < 1:
                    raise ValueError("line %d: variable %d is not positive"
                                     % (lineno, n))
                if n in ids:
                    raise ValueError("line %d: variable %d named twice"
                                     % (lineno, n))
                if name not in latches:
                    raise ValueError("line %d: %r is not a latch"
                                     % (lineno, name))
                if latches[name] in named:
                    raise ValueError("line %d: latch %r named twice"
                                     % (lineno, name))
                ids[n] = latches[name]
                named.add(ids[n])
            continue
        clauses.append((lineno, _zero_ended(words, lineno)))
    want = ["p", "cnf", str(len(ids)), str(len(clauses))]
    if header is not None and header[1] != want:
        raise ValueError("line %d: the `p` line must read %r"
                         % (header[0], " ".join(want)))
    for lineno, lits in clauses:
        for l in lits:
            if abs(l) not in ids:
                raise ValueError("line %d: no `c var` line names variable %d"
                                 % (lineno, abs(l)))
            if -l in lits:
                raise ValueError("line %d: tautological clause" % lineno)
    inv = rename([lits for _, lits in clauses], ids)
    if not implies(ts.init, inv):
        report("condition 1: initial states do not satisfy the invariant")
        return False
    if not implies(inv, ts.prop):
        report("condition 2: invariant does not imply the property")
        return False
    if not implies(inv + ts.trans, rename(inv, ts.next)):
        report("condition 3: invariant is not inductive")
        return False
    return True


# ------------------------------------------------------------ PQE DIMACS


def parse_pqe_dimacs(text):
    """A PQE task from extended DIMACS; a malformed line raises ValueError
    naming it.  The clauses of A come before the one `%` line, those of B
    after it.  Blank lines and lines whose first word is `c` are skipped."""
    w = set()
    a, b = [], []
    section = a
    header = None
    used = []   # (line, variable) for each variable of a w or clause line
    for lineno, line in enumerate(text.splitlines(), 1):
        words = line.split()
        if not words or words[0] == "c":
            continue
        if words[0] == "p":
            if header is not None:
                raise ValueError("line %d: second `p` line" % lineno)
            if len(words) != 5 or words[1] != "pqe":
                raise ValueError("line %d: expected header "
                                 "'p pqe <vars> <A> <B>'" % lineno)
            header = lineno, [_integer(x, lineno) for x in words[2:]]
        elif words[0] == "w":  # variables, not literals
            ids = _zero_ended(words[1:], lineno, "a w line")
            w.update(ids)
            used += [(lineno, v) for v in ids]
        elif words == ["%"]:
            if section is b:
                raise ValueError("line %d: second `%%` line" % lineno)
            section = b
        else:
            lits = _zero_ended(words, lineno)
            if any(-l in lits for l in lits):
                raise ValueError("line %d: tautological clause" % lineno)
            section.append(Clause(lits))
            used += [(lineno, abs(l)) for l in lits]
    if header is None:
        raise ValueError("missing 'p pqe' header")
    header_line, (n, n_a, n_b) = header
    if n_a != len(a) or n_b != len(b):
        raise ValueError("line %d: header clause counts do not match body"
                         % header_line)
    for lineno, v in used:
        if not 0 < v <= n:
            raise ValueError("line %d: variable %d is not in 1..%d"
                             % (lineno, v, n))
    return PqeTask(w, a, b)


# ------------------------------------------------------------- commands


def _check_circuit(args, load, default_path, answers, out, err):
    """Shared body of check and sec: encode the circuit `load` returns, add
    stuttering, run the engine, write the witness and print the report.
    `answers` (sec only) holds the line printed before the report when the
    property holds and when it fails."""
    t0 = time.time()
    try:
        ts = encode(stutter(load()))
    except (OSError, CircuitError, UnicodeDecodeError) as e:
        err.write("error: %s\n" % e)
        return 3
    clause_counts = []

    def hook(chain):
        clause_counts[:] = [len(h) for h in chain.h]
    engine = IcChecker if args.engine == "lor-ic" else Checker
    try:
        witness = engine(ts, max_frames=args.max_frames,
                         pqe_budget=args.pqe_budget, iter_hook=hook).run()
    except CheckerError as e:
        err.write("no verdict: %s\n" % e)
        _report(out, "unknown", [], None, time.time() - t0)
        return 2
    path = args.witness or default_path
    try:
        write_witness(path, ts, witness)
    except OSError as e:
        err.write("error: %s\n" % e)
        return 3
    holds = witness.kind == "invariant"
    if answers:
        out.write(answers[0 if holds else 1] + "\n")
    _report(out, "holds" if holds else "fails", clause_counts, path,
            time.time() - t0)
    return 0 if holds else 1


def _read_circuit(path):
    with open(path) as f:
        return parse_circuit(f.read())


def cmd_check(args, out, err):
    return _check_circuit(args, lambda: _read_circuit(args.file),
                          args.file + ".witness", None, out, err)


def cmd_sec(args, out, err):
    return _check_circuit(
        args, lambda: build_miter(_read_circuit(args.file_n),
                                  _read_circuit(args.file_k)),
        args.file_n + ".sec.witness", ("equivalent", "inequivalent"),
        out, err)


def cmd_pqe(args, out, err):
    try:
        with open(args.file) as f:
            task = parse_pqe_dimacs(f.read())
    except (OSError, ValueError) as e:
        err.write("error: %s\n" % e)
        return 3
    # a solver takes room for its largest id, so take_out gets the task's
    # ids renumbered 1..n; ascending order keeps every answer the same
    ids = sorted(task.w | variables(task.a) | variables(task.b))
    dense = {v: i for i, v in enumerate(ids, 1)}
    renamed = PqeTask({dense[v] for v in task.w}, rename(task.a, dense),
                      rename(task.b, dense))
    try:
        a_star = rename(take_out(renamed, budget=args.pqe_budget),
                        dict(enumerate(ids, 1)))
    except PqeBudgetError:
        err.write("no answer within budget\n")
        return 2
    for c in a_star:
        out.write(" ".join(str(l) for l in c) + " 0\n")
    if args.verify:
        from .qe_oracle import check_pqe, OracleBudgetError
        try:
            ok = check_pqe(task.w, task.a, task.b, a_star)
        except OracleBudgetError:
            err.write("task too large for the verification oracle\n")
            return 0
        if not ok:
            err.write("verification FAILED\n")
            return 1
        err.write("verified\n")
    return 0


def cmd_verify_witness(args, out, err):
    try:
        circ = _read_circuit(args.circuit)
        if args.miter_with:
            circ = build_miter(circ, _read_circuit(args.miter_with))
        lines = _read_witness(args.witness_file)
        kind = lines[0].strip()
        # the emitting run may have added a stuttering input
        if (kind == "counterexample"
                and set(_header(lines, "# inputs:")) - set(circ.inputs)):
            circ = stutter(circ)
        ts = encode(circ)
    except (OSError, CircuitError, ValueError) as e:
        err.write("error: %s\n" % e)
        return 3
    try:
        if kind == "counterexample":
            ok = verify_trace(ts, lines, lambda m: err.write(m + "\n"))
        elif kind == "invariant":
            ok = verify_invariant(ts, lines, lambda m: err.write(m + "\n"))
        else:
            err.write("error: unknown witness kind %r\n" % kind)
            return 3
    except (ValueError, KeyError) as e:
        err.write("error: malformed witness: %s\n" % e)
        return 3
    out.write("witness %s\n" % ("accepted" if ok else "rejected"))
    return 0 if ok else 1


# ------------------------------------------------------------------ main


def _add_engine_flags(p):
    p.add_argument("--engine", choices=["lor", "lor-ic"])
    p.add_argument("--max-frames", type=_positive_int, default=None)
    p.add_argument("--pqe-budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--witness", default=None, help="witness output path")


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(prog="lorcheck",
                                 description="Safety-property model checker "
                                 "based on logic relaxation")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="check a circuit's safety property")
    p.add_argument("file")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_check, engine="lor")

    p = sub.add_parser("sec", help="sequential equivalence check")
    p.add_argument("file_n")
    p.add_argument("file_k")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_sec, engine="lor-ic")

    p = sub.add_parser("pqe", help="solve a partial-quantifier-elimination task")
    p.add_argument("file")
    p.add_argument("--pqe-budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_pqe)

    p = sub.add_parser("verify-witness", help="independently check a witness")
    p.add_argument("circuit")
    p.add_argument("witness_file")
    p.add_argument("--miter-with", default=None,
                   help="second circuit when the witness is for a miter")
    p.set_defaults(fn=cmd_verify_witness)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # --help, or a usage error: malformed input
        return 3 if e.code else 0
    return args.fn(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
