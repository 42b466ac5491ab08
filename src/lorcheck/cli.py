"""Command-line surface: property checking, equivalence checking, a
standalone PQE solver, and independent witness verification.

Exit codes: 0 property holds / circuits equivalent, 1 fails / inequivalent,
2 no verdict within budgets, 3 malformed input.
"""

from __future__ import annotations

import argparse
import sys
import time

from .cnf import Cnf, Clause, evaluate, rename
from .sat import Solver, implies, propagate_lanes
from .circuit import CircuitError, parse_circuit, encode, stutter, build_miter
from .pqe import DEFAULT_BUDGET, PqeTask, take_out, PqeBudgetError
from .pclor import pc_lor, Options, CheckerError
from .indclause import pc_lor_ic
from .boundary import check_co


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
            clauses = list(witness.invariant)
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

    One ``propagate_lanes`` over T replays every step, step i in lane i-1.
    The steps are then walked in order: a lane that conflicts rejects its
    step, and a lane that propagation leaves open is decided by a solve."""
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
            raise ValueError("malformed trace line: %r" % l)
        i, ibits, sbits = _integer(words[1], lineno), words[3], words[5]
        if ibits == "-":  # no inputs: step 0, or a system without any
            ibits = ""
        if sbits == "-":  # a system without latches
            sbits = ""
        if (len(ibits) != (len(input_names) if i else 0)
                or len(sbits) != len(state_names)
                or (ibits + sbits).strip("01")):
            raise ValueError("wrong bit strings in trace line: %r" % l)
        steps.append((i, ibits, sbits))
    if not steps:
        raise ValueError("trace has no steps")
    if [i for i, _, _ in steps] != list(range(len(steps))):
        raise ValueError("trace steps are not consecutive")

    state_ids = [ts.table.get(n, 0).id for n in state_names]
    next_ids = [ts.next[v] for v in state_ids]
    input_ids = [ts.table.get(n, 0).id for n in input_names]

    def lits(ids, bits):
        return [v if b == "1" else -v for v, b in zip(ids, bits)]

    def assignment(bits):
        return {abs(l): l > 0 for l in lits(state_ids, bits)}

    if evaluate(ts.init, assignment(steps[0][2])) is not True:
        report("step 0: state is not initial")
        return False
    # one mask per column of bits, the last step first, so that bit i-1
    # of a column is its bit in step i
    every = (1 << (len(steps) - 1)) - 1
    lanes = {}
    for ids, rows in ((state_ids, [s for _, _, s in steps[-2::-1]]),
                      (input_ids, [b for _, b, _ in steps[:0:-1]]),
                      (next_ids, [s for _, _, s in steps[:0:-1]])):
        for v, column in zip(ids, zip(*rows)):
            true = int("".join(column), 2)
            lanes[v] = (true, every ^ true)
    conflict, full = propagate_lanes(ts.trans, lanes)
    bad = (conflict & -conflict).bit_length()  # the first refuted step, or 0
    open_lanes = every & ~(conflict | full)
    if bad:
        open_lanes &= (1 << (bad - 1)) - 1
    trans = None
    while open_lanes:
        i = (open_lanes & -open_lanes).bit_length()
        open_lanes &= open_lanes - 1
        if trans is None:
            trans = Solver(ts.trans)
        if not trans.solve(lits(state_ids, steps[i - 1][2])
                           + lits(input_ids, steps[i][1])
                           + lits(next_ids, steps[i][2])):
            bad = i
            break
    if bad:
        report("step %d: not a transition of the system" % bad)
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


def verify_invariant(ts, lines, report):
    """Check an invariant over the latches that its `c var` lines name:
    each positive number names one latch, and each latch has one number.
    A malformed line raises ValueError naming the line."""
    latches = {v.name: v.id for v in ts.state_vars}
    ids = {}
    named = set()
    clauses = []
    for lineno, l in enumerate(lines[1:], 2):
        words = l.split()
        if not words or words[0] == "p":
            continue
        if words[0] == "c":
            if len(words) == 4 and words[1] == "var":
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
        lits = [_integer(x, lineno) for x in words]
        if lits[-1] != 0 or 0 in lits[:-1]:
            raise ValueError("line %d: a clause must end in its only 0"
                             % lineno)
        clauses.append((lineno, lits[:-1]))
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
    w = set()
    a, b = [], []
    section = a
    header = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p "):
            words = line.split()
            if len(words) != 5 or words[1] != "pqe":
                raise ValueError("expected header 'p pqe <vars> <A> <B>'")
            header = tuple(int(x) for x in words[2:])
            continue
        if line.startswith("w "):
            ids = [int(x) for x in line.split()[1:]]
            if not ids or ids[-1] != 0:
                raise ValueError("w line must end in 0")
            w.update(ids[:-1])
            continue
        if line == "%":
            section = b
            continue
        lits = [int(x) for x in line.split()]
        if not lits or lits[-1] != 0:
            raise ValueError("clause line must end in 0: %r" % raw)
        section.append(Clause(tuple(lits[:-1])))
    if header is None:
        raise ValueError("missing 'p pqe' header")
    if header[1] != len(a) or header[2] != len(b):
        raise ValueError("header clause counts do not match body")
    bad = [v for v in w | Cnf(a + b).variables() if not 0 < v <= header[0]]
    if bad:
        raise ValueError("variable %d is not in 1..%d" % (min(bad), header[0]))
    return PqeTask(w, Cnf(a), Cnf(b))


# ------------------------------------------------------------- commands


def _oracle_hook(ts, out):
    from .qe_oracle import verify_boundary, OracleBudgetError

    def hook(chain):
        failures = check_co(chain)
        if failures:
            raise CheckerError("oracle check: CO conditions failed: %s"
                               % failures)
        for k in range(1, chain.j + 1):
            try:
                ok = verify_boundary(chain.h_cnf(k), ts,
                                     chain.trlx_cnf(k - 1), k)
            except OracleBudgetError:
                out.write("oracle check: H_%d too large to enumerate\n" % k)
                continue
            if not ok:
                raise CheckerError("oracle check: H_%d is not a boundary "
                                   "formula" % k)
    return hook


def _run_engine(ts, args, err):
    oracle = _oracle_hook(ts, err) if args.oracle_check else None
    clause_counts = []

    def hook(chain):
        clause_counts[:] = [len(h) for h in chain.h]
        if oracle:
            oracle(chain)
    opts = Options(max_frames=args.max_frames, pqe_budget=args.pqe_budget,
                   iter_hook=hook)
    engine = pc_lor_ic if args.engine == "lor-ic" else pc_lor
    try:
        witness = engine(ts, opts)
    except PqeBudgetError as e:
        raise CheckerError("PQE budget of %d points exhausted (--pqe-budget)"
                           " at frame %d" % (args.pqe_budget, e.frame)) from None
    return witness, clause_counts


def _check_circuit(args, load, default_path, answers, out, err):
    """Shared body of check and sec: encode the circuit `load` returns, add
    stuttering, run the engine, write the witness and print the report.
    `answers` (sec only) holds the line printed before the report when the
    property holds and when it fails."""
    out = out or sys.stdout
    err = err or sys.stderr
    t0 = time.time()
    try:
        ts = encode(stutter(load()))
    except (OSError, CircuitError, UnicodeDecodeError) as e:
        err.write("error: %s\n" % e)
        return 3
    try:
        witness, clause_counts = _run_engine(ts, args, err)
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


def cmd_check(args, out=None, err=None):
    return _check_circuit(args, lambda: _read_circuit(args.file),
                          args.file + ".witness", None, out, err)


def cmd_sec(args, out=None, err=None):
    return _check_circuit(
        args, lambda: build_miter(_read_circuit(args.file_n),
                                  _read_circuit(args.file_k)),
        args.file_n + ".sec.witness", ("equivalent", "inequivalent"),
        out, err)


def cmd_pqe(args, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        with open(args.file) as f:
            task = parse_pqe_dimacs(f.read())
    except (OSError, ValueError) as e:
        err.write("error: %s\n" % e)
        return 3
    # a solver takes room for its largest id, so take_out gets the task's
    # ids renumbered 1..n; ascending order keeps every answer the same
    ids = sorted(task.w | task.a.variables() | task.b.variables())
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


def cmd_verify_witness(args, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
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
    p.add_argument("--oracle-check", action="store_true",
                   help="double-check every frame against enumeration oracles")


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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
