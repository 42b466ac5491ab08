"""Circuit front-end: SCIRC parsing, Tseitin encoding to a transition
relation over the current and the next state, stuttering, miter
construction."""

from __future__ import annotations

import functools
import itertools

from .cnf import Clause, VarTable, variables

# Expressions are nested tuples:
#   ('var', name) ('const', 0|1) ('not', e) ('and', a, b) ('or', a, b) ('xor', a, b)


class CircuitError(Exception):
    pass


class Latch:
    __slots__ = ("name", "init", "next")

    def __init__(self, name, init, next_expr):
        self.name = name
        self.init = init  # True / False / None (free)
        self.next = next_expr


class Circuit:
    def __init__(self):
        self.inputs = []
        self.latches = []
        self.signals = {}        # name -> expr, in declaration order
        self.outputs = {}        # name -> expr, in declaration order
        self.prop = None         # expr, or None
        # miter bookkeeping
        self.miter = False         # built by build_miter
        self.eq_input_pairs = []   # [(name_n, name_k)] constrained equal in T
        self.state_pairs = []      # [(latch_n, latch_k)] equal in I
        self.stutter_input = None  # name of the stuttering input, if added

    def latch_names(self):
        return [l.name for l in self.latches]

    def declared(self):
        names = set(self.inputs)
        names.update(self.latch_names())
        names.update(self.signals)
        names.update(self.outputs)
        return names


# ---------------------------------------------------------------- parsing

_KEYWORDS = {"NOT", "AND", "OR", "XOR"}

# Deepest nesting of '(' and NOT in one expression: the passes over an
# expression recurse once or twice per level, well inside Python's limit.
MAX_NESTING = 256


def _tokenize(text, lineno):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            toks.append((ch, i))
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((text[i:j], i))
            i = j
        else:
            raise CircuitError("line %d col %d: bad character %r" % (lineno, i + 1, ch))
    return toks


class _ExprParser:
    def __init__(self, toks, lineno):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno

    def _err(self, msg):
        col = self.toks[self.pos - 1][1] + 1 if self.pos and self.pos <= len(self.toks) else 0
        raise CircuitError("line %d col %d: %s" % (self.lineno, col, msg))

    def _next(self):
        if self.pos >= len(self.toks):
            raise CircuitError("line %d: unexpected end of expression" % self.lineno)
        t = self.toks[self.pos]
        self.pos += 1
        return t[0]

    def term(self, depth=0):
        t = self._next()
        if t == "0":
            return ("const", 0)
        if t == "1":
            return ("const", 1)
        if t in ("NOT", "(") and depth == MAX_NESTING:
            self._err("expression nested deeper than %d levels" % MAX_NESTING)
        if t == "NOT":
            return ("not", self.term(depth + 1))
        if t == "(":
            a = self.term(depth + 1)
            op = self._next()
            if op not in ("AND", "OR", "XOR"):
                self._err("expected AND/OR/XOR, got %r" % op)
            b = self.term(depth + 1)
            if self._next() != ")":
                self._err("expected ')'")
            return (op.lower(), a, b)
        if t in _KEYWORDS or t == ")":
            self._err("unexpected token %r" % t)
        if not (t[0].isalpha() or t[0] == "_"):
            self._err("bad name %r" % t)
        return ("var", t)

    def parse(self):
        e = self.term()
        if self.pos != len(self.toks):
            self._err("trailing tokens after expression")
        return e


def _parse_expr(text, lineno):
    return _ExprParser(_tokenize(text, lineno), lineno).parse()


def _name(word, lineno):
    """word, if an expression can read it as a name (so not `s~1`)."""
    try:
        if _parse_expr(word, lineno) == ("var", word):
            return word
    except CircuitError:
        pass
    raise CircuitError("line %d: %r is not a valid name" % (lineno, word))


def parse_circuit(text):
    """Parse SCIRC source into a validated Circuit."""
    c = Circuit()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        kind = words[0]
        if kind == "input":
            if len(words) != 2:
                raise CircuitError("line %d: input takes one name" % lineno)
            c.inputs.append(_name(words[1], lineno))
        elif kind == "latch":
            if len(words) < 6 or words[2] != "init" or words[4] != "next":
                raise CircuitError("line %d: latch <name> init {0|1|*} next <expr>" % lineno)
            init = {"0": False, "1": True, "*": None}.get(words[3], "bad")
            if init == "bad":
                raise CircuitError("line %d: init must be 0, 1 or *" % lineno)
            expr = _parse_expr(" ".join(words[5:]), lineno)
            c.latches.append(Latch(_name(words[1], lineno), init, expr))
        elif kind in ("signal", "output"):
            if len(words) < 4 or words[2] != "=":
                raise CircuitError("line %d: %s <name> = <expr>" % (lineno, kind))
            expr = _parse_expr(" ".join(words[3:]), lineno)
            defs = c.signals if kind == "signal" else c.outputs
            name = _name(words[1], lineno)
            if name in defs:
                raise CircuitError("line %d: duplicate name %r" % (lineno, name))
            defs[name] = expr
        elif kind == "prop":
            if c.prop is not None:
                raise CircuitError("line %d: duplicate prop" % lineno)
            c.prop = _parse_expr(" ".join(words[1:]), lineno)
        else:
            raise CircuitError("line %d: unknown directive %r" % (lineno, kind))
    _validate(c)
    return c


def _expr_names(e, out):
    if e[0] == "var":
        out.add(e[1])
    elif e[0] == "not":
        _expr_names(e[1], out)
    elif e[0] in ("and", "or", "xor"):
        _expr_names(e[1], out)
        _expr_names(e[2], out)


def _validate(c):
    """One pass in the order encode and simulate define names: a signal may
    read inputs, latches and earlier signals; an output may also read any
    signal and earlier outputs; latch next-states and prop come last and may
    read any declared name.  This also rules out combinational cycles."""
    seen = set()
    for name in itertools.chain(c.inputs, c.latch_names(), c.signals, c.outputs):
        if name in seen:
            raise CircuitError("duplicate name %r" % name)
        seen.add(name)
    defined = set(c.inputs).union(c.latch_names())
    defs = itertools.chain(c.signals.items(), c.outputs.items(),
                           ((l.name, l.next) for l in c.latches),
                           [("prop", c.prop)] if c.prop is not None else [])
    for name, e in defs:
        refs = set()
        _expr_names(e, refs)
        for r in sorted(refs - defined):
            if r not in seen:
                raise CircuitError("undeclared signal %r" % r)
            raise CircuitError("%r reads %r before its definition" % (name, r))
        defined.add(name)


# ------------------------------------------------------------- simulation


def eval_expr(e, env):
    op = e[0]
    if op == "var":
        return env[e[1]]
    if op == "const":
        return bool(e[1])
    if op == "not":
        return not eval_expr(e[1], env)
    a = eval_expr(e[1], env)
    b = eval_expr(e[2], env)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "xor":
        return a != b
    raise ValueError("bad expr %r" % (e,))


def simulate(c, state, inputs):
    """One gate-level step: returns (values of all signals, next state)."""
    env = dict(state)
    env.update(inputs)
    for name, e in c.signals.items():
        env[name] = eval_expr(e, env)
    for name, e in c.outputs.items():
        env[name] = eval_expr(e, env)
    nxt = {l.name: eval_expr(l.next, env) for l in c.latches}
    return env, nxt


def simulate_lanes(c, values, full):
    """`simulate` in many lanes at once: values maps each latch and input
    to the mask of the lanes where it is 1, and full is the mask of every
    lane.  Returns the mask of each latch's next state."""
    tables = dict(values)
    for name, e in itertools.chain(c.signals.items(), c.outputs.items()):
        tables[name] = _table(e, tables, full)
    return {l.name: _table(l.next, tables, full) for l in c.latches}


# --------------------------------------------------------------- encoding


class TransitionSystem:
    """CNF form of a circuit: I over S, T over S ∪ X ∪ Y ∪ S', P over S.

    S is frame 0 and S' frame 1.  `next` maps each id of S to its id in
    S' and `prev` maps back; every shift between the two frames is a
    cnf.rename by one of them."""

    def __init__(self, table, circ, init, trans, prop, state_vars, next_vars,
                 input_vars, stuttering_var=None, interface=None):
        self.table = table
        self.circuit = circ
        self.init = init
        self.trans = trans
        self.prop = prop
        self.state_vars = state_vars        # frame-0 Vars, latch order
        self.next = {v.id: n.id for v, n in zip(state_vars, next_vars)}
        self.prev = {n: v for v, n in self.next.items()}
        self.input_vars = input_vars
        self.stuttering_var = stuttering_var
        self.interface = interface  # miter only: interface clause positions

    def state_ids(self, j=0):
        """Ids of the state variables at frame j (0 or 1), latch order."""
        return [self.table.get(v.name, j).id for v in self.state_vars]

    @functools.cached_property
    def step_vars(self):
        """What a model of one step values: T's variables and every input."""
        return variables(self.trans) | {v.id for v in self.input_vars}


class _Encoder:
    def __init__(self, table):
        self.table = table
        self.clauses = []
        self.env = {}      # name -> literal
        self.tmp = 0

    def fresh(self, hint):
        self.tmp += 1
        return self.table.new("%s~%d" % (hint, self.tmp), 0).id

    def add(self, lits):
        self.clauses.append(Clause(lits))

    def gate(self, op, a, b, out):
        if b == a or b == -a:
            # equal or complementary operands: the straight Tseitin clauses
            # would be tautological, so tie the output directly
            same = b == a
            if same and op in ("and", "or"):
                self.add([-out, a])
                self.add([out, -a])
            elif op == "xor" and same or op == "and":
                self.add([-out])
            else:
                self.add([out])
            return
        if op == "and":
            self.add([-out, a])
            self.add([-out, b])
            self.add([out, -a, -b])
        elif op == "or":
            self.add([out, -a])
            self.add([out, -b])
            self.add([-out, a, b])
        elif op == "xor":
            self.add([-out, a, b])
            self.add([-out, -a, -b])
            self.add([out, a, -b])
            self.add([out, -a, b])

    def encode(self, e, target=None, hint="g"):
        """Encode expr e; returns its literal.  With target given, the
        expression's value is tied to that variable."""
        op = e[0]
        if op == "var":
            lit = self.env[e[1]]
        elif op == "const":
            raise ValueError("unsimplified constant")
        elif op == "not":
            lit = -self.encode(e[1], hint=hint)
        else:
            a = self.encode(e[1], hint=hint)
            b = self.encode(e[2], hint=hint)
            out = target if target is not None else self.fresh(hint)
            self.gate(op, a, b, out)
            return out
        if target is not None:
            self.add([-target, lit])
            self.add([target, -lit])
            return target
        return lit

    def define(self, e, target, hint):
        """Tie variable target to expr e, folding constants first."""
        e = _simplify(e)
        if e[0] == "const":
            self.add([target] if e[1] else [-target])
        else:
            self.encode(e, target=target, hint=hint)


def _simplify(e):
    """Constant folding so the encoder never sees 'const' below the top."""
    op = e[0]
    if op in ("var", "const"):
        return e
    if op == "not":
        s = _simplify(e[1])
        if s[0] == "const":
            return ("const", 1 - s[1])
        if s[0] == "not":
            return s[1]
        return ("not", s)
    a = _simplify(e[1])
    b = _simplify(e[2])
    for x, y in ((a, b), (b, a)):
        if x[0] == "const":
            if op == "and":
                return y if x[1] else ("const", 0)
            if op == "or":
                return ("const", 1) if x[1] else y
            if op == "xor":
                return ("not", y) if x[1] else y
    if op == "xor":
        # keep xor of identical operands folded; cheap and common in miters
        if a == b:
            return ("const", 0)
    return (op, a, b)


def _subst(e, f):
    """e with each ('var', n) replaced by f(n)."""
    if e[0] == "var":
        return f(e[1])
    if e[0] == "const":
        return e
    return (e[0],) + tuple(_subst(a, f) for a in e[1:])


# A conjunct of the property may read at most this many latches: its truth
# table is a 2^16-bit (8 KB) int, and it gives at most 2^16 clauses.
MAX_CONJUNCT_LATCHES = 16


def _conjuncts(expr, defs):
    """Top-level conjuncts of expr as (expr, polarity) pairs, looking
    through signal and output names, each name once per polarity, and
    pushing NOT through AND and OR."""
    out, todo, seen = [], [(expr, True)], set()
    while todo:
        e, pos = todo.pop()
        if e[0] == "var" and e[1] in defs:
            if (e[1], pos) not in seen:
                seen.add((e[1], pos))
                todo.append((defs[e[1]], pos))
        elif e[0] == "not":
            todo.append((e[1], not pos))
        elif e[0] == ("and" if pos else "or"):
            todo += [(e[2], pos), (e[1], pos)]
        else:
            out.append((e, pos))
    return out


def _cone(e, defs):
    """(signals and outputs e reads, directly or through others; the
    latches and inputs they and e read), each signal visited once."""
    seen, leaves, todo = set(), set(), [e]
    while todo:
        refs = set()
        _expr_names(todo.pop(), refs)
        for r in refs:
            if r not in defs:
                leaves.add(r)
            elif r not in seen:
                seen.add(r)
                todo.append(defs[r])
    return seen, leaves


def _latch_tables(names):
    """Truth table of each latch over all 2^n assignments to names, as an
    int whose bit j is the latch's value in assignment j; names[0] is the
    most significant bit of j."""
    n = len(names)
    tables = {}
    for i, name in enumerate(names):
        w = 1 << (n - 1 - i)
        t, period = ((1 << w) - 1) << w, 2 * w
        while period < 1 << n:
            t |= t << period
            period *= 2
        tables[name] = t
    return tables


def _table(e, tables, full):
    """Truth table of e; tables holds those of every name e reads."""
    op = e[0]
    if op == "var":
        return tables[e[1]]
    if op == "const":
        return full if e[1] else 0
    if op == "not":
        return full & ~_table(e[1], tables, full)
    a = _table(e[1], tables, full)
    b = _table(e[2], tables, full)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return a ^ b


def compile_state_predicate(expr, c, table):
    """CNF over frame-0 state vars equivalent to expr.

    expr is split at its top-level conjunctions.  Each conjunct is evaluated
    once as a truth table over its latches, and each assignment to them that
    falsifies it gives the clause that excludes it, first latch most
    significant, as enumeration would."""
    defs = dict(c.signals)
    defs.update(c.outputs)
    order = {name: i for i, name in enumerate(defs)}
    latch_order = {name: i for i, name in enumerate(c.latch_names())}
    clauses = []
    for e, pos in _conjuncts(expr, defs):
        cone, support = _cone(e, defs)
        inputs = support.intersection(c.inputs)
        if inputs:
            raise CircuitError("property depends on input %r" % min(inputs))
        if len(support) > MAX_CONJUNCT_LATCHES:
            raise CircuitError("a property conjunct reads %d latches (limit %d)"
                               % (len(support), MAX_CONJUNCT_LATCHES))
        names = sorted(support, key=latch_order.get)
        ids = [table.get(name, 0).id for name in names]
        n = len(names)
        full = (1 << (1 << n)) - 1
        tables = _latch_tables(names)
        for name in sorted(cone, key=order.get):
            tables[name] = _table(defs[name], tables, full)
        bad = _table(e, tables, full)
        if pos:
            bad ^= full
        for j, bit in enumerate(reversed(format(bad, "0%db" % (1 << n)))):
            if bit == "1":
                clauses.append(Clause([-v if j >> (n - 1 - i) & 1 else v
                                       for i, v in enumerate(ids)]))
    return list(dict.fromkeys(clauses))


def encode(c):
    """Compile a circuit to a TransitionSystem via Tseitin encoding."""
    table = VarTable()
    state_vars = [table.new(l.name, 0) for l in c.latches]
    input_vars = [table.new(n, 0) for n in c.inputs]
    next_vars = [table.new(v.name, 1) for v in state_vars]
    enc = _Encoder(table)
    for v in state_vars + input_vars:
        enc.env[v.name] = v.id
    for name, e in itertools.chain(c.signals.items(), c.outputs.items()):
        v = table.new(name, 0)
        enc.define(e, v.id, name)
        enc.env[name] = v.id
    for latch, nv in zip(c.latches, next_vars):
        enc.define(latch.next, nv.id, latch.name)
    first = len(enc.clauses)
    for a, b in c.eq_input_pairs:
        la, lb = enc.env[a], enc.env[b]
        enc.add([la, -lb])
        enc.add([-la, lb])
    interface = tuple(range(first, len(enc.clauses))) if c.miter else None
    init = []
    for latch, v in zip(c.latches, state_vars):
        if latch.init is True:
            init.append(Clause([v.id]))
        elif latch.init is False:
            init.append(Clause([-v.id]))
    for a, b in c.state_pairs:
        va, vb = table.get(a, 0).id, table.get(b, 0).id
        init.append(Clause([va, -vb]))
        init.append(Clause([-va, vb]))
    prop = (compile_state_predicate(c.prop, c, table) if c.prop is not None
            else [])
    stut = table.get(c.stutter_input, 0) if c.stutter_input else None
    return TransitionSystem(table, c, init, enc.clauses, prop, state_vars,
                            next_vars, input_vars, stut, interface)


# -------------------------------------------------------------- stuttering


def stutter(old):
    """old with an extra input v: v=1 steps normally, v=0 copies the current
    state, making reachability monotone in the frame count."""
    if old.stutter_input is not None:
        raise CircuitError("system already stuttered")
    c = Circuit()
    v = "stut"
    while v in old.declared():
        v = "_" + v
    c.inputs = list(old.inputs) + [v]
    for l in old.latches:
        guarded = ("or", ("and", ("var", v), l.next),
                   ("and", ("not", ("var", v)), ("var", l.name)))
        c.latches.append(Latch(l.name, l.init, guarded))
    c.signals = dict(old.signals)
    c.outputs = dict(old.outputs)
    c.prop = old.prop
    c.miter = old.miter
    c.eq_input_pairs = list(old.eq_input_pairs)
    c.state_pairs = list(old.state_pairs)
    c.stutter_input = v
    return c


def add_stuttering(ts):
    """The system of ts.circuit with a stuttering input added."""
    return encode(stutter(ts.circuit))


# ------------------------------------------------------------------ miter


def build_miter(n, k):
    """Sequential-equivalence miter of circuits n and k, whose outputs read
    no input, directly or through signals.

    Inputs are pairwise constrained equal (the interface clauses of T),
    and the property says the output difference, a balanced OR tree of
    XORs, stays 0.  Latches of n and k with the same name start equal
    when their declared inits are the same (both free or the same
    constant).  Any other latch stays unpaired: a free latch paired with a
    constant one would be forced to that constant, and a pair with inits 0
    and 1 would leave no initial state."""
    if len(n.inputs) != len(k.inputs) or len(n.outputs) != len(k.outputs):
        raise CircuitError("input/output arity mismatch")
    m = Circuit()
    m.miter = True
    for pre, src in (("n.", n), ("k.", k)):
        def ren(e):
            return _subst(e, lambda name: ("var", pre + name))
        m.inputs.extend(pre + x for x in src.inputs)
        for l in src.latches:
            m.latches.append(Latch(pre + l.name, l.init, ren(l.next)))
        reads = dict(zip(src.inputs, src.inputs))  # name -> an input it reads
        for name, e in itertools.chain(src.signals.items(), src.outputs.items()):
            m.signals[pre + name] = ren(e)
            refs = set()
            _expr_names(e, refs)
            reads[name] = min(filter(None, map(reads.get, refs)), default=None)
            if name in src.outputs and reads[name]:
                raise CircuitError(
                    "sec compares outputs that read only latches, but output "
                    "%r of the %s circuit reads input %r"
                    % (name, "first" if pre == "n." else "second", reads[name]))
    m.eq_input_pairs = list(zip(("n." + x for x in n.inputs),
                                ("k." + x for x in k.inputs)))
    k_inits = {l.name: l.init for l in k.latches}
    m.state_pairs = [("n." + a.name, "k." + a.name) for a in n.latches
                     if a.name in k_inits and k_inits[a.name] == a.init]
    diffs = [("xor", ("var", "n." + zn), ("var", "k." + zk))
             for zn, zk in zip(n.outputs, k.outputs)]
    m.outputs["diff"] = _or_tree(diffs)
    m.prop = ("not", ("var", "diff"))
    return m


def _or_tree(xs):
    """OR of the expressions xs, in order, as a balanced tree."""
    if len(xs) < 2:
        return xs[0] if xs else ("const", 0)
    return ("or", _or_tree(xs[:len(xs) // 2]), _or_tree(xs[len(xs) // 2:]))
