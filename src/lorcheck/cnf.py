"""Clause-level formula machinery: variables, clauses, CNF, renaming.

A CNF is a list of Clause."""

from __future__ import annotations

from itertools import chain
from operator import neg


class Var:
    """A propositional variable with an optional time frame."""

    __slots__ = ("id", "name", "frame")

    def __init__(self, id, name, frame=None):
        self.id = id
        self.name = name
        self.frame = frame

    def __repr__(self):
        if self.frame is None:
            return "Var(%d:%s)" % (self.id, self.name)
        return "Var(%d:%s@%d)" % (self.id, self.name, self.frame)


class VarTable:
    """Allocates variables and resolves (name, frame) pairs to ids."""

    def __init__(self):
        self.by_key = {}
        self._next = 1

    def new(self, name, frame=None):
        key = (name, frame)
        if key in self.by_key:
            raise ValueError("variable %r already declared at frame %r" % (name, frame))
        v = Var(self._next, name, frame)
        self._next += 1
        self.by_key[key] = v
        return v

    def get(self, name, frame=None):
        return self.by_key[(name, frame)]


# Literals are signed ints (DIMACS style); an Assignment maps var id -> bool.


def lit_sat(lit, assignment):
    val = assignment.get(abs(lit))
    if val is None:
        return None
    return val == (lit > 0)


class Clause(tuple):
    """An immutable duplicate-free disjunction of literals, sorted by
    variable: a tuple, so iteration, length and membership run at C speed.

    Tautologies are rejected outright.
    """

    __slots__ = ()

    def __new__(cls, lits):
        lits = set(lits)
        if 0 in lits:
            raise ValueError("zero literal")
        if not lits.isdisjoint(map(neg, lits)):
            raise ValueError("tautological clause %r" % sorted(lits))
        # no variable occurs twice, so the variable alone orders the literals
        return tuple.__new__(cls, sorted(lits, key=abs))

    @property
    def lits(self):
        """The literals as a plain tuple."""
        return tuple(self)

    def __repr__(self):
        return "Clause(%s)" % (" ".join(map(str, self)) or "empty")

    def variables(self):
        return set(map(abs, self))


def variables(f):
    """The variable ids of the clauses f."""
    return set(map(abs, chain.from_iterable(f)))


def rename(f, ids):
    """f with every variable v replaced by ids[v]; KeyError for a variable
    ids does not map."""
    return [Clause(ids[l] if l > 0 else -ids[-l] for l in c) for c in f]


def evaluate(f, assignment):
    """True / False / None (undetermined) under a partial assignment."""
    unknown = False
    for c in f:
        sat = False
        open_lit = False
        for l in c:
            v = lit_sat(l, assignment)
            if v is True:
                sat = True
                break
            if v is None:
                open_lit = True
        if not sat:
            if not open_lit:
                return False
            unknown = True
    return None if unknown else True


def longest_falsified_clause(state):
    """The clause falsified exactly by this complete assignment."""
    return Clause([-vid if state[vid] else vid for vid in sorted(state)])
