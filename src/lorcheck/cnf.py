"""Clause-level formula machinery: variables, clauses, CNF, renaming.

A CNF is a list of Clause."""

from __future__ import annotations

from itertools import chain
from operator import neg


class Var:
    """A propositional variable; its VarTable key holds its time frame."""

    __slots__ = ("id", "name")

    def __init__(self, id, name):
        self.id = id
        self.name = name

    def __repr__(self):
        return "Var(%d:%s)" % (self.id, self.name)


class VarTable:
    """Allocates variables and resolves (name, frame) pairs to ids."""

    def __init__(self):
        self.by_key = {}
        self._next = 1

    def new(self, name, frame=None):
        key = (name, frame)
        if key in self.by_key:
            raise ValueError("variable %r already declared at frame %r" % (name, frame))
        v = Var(self._next, name)
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
        return cls.unchecked(lits)

    @classmethod
    def unchecked(cls, lits):
        """A Clause of literals known to hold no variable twice, as the
        program builds them: only sorted, with no zero, repeat or
        tautology check.  Outside input goes through ``Clause()``."""
        # no variable occurs twice, so the variable alone orders the literals
        return tuple.__new__(cls, sorted(lits, key=abs))

    @property
    def lits(self):
        """The literals as a plain tuple."""
        return tuple(self)

    def __repr__(self):
        return "Clause(%s)" % (" ".join(map(str, self)) or "empty")


def variables(f):
    """The variable ids of the clauses f."""
    return set(map(abs, chain.from_iterable(f)))


def rename(f, ids):
    """f with every variable v replaced by ids[v]; KeyError for a variable
    ids does not map.  Each clause of f holds no variable twice and ids is
    one-to-one on f's variables (the frame maps `next` and `prev`, a PQE
    task's renumbering, a witness's `c var` lines), so no renamed clause
    holds a variable twice either and none is checked again."""
    return [Clause.unchecked(ids[l] if l > 0 else -ids[-l] for l in c)
            for c in f]


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
