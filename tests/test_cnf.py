import pytest
from hypothesis import given, strategies as st

from lorcheck.cnf import (Clause, evaluate, lit_sat, longest_falsified_clause,
                          variables)


def assignments(max_var=6):
    return st.dictionaries(st.integers(1, max_var), st.booleans())


class TestClause:
    def test_sorted_dedup(self):
        assert Clause((3, -1, 3)).lits == (-1, 3)

    def test_tautology_rejected(self):
        with pytest.raises(ValueError):
            Clause((1, -1))

    def test_variables(self):
        assert variables([Clause((-3, 1))]) == {1, 3}


class TestEvaluate:
    def test_three_valued(self):
        f = [Clause((1, 2))]
        assert evaluate(f, {1: True}) is True
        assert evaluate(f, {1: False, 2: False}) is False
        assert evaluate(f, {1: False}) is None

    def test_empty_formula_true(self):
        assert evaluate([], {}) is True


def test_lit_sat():
    assert lit_sat(3, {3: True}) is True
    assert lit_sat(-3, {3: True}) is False
    assert lit_sat(3, {}) is None


class TestLongestFalsifiedClause:
    def test_negates_the_point(self):
        c = longest_falsified_clause({1: True, 2: False})
        assert c == Clause((-1, 2))

    @given(assignments())
    def test_false_exactly_at_the_point(self, a):
        if not a:
            return
        c = longest_falsified_clause(a)
        assert evaluate([c], a) is False
        flipped = dict(a)
        v = sorted(a)[0]
        flipped[v] = not flipped[v]
        assert evaluate([c], flipped) is True
