import operator
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from grassquot.pluecker import PlueckerPoly, evaluate
from grassquot.symbolic import Poly, add_into, sparse_rank


def dense_rank(rows, ncols):
    """Textbook Gaussian elimination on a dense Fraction matrix."""
    mat = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


# Elimination brings column 2 into the third row after the row's columns
# were listed; a loop over that list overwrites the pivot of column 1 and
# scores these rows 3.  The oracle rows use integer columns, the restricted
# Deodhar sections exponent tuples.
COUNTEREXAMPLE = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
EXPONENTS = {0: (0, 0), 1: (0, 1), 2: (1, 0)}


@pytest.mark.parametrize("rows", [
    COUNTEREXAMPLE,
    [{EXPONENTS[k]: v for k, v in row.items()} for row in COUNTEREXAMPLE],
])
def test_sparse_rank_reduces_columns_brought_in_by_elimination(rows):
    assert dense_rank(COUNTEREXAMPLE, 3) == 2
    assert sparse_rank(rows) == 2
    assert sparse_rank(rows, 3) == 2


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
        max_size=8))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_matches_dense_elimination(case):
    rows, ncols = case
    want = dense_rank(rows, ncols)
    assert sparse_rank(rows) == want
    assert sparse_rank(rows, ncols) == want


def test_sparse_rank_stops_reading_rows_at_full_rank():
    read = []

    def rows():
        for k in range(5):
            read.append(k)
            yield {k % 2: 1}

    assert sparse_rank(rows(), 2) == 2
    assert read == [0, 1]


# -- the shared ring core ------------------------------------------------------

def test_add_into_drops_cancelled_keys_and_accepts_ints():
    target = {"a": 2, "b": 1}
    assert add_into(target, [("a", -2), ("c", 3), ("c", -1)]) is target
    assert target == {"b": 1, "c": 2}
    assert add_into({}, [("x", 0)]) == {}
    assert add_into({}, [("x", Fraction(1, 2)), ("x", Fraction(-1, 2))]) == {}


@pytest.mark.parametrize("left, right", [
    (Poly.var(2, 0), Poly.var(3, 0)),
    (PlueckerPoly.monomial([(1, 2)], 5), PlueckerPoly.monomial([(1, 2, 3)], 7)),
    (Poly.const(1, 1), PlueckerPoly.monomial([(1,)], 1)),
])
def test_mixing_rings_raises(left, right):
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(left, right)
        with pytest.raises(ValueError):
            op(right, left)
    assert left != right


NVARS = 3
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * NVARS), rationals, max_size=5,
).map(lambda terms: Poly(NVARS, terms))
points = st.tuples(*[rationals] * NVARS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys, polys, rationals, points)
def test_ring_operations_commute_with_substitution(p, q, c, x):
    assert (p + q).subs(x) == p.subs(x) + q.subs(x)
    assert (p - q).subs(x) == p.subs(x) - q.subs(x)
    assert (p * q).subs(x) == p.subs(x) * q.subs(x)
    assert (-p).subs(x) == -p.subs(x)
    assert p.scale(c).subs(x) == c * p.subs(x)
    assert (p - p).is_zero() and p.scale(0).is_zero()


G25_COLUMNS = list(combinations(range(1, 6), 2))
pluecker_polys = st.dictionaries(
    st.lists(st.sampled_from(G25_COLUMNS), min_size=1, max_size=2).map(tuple),
    st.integers(-3, 3), max_size=4,
).map(lambda terms: PlueckerPoly(2, 5, terms))


point_matrices = st.lists(st.tuples(st.fractions(-9, 9, max_denominator=1),
                                    st.fractions(-9, 9, max_denominator=1)),
                          min_size=5, max_size=5).map(tuple)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pluecker_polys, pluecker_polys, point_matrices)
def test_pluecker_product_commutes_with_evaluation(p, q, M):
    assert evaluate(p * q, M) == evaluate(p, M) * evaluate(q, M)
    assert evaluate(p + q, M) == evaluate(p, M) + evaluate(q, M)
