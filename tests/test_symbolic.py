from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grassquot.symbolic import sparse_rank


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
