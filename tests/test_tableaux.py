from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from grassquot import g37
from grassquot.tableaux import (Tableau, column_census, count_invariants,
                                deglex_key, enumerate_invariants, is_zero_weight)
from grassquot.weyl import gamma_tableau, minimal_richardson_v, minimal_schubert


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(((2, 1),), 3)          # row decreasing
    with pytest.raises(ValueError):
        Tableau(((1, 2), (1, 3)), 3)   # column not strict
    with pytest.raises(ValueError):
        Tableau(((1, 4),), 3)          # out of range


def test_zero_weight():
    assert is_zero_weight(gamma_tableau(3, 7))
    assert is_zero_weight(g37.Y[2])
    assert not is_zero_weight(Tableau(((1, 1), (2, 3)), 4))


def test_degree_one_family_is_exactly_the_generators():
    inv = enumerate_invariants(3, 7, 1, (3, 5, 7), (1, 2, 3))
    assert len(inv) == 7
    assert {t.rows for t in inv} == {g37.Y[i].rows for i in range(1, 8)}


def test_narrow_bound_gives_unique_tableau():
    inv = enumerate_invariants(3, 7, 1, (3, 5, 7), (1, 3, 5))
    assert inv == [g37.GAMMA37]


def test_degree_two_contains_z20():
    inv = enumerate_invariants(3, 7, 2, (3, 5, 7), (1, 2, 3))
    assert g37.Z20 in inv
    assert len(inv) == len({t.rows for t in inv})  # duplicate-free


def test_enumeration_postconditions():
    for m in (1, 2):
        for t in enumerate_invariants(3, 7, m, (3, 5, 7), (1, 2, 3)):
            assert is_zero_weight(t)
            assert all(x >= y for x, y in zip(t.column(0), (1, 2, 3)))
            assert all(x <= y for x, y in zip(t.column(t.d - 1), (3, 5, 7)))


def test_incomparable_bounds_give_empty_list():
    assert enumerate_invariants(3, 7, 1, (3, 5, 7), (1, 2, 7)) == []


def _slow_enumerate(r, n, m, w, v):
    """Cell-by-cell backtracking with only the defining constraints; an
    independent oracle for the column-chain enumerator."""
    d = m * n
    target = r * m
    grid = [[0] * d for _ in range(r)]
    remaining = {i: target for i in range(1, n + 1)}
    out = []

    def rec(pos):
        if pos == r * d:
            first = tuple(grid[i][0] for i in range(r))
            last = tuple(grid[i][d - 1] for i in range(r))
            if all(a >= b for a, b in zip(first, v)) and all(a <= b for a, b in zip(last, w)):
                out.append(tuple(tuple(row) for row in grid))
            return
        i, j = divmod(pos, d)
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for val in range(lo, n + 1):
            if remaining[val] == 0:
                continue
            grid[i][j] = val
            remaining[val] -= 1
            rec(pos + 1)
            remaining[val] += 1
            grid[i][j] = 0

    rec(0)
    return {rows for rows in out}


def _column_chain_enumerate(r, n, m, w, v):
    """Depth-first search over column chains; an independent oracle for
    the strip walk that also fixes the order.

    Columns are tried in ascending lexicographic order, each at least the
    previous one componentwise (the first at least v) and at most w, so
    tableaux arrive in column-lexicographic order, duplicate-free.
    """
    if not all(a <= b for a, b in zip(v, w)):
        return []
    d = m * n
    need = r * m
    pool = [c for c in combinations(range(1, n + 1), r)
            if all(x <= y for x, y in zip(c, w))]
    remaining = {i: need for i in range(1, n + 1)}
    chosen = []
    out = []

    def feasible(prev, cols_left):
        for val, cnt in remaining.items():
            if cnt == 0:
                continue
            if cnt > cols_left:
                return False
            # value must still fit in some row k: prev[k] <= val <= w[k]
            if not any(prev[k] <= val <= w[k] for k in range(r)):
                return False
        return True

    def rec(prev, cols_left):
        if cols_left == 0:
            out.append(Tableau.from_columns(chosen, n).rows)
            return
        for c in pool:
            if any(x < p for x, p in zip(c, prev)):
                continue
            if any(remaining[x] == 0 for x in c):
                continue
            for x in c:
                remaining[x] -= 1
            chosen.append(c)
            if feasible(c, cols_left - 1):
                rec(c, cols_left - 1)
            chosen.pop()
            for x in c:
                remaining[x] += 1

    rec(tuple(v), d)
    return out


@st.composite
def small_cases(draw):
    """Small (r, n, m) with bounds of length r.  Half the draws are within
    one of the widest bounds v = (1..r), w = (n-r+1..n) entrywise, with
    v_1 = 1 and w_r = n (else no row can take the value 1 or n): many
    nonempty families, some of them with non-monotone bounds.  The other
    half are arbitrary, mostly incomparable, bounds."""
    # hypothesis favours small integers, so count down from the largest r, n
    r = 3 - draw(st.integers(0, 2))
    n = 6 - draw(st.integers(0, 6 - r))
    m = draw(st.integers(1, 2))
    if draw(st.booleans()):
        v = (1,) + tuple(draw(st.integers(1, min(i + 2, n))) for i in range(1, r))
        w = tuple(draw(st.integers(max(n - r + i, 1), n)) for i in range(r - 1)) + (n,)
    else:
        entries = st.lists(st.integers(1, n), min_size=r, max_size=r).map(tuple)
        w, v = draw(entries), draw(entries)
    return r, n, m, w, v


def _assert_walk_equals_search(r, n, m, w, v):
    expected = _column_chain_enumerate(r, n, m, w, v)
    assert [t.rows for t in enumerate_invariants(r, n, m, w, v)] == expected
    assert count_invariants(r, n, m, w, v) == len(expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_cases())
def test_strip_walk_equals_column_chain_search(case):
    _assert_walk_equals_search(*case)


# G(3,7) and G(2,n) families and a G(3,6) box, each small enough for the
# search to finish in about a second
@pytest.mark.parametrize("r,n,m,w,v", [
    (3, 7, 1, (3, 5, 7), (1, 2, 3)),
    (3, 7, 2, (3, 5, 7), (1, 2, 3)),
    (3, 7, 1, (3, 5, 7), (1, 3, 5)),
    (3, 7, 1, (3, 5, 7), (1, 2, 7)),
    (2, 5, 2, (4, 5), (1, 2)),
    (2, 5, 8, (4, 5), (1, 2)),
    (2, 7, 2, (6, 7), (1, 2)),
    (2, 9, 1, (8, 9), (1, 2)),
    (3, 6, 2, (4, 5, 6), (1, 2, 3)),
])
def test_strip_walk_equals_column_chain_search_on_families(r, n, m, w, v):
    _assert_walk_equals_search(r, n, m, w, v)


def test_enumeration_against_slow_oracle_3_7_1():
    fast = {t.rows for t in enumerate_invariants(3, 7, 1, (3, 5, 7), (1, 2, 3))}
    slow = _slow_enumerate(3, 7, 1, (3, 5, 7), (1, 2, 3))
    assert fast == slow


def test_enumeration_against_slow_oracle_2_5_2():
    fast = {t.rows for t in enumerate_invariants(2, 5, 2, (4, 5), (1, 2))}
    slow = _slow_enumerate(2, 5, 2, (4, 5), (1, 2))
    assert fast == slow


def test_minimal_pair_unique_invariant_two_rows():
    for n in (3, 5, 7, 9):
        w, v = minimal_schubert(2, n), minimal_richardson_v(2, n)
        inv = enumerate_invariants(2, n, 1, w, v)
        assert inv == [gamma_tableau(2, n)]


def test_first_column_class_and_census_examples():
    assert g37.Y[7].column(0) == (1, 2, 3)
    assert g37.Y[5].column(0) == (1, 2, 5)
    assert g37.Y[1].column(0) == (1, 3, 5)
    assert column_census(g37.Z20)[(2, 4, 6)] == 2
    assert column_census(g37.Y[6])[(2, 4, 6)] == 1
    census1 = column_census(g37.Y[1])
    assert census1[(2, 5, 7)] + census1[(3, 5, 7)] == 2


def test_observations_hold_in_degrees_one_and_two():
    for m in (1, 2):
        for t in enumerate_invariants(3, 7, m, (3, 5, 7), (1, 2, 3)):
            rep = g37.observation_report(t, m)
            assert rep["ok"], (t.rows, rep["checks"])


def test_deglex_basics():
    a = Tableau(((1, 1), (2, 2)), 4)
    long = Tableau(((1, 1, 1, 1), (2, 2, 2, 2)), 4)
    assert deglex_key(long) > deglex_key(a)
    s = Tableau.from_columns([(1, 2), (3, 4)], 4)
    t = Tableau.from_columns([(1, 3), (2, 4)], 4)
    assert deglex_key(s) < deglex_key(t)


def test_deglex_total_order_on_degree_two_family():
    # degree first, then the column-lexicographic order of the enumeration
    tabs = enumerate_invariants(3, 7, 2, (3, 5, 7), (1, 2, 3))
    assert sorted(tabs, key=deglex_key) == tabs
    degree_one = enumerate_invariants(3, 7, 1, (3, 5, 7), (1, 2, 3))
    assert max(map(deglex_key, degree_one)) < min(map(deglex_key, tabs))


def test_factor_witness_z20_has_empty_complement():
    tag, comp = g37.factor_lemma_witness(g37.Z20)
    assert tag == "z20"
    assert comp.d == 0


def test_factor_witness_on_constructed_product():
    cols = g37.Y[1].columns() + g37.Y[2].columns()
    t = Tableau.from_columns(cols, 7)
    tag, comp = g37.factor_lemma_witness(t)
    assert tag in {"y1", "y2"}
    other = g37.Y[2] if tag == "y1" else g37.Y[1]
    assert Counter(comp.columns()) == Counter(other.columns())


def test_factor_witness_exhaustive_degrees_two_and_three():
    for m in (2, 3):
        for t in enumerate_invariants(3, 7, m, (3, 5, 7), (1, 2, 3)):
            tag, comp = g37.factor_lemma_witness(t)
            expected = t.d - (14 if tag == "z20" else 7)
            assert comp.d == expected
            if comp.d:
                assert is_zero_weight(comp)


def test_columns_transpose_rows():
    for t in [g37.GAMMA37, g37.Z20, Tableau(((), ()), 5)]:
        assert t.columns() == [tuple(row[j] for row in t.rows) for j in range(t.d)]
    for t in g37.Y.values():
        assert Tableau.from_columns(t.columns(), t.n) == t
        assert Tableau.from_columns(reversed(t.columns()), t.n) == t


def test_from_columns_rejects_incomparable():
    with pytest.raises(ValueError):
        Tableau.from_columns([(1, 2, 5), (1, 3, 4)], 5)
    with pytest.raises(ValueError):
        Tableau.from_columns([(1, 4), (2, 3)], 4)


def _tableau_from_json(obj: dict) -> Tableau:
    """Inverse of Tableau.to_json."""
    t = Tableau(tuple(tuple(row) for row in obj["entries"]), obj["n"])
    if (t.r, t.d) != (obj["rows"], obj["cols"]):
        raise ValueError("inconsistent shape in tableau encoding")
    return t


def test_tableau_json_roundtrip():
    t = g37.Y[3]
    assert _tableau_from_json(t.to_json()) == t


def test_enumerate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_invariants(0, 5, 1, (4, 5), (1, 2))
    with pytest.raises(ValueError):
        enumerate_invariants(2, 5, 0, (4, 5), (1, 2))
    with pytest.raises(ValueError):
        enumerate_invariants(2, 5, 1, (4, 5, 6), (1, 2))


def test_count_rejects_bad_parameters():
    with pytest.raises(ValueError):
        count_invariants(3, 2, 1, (1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        count_invariants(2, 5, 1, (4, 5), (1,))
