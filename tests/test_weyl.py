import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grassquot.weyl import (ColumnTuple, ReducedWord, UnsupportedInput,
                            bruhat_leq, canonical_word, gamma_tableau,
                            is_coxeter_quotient, minimal_richardson_v,
                            minimal_schubert, perm_length, restriction_height,
                            weight_n_omega, word_to_perm)

COPRIME_PAIRS = [(r, n) for r in range(1, 6) for n in range(r + 1, 13)
                 if math.gcd(r, n) == 1]


def test_bruhat_componentwise():
    assert bruhat_leq(ColumnTuple((1, 2, 3), 7), ColumnTuple((3, 5, 7), 7))
    assert bruhat_leq(ColumnTuple((2, 4, 6), 7), ColumnTuple((3, 5, 7), 7))
    assert not bruhat_leq(ColumnTuple((1, 4, 7), 7), ColumnTuple((3, 5, 6), 7))


def test_bruhat_mismatched_shapes_rejected():
    with pytest.raises(ValueError):
        bruhat_leq(ColumnTuple((1, 2), 5), ColumnTuple((1, 2, 3), 5))
    with pytest.raises(ValueError):
        bruhat_leq(ColumnTuple((1, 2, 3), 6), ColumnTuple((1, 2, 3), 7))


def test_minimal_schubert_values():
    assert minimal_schubert(3, 7).entries == (3, 5, 7)
    assert minimal_schubert(3, 8).entries == (3, 6, 8)
    assert minimal_schubert(1, 9).entries == (9,)


def test_minimal_schubert_defining_inequalities():
    for r, n in COPRIME_PAIRS:
        a = minimal_schubert(r, n).entries
        for i, ai in enumerate(a, start=1):
            assert ai * r >= i * n
            assert (ai - 1) * r < i * n


def test_non_coprime_rejected():
    for r, n in [(2, 4), (3, 9), (4, 10)]:
        with pytest.raises(UnsupportedInput):
            minimal_schubert(r, n)
        with pytest.raises(UnsupportedInput):
            minimal_richardson_v(r, n)


def test_minimal_richardson_values():
    assert minimal_richardson_v(3, 7).entries == (1, 3, 5)
    assert minimal_richardson_v(3, 8).entries == (1, 3, 6)
    assert minimal_richardson_v(2, 3).entries == (1, 2)


def test_gamma_3_8_grid():
    g = gamma_tableau(3, 8)
    assert g.rows == ((1, 1, 1, 2, 2, 2, 3, 3),
                      (3, 4, 4, 4, 5, 5, 5, 6),
                      (6, 6, 7, 7, 7, 8, 8, 8))


def test_gamma_1_3_single_row():
    assert gamma_tableau(1, 3).rows == ((1, 2, 3),)


def test_gamma_structure_all_pairs():
    from grassquot.tableaux import is_zero_weight

    for r, n in COPRIME_PAIRS:
        g = gamma_tableau(r, n)
        assert g.d == n
        assert is_zero_weight(g)
        assert g.column(0) == minimal_richardson_v(r, n).entries
        assert g.column(n - 1) == minimal_schubert(r, n).entries


def test_canonical_word_examples():
    assert canonical_word(ColumnTuple((1, 3, 5), 7)).letters == (2, 4, 3)
    w = canonical_word(ColumnTuple((3, 5, 7), 7))
    assert len(w) == 9
    assert tuple(sorted(w.to_permutation()[:3])) == (3, 5, 7)
    assert canonical_word(ColumnTuple((1, 2, 3), 7)).letters == ()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_canonical_word_roundtrip(data):
    n = data.draw(st.integers(min_value=2, max_value=9))
    r = data.draw(st.integers(min_value=1, max_value=n - 1))
    entries = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=n), min_size=r, max_size=r))))
    c = ColumnTuple(entries, n)
    word = canonical_word(c)
    assert len(word) == sum(b - i for i, b in enumerate(entries, start=1))
    perm = word.to_permutation()
    assert perm_length(perm) == len(word)
    assert tuple(sorted(perm[:r])) == entries
    assert perm == c.to_permutation()


def test_reduced_word_type_rejects_unreduced():
    with pytest.raises(ValueError):
        ReducedWord((1, 1), 3)


def test_coxeter_quotient():
    for r, n in COPRIME_PAIRS:
        w, v = minimal_schubert(r, n), minimal_richardson_v(r, n)
        assert is_coxeter_quotient(w, v)
        assert not is_coxeter_quotient(w, w)
        assert perm_length(w.to_permutation()) == (n - 1) + perm_length(v.to_permutation())


def test_coxeter_quotient_requires_subword():
    w = ColumnTuple((2, 3, 4), 7)
    v = ColumnTuple((1, 3, 5), 7)
    with pytest.raises(ValueError):
        is_coxeter_quotient(w, v)


def test_weight_roundtrip_and_v37_height():
    v = ColumnTuple((1, 3, 5), 7)
    wt = weight_n_omega(v)
    assert sum(wt.eps) == 0
    assert restriction_height(v) == 21


def _cartan_height(eps: tuple[int, ...]) -> Fraction:
    """Independent oracle: solve the Cartan system of type A exactly."""
    n = len(eps)
    rhs = [Fraction(eps[j] - eps[j + 1]) for j in range(n - 1)]
    size = n - 1
    aug = [[Fraction(0)] * size + [rhs[i]] for i in range(size)]
    for i in range(size):
        aug[i][i] = Fraction(2)
        if i > 0:
            aug[i][i - 1] = Fraction(-1)
        if i + 1 < size:
            aug[i][i + 1] = Fraction(-1)
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return sum(row[-1] for row in aug)


def test_restriction_height_against_cartan_oracle():
    rng = random.Random(1729)
    checked = 0
    while checked < 100:
        r, n = rng.choice(COPRIME_PAIRS)
        entries = tuple(sorted(rng.sample(range(1, n + 1), r)))
        v = ColumnTuple(entries, n)
        wt = weight_n_omega(v)
        assert Fraction(restriction_height(v)) == _cartan_height(wt.eps)
        checked += 1
    # the two extremes: identity coset and the maximal tuple
    for r, n in [(3, 7), (2, 5), (4, 9)]:
        lo = ColumnTuple(tuple(range(1, r + 1)), n)
        hi = ColumnTuple(tuple(range(n - r + 1, n + 1)), n)
        for v in (lo, hi):
            assert Fraction(restriction_height(v)) == _cartan_height(weight_n_omega(v).eps)


def _column_tuple_from_json(obj: dict) -> ColumnTuple:
    """Inverse of ColumnTuple.to_json."""
    ct = ColumnTuple(tuple(obj["entries"]), obj["n"])
    if ct.r != obj.get("r", ct.r):
        raise ValueError("inconsistent r in column tuple encoding")
    return ct


def test_column_tuple_json_roundtrip():
    c = ColumnTuple((2, 4, 6), 7)
    assert _column_tuple_from_json(c.to_json()) == c


def test_word_to_perm_convention():
    # s2 s4 s3 sends (1,2,3) to the coset of (1,3,5) in S_7
    assert word_to_perm((2, 4, 3), 7) == (1, 3, 5, 2, 4, 6, 7)
