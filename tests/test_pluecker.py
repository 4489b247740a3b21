import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from grassquot import g37
from grassquot.pluecker import (PlueckerPoly, _codec, _exchange_terms,
                                _first_violation, _leq_cols, evaluate, minor,
                                restrict_schubert, straighten, tableau_to_poly,
                                verify_relation)
from grassquot.symbolic import add_into, sparse_rank
from grassquot.tableaux import (Tableau, count_invariants, enumerate_invariants,
                                is_zero_weight)


def random_point_matrix(rng: random.Random, n: int, r: int, bound: int = 9):
    """An n x r matrix of random integers in [-bound, bound], as Fractions."""
    return tuple(tuple(Fraction(rng.randint(-bound, bound)) for _ in range(r))
                 for _ in range(n))


def is_standard(p: PlueckerPoly) -> bool:
    return all(_first_violation(m) is None for m in p.terms)


def _max_scan_straighten(p: PlueckerPoly) -> PlueckerPoly:
    """Oracle: straightening by a linear scan for the largest pending
    monomial, with unmemoised exchanges and Fraction signs."""
    pending = dict(p.terms)
    done: dict = {}
    while pending:
        mono = max(pending)
        coeff = pending.pop(mono)
        i = next((i for i in range(len(mono) - 1)
                  if not all(x <= y for x, y in zip(mono[i], mono[i + 1]))), None)
        if i is None:
            add_into(done, ((mono, coeff),))
            continue
        rest = mono[:i] + mono[i + 2:]
        add_into(pending, ((tuple(sorted(rest + (a, b))), coeff * Fraction(sign))
                           for sign, a, b in _exchange_terms(mono[i], mono[i + 1])))
    return PlueckerPoly(p.r, p.n, done)


def test_two_column_exchange_matches_known_expansion():
    got = straighten(PlueckerPoly.monomial([(2, 5, 7), (3, 4, 7)], 7))
    want = (PlueckerPoly.monomial([(2, 4, 7), (3, 5, 7)], 7)
            - PlueckerPoly.monomial([(2, 3, 7), (4, 5, 7)], 7))
    assert got == want


def test_straighten_fixes_standard_monomials():
    p = PlueckerPoly.monomial([(1, 3), (2, 4)], 4)  # already a chain
    assert straighten(p) == p
    q = tableau_to_poly(g37.GAMMA37)
    assert straighten(q) == q


def test_small_grassmannian_signs():
    # p14*p23 is the non-standard quadratic on G(2,4)
    got = straighten(PlueckerPoly.monomial([(1, 4), (2, 3)], 4))
    want = (PlueckerPoly.monomial([(1, 3), (2, 4)], 4)
            - PlueckerPoly.monomial([(1, 2), (3, 4)], 4))
    assert got == want
    # and the three-term identity holds as an evaluation statement
    rng = random.Random(0)
    lhs = PlueckerPoly.monomial([(1, 3), (2, 4)], 4)
    rhs = (PlueckerPoly.monomial([(1, 2), (3, 4)], 4)
           + PlueckerPoly.monomial([(1, 4), (2, 3)], 4))
    for _ in range(50):
        M = random_point_matrix(rng, 4, 2)
        assert evaluate(lhs, M) == evaluate(rhs, M)


def test_unit_minor():
    M = tuple(tuple(Fraction(1 if i == j else 0) for j in range(2)) for i in range(4))
    assert evaluate(PlueckerPoly.monomial([(1, 2)], 4), M) == 1
    assert minor(M, (3, 4)) == 0


def test_evaluate_dimension_check():
    M = random_point_matrix(random.Random(1), 5, 2)
    with pytest.raises(ValueError):
        evaluate(PlueckerPoly.monomial([(1, 2, 3)], 7), M)


def test_straighten_agrees_with_evaluation_oracle():
    rng = random.Random(1729)
    for r, n in [(2, 4), (2, 5), (3, 6), (3, 7)]:
        cols = list(combinations(range(1, n + 1), r))
        for _ in range(25):
            a, b = rng.choice(cols), rng.choice(cols)
            p = PlueckerPoly.monomial([a, b], n).scale(rng.randint(1, 5))
            s = straighten(p)
            assert is_standard(s)
            for _ in range(4):
                M = random_point_matrix(rng, n, r)
                assert evaluate(p, M) == evaluate(s, M)


def test_straighten_idempotent_and_degree_preserving():
    rng = random.Random(7)
    cols = list(combinations(range(1, 8), 3))
    for _ in range(20):
        mono = [rng.choice(cols) for _ in range(3)]
        s = straighten(PlueckerPoly.monomial(mono, 7))
        assert straighten(s) == s
        assert all(len(m) == 3 for m in s.terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_straighten_oracle_property(data):
    n = data.draw(st.integers(min_value=3, max_value=6))
    r = data.draw(st.integers(min_value=2, max_value=min(3, n - 1)))
    cols = list(combinations(range(1, n + 1), r))
    a = data.draw(st.sampled_from(cols))
    b = data.draw(st.sampled_from(cols))
    p = PlueckerPoly.monomial([a, b], n)
    s = straighten(p)
    assert is_standard(s)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10 ** 6)))
    M = random_point_matrix(rng, n, r)
    assert evaluate(p, M) == evaluate(s, M)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_heap_straighten_equals_max_scan_straighten(data):
    r = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(min_value=r + 1, max_value=7))
    degree = data.draw(st.integers(min_value=1, max_value=5))
    cols = list(combinations(range(1, n + 1), r))
    monos = data.draw(st.lists(st.lists(st.sampled_from(cols), min_size=degree,
                                        max_size=degree),
                               min_size=1, max_size=5))
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
        min_size=len(monos), max_size=len(monos)))
    p = PlueckerPoly(r, n, dict(zip(map(tuple, monos), coeffs)))
    got = straighten(p)
    want = _max_scan_straighten(p)
    # equal terms, listed in the same order
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_heap_straighten_equals_max_scan_straighten_on_mixed_degrees(data):
    # degrees 0-4 in one polynomial, many monomials prefixes of one another:
    # the heap must pop a monomial after every monomial it is a prefix of
    r = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(min_value=r + 1, max_value=7))
    cols = list(combinations(range(1, n + 1), r))
    column = st.sampled_from(cols[:3]) | st.sampled_from(cols)
    base = sorted(data.draw(st.lists(column, min_size=4, max_size=4)))
    prefixes = data.draw(st.lists(st.integers(min_value=0, max_value=4), max_size=4))
    others = data.draw(st.lists(st.lists(column, max_size=4), max_size=3))
    monos = [tuple(base[:k]) for k in prefixes] + [tuple(m) for m in others]
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
        min_size=len(monos), max_size=len(monos)))
    p = PlueckerPoly(r, n, dict(zip(monos, coeffs)))
    got = straighten(p)
    want = _max_scan_straighten(p)
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_straighten_within_equals_restricted_straighten(data):
    # any interval [v, w] of columns, v = (1..r) or not, and the whole
    # Grassmannian's [(1..r), (n-r+1..n)]; the columns of the input lean
    # towards the interval, so that some terms survive
    r = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(min_value=r + 1, max_value=7))
    cols = list(combinations(range(1, n + 1), r))
    w = data.draw(st.sampled_from(cols))
    v = data.draw(st.sampled_from([c for c in cols if _leq_cols(c, w)]))
    inside = [c for c in cols if _leq_cols(v, c) and _leq_cols(c, w)]
    column = st.sampled_from(inside) | st.sampled_from(cols)
    degree = data.draw(st.integers(min_value=1, max_value=4))
    monos = data.draw(st.lists(st.lists(column, min_size=degree, max_size=degree),
                               min_size=1, max_size=5))
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
        min_size=len(monos), max_size=len(monos)))
    p = PlueckerPoly(r, n, dict(zip(map(tuple, monos), coeffs)))
    full = straighten(p)
    for bounds in ((w, v), (cols[-1], cols[0])):
        got = straighten(p, within=bounds)
        want = restrict_schubert(full, *bounds)
        # equal terms, listed in the same order
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction for c in got.terms.values())


def test_straighten_within_on_g37_products_and_relations():
    # the 28 products Y_i*Y_j and the seven relation differences, on
    # [(1,2,3), (3,5,7)] and on the smaller interval [(1,2,5), (3,5,7)]:
    # equal to the restricted full straightening.  The relations hold on
    # the Schubert variety, so they vanish on both; the products span the
    # degree-2 invariants of each interval
    y = {i: tableau_to_poly(t) for i, t in g37.Y.items()}
    products = [y[i] * y[j] for i in range(1, 8) for j in range(i, 8)]
    relations = [y[5] * y[7] - tableau_to_poly(g37.Z20)]
    for _name, (i, j), rhs in g37.RELATIONS:
        diff = y[i] * y[j]
        for sign, (a, b) in rhs:
            diff = diff - (y[a] * y[b]).scale(sign)
        relations.append(diff)
    for v in [(1, 2, 3), (1, 2, 5)]:
        images = [straighten(p, within=(g37.W37, v)) for p in products + relations]
        for p, got in zip(products + relations, images):
            want = restrict_schubert(straighten(p), g37.W37, v)
            assert list(got.terms.items()) == list(want.terms.items())
        assert all(q.is_zero() for q in images[len(products):])
        support = {m for q in images for m in q.terms}
        assert len(support) == count_invariants(3, 7, 2, g37.W37, v)


@pytest.mark.parametrize("r, n", [(2, 5), (2, 7), (3, 7), (3, 8)])
def test_codec_orders_codes_as_columns(r, n):
    codec = _codec(r, n)
    subsets = list(combinations(range(1, n + 1), r))
    assert len(codec.columns) == comb(n, r)
    assert [codec.code[col] for col in codec.columns] == list(range(comb(n, r)))
    for a, b in product(subsets, repeat=2):
        ca, cb = codec.code[a], codec.code[b]
        assert codec.columns[ca] == a
        assert (ca < cb) == (a < b)
        assert ((ca, cb) in codec.comparable) == _leq_cols(a, b)


@pytest.mark.parametrize("r, n, cols, bad", [
    (2, 3, [(2, 1), (1, 3)], (2, 1)),        # p21*p13: not increasing
    (2, 3, [(1, 2), (1, 4)], (1, 4)),        # outside [1, n]
    (2, 4, [(1, 2), (1, 2, 3)], (1, 2, 3)),  # wrong length
    (3, 7, [(0, 1, 2)], (0, 1, 2)),
])
def test_straighten_rejects_bad_columns(r, n, cols, bad):
    p = PlueckerPoly(r, n, {tuple(cols): 1})
    with pytest.raises(ValueError, match=re.escape(
            f"column {bad} is not an increasing {r}-subset of [1, {n}]")):
        straighten(p)


def test_degree_two_relations_are_spanned_by_the_six_rules():
    # the 28 products Y_i*Y_j, straightened and restricted to [(1,2,3), (3,5,7)],
    # span the 22 standard monomials, so their relations form a 6-dimensional
    # kernel; the six rules lie in it (criterion 5) and are independent
    pairs = [(i, j) for i in range(1, 8) for j in range(i, 8)]
    images = {(i, j): restrict_schubert(
        straighten(tableau_to_poly(g37.Y[i]) * tableau_to_poly(g37.Y[j])),
        g37.W37, (1, 2, 3)) for i, j in pairs}
    support = {m for q in images.values() for m in q.terms}
    assert len(pairs) == 28 and len(support) == 22
    assert sparse_rank([images[ij].terms for ij in pairs], len(support)) == 22
    relations = []
    for _name, (i, j), rhs in g37.RELATIONS:
        vector = {(i, j): Fraction(1)}
        for sign, ab in rhs:
            add_into(vector, ((tuple(sorted(ab)), Fraction(-sign)),))
        image = PlueckerPoly(3, 7)
        for ij, c in vector.items():
            image = image + images[ij].scale(c)
        assert image.is_zero()
        relations.append(vector)
    assert sparse_rank(relations) == 6


def test_restrict_schubert():
    p = (PlueckerPoly.monomial([(2, 4, 7), (3, 5, 7)], 7)
         - PlueckerPoly.monomial([(2, 3, 7), (4, 5, 7)], 7))
    got = restrict_schubert(p, (3, 5, 7), (1, 2, 3))
    assert got == PlueckerPoly.monomial([(2, 4, 7), (3, 5, 7)], 7)
    unchanged = PlueckerPoly.monomial([(1, 2, 3), (3, 5, 7)], 7)
    assert restrict_schubert(unchanged, (3, 5, 7), (1, 2, 3)) == unchanged
    # v = w keeps only powers of that single coordinate
    mixed = unchanged + PlueckerPoly.monomial([(3, 5, 7), (3, 5, 7)], 7)
    only_w = restrict_schubert(mixed, (3, 5, 7), (3, 5, 7))
    assert only_w == PlueckerPoly.monomial([(3, 5, 7), (3, 5, 7)], 7)


def test_tableau_to_poly_degrees():
    assert len(next(iter(tableau_to_poly(g37.GAMMA37).terms))) == 7
    assert len(next(iter(tableau_to_poly(g37.Z20).terms))) == 14
    single = Tableau(((1,), (2,), (3,)), 7)
    assert tableau_to_poly(single) == PlueckerPoly.monomial([(1, 2, 3)], 7)


def test_all_relations_hold_restricted_and_fail_raw():
    raw_failures = 0
    for name, (i, j), rhs in g37.RELATIONS:
        signed = [(s, [g37.Y[a], g37.Y[b]]) for s, (a, b) in rhs]
        ok, residue = verify_relation([g37.Y[i], g37.Y[j]], signed,
                                      g37.W37, (1, 2, 3))
        assert ok and residue.is_zero(), name
        raw_ok, raw_residue = verify_relation([g37.Y[i], g37.Y[j]], signed,
                                              (5, 6, 7), (1, 2, 3))
        if not raw_ok:
            raw_failures += 1
            assert not raw_residue.is_zero()
            # the obstruction lives outside the Schubert bound
            assert any(not all(x <= y for x, y in zip(col, g37.W37))
                       for mono in raw_residue.terms for col in mono)
    assert raw_failures >= 1


def test_y5_y7_equals_z20_on_schubert():
    ok, _ = verify_relation([g37.Y[5], g37.Y[7]], [(1, [g37.Z20])],
                            g37.W37, (1, 2, 3))
    assert ok


def test_invariant_products_stay_invariant():
    tabs = enumerate_invariants(3, 7, 1, (3, 5, 7), (1, 2, 3))
    degree2 = {tuple(t.columns()) for t in
               enumerate_invariants(3, 7, 2, (3, 5, 7), (1, 2, 3))}
    for i in range(len(tabs)):
        for j in range(i, len(tabs)):
            prod = straighten(tableau_to_poly(tabs[i]) * tableau_to_poly(tabs[j]))
            for mono in prod.terms:
                t = Tableau.from_columns(mono, 7)
                assert is_zero_weight(t)
            restricted = restrict_schubert(prod, (3, 5, 7), (1, 2, 3))
            for mono in restricted.terms:
                assert mono in degree2


def test_schubert_point_kills_relation_difference():
    """Points built from the all-skip cell matrix lie on the Schubert
    variety, so the unrestricted residue of a relation vanishes there."""
    from grassquot.deodhar import SubexpressionMask, W37_WORD, cell_matrix

    mask = SubexpressionMask(W37_WORD, (False,) * 9, 7)
    cell = cell_matrix(mask)
    rng = random.Random(99)
    name, (i, j), rhs = g37.RELATIONS[5]  # the two-term relation
    signed = [(s, [g37.Y[a], g37.Y[b]]) for s, (a, b) in rhs]
    _, raw_residue = verify_relation([g37.Y[i], g37.Y[j]], signed,
                                     (5, 6, 7), (1, 2, 3))
    for _ in range(5):
        values = [Fraction(rng.randint(-5, 5)) for _ in range(cell.nvars)]
        full = cell.substitute(values)
        M = tuple(row[:3] for row in full)
        for col in combinations(range(1, 8), 3):
            if not all(x <= y for x, y in zip(col, g37.W37)):
                assert minor(M, col) == 0
        assert evaluate(raw_residue, M) == 0
