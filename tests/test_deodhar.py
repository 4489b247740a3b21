import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from grassquot import g37
from grassquot.deodhar import (NotBelowError, SubexpressionMask, W37_WORD,
                               _cached_cell, _cell_columns, _cell_support,
                               cell_matrix, classify, descent_probe,
                               enumerate_distinguished, find_pds, lowered_v,
                               quotient_probe, restrict_section)
from grassquot.symbolic import Poly, mat_det, mat_mul
from grassquot.tableaux import Tableau, enumerate_invariants
from grassquot.weyl import (ColumnTuple, canonical_word, identity_perm,
                            minimal_richardson_v, minimal_schubert, perm_inv,
                            perm_length, perm_mul, reduced_word_of,
                            restriction_height, word_to_perm)

N = 7


def test_mask_requires_reduced_word():
    with pytest.raises(ValueError):
        SubexpressionMask((1, 1), (True, True), 3)


def test_classify_open_cell_of_v37():
    mask = SubexpressionMask(W37_WORD, (False,) * 6 + (True,) * 3, N)
    cls = classify(mask)
    assert sorted(cls.j_up) == [7, 8, 9]
    assert sorted(cls.j_free) == [1, 2, 3, 4, 5, 6]
    assert not cls.j_down
    assert cls.pds
    assert cls.product == word_to_perm((2, 4, 3), N)


def test_classify_all_skip_and_down_class():
    allskip = classify(SubexpressionMask(W37_WORD, (False,) * 9, N))
    assert sorted(allskip.j_free) == list(range(1, 10))
    assert allskip.pds and allskip.product == identity_perm(N)
    # keeping positions 3,8 repeats s4: the second becomes a descent
    down = classify(SubexpressionMask(
        W37_WORD, tuple(i in (2, 7) for i in range(9)), N))
    assert down.j_down and not down.pds


def test_find_pds_examples():
    cases = {
        (2, 4, 3): (7, 8, 9),
        (2, 3): (7, 9),
        (4, 3): (8, 9),
        (3,): (9,),
    }
    for word_v, kept in cases.items():
        mask = find_pds(W37_WORD, word_to_perm(word_v, N), N)
        assert mask.kept_positions() == kept
    assert find_pds(W37_WORD, identity_perm(N), N).kept_positions() == ()


def test_find_pds_rejects_elements_not_below():
    with pytest.raises(NotBelowError):
        find_pds((1,), word_to_perm((2,), 3), 3)
    with pytest.raises(NotBelowError):
        find_pds(W37_WORD, word_to_perm((6, 5, 6), N), N)


def test_enumerate_distinguished_matches_brute_force():
    targets = [word_to_perm((2, 4, 3), N), word_to_perm((3,), N), identity_perm(N)]
    brute: dict = {}
    for keep in product([False, True], repeat=9):
        cls = classify(SubexpressionMask(W37_WORD, keep, N))
        if cls.distinguished:
            brute.setdefault(cls.product, set()).add(keep)
    for v in targets:
        masks = enumerate_distinguished(W37_WORD, v, N)
        assert {m.keep for m in masks} == brute.get(v, set())
        flags = [classify(m).pds for m in masks]
        assert sum(flags) == 1  # the unique open component


def test_full_length_target_has_single_all_keep_mask():
    w = word_to_perm(W37_WORD, N)
    masks = enumerate_distinguished(W37_WORD, w, N)
    assert len(masks) == 1
    assert masks[0].keep == (True,) * 9


def test_pds_unique_for_every_subword_target():
    seen: dict = {}
    for keep in product([False, True], repeat=9):
        cls = classify(SubexpressionMask(W37_WORD, keep, N))
        seen.setdefault(cls.product, []).append(cls)
    for v, lst in seen.items():
        assert sum(1 for c in lst if c.pds) == 1


def test_cell_matrix_shapes_and_determinants():
    mask = find_pds(W37_WORD, word_to_perm((2, 4, 3), N), N)
    cell = cell_matrix(mask)
    assert len(cell.p_positions) == 6 and not cell.m_positions
    det = mat_det(cell.mat)
    assert det in (Poly.const(cell.nvars, 1), Poly.const(cell.nvars, -1))

    allskip = SubexpressionMask(W37_WORD, (False,) * 9, N)
    lower = cell_matrix(allskip)
    assert len(lower.p_positions) == 9
    for i in range(N):
        for j in range(i + 1, N):
            assert lower.mat[i][j].is_zero()
        assert lower.mat[i][i] == Poly.const(9, 1)

    allkeep = SubexpressionMask(W37_WORD, (True,) * 9, N)
    cell_k = cell_matrix(allkeep)
    assert cell_k.nvars == 0
    # the signed permutation matrix of w: unit minor at rows w(1..3) = 3,5,7
    p357 = restrict_section(Tableau(((3,), (5,), (7,)), N), allkeep)
    assert p357 in (Poly.const(0, 1), Poly.const(0, -1))
    assert restrict_section(Tableau(((1,), (2,), (3,)), N), allkeep).is_zero()
    # a word inside the parabolic fixes the base coset: unit minor at 1,2,3
    small = SubexpressionMask((2, 1), (True, True), N)
    p123 = restrict_section(Tableau(((1,), (2,), (3,)), N), small)
    assert p123 in (Poly.const(0, 1), Poly.const(0, -1))


def test_cell_matrix_determinants_are_units():
    from grassquot.deodhar import PROBE_CASES

    masks = [find_pds(W37_WORD, word_to_perm(w, N), N) for w in PROBE_CASES.values()]
    masks.append(SubexpressionMask(W37_WORD, (False,) * 9, N))
    masks.append(SubexpressionMask(W37_WORD, (True,) * 9, N))
    for mask in masks:
        cell = cell_matrix(mask)
        det = mat_det(cell.mat)
        assert det in (Poly.const(cell.nvars, 1), Poly.const(cell.nvars, -1))


def identity_matrix(n, nvars):
    return tuple(tuple(Poly.const(nvars, 1 if i == j else 0) for j in range(n))
                 for i in range(n))


def _factor_product(mask):
    """The cell matrix as the ordered product of full n x n factors: y_i(p)
    puts p at (i+1, i); x_i(m) s_i and s_i put [[m, -1], [1, 0]] and
    [[0, -1], [1, 0]] on the (i, i+1) block."""
    cls = classify(mask)
    positions = sorted(cls.j_free) + sorted(cls.j_down)
    nvars = len(positions)
    one, zero = Poly.const(nvars, 1), Poly.zero(nvars)
    acc = identity_matrix(mask.n, nvars)
    for pos, i in enumerate(mask.letters, start=1):
        fac = [list(row) for row in identity_matrix(mask.n, nvars)]
        if pos in cls.j_free:
            fac[i][i - 1] = Poly.var(nvars, positions.index(pos))
        else:
            top = Poly.var(nvars, positions.index(pos)) if pos in cls.j_down else zero
            fac[i - 1][i - 1], fac[i - 1][i] = top, -one
            fac[i][i - 1], fac[i][i] = one, zero
        acc = mat_mul(acc, tuple(map(tuple, fac)))
    return acc


def _distinguished_masks(word, n):
    masks = [SubexpressionMask(word, keep, n)
             for keep in product([False, True], repeat=len(word))]
    return [m for m in masks if classify(m).distinguished]


@pytest.mark.parametrize("word, n, count", [(W37_WORD, N, 404), ((1, 2, 1), 3, 7)])
def test_cell_matrix_equals_product_of_factors(word, n, count):
    masks = _distinguished_masks(word, n)
    assert len(masks) == count
    assert any(classify(m).j_down for m in masks)
    for mask in masks:
        cls = classify(mask)
        cell = cell_matrix(mask)
        assert cell.p_positions == tuple(sorted(cls.j_free))
        assert cell.m_positions == tuple(sorted(cls.j_down))
        assert cell.mat == _factor_product(mask)


@pytest.mark.parametrize("word, n, count", [(W37_WORD, N, 404),
                                             ((3, 2, 1, 6, 5, 4, 3, 2), 7, 220)])
def test_cell_support_covers_the_cell(word, n, count):
    masks = _distinguished_masks(word, n)
    assert len(masks) == count
    for mask in masks:
        cols, p_positions, m_positions = _cell_columns(mask)
        support, nvars = _cell_support(mask)
        assert nvars == len(p_positions) + len(m_positions)
        for c, col in enumerate(cols):
            assert all(support[c] >> row & 1 for row in col), (mask.keep, c)


def test_zero_sections_build_no_cell():
    # Y1 is nonzero on 19 of the 404 cells; the support proves the other
    # 385 zero, so only those 19 cells are built
    masks = _distinguished_masks(W37_WORD, N)
    _cached_cell.cache_clear()
    nonzero = sum(not restrict_section(g37.Y[1], mask).is_zero() for mask in masks)
    info = _cached_cell.cache_info()
    assert nonzero == 19
    assert (info.hits, info.misses) == (0, 19)


def _minor_product_section(t, cell):
    """Oracle: the product over the columns of t of the ``mat_det`` of the
    ``Poly`` submatrix of the cell matrix on those rows and its first r
    columns."""
    acc = Poly.const(cell.nvars, 1)
    for col in t.columns():
        acc = acc * mat_det([[cell.mat[i - 1][j] for j in range(t.r)] for i in col])
    return acc


@pytest.mark.parametrize("word, n, tableaux, count, nonzero", [
    (W37_WORD, N, [g37.Y[i] for i in range(1, 8)] + [g37.Z20], 404, 103),
    # the canonical word of w = (4, 7) in G(2, 7), with its degree-1 and
    # degree-2 invariants
    ((3, 2, 1, 6, 5, 4, 3, 2), 7,
     enumerate_invariants(2, 7, 1, (4, 7), (1, 2))
     + enumerate_invariants(2, 7, 2, (4, 7), (1, 2)), 220, 48),
])
def test_restrict_section_equals_minor_product_oracle(word, n, tableaux, count, nonzero):
    masks = _distinguished_masks(word, n)
    assert len(masks) == count
    seen = 0
    for mask in masks:
        cell = cell_matrix(mask)
        for t in tableaux:
            got = restrict_section(t, mask)
            assert got == _minor_product_section(t, cell), (t.rows, mask.keep)
            assert all(type(c) is Fraction for c in got.terms.values())
            seen += not got.is_zero()
    assert seen == nonzero


def test_restrict_section_on_the_all_keep_cell_equals_the_oracle():
    # no parameters: every section is a constant, the signed minor of the
    # permutation matrix of w on each single column
    allkeep = SubexpressionMask(W37_WORD, (True,) * 9, N)
    cell = cell_matrix(allkeep)
    assert cell.nvars == 0
    units = 0
    for col in combinations(range(1, N + 1), 3):
        t = Tableau(tuple((x,) for x in col), N)
        got = restrict_section(t, allkeep)
        assert got == _minor_product_section(t, cell)
        units += not got.is_zero()
    assert units == 1


def test_cell_matrix_rejects_non_distinguished():
    # keep only the first s2: the skipped second s2 at position 7 is a descent
    bad = SubexpressionMask(W37_WORD, tuple(i == 0 for i in range(9)), N)
    assert not classify(bad).distinguished
    with pytest.raises(ValueError):
        cell_matrix(bad)


def test_restrict_section_rejects_non_distinguished():
    bad = [SubexpressionMask(W37_WORD, keep, N)
           for keep in product([False, True], repeat=9)]
    bad = [m for m in bad if not classify(m).distinguished]
    assert len(bad) == 512 - 404
    for mask in bad:
        with pytest.raises(ValueError, match="mask is not distinguished"):
            restrict_section(g37.Y[1], mask)


def test_y1_restricts_to_the_unit_monomial():
    mask = find_pds(W37_WORD, word_to_perm((2, 4, 3), N), N)
    sec = restrict_section(g37.Y[1], mask)
    assert sec.terms == {(1, 4, 2, 5, 3, 6): Fraction(1)} or \
           sec.terms == {(1, 4, 2, 5, 3, 6): Fraction(-1)}
    for i in range(2, 8):
        assert restrict_section(g37.Y[i], mask).is_zero()


def test_conic_cell_sections():
    mask = find_pds(W37_WORD, word_to_perm((4, 3), N), N)
    secs = {i: restrict_section(g37.Y[i], mask) for i in range(1, 8)}
    assert sorted(i for i, p in secs.items() if not p.is_zero()) == [1, 3, 5]
    assert secs[1] * secs[5] == secs[3] * secs[3]


def _suffix_cases(r, n):
    """(v, suffix mask) pairs satisfying the homogeneity hypotheses."""
    w = minimal_schubert(r, n)
    wp = w.to_permutation()
    lw = perm_length(wp)
    out = []
    for entries in combinations(range(1, n + 1), r):
        if not all(a <= b for a, b in zip(entries, w.entries)):
            continue
        v = ColumnTuple(entries, n)
        vp = v.to_permutation()
        u = perm_mul(wp, perm_inv(vp))
        if perm_length(u) + perm_length(vp) != lw:
            continue
        word = reduced_word_of(u) + canonical_word(v).letters
        keep = (False,) * perm_length(u) + (True,) * perm_length(vp)
        out.append((v, SubexpressionMask(word, keep, n)))
    return out


def test_sections_restrict_homogeneously():
    rng = random.Random(1729)
    cases = _suffix_cases(3, 7)
    assert cases
    for _ in range(200):
        v, mask = rng.choice(cases)
        t = g37.Y[rng.randint(1, 7)]
        p = restrict_section(t, mask)
        hom, deg = p.is_homogeneous()
        assert hom
        if not p.is_zero():
            assert deg == restriction_height(v)


def test_probe_reports():
    expected = {"s2s4s3": [1], "s2s3": [1, 2], "s4s3": [1, 3, 5],
                "s3": [1, 2, 3, 4, 5, 6]}
    for case, nonzero in expected.items():
        rep = quotient_probe(case)
        assert rep["ok"], rep
        assert rep["nonvanishing"] == nonzero
    with pytest.raises(ValueError):
        quotient_probe("nope")


def test_descent_probe_consistency():
    # three sections on the conic cell, two on the line cell
    assert descent_probe(3, 7, 1)["section_count"] == 3
    assert descent_probe(3, 7, 2)["section_count"] == 2
    for r, n in [(3, 7), (3, 8)]:
        for i in (1, 2):
            rep = descent_probe(r, n, i)
            assert rep["consistent"], rep


def test_lowered_v_values():
    assert lowered_v(3, 7, 1).entries == (1, 2, 5)
    assert lowered_v(3, 7, 2).entries == (1, 3, 4)


def test_length_difference_is_rank_of_torus():
    for r, n in [(2, 3), (2, 5), (3, 7), (3, 8), (4, 9), (5, 12)]:
        w = minimal_schubert(r, n).to_permutation()
        v = minimal_richardson_v(r, n).to_permutation()
        assert perm_length(w) - perm_length(v) == n - 1


def test_restrict_section_shape_mismatch():
    mask = find_pds(W37_WORD, word_to_perm((3,), N), N)
    with pytest.raises(ValueError):
        restrict_section(Tableau(((1, 2), (3, 4)), 5), mask)
