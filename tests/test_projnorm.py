import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from grassquot import pluecker, projnorm
from grassquot.pluecker import PlueckerPoly, _codec, straighten, tableau_to_poly
from grassquot.projnorm import (FlaggedCase, LemmaViolation, defect_profile,
                                expand_factorization, factorize, family_check,
                                mod_m_symmetry, position_table, s_blocks, split,
                                surjectivity_oracle, swap_rewrite)
from grassquot.symbolic import add_into
from grassquot.tableaux import (Tableau, deglex_key, enumerate_invariants,
                                is_zero_weight)
from grassquot.weyl import gamma_tableau


def _family(n, m):
    return enumerate_invariants(2, n, m, (n - 1, n), (1, 2))


def minimal_invariant_tableau(n, m):
    """The degree-lex least invariant tableau of the full 2 x mn family.

    The column-lexicographic enumeration lists it first; its m shifted
    column selections are balanced and identical, giving the factorization
    base case.
    """
    return _family(n, m)[0]


def test_split_m1_is_identity():
    g = gamma_tableau(2, 5)
    s = split(g, 1)
    assert s.mu == g and s.nu.d == 0


def test_split_partitions_content():
    for t in _family(5, 2)[:5]:
        s = split(t, 2)
        total = t.content()
        assert s.mu.content() + s.nu.content() == total
        assert s.mu.d == 5 and s.nu.d == 5


def test_split_slices_rows_like_gathering_columns():
    for n, m in [(5, 1), (5, 2), (5, 3), (7, 2)]:
        for t in _family(n, m):
            s = split(t, m)
            cols = t.columns()
            assert s.mu == Tableau.from_columns(cols[::m], n, r=2)
            assert s.nu == Tableau.from_columns(
                [col for j, col in enumerate(cols) if j % m], n, r=2)


def test_split_shape_check():
    with pytest.raises(ValueError):
        split(gamma_tableau(2, 5), 2)


def test_minimal_tableau_has_balanced_selection():
    t = minimal_invariant_tableau(5, 2)
    assert deglex_key(t) == min(deglex_key(u) for u in _family(5, 2))
    s = split(t, 2)
    assert is_zero_weight(s.mu)
    assert defect_profile(t.rows, 2, 5).defects == ()


def test_minimal_tableau_factors_into_shifted_selections():
    for n, m in [(3, 2), (5, 2), (5, 3), (7, 2)]:
        t = minimal_invariant_tableau(n, m)
        selections = [
            Tableau.from_columns([t.column(c) for c in range(j, t.d, m)], n, r=2)
            for j in range(m)]
        assert all(is_zero_weight(sel) for sel in selections)
        assert len({sel.rows for sel in selections}) == 1
        fact = factorize(t)
        assert fact == [(Fraction(1), tuple(selections))]


def test_defect_alternation_exhaustively():
    for n, m in [(5, 2), (5, 3), (7, 2)]:
        for t in _family(n, m):
            profile = defect_profile(t.rows, m, n)
            counts = profile.multiplicity
            assert all(counts[i] >= 1 for i in range(1, n + 1))
            assert len(profile.defects) % 2 == 0
            for idx, i in enumerate(profile.defects, start=1):
                assert counts[i] == (3 if idx % 2 == 1 else 1)


def row_positions(t, i):
    """First/last 1-based columns where value i occurs in each row, by
    scanning the rows for i: the slow oracle for ``position_table``."""
    top, bottom = t.rows[0], t.rows[1]

    def first(row):
        return row.index(i) + 1 if i in row else None

    def last(row):
        return len(row) - row[::-1].index(i) if i in row else None

    return {"f_top": first(top), "l_top": last(top),
            "f_bottom": first(bottom), "l_bottom": last(bottom)}


def test_position_table_matches_row_scans():
    for n, m in [(5, 1), (5, 2), (5, 3), (7, 2), (7, 3)]:
        for t in _family(n, m):
            pos = position_table(t.rows, n)
            for i in range(1, n + 1):
                assert [col[i] for col in pos] == list(row_positions(t, i).values())


def test_mod_m_symmetry():
    g = gamma_tableau(2, 5)
    assert mod_m_symmetry(position_table(g.rows, 5), 3, 1) is True
    # a value in a single row makes the law vacuous (None)
    t = _family(5, 2)[0]
    pos = position_table(t.rows, 5)
    assert [mod_m_symmetry(pos, i, 2) for i in range(1, 6)] == [None, None, None, True, None]
    for n, m in [(5, 2), (5, 3), (7, 2)]:
        for t in _family(n, m):
            pos = position_table(t.rows, n)
            for i in range(1, n + 1):
                mod_m_symmetry(pos, i, m)  # raises on violation
    # first occurrences of 2 at columns 2 and 1: residue 1 mod 2
    bad = Tableau(((1, 2, 3, 3), (2, 3, 4, 4)), 4)
    with pytest.raises(LemmaViolation, match=re.escape(
            "first-occurrence residues of 2 violate the mod-2 law: "
            "{'f_top': 2, 'l_top': 2, 'f_bottom': 1, 'l_bottom': 1}")):
        mod_m_symmetry(position_table(bad.rows, 4), 2, 2)


def test_s_blocks_structure_exhaustively():
    for n, m in [(5, 2), (5, 3), (7, 2)]:
        for t in _family(n, m):
            profile = defect_profile(t.rows, m, n)
            blocks = s_blocks(t.rows, position_table(t.rows, n), profile, m)
            assert len(blocks) == len(profile.defects) // 2
            for b in blocks:
                assert len(b.pairs) >= 1
                first = b.entries(t.rows, 0)
                last = b.entries(t.rows, len(b.pairs) - 1)
                assert first[2] == b.defect
                assert last[3] == b.next_defect
                for k in range(len(b.pairs)):
                    e = b.entries(t.rows, k)
                    assert e[2] >= e[1]  # bottom-left at least top-right


def test_block_moves_are_strict_and_move_one_defect_unit():
    for n, m in [(5, 2), (5, 3), (7, 2), (7, 3)]:
        for t in _family(n, m):
            for b in projnorm._lemmas(t.rows, m, n)[1]:
                moves = projnorm._find_block_moves(t.rows, b)
                assert len(moves) == len(b.pairs)
                change = Counter()  # values gained minus values lost by the selected columns
                for k, move in enumerate(moves):
                    e = b.entries(t.rows, k)
                    new1, new2 = projnorm._apply_move(move, e)
                    assert new1[0] < new1[1] and new2[0] < new2[1], (t.rows, b, move)
                    change.update(new1)
                    change.subtract((e[0], e[2]))
                assert +change == Counter({b.next_defect: 1}), (t.rows, b, moves)
                assert -change == Counter({b.defect: 1}), (t.rows, b, moves)


def test_defect_free_swap_is_identity():
    t = minimal_invariant_tableau(5, 2)
    sr = swap_rewrite(t)
    assert sr.case == "defect-free"
    assert sr.corrections.is_zero()
    assert sr.mu_prime == split(t, 2).mu


def test_swap_rewrite_contract_exhaustively_n5():
    for m in (2, 3):
        for t in _family(5, m):
            sr = swap_rewrite(t)
            assert is_zero_weight(sr.mu_prime)
            tkey = deglex_key(t)
            for mono in sr.corrections.terms:
                assert (len(mono), tuple(mono)) < tkey
            # re-expansion: mu' * nu' + corrections straightens to p_t
            lhs = (PlueckerPoly.monomial(
                       tuple(sr.mu_prime.columns()) + sr.nu_prime_columns, 5)
                   + sr.corrections)
            assert (straighten(lhs) - tableau_to_poly(t)).is_zero()


def test_swap_rewrite_sampled_n7():
    rng = random.Random(1729)
    tabs = rng.sample(_family(7, 2), 100)
    for t in tabs:
        sr = swap_rewrite(t)
        assert is_zero_weight(sr.mu_prime)
        lhs = (PlueckerPoly.monomial(
                   tuple(sr.mu_prime.columns()) + sr.nu_prime_columns, 7)
               + sr.corrections)
        assert (straighten(lhs) - tableau_to_poly(t)).is_zero()


def test_factorize_degree_one_is_trivial():
    t = _family(5, 1)[0]
    assert factorize(t) == [(Fraction(1), (t,))]


def test_factorize_reexpands_exhaustively_n5_m2():
    memo: dict = {}
    for t in _family(5, 2):
        fact = factorize(t, memo)
        assert all(u.d == 5 for _, tabs in fact for u in tabs)
        assert (expand_factorization(fact, 5) - tableau_to_poly(t)).is_zero()


def test_factorize_terminates_on_larger_families():
    memo: dict = {}
    for t in _family(5, 3):
        factorize(t, memo)
    rng = random.Random(11)
    for t in rng.sample(_family(7, 2), 40):
        fact = factorize(t, memo)
        assert (expand_factorization(fact, 7) - tableau_to_poly(t)).is_zero()


def _code_key(t):
    return _codec(2, t.n).encode(t.columns())


def test_certificate_agrees_with_reexpansion_exhaustively():
    # the induction (fast path) and the factorization multiplied back out
    # (slow oracle) accept every tableau, and rest on the same tableaux
    for n, m in [(5, 3), (7, 2)]:
        codec = _codec(2, n)
        certified: dict = {}
        factorized: dict = {}
        for t in _family(n, m):
            projnorm._certify(_code_key(t), codec, certified)
            fact = factorize(t, factorized)
            assert (expand_factorization(fact, n) - tableau_to_poly(t)).is_zero()
        assert set(certified.values()) == {None}
        assert ({tuple(zip(*(codec.columns[c] for c in key))) for key in certified}
                == {rows for rows in factorized if len(rows[0]) > n})


def _fraction_swap_step(t, m, profile, blocks):
    """The swap-repair step on PlueckerPoly and Fraction objects, the slow
    oracle for projnorm._step: (mu', nu' columns, corrections, case).  It
    straightens the whole expansion back to p_t, then straightens the rest."""
    n = t.n
    if not profile.defects:
        s = split(t, m)
        return s.mu, tuple(s.nu.columns()), PlueckerPoly.zero(2, n), "defect-free"
    used = set()
    for b in blocks:
        cols = {c for pair in b.pairs for c in pair}
        if used & cols:
            raise FlaggedCase(f"blocks share columns near defect {b.defect}")
        used |= cols
    cols = t.columns()
    options = []
    case = "bottom-swaps"
    for b in blocks:
        moves = projnorm._find_block_moves(t.rows, b)
        if any(mv in ("T", "C", "N") for mv in moves):
            case = "mixed-swaps"
        for k, ((c1, c2), mv) in enumerate(zip(b.pairs, moves)):
            e = b.entries(t.rows, k)
            new1, new2 = projnorm._apply_move(mv, e)
            cols[c1 - 1], cols[c2 - 1] = new1, new2
            p, q, r, s_ = e
            if mv in ("B", "T") and p < q and r < s_:
                options.append([(new1, new2), ((p, q), (r, s_))])
            else:
                options.append([(new1, new2)])
    untouched = [c for j, c in enumerate(cols, start=1) if j not in used]
    mu_cols = cols[::m]
    nu_cols = [c for j, c in enumerate(cols) if j % m]
    try:
        mu_prime = Tableau.from_columns(mu_cols, n, r=2)
    except ValueError as exc:
        raise LemmaViolation(
            f"swapped selected columns {mu_cols} form no tableau: {exc}") from None
    if not is_zero_weight(mu_prime):
        raise LemmaViolation(f"swapped selected columns not balanced: {mu_cols}")
    expansion = {tuple(sorted(untouched)): Fraction(1)}
    for opt in options:
        expansion = add_into({}, ((tuple(sorted(mono + pair)), c)
                                  for mono, c in expansion.items() for pair in opt))
    if not (straighten(PlueckerPoly(2, n, expansion)) - tableau_to_poly(t)).is_zero():
        raise LemmaViolation("pair expansion does not straighten back to the input")
    main_key = tuple(sorted(cols))
    rest = dict(expansion)
    coeff = rest.pop(main_key, Fraction(0))
    if coeff == 0:
        raise LemmaViolation("swapped monomial missing from its own expansion")
    if coeff != 1:
        rest[main_key] = coeff - 1
    corrections = straighten(PlueckerPoly(2, n, rest))
    for mono in corrections.terms:
        if (len(mono), tuple(mono)) >= deglex_key(t):
            raise LemmaViolation(f"correction monomial {mono} not smaller than the input")
    return mu_prime, tuple(sorted(nu_cols)), corrections, case


def _oracle_step(t):
    m = t.d // t.n
    return _fraction_swap_step(t, m, *projnorm._lemmas(t.rows, m, t.n))


def _assert_same_step(t):
    mu, nu, corrections, case = _oracle_step(t)
    sr = swap_rewrite(t)
    assert (sr.mu_prime, sr.nu_prime_columns, sr.case) == (mu, nu, case), t.rows
    got = list(sr.corrections.terms.items())
    assert got == list(corrections.terms.items()), t.rows
    assert all(type(c) is Fraction for _, c in got)


def test_code_step_matches_the_fraction_step():
    # every tableau of the nine G(2,n) families the benchmark certifies, and
    # 200 seeded (9,2) tableaux with their wider blocks
    for n, m in [(5, 2), (5, 3), (5, 4), (5, 5), (5, 6), (5, 7), (5, 8), (7, 2), (7, 3)]:
        for t in _family(n, m):
            _assert_same_step(t)
    cases = Counter()
    for t in random.Random(2027).sample(_family(9, 2), 200):
        _assert_same_step(t)
        cases[swap_rewrite(t).case] += 1
    assert cases["mixed-swaps"] > 0 and cases["bottom-swaps"] > 0


def test_degree_lex_guard_rejects_a_correction_equal_to_the_input(monkeypatch):
    # every straightening also returns p_t when it is missing: the expansion
    # still straightens back to p_t, and p_t turns up among the corrections,
    # which the guard must reject in both steps with the same message
    real = pluecker._straighten_codes
    defected = [t for t in _family(7, 2) if projnorm._lemmas(t.rows, 2, 7)[0].defects]
    for t in defected[:20]:
        key = _code_key(t)

        def with_input(pending, comparable, exchange):
            done = real(pending, comparable, exchange)
            return done if key in done else {key: 1, **done}

        monkeypatch.setattr(pluecker, "_straighten_codes", with_input)
        monkeypatch.setattr(projnorm, "_straighten_codes", with_input)
        message = re.escape(f"correction monomial {tuple(t.columns())} not smaller than the input")
        with pytest.raises(LemmaViolation, match=message):
            _oracle_step(t)
        with pytest.raises(LemmaViolation, match=message):
            swap_rewrite(t)


def _reexpansion_family_check(n, m):
    """family_check's violations and pass counts by the slow path: every
    factorization is built by factorize and multiplied back out."""
    violations = []
    passed = dict.fromkeys(
        ("defect_laws", "residue_law", "block_laws", "swap_contract", "factorize"), 0)
    memo: dict = {}
    for t in _family(n, m):
        try:
            profile = defect_profile(t.rows, m, n)
            passed["defect_laws"] += 1
            pos = position_table(t.rows, n)
            for i in range(1, n + 1):
                mod_m_symmetry(pos, i, m)
            passed["residue_law"] += 1
            s_blocks(t.rows, pos, profile, m)
            passed["block_laws"] += 1
            swap_rewrite(t)
            passed["swap_contract"] += 1
            fact = factorize(t, memo)
            if not (expand_factorization(fact, n) - tableau_to_poly(t)).is_zero():
                raise LemmaViolation("factorization does not re-expand to the input")
            passed["factorize"] += 1
        except (LemmaViolation, FlaggedCase) as exc:
            violations.append({"tableau": [list(r) for r in t.rows], "error": str(exc)})
    return violations, passed


def _inject_failures(monkeypatch, broken):
    """Make projnorm._step raise broken[rows](message) on the tableaux with
    those rows, for family_check, _certify and swap_rewrite alike."""
    real = projnorm._step

    def failing(rows, *args):
        if rows in broken:
            raise broken[rows](f"injected failure at {rows}")
        return real(rows, *args)

    monkeypatch.setattr(projnorm, "_step", failing)


def test_failed_dependency_reports_like_the_reexpansion_path(monkeypatch):
    # two degree-2 tableaux that degree-3 tableaux of (5,3) rest on fail their
    # swap repair; each dependent reports the failure's text, as on the slow path
    fam2 = _family(5, 2)
    _inject_failures(monkeypatch, {fam2[4].rows: LemmaViolation, fam2[0].rows: FlaggedCase})
    report = family_check(5, 3)
    violations, passed = _reexpansion_family_check(5, 3)
    assert len(violations) == 7 and not report["ok"]
    assert report["violations"] == violations
    assert report["lemma_pass_counts"] == passed
    assert report["reexpanded"] == passed["factorize"] == 31 - 7
    # a stored failure is raised afresh with its type
    memo: dict = {}
    for _ in range(2):
        with pytest.raises(FlaggedCase, match="injected failure"):
            projnorm._certify(_code_key(fam2[0]), _codec(2, 5), memo)


def test_failed_correction_reports_like_the_reexpansion_path(monkeypatch):
    # the (7,2) tableau that most others take as a correction fails its own
    # step; the tableaux resting on it fail with its text, as on the slow path
    uses = Counter(tuple(zip(*mono)) for t in _family(7, 2)
                   for mono in swap_rewrite(t).corrections.terms)
    (rows, count), = uses.most_common(1)
    _inject_failures(monkeypatch, {rows: FlaggedCase})
    report = family_check(7, 2)
    violations, passed = _reexpansion_family_check(7, 2)
    assert len(violations) > count > 1
    assert report["violations"] == violations
    assert report["lemma_pass_counts"] == passed
    assert report["reexpanded"] == passed["factorize"]


def test_family_check_builds_no_factorization(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("family_check built or re-expanded a factorization")

    monkeypatch.setattr(projnorm, "expand_factorization", unreachable)
    monkeypatch.setattr(projnorm, "_combine", unreachable)
    report = family_check(5, 3)
    assert report["ok"] and report["reexpanded"] == report["family_size"] == 31


def test_family_check_green():
    rep = family_check(5, 2)
    assert rep["ok"] and rep["family_size"] == 16
    rep7 = family_check(7, 2, sample=60, seed=3)
    assert rep7["ok"] and rep7["checked"] == 60


def test_family_check_splits_each_tableau_once(monkeypatch):
    # the 981 members and the 260 further tableaux the certificate rests on,
    # each split and stepped once (the certificate reuses the contract's step)
    stepped = []
    real_step = projnorm._step

    def counting_step(rows, *args):
        stepped.append(rows)
        return real_step(rows, *args)

    monkeypatch.setattr(projnorm, "_step", counting_step)
    report = family_check(7, 3)
    assert len(stepped) == len(set(stepped)) == 1241
    assert report == {
        "n": 7, "m": 3, "family_size": 981, "checked": 981, "defected": 945,
        "cases": {"bottom-swaps": 825, "defect-free": 36, "mixed-swaps": 120},
        "lemma_pass_counts": dict.fromkeys(
            ("defect_laws", "residue_law", "block_laws", "swap_contract", "factorize"), 981),
        "reexpanded": 981, "violations": [], "ok": True}


def test_surjectivity_oracle():
    assert surjectivity_oracle(5, 1) == (6, 6, True)
    rank, dim, equal = surjectivity_oracle(5, 2)
    assert equal and rank == dim == 16


def test_surjectivity_oracle_rejects_even_n():
    with pytest.raises(ValueError):
        surjectivity_oracle(4, 2)


def test_defect_profile_flags_non_invariant_input():
    # semistandard but not balanced: the alternation law fails and is reported
    rows = ((1, 1, 1, 1, 2, 2, 2, 2, 3, 3),
            (2, 2, 3, 3, 3, 4, 4, 5, 5, 5))
    Tableau(rows, 5)  # a valid tableau
    with pytest.raises(LemmaViolation):
        defect_profile(rows, 2, 5)


def test_family_beyond_the_core_cases():
    # a sampled sweep of the next odd rank exercises the repair search
    # on richer block structures
    rep = family_check(9, 2, sample=60, seed=5)
    assert rep["ok"], rep["violations"][:2]
    assert rep["family_size"] == 4600
