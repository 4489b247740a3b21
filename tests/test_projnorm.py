import random
from collections import Counter
from fractions import Fraction

import pytest

from grassquot import projnorm
from grassquot.pluecker import PlueckerPoly, straighten, tableau_to_poly
from grassquot.projnorm import (FlaggedCase, LemmaViolation, defect_profile,
                                expand_factorization, factorize, family_check,
                                mod_m_symmetry, s_blocks, split,
                                surjectivity_oracle, swap_rewrite)
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
    assert defect_profile(s).defects == ()


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
            profile = defect_profile(split(t, m))
            counts = profile.multiplicity
            assert all(counts[i] >= 1 for i in range(1, n + 1))
            assert len(profile.defects) % 2 == 0
            for idx, i in enumerate(profile.defects, start=1):
                assert counts[i] == (3 if idx % 2 == 1 else 1)


def test_mod_m_symmetry():
    g = gamma_tableau(2, 5)
    rep = mod_m_symmetry(g, 3, 1)
    assert rep["both_rows"] and rep["congruence_holds"]
    # a value in a single row makes the law vacuous (None)
    t = _family(5, 2)[0]
    reps = [mod_m_symmetry(t, i, 2) for i in range(1, 6)]
    assert [r["congruence_holds"] for r in reps] == [None, None, None, True, None]
    for n, m in [(5, 2), (5, 3), (7, 2)]:
        for t in _family(n, m):
            for i in range(1, n + 1):
                mod_m_symmetry(t, i, m)  # raises on violation


def test_s_blocks_structure_exhaustively():
    for n, m in [(5, 2), (5, 3), (7, 2)]:
        for t in _family(n, m):
            profile = defect_profile(split(t, m))
            blocks = s_blocks(t, profile, m)
            assert len(blocks) == len(profile.defects) // 2
            for b in blocks:
                assert len(b.pairs) >= 1
                first = b.entries(t, 0)
                last = b.entries(t, len(b.pairs) - 1)
                assert first[2] == b.defect
                assert last[3] == b.next_defect
                for k in range(len(b.pairs)):
                    e = b.entries(t, k)
                    assert e[2] >= e[1]  # bottom-left at least top-right


def test_block_moves_are_strict_and_move_one_defect_unit():
    for n, m in [(5, 2), (5, 3), (7, 2), (7, 3)]:
        for t in _family(n, m):
            for b in s_blocks(t, defect_profile(split(t, m)), m):
                moves = projnorm._find_block_moves(t, b)
                assert len(moves) == len(b.pairs)
                change = Counter()  # values gained minus values lost by the selected columns
                for k, move in enumerate(moves):
                    e = b.entries(t, k)
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


def test_certificate_agrees_with_reexpansion_exhaustively():
    # the induction (fast path) and the factorization multiplied back out
    # (slow oracle) accept every tableau, and rest on the same tableaux
    for n, m in [(5, 3), (7, 2)]:
        certified: dict = {}
        factorized: dict = {}
        for t in _family(n, m):
            projnorm._certify(t.rows, n, certified)
            fact = factorize(t, factorized)
            assert (expand_factorization(fact, n) - tableau_to_poly(t)).is_zero()
        assert set(certified.values()) == {None}
        assert set(certified) == {rows for rows in factorized if len(rows[0]) > n}


def _reexpansion_family_check(n, m):
    """family_check's violations and pass counts by the slow path: every
    factorization is built by factorize and multiplied back out."""
    violations = []
    passed = dict.fromkeys(
        ("defect_laws", "residue_law", "block_laws", "swap_contract", "factorize"), 0)
    memo: dict = {}
    for t in _family(n, m):
        try:
            s = split(t, m)
            profile = defect_profile(s)
            passed["defect_laws"] += 1
            for i in range(1, n + 1):
                mod_m_symmetry(t, i, m)
            passed["residue_law"] += 1
            s_blocks(t, profile, m)
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


def _inject_failures(monkeypatch, name, broken):
    """Make projnorm.<name> raise broken[t.rows](message) on those tableaux."""
    real = getattr(projnorm, name)

    def failing(t, *args):
        if t.rows in broken:
            raise broken[t.rows](f"injected failure at {t.rows}")
        return real(t, *args)

    monkeypatch.setattr(projnorm, name, failing)


def test_failed_dependency_reports_like_the_reexpansion_path(monkeypatch):
    # two degree-2 tableaux that degree-3 tableaux of (5,3) rest on fail their
    # swap repair; each dependent reports the failure's text, as on the slow path
    fam2 = _family(5, 2)
    _inject_failures(monkeypatch, "swap_rewrite",
                     {fam2[4].rows: LemmaViolation, fam2[0].rows: FlaggedCase})
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
            projnorm._certify(fam2[0].rows, 5, memo)


def test_failed_correction_reports_like_the_reexpansion_path(monkeypatch):
    # the (7,2) tableau that most others take as a correction fails its own
    # step; the tableaux resting on it fail with its text, as on the slow path
    uses = Counter(tuple(zip(*mono)) for t in _family(7, 2)
                   for mono in swap_rewrite(t).corrections.terms)
    (rows, count), = uses.most_common(1)
    _inject_failures(monkeypatch, "_swap_repaired", {rows: FlaggedCase})
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
    # each split once (the certificate reuses the contract's swap repair,
    # which reuses the family's split)
    split_of = []
    real_split = projnorm.split

    def counting_split(t, m):
        split_of.append(t.rows)
        return real_split(t, m)

    monkeypatch.setattr(projnorm, "split", counting_split)
    report = family_check(7, 3)
    assert len(split_of) == 1241
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
    t = Tableau(rows, 5)
    with pytest.raises(LemmaViolation):
        defect_profile(split(t, 2))


def test_family_beyond_the_core_cases():
    # a sampled sweep of the next odd rank exercises the repair search
    # on richer block structures
    rep = family_check(9, 2, sample=60, seed=5)
    assert rep["ok"], rep["violations"][:2]
    assert rep["family_size"] == 4600
