import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from grassquot.rewriting import (_exhaustive_failures, _packed, _width,
                                 all_normal_forms, ambiguities, apply_rule,
                                 check_confluence, format_mono, format_poly,
                                 g37_rules, grlex_key, make_system,
                                 normal_form_count, parse_rules, reduce_poly,
                                 scroll_matrix_check, y_mono)
from grassquot.tableaux import enumerate_invariants

SYSTEM = g37_rules()

# g37 with Y3*Y6 -> Y4*Y5 replaced by Y3*Y6 -> Y4^2: four of the eight
# ambiguities fail to join
NEGATIVE_RULES = """\
Y1*Y4 -> Y2*Y3 - Y2*Y7 + Y1*Y7
Y1*Y5 -> Y3^2 - Y3*Y7
Y1*Y6 -> Y3*Y4 - Y4*Y7
Y2*Y5 -> Y3*Y4 - Y3*Y7
Y2*Y6 -> Y4^2 - Y4*Y7
Y3*Y6 -> Y4^2
"""

# g37 with Y3*Y6 -> Y4*Y5 replaced by Y3*Y6 -> 1/2*Y4*Y5: not confluent, and
# rational
RATIONAL_RULES = NEGATIVE_RULES.replace("Y3*Y6 -> Y4^2", "Y3*Y6 -> 1/2*Y4*Y5")

# right sides of degree 1 below quadratic left sides, so a reduction mixes
# degrees; Y1*Y2*Y3 reduces to Y3^2 and to Y1^2, and the rules are not
# confluent.  Y3^4 does not fit the 1-bit fields of a degree-1 input: its
# exponent would spill into Y2's field
MIXED_DEGREE_RULES = """\
Y1*Y2 -> Y3
Y2*Y3 -> Y1
Y3^4 -> Y1*Y2*Y3
"""

RULE_SETS = {"g37": SYSTEM,
             "negative": parse_rules(NEGATIVE_RULES, 7),
             "rational": parse_rules(RATIONAL_RULES, 7),
             "mixed_degree": parse_rules(MIXED_DEGREE_RULES, 3)}

# Y3*Y6 sent to right sides of two and three terms, where the number of
# reduction strategies, and the oracle's search, grow fastest; the oracle
# is compared with them through degree 3
WIDE_RULE_SETS = {
    name: parse_rules(NEGATIVE_RULES.replace("Y3*Y6 -> Y4^2", "Y3*Y6 -> " + rhs), 7)
    for name, rhs in (("two_term", "2*Y4*Y5 - Y4^2"),
                      ("two_term_rational", "1/2*Y4^2 + 1/2*Y4*Y5"),
                      ("three_term", "Y4*Y5 - Y4^2 + Y4*Y7"))}

NON_CONFLUENT = {name: system
                 for name, system in (RULE_SETS | WIDE_RULE_SETS).items() if name != "g37"}


# -- slow oracles: rewriting by whole-polynomial steps on Fraction keys ------

def _poly_key(p):
    return tuple(sorted((m, c) for m, c in p.items()))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def find_rule(p_mono, system):
    for i, (lhs, _) in enumerate(system.rules):
        if mono_divides(lhs, p_mono):
            return i
    return None


def _reduce_oracle(p, system):
    """Re-sort the polynomial after every step and reduce its largest
    reducible monomial by the first rule that divides it."""
    cur = dict(p)
    while True:
        for mono in sorted(cur, key=grlex_key, reverse=True):
            idx = find_rule(mono, system)
            if idx is not None:
                cur = apply_rule(cur, mono, idx, system)
                break
        else:
            return cur


def _all_normal_forms_oracle(p, system, memo):
    key = _poly_key(p)
    if key not in memo:
        reducts = [apply_rule(p, mono, idx, system)
                   for mono in p for idx, (lhs, _) in enumerate(system.rules)
                   if all(a <= b for a, b in zip(lhs, mono))]
        memo[key] = (set().union(*(_all_normal_forms_oracle(q, system, memo) for q in reducts))
                     if reducts else {key})
    return memo[key]


def _exhaustive_oracle(system, through_degree):
    memo = {}
    failures = []
    for deg in range(2, through_degree + 1):
        for mono in combinations_with_replacement(range(1, system.k + 1), deg):
            m = y_mono(system.k, *mono)
            forms = _all_normal_forms_oracle({m: Fraction(1)}, system, memo)
            if len(forms) != 1:
                failures.append({"monomial": m, "normal_forms": sorted(forms)})
    return failures


def _count_oracle(system, m):
    """Degree-m monomials divisible by no left-hand side, one by one."""
    count = 0
    for mono in combinations_with_replacement(range(1, system.k + 1), m):
        if find_rule(y_mono(system.k, *mono), system) is None:
            count += 1
    return count


def _random_exponents(rng, k, degree):
    e = [0] * k
    for _ in range(degree):
        e[rng.randrange(k)] += 1
    return e


def _random_poly(rng, k, degree, terms):
    poly = {}
    for _ in range(terms):
        poly[tuple(_random_exponents(rng, k, degree))] = Fraction(
            rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return poly


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_reduce_poly_matches_the_sort_and_scan_oracle(name):
    # degrees 2..9 as the benchmark draws them, then 10..40, whose packed
    # fields are 4, 5 and 6 bits wide, then 0..1, whose 1-bit fields hold
    # no left-hand side
    system = RULE_SETS[name]
    rng = random.Random(f"reduce/{name}")
    shapes = ([(rng.randint(2, 9), rng.randint(1, 6)) for _ in range(200)]
              + [(rng.randint(10, 40), rng.randint(1, 3)) for _ in range(24)]
              + [(rng.randint(0, 1), rng.randint(1, 3)) for _ in range(8)])
    for degree, terms in shapes:
        p = _random_poly(rng, system.k, degree, terms)
        got = reduce_poly(p, system)
        assert got == _reduce_oracle(p, system), p
        assert all(type(c) is Fraction for c in got.values())
        keys = [grlex_key(m) for m in got]
        assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_exhaustive_failures_match_the_fraction_keyed_oracle(name):
    system = RULE_SETS[name]
    failures = _exhaustive_failures(system, 4)
    assert failures == _exhaustive_oracle(system, 4)
    assert (name == "g37") == (failures == [])
    for failure in failures:
        for form in failure["normal_forms"]:
            assert all(type(c) is Fraction for _m, c in form)


def test_exhaustive_failures_build_one_packed_table():
    _packed.cache_clear()
    _exhaustive_failures(RULE_SETS["negative"], 4)
    info = _packed.cache_info()
    assert (info.misses, info.hits) == (1, 0)


@st.composite
def monomial_pairs(draw):
    """k and two exponent vectors in k generators of degree at most 40."""
    k = draw(st.integers(min_value=1, max_value=7))
    vectors = []
    for _ in range(2):
        e = [0] * k
        for i in draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=40)):
            e[i] += 1
        vectors.append(tuple(e))
    return k, *vectors


@settings(max_examples=400, deadline=None, derandomize=True)
@given(monomial_pairs())
def test_packed_codes_keep_grlex_order_divisibility_and_cofactors(pair):
    k, a, b = pair
    packed = _packed(make_system(k, []), _width(max(sum(a), sum(b))))
    x, y = packed.encode(a), packed.encode(b)
    assert packed.decode(x) == a and packed.decode(y) == b
    assert (x < y) == (grlex_key(a) < grlex_key(b)) and (x == y) == (a == b)
    divides = all(s <= t for s, t in zip(a, b))
    assert packed.divides(x, y) == divides
    if divides:
        # a rewrite of b by a left side a to a monomial m of degree at most
        # deg a is the code of b / a * m
        m = tuple(sorted(a))
        assert y + (packed.encode(m) - x) == packed.encode(
            tuple(t - s + u for s, t, u in zip(a, b, m)))


@pytest.mark.parametrize("name", ["two_term", "two_term_rational"])
def test_exhaustive_failures_of_two_term_sides_match_the_oracle(name):
    system = WIDE_RULE_SETS[name]
    failures = _exhaustive_failures(system, 3)
    assert failures and failures == _exhaustive_oracle(system, 3)


def test_three_term_side_through_degree_4():
    system = WIDE_RULE_SETS["three_term"]
    failures = _exhaustive_failures(system, 4)
    assert len(failures) == 36
    low = [f for f in failures if sum(f["monomial"]) <= 3]
    assert low and low == _exhaustive_oracle(system, 3)
    for failure in failures:
        forms = failure["normal_forms"]
        assert len(forms) > 1 and forms == sorted(set(forms))


@pytest.mark.parametrize("name", sorted(NON_CONFLUENT))
def test_all_normal_forms_of_polynomials_match_the_oracle(name):
    # the split search adds NF(U) to each normal form of N; a random
    # polynomial of 2-4 terms, half of them with a monomial that fails,
    # mixes unique and non-unique terms and exercises the sum
    system = NON_CONFLUENT[name]
    failing = [f["monomial"] for f in _exhaustive_oracle(system, 3)]
    rng = random.Random(f"forms/{name}")
    oracle_memo = {}
    checked = several = 0
    for i in range(80):
        p = _random_poly(rng, system.k, rng.randint(2, 3), rng.randint(2, 4))
        if i % 2:
            del p[next(iter(p))]
            p[rng.choice(failing)] = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        if len(p) < 2:
            continue
        checked += 1
        forms = all_normal_forms(p, system)
        assert forms == _all_normal_forms_oracle(p, system, oracle_memo), p
        assert all(type(c) is Fraction for form in forms for _m, c in form)
        several += len(forms) > 1
    assert checked >= 60 and several >= 20


def test_rules_oriented_downhill():
    for lhs, rhs in SYSTEM.rules:
        for m, _ in rhs:
            assert grlex_key(m) < grlex_key(lhs)


def test_misoriented_rule_rejected():
    with pytest.raises(ValueError):
        make_system(2, [((1, 0), {(0, 2): Fraction(1)})])  # Y1 -> Y2^2 grows


def test_reduce_examples():
    assert reduce_poly({y_mono(7, 1, 5): Fraction(1)}, SYSTEM) == {
        y_mono(7, 3, 3): Fraction(1), y_mono(7, 3, 7): Fraction(-1)}
    assert reduce_poly({y_mono(7, 1, 2, 5): Fraction(1)}, SYSTEM) == {
        y_mono(7, 2, 3, 3): Fraction(1), y_mono(7, 2, 3, 7): Fraction(-1)}
    for k in (1, 2, 5):
        m = tuple(0 if i != 6 else k for i in range(7))
        assert reduce_poly({m: Fraction(1)}, SYSTEM) == {m: Fraction(1)}


def test_ambiguities_include_the_documented_four():
    names = {format_mono(a[0]) for a in ambiguities(SYSTEM)}
    assert {"Y1*Y2*Y5", "Y1*Y2*Y6", "Y1*Y3*Y6", "Y2*Y3*Y6"} <= names
    assert len(names) == 8


def test_coprime_pairs_not_reported():
    system = make_system(3, [
        ((2, 0, 0), {(0, 1, 0): Fraction(1)}),
        ((0, 2, 0), {(0, 0, 1): Fraction(1)}),
    ])
    assert ambiguities(system) == []


def test_confluence_with_documented_joins():
    rep = check_confluence(SYSTEM, through_degree=4)
    assert rep["ok"]
    assert rep["exhaustive_ok"]
    joins = {format_mono(a["monomial"]): a for a in rep["ambiguities"]}
    assert joins["Y1*Y2*Y5"]["normal_form"] == {
        y_mono(7, 2, 3, 3): Fraction(1), y_mono(7, 2, 3, 7): Fraction(-1)}
    assert joins["Y1*Y2*Y6"]["normal_form"] == {
        y_mono(7, 2, 3, 4): Fraction(1), y_mono(7, 2, 4, 7): Fraction(-1)}
    assert joins["Y2*Y5*Y6"]["normal_form"] == {
        y_mono(7, 4, 4, 5): Fraction(1), y_mono(7, 4, 5, 7): Fraction(-1)}
    # the degree-homogeneous join of the remaining documented ambiguity
    assert joins["Y2*Y3*Y6"]["normal_form"] == {
        y_mono(7, 3, 4, 4): Fraction(1), y_mono(7, 3, 4, 7): Fraction(-1)}


def test_joins_agree_with_full_search_on_g37_through_degree_4():
    rep = check_confluence(SYSTEM, through_degree=4)
    assert all(a["joined"] for a in rep["ambiguities"])
    assert rep["exhaustive_ok"] and rep["exhaustive_failures"] == []
    assert _exhaustive_failures(SYSTEM, 4) == []


def test_failing_joins_keep_the_full_search():
    system = parse_rules(NEGATIVE_RULES, 7)
    rep = check_confluence(system, through_degree=4)
    assert [a["joined"] for a in rep["ambiguities"]].count(False) == 4
    assert len(rep["ambiguities"]) == 8
    assert not rep["ok"] and not rep["exhaustive_ok"]
    assert rep["exhaustive_failures"] == _exhaustive_failures(system, 4)
    assert len(rep["exhaustive_failures"]) == 34


@st.composite
def monic_downhill_systems(draw):
    """Up to four rules with distinct quadratic left sides in at most three
    generators, each right side up to two quadratic monomials below it."""
    k = draw(st.integers(min_value=1, max_value=3))
    quadratics = [y_mono(k, *c) for c in combinations_with_replacement(range(1, k + 1), 2)]
    lhss = draw(st.lists(st.sampled_from(quadratics), min_size=1, max_size=4,
                         unique=True))
    rules = []
    for lhs in lhss:
        below = [m for m in quadratics if grlex_key(m) < grlex_key(lhs)]
        rhs = draw(st.dictionaries(
            st.sampled_from(below),
            st.integers(min_value=-2, max_value=2).filter(bool).map(Fraction),
            max_size=2) if below else st.just({}))
        rules.append((lhs, rhs))
    return make_system(k, rules)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monic_downhill_systems())
def test_joined_ambiguities_leave_no_exhaustive_failure(system):
    # Buchberger's criterion: when every ambiguity joins, no reduction
    # strategy of any monomial reaches a second normal form
    rep = check_confluence(system, through_degree=3)
    failures = _exhaustive_failures(system, 3)
    assert failures == _exhaustive_oracle(system, 3)
    assert rep["exhaustive_failures"] == failures
    if all(a["joined"] for a in rep["ambiguities"]):
        assert failures == []


def test_empty_system_trivially_confluent():
    rep = check_confluence(make_system(3, []), through_degree=3)
    assert rep["ok"] and rep["ambiguities"] == []


def test_normal_form_counts():
    assert normal_form_count(SYSTEM, 1) == 7
    assert normal_form_count(SYSTEM, 2) == 22


def test_normal_form_count_matches_enumeration_on_random_monomial_ideals():
    rng = random.Random("count")
    for _ in range(300):
        k = rng.randint(1, 5)
        lhss = {tuple(_random_exponents(rng, k, rng.randint(0, 10)))
                for _ in range(rng.randint(0, 7))}
        system = make_system(k, [(lhs, {}) for lhs in lhss])
        for m in range(9):
            assert normal_form_count(system, m) == _count_oracle(system, m), (lhss, m)


def test_normal_form_count_is_the_scroll_hilbert_function_to_degree_60():
    for m in range(61):
        assert normal_form_count(SYSTEM, m) == (m + 1) * (m + 2) * (4 * m + 3) // 6


def test_normal_form_counts_match_invariant_dimensions():
    for m in (1, 2, 3):
        dim = len(enumerate_invariants(3, 7, m, (3, 5, 7), (1, 2, 3)))
        assert normal_form_count(SYSTEM, m) == dim


def test_g37_presentation_matches_scroll_hilbert_function_to_degree_8():
    # the rules cut out a rational normal scroll of dimension 3 and degree 4
    # in P^6, with Hilbert function (m+1)(m+2)(4m+3)/6
    counts = []
    for m in range(1, 9):
        dim = len(enumerate_invariants(3, 7, m, (3, 5, 7), (1, 2, 3)))
        assert dim == normal_form_count(SYSTEM, m) == (m + 1) * (m + 2) * (4 * m + 3) // 6
        counts.append(dim)
    assert counts == [7, 22, 50, 95, 161, 252, 372, 525]


def test_scroll_minors():
    rep = scroll_matrix_check(SYSTEM)
    assert rep["ok"]
    assert set(rep["minors"]) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    assert all(rep["minors"].values())


def test_scroll_minor_12_is_the_y1y5_rule():
    # expanding columns 1,2 by hand: Y1*Y5 - Y3*(Y3 - Y7)
    diff = {y_mono(7, 1, 5): Fraction(1), y_mono(7, 3, 3): Fraction(-1),
            y_mono(7, 3, 7): Fraction(1)}
    assert reduce_poly(diff, SYSTEM) == {}


def test_rule_text_roundtrip():
    text = "\n".join(f"{format_mono(lhs)} -> {format_poly(dict(rhs))}"
                     for lhs, rhs in SYSTEM.rules)
    again = parse_rules(text, 7)
    assert again == SYSTEM
    small = parse_rules("Y1*Y5 -> Y3^2 - Y3*Y7\n# comment\n", 7)
    assert small.rules[0][0] == y_mono(7, 1, 5)
    assert dict(small.rules[0][1]) == {y_mono(7, 3, 3): Fraction(1),
                                       y_mono(7, 3, 7): Fraction(-1)}


def test_parse_rejects_non_monic_lhs():
    with pytest.raises(ValueError):
        parse_rules("2 Y1*Y5 -> Y3^2", 7)


@pytest.mark.parametrize("line", ["Y1*Y2 -> Y3 Y4", "Y1*Y2 -> Y3*Y4 Y5",
                                  "Y1*Y2 -> Y3^2 - Y4 2 Y5", "Y1*Y2 -> 1/0*Y3",
                                  "Y1*Y2 -> Y3 + 0/0 Y4"])
def test_unsigned_terms_and_zero_denominators_name_their_line(line):
    with pytest.raises(ValueError, match="rule line 2") as exc:
        parse_rules("Y1*Y5 -> Y3^2\n" + line, 7)
    assert repr(line) in str(exc.value)


def test_documented_coefficient_forms_parse():
    for text, coeff, mono in (("2 Y4", 2, (4,)), ("1/2*Y4^2", Fraction(1, 2), (4, 4)),
                              ("1/2 Y4^2", Fraction(1, 2), (4, 4)),
                              ("-1/2 Y4^2", Fraction(-1, 2), (4, 4))):
        system = parse_rules(f"Y3*Y6 -> {text}", 7)
        assert dict(system.rules[0][1]) == {y_mono(7, *mono): coeff}, text


def test_reduction_strategy_independence_spot_check():
    forms = all_normal_forms({y_mono(7, 1, 2, 5, 6): Fraction(1)}, SYSTEM)
    assert len(forms) == 1


def test_max_degree_below_two_is_rejected():
    for system in RULE_SETS.values():
        for degree in (0, 1):
            with pytest.raises(ValueError, match="below 2"):
                check_confluence(system, degree)


def test_rule_text_reads_the_coefficients_format_poly_writes():
    system = parse_rules(RATIONAL_RULES, 7)
    assert dict(system.rules[-1][1]) == {y_mono(7, 4, 5): Fraction(1, 2)}
    two_terms = parse_rules("Y3*Y6 -> 1/2*Y4^2 + 1/2*Y4*Y5", 7)
    assert dict(two_terms.rules[0][1]) == {y_mono(7, 4, 4): Fraction(1, 2),
                                           y_mono(7, 4, 5): Fraction(1, 2)}
    text = "\n".join(f"{format_mono(lhs)} -> {format_poly(dict(rhs))}"
                     for lhs, rhs in system.rules)
    assert parse_rules(text, 7) == system
