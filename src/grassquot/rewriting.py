"""Commutative rewriting over generators Y1..Yk with confluence checking.

Rules replace a monomial divisible by a left-hand side, using graded
lexicographic order (Y1 > Y2 > ... > Yk) to orient every rule downhill.
Every left-hand side is a monic monomial and grlex is a monomial order,
so rule i is the polynomial lhs_i - rhs_i with leading term lhs_i, and
one rewriting step is one step of polynomial division.  The certificate
is Buchberger's criterion (Cox-Little-O'Shea, *Ideals, Varieties, and
Algorithms*, section 2.9, Theorem 6): the rules form a Groebner basis,
so every monomial has one normal form in every degree, as soon as each
overlap ambiguity joins.  Pairs with coprime left-hand sides need no
check (Buchberger's first criterion, ibid., Proposition 4).  The
exhaustive search over every reduction strategy in low degrees is kept
to list the monomials that fail when an ambiguity does not join.

The search is exact but searches little.  Bergman ("The diamond lemma
for ring theory", Adv. Math. 29, 1978, Lemma 1.1) shows that the
reduction-unique polynomials form a subspace on which the normal form
is linear, and its proof gives: if a is reduction-unique, the normal
forms of a + b are NF(a) plus those of b, for any b.  So a search state
is split into the terms whose monomial has one normal form, reduced
linearly, and the rest, the only part whose strategies are searched.
``normal_form_count`` counts the monomials outside the leading-term
ideal by inclusion-exclusion over the lcm lattice of the left-hand
sides rather than enumerating them.  It is exact for any rule file: a
monomial is divisible by each of a set of left-hand sides exactly when
it is divisible by their lcm.

``reduce_poly`` (the division algorithm, ibid., section 2.3) and
``all_normal_forms`` (the strategy search) run on integer coefficients
inside, as ``pluecker.straighten`` does: a rule coefficient is an ``int``
where it is integral, the input of ``reduce_poly`` is scaled by the lcm
of its denominators, and the coefficients they return are ``Fraction``s
again.  A rational rule coefficient brings ``Fraction``s into the loop,
which the mixed arithmetic keeps exact.

Both also run on packed monomials (Monagan-Pearce, "Sparse polynomial
division using a heap", J. Symbolic Comput. 46, 2011): a monomial of
degree below 2^w is one ``int``, with one field of w bits per generator,
each topped by a guard bit that is 0 in every code, Y1 in the most
significant field, Yk in the least, and the degree in a field above them
all.  Every field holds a value below 2^w, so the integer order compares
the degree first and then the exponents of Y1, Y2, ... in turn: it is
grlex order.  Packing is linear, so a rewrite of x by a left-hand side L
to a right-hand monomial m is x + (m - L), with m - L computed once per
rule; the result is the code of the product because each of its fields
is an exponent or the degree of a monomial whose degree is at most that
of x, since rules go downhill in grlex.  L divides x exactly when
((x | G) - L) & G == G for G the guard bits: setting the guards lends
every exponent field 2^w, so none borrows from the next, and a field
keeps its guard exactly when x's exponent there is at least L's.  The
degree field, the most significant, is not tested and needs no guard: a
borrow out of it changes no lower bit.  The width is
sized from the input's degree, which no monomial of a reduction
exceeds, and one table of encoded rules per (system, width) is cached
(``_packed``).  Monomials are decoded only on the way out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, combinations_with_replacement
from math import comb, lcm
from operator import lshift

from . import g37
from .symbolic import add_into

Mono = tuple[int, ...]
PolyY = dict[Mono, Fraction]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def grlex_key(m: Mono) -> tuple:
    return (sum(m), m)


@dataclass(frozen=True)
class RewriteSystem:
    """Ordered rules lhs -> rhs with every rhs monomial below its lhs."""

    k: int
    rules: tuple[tuple[Mono, tuple[tuple[Mono, Fraction], ...]], ...]

    def __post_init__(self) -> None:
        seen = set()
        for lhs, rhs in self.rules:
            if lhs in seen:
                raise ValueError(f"duplicate left-hand side {lhs}")
            seen.add(lhs)
            for m, _ in rhs:
                if grlex_key(m) >= grlex_key(lhs):
                    raise ValueError(
                        f"rule not oriented downhill: {m} not below {lhs}")


def make_system(k: int, rules: list[tuple[Mono, PolyY]]) -> RewriteSystem:
    return RewriteSystem(k, tuple(
        (lhs, tuple(sorted(rhs.items()))) for lhs, rhs in rules))


def y_mono(k: int, *idxs: int) -> Mono:
    e = [0] * k
    for i in idxs:
        e[i - 1] += 1
    return tuple(e)


def g37_rules() -> RewriteSystem:
    """The six quadratic rules presenting the invariant ring on G(3,7)."""
    k = g37.N
    return make_system(k, [
        (y_mono(k, *lhs), {y_mono(k, *pair): Fraction(sign) for sign, pair in rhs})
        for _name, lhs, rhs in g37.RELATIONS])


def apply_rule(p: PolyY, mono: Mono, rule_idx: int, system: RewriteSystem) -> PolyY:
    lhs, rhs = system.rules[rule_idx]
    coeff = p[mono]
    cof = mono_div(mono, lhs)
    out = dict(p)
    del out[mono]
    return add_into(out, ((mono_mul(cof, m), coeff * c) for m, c in rhs))


def _integral(c: Fraction) -> int | Fraction:
    """c as an ``int`` when it is integral, else c."""
    return c.numerator if c.denominator == 1 else c


class _Packed:
    """The rules of one system on monomials packed into ``int``s of one width.

    An exponent field is ``width`` value bits topped by a guard bit; Yi's
    field starts at ``shifts[i - 1]`` and the degree's at ``top``.
    ``guard`` holds every guard bit.  ``rules`` lists, in rule order, each left-hand
    side's code and its right-hand side as (m - lhs, coefficient) pairs,
    a coefficient an ``int`` where it is integral.  A left-hand side of
    degree 2^width or more divides no monomial that fits, and is left out.
    """

    __slots__ = ("shifts", "top", "mask", "guard", "rules")

    def __init__(self, system: RewriteSystem, width: int):
        step = width + 1
        self.shifts = tuple(step * i for i in reversed(range(system.k)))
        self.top = step * system.k
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (s + width) for s in self.shifts)
        rules = []
        for lhs, rhs in system.rules:
            if sum(lhs) <= self.mask:
                code = self.encode(lhs)
                rules.append((code, tuple((self.encode(m) - code, _integral(c))
                                          for m, c in rhs)))
        self.rules = tuple(rules)

    def encode(self, m: Mono) -> int:
        return sum(map(lshift, m, self.shifts), sum(m) << self.top)

    def decode(self, x: int) -> Mono:
        mask = self.mask
        return tuple([(x >> s) & mask for s in self.shifts])

    def decode_key(self, key: tuple) -> tuple:
        """A search key with codes as the same key with monomials and
        ``Fraction`` coefficients, sorted by monomial."""
        return tuple(sorted([(self.decode(x), Fraction(c)) for x, c in key]))

    def divides(self, lhs: int, x: int) -> bool:
        guard = self.guard
        return ((x | guard) - lhs) & guard == guard

    def rewrites(self, x: int) -> list[list[tuple[int, int | Fraction]]]:
        """The one-step rewrites of x, one per rule whose left side divides it."""
        return [[(x + d, c) for d, c in rhs] for lhs, rhs in self.rules
                if self.divides(lhs, x)]


@lru_cache(maxsize=16)
def _packed(system: RewriteSystem, width: int) -> _Packed:
    return _Packed(system, width)


def _width(degree: int) -> int:
    """The field width that holds every monomial of degree at most ``degree``."""
    return max(degree, 1).bit_length()


def reduce_poly(p: PolyY, system: RewriteSystem) -> PolyY:
    """Normal form, reducing the largest reducible monomial first.

    Polynomial division with the packed monomials in a max-heap, the loop
    of ``pluecker.straighten``; packed order is grlex order.  A monomial
    is pushed when it enters ``pending``; a popped monomial that has since
    cancelled is skipped.  A popped monomial that no left-hand side
    divides is finished: every later term is below it, so it never
    changes again.  Otherwise the first rule, in index order, whose
    left-hand side divides it is applied, so a system that is not
    confluent gives the normal form that rewriting the largest reducible
    monomial first reaches.  The coefficients are integers scaled by the
    lcm D of the input's denominators, and the result maps each finished
    monomial, decoded once and in descending grlex order, to v/D as a
    ``Fraction``.
    """
    packed = _packed(system, _width(max(map(sum, p), default=0)))
    guard, rules = packed.guard, packed.rules
    denom = 1
    for c in p.values():
        denom = lcm(denom, c.denominator)
    pending = {packed.encode(m): c.numerator * (denom // c.denominator)
               for m, c in p.items() if c}
    heap = [-x for x in pending]
    heapify(heap)
    done = []
    while heap:
        x = -heappop(heap)
        coeff = pending.pop(x, None)
        if coeff is None:
            continue
        high = x | guard
        for lhs, rhs in rules:
            if (high - lhs) & guard == guard:  # _Packed.divides
                break
        else:
            done.append((x, coeff))
            continue
        terms = [(x + d, coeff * c) for d, c in rhs]
        for m, _ in terms:
            if m not in pending:
                heappush(heap, -m)
        add_into(pending, terms)
    decode = packed.decode
    return {decode(x): Fraction(c, denom) for x, c in done}


def ambiguities(system: RewriteSystem) -> list[tuple[Mono, int, int]]:
    """Proper overlaps: lcm(lhs_i, lhs_j) != lhs_i * lhs_j.

    Pairs with coprime left-hand sides are skipped; their joinability is
    automatic for commuting monomials.
    """
    out = []
    for i, (li, _) in enumerate(system.rules):
        for j in range(i + 1, len(system.rules)):
            lj = system.rules[j][0]
            gcd = tuple(min(a, b) for a, b in zip(li, lj))
            if any(gcd):
                overlap = tuple(max(a, b) for a, b in zip(li, lj))
                out.append((overlap, i, j))
    return out


def all_normal_forms(p: PolyY, system: RewriteSystem) -> set:
    """Keys of every normal form reachable by any reduction strategy.

    A key is a polynomial's (monomial, coefficient) pairs as a sorted
    tuple, with ``Fraction`` coefficients.  The search runs on packed
    monomials of the width that p's degree needs, on integral
    coefficients as ``int``s, and on a table, built for this call, from
    each packed monomial it meets to its one-step rewrites: the
    right-hand side times the cofactor, for every rule whose left-hand
    side divides the monomial.  Its keys are sorted by code.

    Only the part of a polynomial without a unique normal form is
    searched.  If a is reduction-unique, the normal forms of a + b are
    exactly NF(a) plus those of b, for any b (Bergman, "The diamond lemma
    for ring theory", 1978, proof of Lemma 1.1): a reduction sequence is
    a linear map, it can be extended until it leaves both a and b
    irreducible, and the extension changes no irreducible polynomial.
    So ``_normal_forms`` splits a polynomial into U, the terms whose
    monomial has one normal form, reduced linearly as the sum of
    c·NF(m), and N, the rest, which ``_search`` searches by one step on
    each of its terms in turn, all of them reducible.  A memo, built for
    this call, maps each packed monomial x, as the key ``((x, 1),)``, and
    each searched N to its normal forms; the monomial's entry is its
    verdict, one form or several, and recurses only to monomials below x
    in grlex.
    """
    packed = _packed(system, _width(max(map(sum, p), default=0)))
    key = tuple(sorted((packed.encode(m), _integral(c)) for m, c in p.items()))
    forms = _normal_forms(key, packed, {}, {})
    return {packed.decode_key(form) for form in forms}


def _normal_forms(key: tuple, packed: _Packed, steps: dict, memo: dict) -> set:
    """Normal-form keys of the polynomial with this key, int coefficients:
    NF(U) plus each normal form of N, the terms without a unique one."""
    unique: dict = {}
    searched = []
    for mono, coeff in key:
        forms = _search(((mono, 1),), packed, steps, memo)
        if len(forms) == 1:
            add_into(unique, ((m, coeff * c) for m, c in next(iter(forms))))
        else:
            searched.append((mono, coeff))
    if not searched:
        return {tuple(sorted(unique.items()))}
    return {tuple(sorted(add_into(dict(unique), form).items()))
            for form in _search(tuple(searched), packed, steps, memo)}


def _search(key: tuple, packed: _Packed, steps: dict, memo: dict) -> set:
    """Normal-form keys of a monomial ``((x, 1),)``, or of a polynomial
    whose every monomial has several, by one step on each term in turn.
    ``steps`` maps each packed monomial met to ``packed.rewrites`` of it."""
    forms = memo.get(key)
    if forms is not None:
        return forms
    forms = set()
    for i, (mono, coeff) in enumerate(key):
        rewrites = steps.get(mono)
        if rewrites is None:
            rewrites = steps[mono] = packed.rewrites(mono)
        rest = key[:i] + key[i + 1:]
        for terms in rewrites:
            reduct = add_into(dict(rest), ((m, coeff * c) for m, c in terms))
            forms |= _normal_forms(tuple(sorted(reduct.items())), packed, steps, memo)
    if not forms:  # an irreducible monomial is its own normal form
        forms.add(key)
    memo[key] = forms
    return forms


def _exhaustive_failures(system: RewriteSystem, through_degree: int) -> list[dict]:
    """Monomials of degree 2..through_degree with more than one normal form,
    found by searching every reduction strategy.

    One packed table, one rewrite table and one memo serve every
    monomial; only the failing monomials' normal forms are decoded."""
    packed = _packed(system, _width(through_degree))
    steps: dict = {}
    memo: dict = {}
    failures = []
    for deg in range(2, through_degree + 1):
        for mono in combinations_with_replacement(range(1, system.k + 1), deg):
            m = y_mono(system.k, *mono)
            forms = _search(((packed.encode(m), 1),), packed, steps, memo)
            if len(forms) != 1:
                failures.append({"monomial": m,
                                 "normal_forms": sorted(map(packed.decode_key, forms))})
    return failures


def check_confluence(system: RewriteSystem, through_degree: int = 4) -> dict:
    """Join every overlap ambiguity both ways; the joins are the verdict.

    The left-hand sides are monic and every rule is oriented downhill in
    grlex, a monomial order.  Two equal normal forms of an ambiguity give
    the S-polynomial of its two rules a representation below the lcm of
    their left-hand sides, and coprime pairs are covered by Buchberger's
    first criterion.  So when every ambiguity joins, the rules are a
    Groebner basis (Cox-Little-O'Shea, section 2.9, Theorem 6), every
    monomial of every degree has exactly one normal form, and the report
    gives ``exhaustive_ok`` with no failures without searching.  When an
    ambiguity fails, every reduction strategy of every monomial of degree
    2..through_degree is searched to list the monomials with more than
    one normal form.  A through_degree below 2 would search no degree and
    raises ValueError.
    """
    if through_degree < 2:
        raise ValueError(f"max degree {through_degree} is below 2: the exhaustive "
                         f"search covers the degrees from 2 to the max degree")
    amb_reports = []
    ok = True
    for overlap, i, j in ambiguities(system):
        via_i = reduce_poly(apply_rule({overlap: Fraction(1)}, overlap, i, system), system)
        via_j = reduce_poly(apply_rule({overlap: Fraction(1)}, overlap, j, system), system)
        joined = via_i == via_j
        ok &= joined
        amb_reports.append({
            "monomial": overlap,
            "rules": (i, j),
            "joined": joined,
            "normal_form": via_i if joined else None,
            "via_first": via_i,
            "via_second": via_j,
        })
    failures = [] if ok else _exhaustive_failures(system, through_degree)
    return {
        "ambiguities": amb_reports,
        "exhaustive_degree": through_degree,
        "exhaustive_ok": not failures,
        "exhaustive_failures": failures,
        "ok": ok,
    }


def normal_form_count(system: RewriteSystem, m: int) -> int:
    """Number of degree-m monomials divisible by no left-hand side.

    Inclusion-exclusion over the lcm lattice of the left-hand sides: a
    monomial is divisible by every left-hand side of a set S exactly when
    it is divisible by their lcm L_S, and k generators have
    C(m - |L| + k - 1, k - 1) monomials of degree m divisible by L, so the
    count is the sum of (-1)^|S| times that over all S with |L_S| <= m.
    The left-hand sides are folded in one at a time into a map from each
    lcm to its signed coefficient, merging equal lcms, so the sum is
    exact for any rule file and takes no enumeration of monomials.
    """
    k = system.k
    lattice = {(0,) * k: 1}
    for lhs, _ in system.rules:
        for mono, c in list(lattice.items()):
            add_into(lattice, ((tuple(map(max, mono, lhs)), -c),))
    return sum(c * comb(m - sum(mono) + k - 1, k - 1)
               for mono, c in lattice.items() if sum(mono) <= m)


def scroll_matrix_check(system: RewriteSystem) -> dict:
    """All 2x2 minors of the rank-one matrix of linear forms reduce to zero.

    The matrix [[Y1, Y3, Y4, Y2], [Y3-Y7, Y5, Y6, Y4-Y7]] packages the six
    rules as the 2x2 minors of a matrix of linear forms, the determinantal
    shape of a rational normal scroll.
    """
    k = system.k
    one = Fraction(1)
    lin = lambda *pairs: {y_mono(k, i): c for i, c in pairs}
    top = [lin((1, one)), lin((3, one)), lin((4, one)), lin((2, one))]
    bot = [lin((3, one), (7, -one)), lin((5, one)), lin((6, one)),
           lin((4, one), (7, -one))]
    minors = {}
    ok = True
    for a, b in combinations(range(4), 2):
        diff = add_into({}, chain(
            ((mono_mul(m1, m2), c1 * c2)
             for m1, c1 in top[a].items() for m2, c2 in bot[b].items()),
            ((mono_mul(m1, m2), -c1 * c2)
             for m1, c1 in top[b].items() for m2, c2 in bot[a].items())))
        reduced = reduce_poly(diff, system)
        minors[(a + 1, b + 1)] = not reduced
        ok &= not reduced
    return {"ok": ok, "minors": minors}


# ---------------------------------------------------------------------------
# text rule format: "Y1*Y5 -> Y3^2 - Y3*Y7", coefficients as "1/2*Y4^2" or "2 Y4"

_TERM_RE = re.compile(r"\s*([+-])?\s*(?:(\d+/\d+|\d+)\s*\*?)?\s*((?:Y\d+(?:\^\d+)?(?:\s*\*\s*)?)+)")
_FACTOR_RE = re.compile(r"Y(\d+)(?:\^(\d+))?")


def _parse_side(text: str, k: int) -> PolyY:
    out: PolyY = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse rule text at: {text[pos:]!r}")
        if pos and not m.group(1):
            raise ValueError(f"term {m.group().strip()!r} needs a '+' or '-' before it")
        sign = -1 if m.group(1) == "-" else 1
        try:
            coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {m.group(2)} has a zero denominator") from None
        e = [0] * k
        for fm in _FACTOR_RE.finditer(m.group(3)):
            idx = int(fm.group(1))
            if not 1 <= idx <= k:
                raise ValueError(f"generator Y{idx} out of range (k={k})")
            e[idx - 1] += int(fm.group(2) or 1)
        add_into(out, ((tuple(e), sign * coeff),))
        pos = m.end()
    return out


def parse_rules(text: str, k: int) -> RewriteSystem:
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("->") != 1:
            raise ValueError(f"rule line {lineno} needs one '->': {line!r}")
        lhs_text, rhs_text = line.split("->")
        try:
            lhs_poly, rhs = _parse_side(lhs_text, k), _parse_side(rhs_text, k)
        except ValueError as exc:
            raise ValueError(f"rule line {lineno}: {exc}: {line!r}") from None
        if len(lhs_poly) != 1 or next(iter(lhs_poly.values())) != 1:
            raise ValueError(f"left side must be a single monic monomial: {line}")
        rules.append((next(iter(lhs_poly)), rhs))
    return make_system(k, rules)


def format_mono(m: Mono) -> str:
    bits = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            bits.append(f"Y{i}")
        elif e > 1:
            bits.append(f"Y{i}^{e}")
    return "*".join(bits) or "1"


def format_poly(p: PolyY) -> str:
    if not p:
        return "0"
    bits = []
    for m, c in sorted(p.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
        mono = format_mono(m)
        if c == 1:
            bits.append(f"+ {mono}")
        elif c == -1:
            bits.append(f"- {mono}")
        else:
            bits.append(f"{'+' if c > 0 else '-'} {abs(c)}*{mono}")
    text = " ".join(bits)
    if text.startswith("+ "):
        return text[2:]
    if text.startswith("- "):
        return "-" + text[2:]
    return text
