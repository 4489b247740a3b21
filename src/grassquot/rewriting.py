"""Commutative rewriting over generators Y1..Yk with confluence checking.

Rules replace a monomial divisible by a left-hand side, using graded
lexicographic order (Y1 > Y2 > ... > Yk) to orient every rule downhill.
Overlap ambiguities are joined both ways; an exhaustive strategy search
over low degrees certifies unique normal forms in the sense of the
diamond lemma.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement

from . import g37
from .symbolic import add_into

Mono = tuple[int, ...]
PolyY = dict[Mono, Fraction]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def grlex_key(m: Mono) -> tuple:
    return (sum(m), m)


def poly_key(p: PolyY) -> tuple:
    return tuple(sorted((m, c) for m, c in p.items()))


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


def find_rule(p_mono: Mono, system: RewriteSystem) -> int | None:
    for i, (lhs, _) in enumerate(system.rules):
        if mono_divides(lhs, p_mono):
            return i
    return None


def apply_rule(p: PolyY, mono: Mono, rule_idx: int, system: RewriteSystem) -> PolyY:
    lhs, rhs = system.rules[rule_idx]
    coeff = p[mono]
    cof = mono_div(mono, lhs)
    out = dict(p)
    del out[mono]
    return add_into(out, ((mono_mul(cof, m), coeff * c) for m, c in rhs))


def reduce_poly(p: PolyY, system: RewriteSystem) -> PolyY:
    """Normal form, reducing the largest reducible monomial first."""
    cur = dict(p)
    while True:
        target = None
        for mono in sorted(cur, key=grlex_key, reverse=True):
            idx = find_rule(mono, system)
            if idx is not None:
                target = (mono, idx)
                break
        if target is None:
            return cur
        cur = apply_rule(cur, target[0], target[1], system)


def reduce_monomial(m: Mono, system: RewriteSystem) -> PolyY:
    return reduce_poly({m: Fraction(1)}, system)


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
                lcm = tuple(max(a, b) for a, b in zip(li, lj))
                out.append((lcm, i, j))
    return out


def all_normal_forms(p: PolyY, system: RewriteSystem,
                     memo: dict | None = None) -> set:
    """Keys of every normal form reachable by any reduction strategy."""
    if memo is None:
        memo = {}
    key = poly_key(p)
    if key in memo:
        return memo[key]
    memo[key] = set()  # cycle guard; rewriting strictly decreases, so unused
    reducts = []
    for mono in sorted(p, key=grlex_key, reverse=True):
        for idx in range(len(system.rules)):
            if mono_divides(system.rules[idx][0], mono):
                reducts.append(apply_rule(p, mono, idx, system))
    if not reducts:
        result = {key}
    else:
        result = set()
        for q in reducts:
            result |= all_normal_forms(q, system, memo)
    memo[key] = result
    return result


def check_confluence(system: RewriteSystem, through_degree: int = 4) -> dict:
    """Join every overlap ambiguity both ways and exhaustively verify unique
    normal forms for all monomials up to the given degree."""
    amb_reports = []
    ok = True
    for lcm, i, j in ambiguities(system):
        via_i = reduce_poly(apply_rule({lcm: Fraction(1)}, lcm, i, system), system)
        via_j = reduce_poly(apply_rule({lcm: Fraction(1)}, lcm, j, system), system)
        joined = poly_key(via_i) == poly_key(via_j)
        ok &= joined
        amb_reports.append({
            "monomial": lcm,
            "rules": (i, j),
            "joined": joined,
            "normal_form": via_i if joined else None,
            "via_first": via_i,
            "via_second": via_j,
        })
    exhaustive_ok = True
    memo: dict = {}
    failures = []
    for deg in range(2, through_degree + 1):
        for mono in combinations_with_replacement(range(1, system.k + 1), deg):
            m = y_mono(system.k, *mono)
            forms = all_normal_forms({m: Fraction(1)}, system, memo)
            if len(forms) != 1:
                exhaustive_ok = False
                failures.append({"monomial": m, "normal_forms": sorted(forms)})
    return {
        "ambiguities": amb_reports,
        "exhaustive_degree": through_degree,
        "exhaustive_ok": exhaustive_ok,
        "exhaustive_failures": failures,
        "ok": ok and exhaustive_ok,
    }


def normal_form_count(system: RewriteSystem, m: int) -> int:
    """Number of degree-m monomials divisible by no left-hand side."""
    count = 0
    for mono in combinations_with_replacement(range(1, system.k + 1), m):
        e = y_mono(system.k, *mono)
        if find_rule(e, system) is None:
            count += 1
    return count


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
# text rule format: "Y1*Y5 -> Y3^2 - Y3*Y7"

_TERM_RE = re.compile(r"\s*([+-])?\s*(\d+/\d+|\d+)?\s*((?:Y\d+(?:\^\d+)?(?:\s*\*\s*)?)+)")
_FACTOR_RE = re.compile(r"Y(\d+)(?:\^(\d+))?")


def _parse_side(text: str, k: int) -> PolyY:
    out: PolyY = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse rule text at: {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
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
        lhs_poly = _parse_side(lhs_text, k)
        if len(lhs_poly) != 1 or next(iter(lhs_poly.values())) != 1:
            raise ValueError(f"left side must be a single monic monomial: {line}")
        rules.append((next(iter(lhs_poly)), _parse_side(rhs_text, k)))
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


def format_rules(system: RewriteSystem) -> str:
    lines = []
    for lhs, rhs in system.rules:
        lines.append(f"{format_mono(lhs)} -> {format_poly({m: c for m, c in rhs})}")
    return "\n".join(lines)
