"""Exact polynomial algebra in Pluecker coordinates.

A polynomial is a map from monomials to rational coefficients, where a
monomial is a multiset of column tuples (stored sorted).  ``straighten``
rewrites any polynomial onto the standard monomial basis (sorted columns
forming a componentwise chain); ``evaluate`` is the independent oracle
sending p_tau to the minor on rows tau of a point matrix.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .symbolic import SparsePoly, add_into
from .tableaux import Tableau
from .weyl import ColumnTuple

Column = tuple[int, ...]
Monomial = tuple[Column, ...]  # sorted ascending


class PlueckerPoly(SparsePoly):
    """Finitely supported map monomial -> Fraction, zero terms dropped."""

    __slots__ = ("r", "n")

    def __init__(self, r: int, n: int, terms: dict[Monomial, Fraction] | None = None):
        self.r = r
        self.n = n
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(sorted(mono))] = c

    def _ring(self) -> tuple[int, int]:
        return (self.r, self.n)

    @staticmethod
    def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
        return tuple(sorted(a + b))

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, r: int, n: int) -> "PlueckerPoly":
        return cls(r, n)

    @classmethod
    def monomial(cls, cols, n: int, coeff=1) -> "PlueckerPoly":
        cols = tuple(sorted(tuple(c) for c in cols))
        r = len(cols[0]) if cols else 0
        return cls(r, n, {cols: Fraction(coeff)})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join("p" + "".join(map(str, col)) for col in m) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def tableau_to_poly(t: Tableau) -> PlueckerPoly:
    """The standard monomial of t: the product of its column coordinates."""
    return PlueckerPoly.monomial(t.columns(), t.n)


def _leq_cols(a: Column, b: Column) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _first_violation(mono: Monomial) -> int | None:
    """Index i of the first adjacent pair that is not componentwise ordered."""
    for i in range(len(mono) - 1):
        if not _leq_cols(mono[i], mono[i + 1]):
            return i
    return None


def _sort_sign(seq: tuple[int, ...]) -> tuple[int, Column] | None:
    """(sign, sorted tuple) of sorting seq, or None if entries repeat."""
    lst = list(seq)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None
    return sign, tuple(lst)


def _exchange_terms(left: Column, right: Column) -> list[tuple[Fraction, Column, Column]]:
    """Rewrite p_left * p_right across its first violating row.

    With the violation at row k (left[k] > right[k]) the r+1 values
    right[1..k], left[k..r] are pairwise distinct and are redistributed in
    all balanced ways; the alternating-sum identity for r+1 vectors in an
    r-dimensional space makes the signed sum over all splits vanish, which
    expresses the input product by strictly smaller monomials.
    """
    k = next(i for i in range(len(left)) if left[i] > right[i])  # 0-based
    prefix = left[:k]
    high = left[k:]
    low = right[:k + 1]
    suffix = right[k + 1:]
    pool = tuple(sorted(low + high))
    size = len(high)
    base_sign = -1 if (len(high) * len(low)) % 2 else 1
    out: list[tuple[Fraction, Column, Column]] = []
    for s in combinations(pool, size):
        if s == high:
            continue
        rest = list(pool)
        for x in s:
            rest.remove(x)
        shuffle = sum(1 for a in s for b in rest if a > b)
        left_sorted = _sort_sign(prefix + s)
        if left_sorted is None:
            continue
        right_sorted = _sort_sign(tuple(rest) + suffix)
        if right_sorted is None:
            continue
        sign = -base_sign * (-1 if shuffle % 2 else 1) * left_sorted[0] * right_sorted[0]
        out.append((Fraction(sign), left_sorted[1], right_sorted[1]))
    return out


def straighten(p: PlueckerPoly) -> PlueckerPoly:
    """Rewrite p onto the standard monomial basis.

    Processes the largest pending monomial first; every exchange replaces
    it by monomials that are strictly smaller in the sorted-column
    lexicographic order, so the loop terminates.
    """
    pending = dict(p.terms)
    done: dict[Monomial, Fraction] = {}
    while pending:
        mono = max(pending)
        coeff = pending.pop(mono)
        i = _first_violation(mono)
        if i is None:
            add_into(done, ((mono, coeff),))
            continue
        rest = mono[:i] + mono[i + 2:]
        add_into(pending, ((tuple(sorted(rest + (a, b))), coeff * sign)
                           for sign, a, b in _exchange_terms(mono[i], mono[i + 1])))
    return PlueckerPoly(p.r, p.n, done)


def is_standard(p: PlueckerPoly) -> bool:
    return all(_first_violation(m) is None for m in p.terms)


def restrict_schubert(p: PlueckerPoly, w: ColumnTuple | tuple,
                      v: ColumnTuple | tuple) -> PlueckerPoly:
    """Kill every term containing a column outside the Bruhat interval [v, w].

    Valid on straightened input: the surviving standard monomials form a
    basis of the coordinate ring of the Richardson variety.
    """
    we = w.entries if isinstance(w, ColumnTuple) else tuple(w)
    ve = v.entries if isinstance(v, ColumnTuple) else tuple(v)
    out = {m: c for m, c in p.terms.items()
           if all(_leq_cols(col, we) and _leq_cols(ve, col) for col in m)}
    return PlueckerPoly(p.r, p.n, out)


def verify_relation(lhs: list[Tableau],
                    rhs: list[tuple[int, list[Tableau]]],
                    w: ColumnTuple | tuple, v: ColumnTuple | tuple,
                    restricted: bool = True) -> tuple[bool, PlueckerPoly]:
    """Check prod(lhs) = sum of signed prod(rhs) modulo the Schubert restriction.

    Returns (holds, residue); the residue is the straightened (and, when
    requested, restricted) difference, kept for diagnostics.
    """
    poly = tableau_to_poly(lhs[0])
    for t in lhs[1:]:
        poly = poly * tableau_to_poly(t)
    for sign, tabs in rhs:
        term = tableau_to_poly(tabs[0])
        for t in tabs[1:]:
            term = term * tableau_to_poly(t)
        poly = poly - term.scale(sign)
    residue = straighten(poly)
    if restricted:
        residue = restrict_schubert(residue, w, v)
    return residue.is_zero(), residue


# ---------------------------------------------------------------------------
# evaluation oracle

Matrix = tuple[tuple[Fraction, ...], ...]


def _det(rows: list) -> Fraction:
    if len(rows) == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    sign = 1
    for j in range(len(rows)):
        a = rows[0][j]
        if a:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += sign * a * _det(minor)
        sign = -sign
    return total


def minor(M: Matrix, tau: Column) -> Fraction:
    """Determinant of the rows tau (1-based) of the n x r matrix M."""
    return _det([list(M[i - 1]) for i in tau])


def evaluate(p: PlueckerPoly, M: Matrix) -> Fraction:
    """Exact value of p at the point whose cone coordinates are minors of M."""
    if len(M) != p.n or (M and len(M[0]) != p.r):
        raise ValueError(f"matrix must be {p.n} x {p.r}")
    total = Fraction(0)
    for mono, c in p.terms.items():
        val = c
        for col in mono:
            val *= minor(M, col)
        total += val
    return total


def random_point_matrix(rng: random.Random, n: int, r: int, bound: int = 9) -> Matrix:
    return tuple(tuple(Fraction(rng.randint(-bound, bound)) for _ in range(r))
                 for _ in range(n))
