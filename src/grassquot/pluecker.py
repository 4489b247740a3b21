"""Exact polynomial algebra in Pluecker coordinates.

A polynomial is a map from monomials to rational coefficients, where a
monomial is a multiset of column tuples (stored sorted).  ``straighten``
rewrites any polynomial onto the standard monomial basis (sorted columns
forming a componentwise chain); ``evaluate`` is the independent oracle
sending p_tau to the minor on rows tau of a point matrix.

Inside ``straighten`` a column is an integer code, its rank among the
r-subsets of [n] (one bounded codec per ring, built on first use), and a
coefficient is an integer: the input is scaled by the lcm of its
denominators, which every exchange (signs +-1) preserves.  The output
coefficients are ``Fraction``s again, and its terms come in descending
monomial order, the order in which they are finished.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import lcm
from operator import invert

from .symbolic import SparsePoly, add_into
from .tableaux import Tableau
from .weyl import ColumnTuple, _entries

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
    def monomial(cls, cols, n: int) -> "PlueckerPoly":
        cols = tuple(sorted(tuple(c) for c in cols))
        r = len(cols[0]) if cols else 0
        return cls(r, n, {cols: Fraction(1)})

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
        for x, y in zip(mono[i], mono[i + 1]):
            if x > y:
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


def _exchange_terms(left: Column, right: Column) -> tuple[tuple[int, Column, Column], ...]:
    """Rewrite p_left * p_right across its first violating row.

    With the violation at row k (left[k] > right[k]) the r+1 values
    right[1..k], left[k..r] are pairwise distinct and are redistributed in
    all balanced ways; the alternating-sum identity for r+1 vectors in an
    r-dimensional space makes the signed sum over all splits vanish, which
    expresses the input product by strictly smaller monomials.  Returns
    (sign, column, column) triples with sign +1 or -1; ``_Codec.exchange``
    memoises them per code pair.
    """
    k = next(i for i in range(len(left)) if left[i] > right[i])  # 0-based
    prefix = left[:k]
    high = left[k:]
    low = right[:k + 1]
    suffix = right[k + 1:]
    pool = tuple(sorted(low + high))
    size = len(high)
    base_sign = -1 if (len(high) * len(low)) % 2 else 1
    out: list[tuple[int, Column, Column]] = []
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
        out.append((sign, left_sorted[1], right_sorted[1]))
    return tuple(out)


class _Codec:
    """The columns of one ring (r, n) as integer codes.

    Code k is the k-th r-subset of [n] in ``combinations`` order, so the
    order of codes is the order of columns and a sorted monomial encodes
    to sorted codes.  ``comparable`` holds the code pairs (a, b) whose
    columns satisfy a <= b componentwise, and ``exchanges`` memoises
    ``_exchange_terms`` per incomparable code pair.
    """

    __slots__ = ("r", "n", "columns", "code", "comparable", "exchanges")

    def __init__(self, r: int, n: int):
        self.r, self.n = r, n
        self.columns: tuple[Column, ...] = tuple(combinations(range(1, n + 1), r))
        self.code = {col: k for k, col in enumerate(self.columns)}
        self.comparable = frozenset(
            (a, b) for a, ca in enumerate(self.columns)
            for b, cb in enumerate(self.columns) if _leq_cols(ca, cb))
        self.exchanges: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}

    def encode(self, mono: Monomial) -> tuple[int, ...]:
        try:
            return tuple([self.code[col] for col in mono])
        except KeyError as exc:
            raise ValueError(f"column {exc.args[0]} is not an increasing {self.r}-subset "
                             f"of [1, {self.n}]") from None

    def exchange(self, a: int, b: int) -> tuple[tuple[int, int, int], ...]:
        """``_exchange_terms`` of the columns a, b as (sign, code, code)."""
        terms = self.exchanges.get((a, b))
        if terms is None:
            code, cols = self.code, self.columns
            terms = self.exchanges[a, b] = tuple(
                (sign, code[x], code[y]) for sign, x, y in _exchange_terms(cols[a], cols[b]))
        return terms

    def interval(self, w: ColumnTuple | tuple, v: ColumnTuple | tuple) -> frozenset[int]:
        """The codes of the columns in the Bruhat interval [v, w]."""
        we, ve = _entries(w), _entries(v)
        return frozenset(k for k, col in enumerate(self.columns)
                         if _leq_cols(ve, col) and _leq_cols(col, we))

    def exchange_within(self, inside: frozenset[int]):
        """``exchange`` without the terms that have a code outside ``inside``;
        ``exchange`` itself when ``inside`` holds every code."""
        exchange = self.exchange
        if len(inside) == len(self.columns):
            return exchange

        def filtered(a: int, b: int) -> list[tuple[int, int, int]]:
            return [t for t in exchange(a, b) if t[1] in inside and t[2] in inside]

        return filtered


@lru_cache(maxsize=16)
def _codec(r: int, n: int) -> _Codec:
    return _Codec(r, n)


def straighten(p: PlueckerPoly, within: tuple | None = None) -> PlueckerPoly:
    """Rewrite p onto the standard monomial basis.

    Processes the largest pending monomial first; every exchange replaces
    it by monomials that are strictly smaller in the sorted-column
    lexicographic order, so the loop terminates.  The loop runs on the
    ring's integer column codes (``_codec``), whose order is the column
    order, and on integer coefficients: the input is scaled by the lcm D
    of its denominators, every exchange has sign +-1, and the output
    coefficients are v/D as ``Fraction``.  The pending monomials sit in a
    max-heap keyed by their negated codes ~c = -1 - c closed by 0: every
    entry lies below the closing 0, so ascending keys are descending
    monomials, a proper prefix being smaller.  A monomial is pushed when
    it enters ``pending``; a popped monomial that has since cancelled is
    skipped, and no monomial can re-enter once popped, so the pops come
    in descending order.  Each finished monomial is decoded once, and the
    result lists its terms in the order they were finished, which is
    descending monomial order.  A column that is not an increasing
    r-subset of [n] raises ValueError naming the column and the ring.

    ``within=(w, v)`` straightens modulo the ideal of the Richardson
    variety X_w^v and returns ``restrict_schubert(straighten(p), w, v)``,
    with the same terms in the same order, without building the terms
    that restriction drops.  Input terms and exchange terms with a column
    outside the Bruhat interval [v, w] are dropped as soon as they
    appear.  This is exact: straightening is linear, and by standard
    monomial theory (Lakshmibai-Littelmann) the standard monomials with a
    column outside [v, w] form a basis of the ideal that the p_tau with
    tau outside [v, w] generate, so a monomial with such a column
    straightens onto those standard monomials alone, all of which the
    restriction drops.
    """
    codec = _codec(p.r, p.n)
    comparable, exchange = codec.comparable, codec.exchange
    denom = 1
    for c in p.terms.values():
        denom = lcm(denom, c.denominator)
    pending: dict[tuple[int, ...], int] = {}
    for mono, c in p.terms.items():
        pending[codec.encode(mono)] = c.numerator * (denom // c.denominator)
    if within is not None:
        inside = codec.interval(*within)
        pending = {m: c for m, c in pending.items() if inside.issuperset(m)}
        exchange = codec.exchange_within(inside)
    heap = [(tuple(map(invert, m)) + (0,), m) for m in pending]
    heapify(heap)
    done: dict[Monomial, Fraction] = {}
    columns = codec.columns
    while heap:
        mono = heappop(heap)[1]
        coeff = pending.pop(mono, None)
        if coeff is None:
            continue
        for i in range(len(mono) - 1):
            if (mono[i], mono[i + 1]) not in comparable:
                break
        else:
            done[tuple([columns[c] for c in mono])] = Fraction(coeff, denom)
            continue
        rest = mono[:i] + mono[i + 2:]
        for sign, a, b in exchange(mono[i], mono[i + 1]):
            m = tuple(sorted(rest + (a, b)))
            if m not in pending:
                heappush(heap, (tuple(map(invert, m)) + (0,), m))
            add_into(pending, ((m, coeff * sign),))
    out = PlueckerPoly(p.r, p.n)
    out.terms = done  # sorted monomials, nonzero Fractions
    return out


def restrict_schubert(p: PlueckerPoly, w: ColumnTuple | tuple,
                      v: ColumnTuple | tuple) -> PlueckerPoly:
    """Kill every term containing a column outside the Bruhat interval [v, w].

    Valid on straightened input: the surviving standard monomials form a
    basis of the coordinate ring of the Richardson variety.
    """
    we, ve = _entries(w), _entries(v)
    out = {m: c for m, c in p.terms.items()
           if all(_leq_cols(col, we) and _leq_cols(ve, col) for col in m)}
    return PlueckerPoly(p.r, p.n, out)


def verify_relation(lhs: list[Tableau],
                    rhs: list[tuple[int, list[Tableau]]],
                    w: ColumnTuple | tuple,
                    v: ColumnTuple | tuple) -> tuple[bool, PlueckerPoly]:
    """Check prod(lhs) = sum of signed prod(rhs) on the Richardson variety X_w^v.

    Returns (holds, residue); the residue is the difference straightened
    modulo the ideal of X_w^v, ``straighten(..., within=(w, v))``, which
    equals the restriction of the full straightening but never builds the
    terms outside [v, w], and is kept for diagnostics.  The bounds of the
    whole Grassmannian, w = (n-r+1..n) and v = (1..r), keep every column,
    so there the residue is the full straightening.
    """
    poly = tableau_to_poly(lhs[0])
    for t in lhs[1:]:
        poly = poly * tableau_to_poly(t)
    for sign, tabs in rhs:
        term = tableau_to_poly(tabs[0])
        for t in tabs[1:]:
            term = term * tableau_to_poly(t)
        poly = poly - term.scale(sign)
    residue = straighten(poly, within=(w, v))
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
