"""Sparse polynomials over exact rationals.

``SparsePoly`` holds the ring code shared by every polynomial class: terms
map monomials to nonzero Fraction coefficients, and ``add_into`` is the one
accumulate loop.  ``Poly`` is the multivariate case (exponent tuples over a
fixed number of variables), just enough for the cell-matrix computations:
degrees stay small and coefficients exact.  ``sparse_rank`` is the one
exact rank routine for sparse rows.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import add

Expo = tuple[int, ...]


def add_into(target: dict, items: Iterable[tuple]) -> dict:
    """Add (key, value) pairs into target, dropping keys whose sum is zero."""
    for k, c in items:
        s = target.get(k)
        s = c if s is None else s + c
        if s:
            target[k] = s
        else:
            target.pop(k, None)
    return target


class SparsePoly:
    """Ring operations on ``terms``, a map monomial -> nonzero Fraction.

    A subclass supplies ``_ring()``, the leading constructor arguments that
    fix its ring, and ``_mono_mul``, the product of two monomials.
    """

    __slots__ = ("terms",)

    def _check(self, other: "SparsePoly") -> None:
        if type(other) is not type(self) or other._ring() != self._ring():
            raise ValueError("mixing polynomials over different rings")

    def __add__(self, other):
        self._check(other)
        return type(self)(*self._ring(), add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)(*self._ring(), {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        mul = self._mono_mul
        return type(self)(*self._ring(), add_into({}, (
            (mul(m1, m2), c1 * c2)
            for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())))

    def scale(self, c):
        c = Fraction(c)
        return type(self)(*self._ring(), {m: c * v for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other._ring() == self._ring()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((*self._ring(), frozenset(self.terms.items())))


class Poly(SparsePoly):
    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: dict[Expo, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[Expo, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    def _ring(self) -> tuple[int]:
        return (self.nvars,)

    @staticmethod
    def _mono_mul(a: Expo, b: Expo) -> Expo:
        return tuple(map(add, a, b))

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def var(cls, nvars: int, idx: int) -> "Poly":
        e = [0] * nvars
        e[idx] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def is_homogeneous(self) -> tuple[bool, int]:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True, 0
        return len(degs) == 1, max(degs)

    def derivative(self, idx: int) -> "Poly":
        out: dict[Expo, Fraction] = {}
        for e, c in self.terms.items():
            if e[idx]:
                ne = list(e)
                ne[idx] -= 1
                out[tuple(ne)] = c * e[idx]
        return Poly(self.nvars, out)

    def monomial_gcd(self) -> Expo:
        """Componentwise minimum exponent over all terms."""
        if not self.terms:
            return (0,) * self.nvars
        its = iter(self.terms)
        acc = list(next(its))
        for e in its:
            for i, x in enumerate(e):
                if x < acc[i]:
                    acc[i] = x
        return tuple(acc)

    def divide_monomial(self, e: Expo) -> "Poly":
        out = {}
        for t, c in self.terms.items():
            nt = tuple(a - b for a, b in zip(t, e))
            if any(x < 0 for x in nt):
                raise ValueError("monomial does not divide every term")
            out[nt] = c
        return Poly(self.nvars, out)

    def subs(self, values) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(values, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total

    def pretty(self, names: list[str]) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{names[i]}^{k}" if k > 1 else names[i]
                for i, k in enumerate(e) if k)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return self.pretty([f"x{i}" for i in range(self.nvars)])


# -- matrices of polynomials -------------------------------------------------

PolyMatrix = tuple[tuple[Poly, ...], ...]


def mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Poly.zero(a[0][0].nvars)
            for k in range(n):
                if a[i][k].is_zero() or b[k][j].is_zero():
                    continue
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_det(m) -> Poly:
    """Determinant by expansion over column subsets, memoized per row count."""
    n = len(m)
    nvars = m[0][0].nvars
    memo: dict[tuple[int, ...], Poly] = {(): Poly.const(nvars, 1)}

    def det_for(cols: tuple[int, ...]) -> Poly:
        if cols in memo:
            return memo[cols]
        row = n - len(cols)
        acc = Poly.zero(nvars)
        sign = 1
        for idx, j in enumerate(cols):
            entry = m[row][j]
            if not entry.is_zero():
                sub = det_for(cols[:idx] + cols[idx + 1:])
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        memo[cols] = acc
        return acc

    return det_for(tuple(range(n)))


# -- exact rank ----------------------------------------------------------------

def sparse_rank(rows: Iterable[Mapping], ncols: int | None = None) -> int:
    """Rank over Q of sparse rows (maps from sortable column keys to numbers).

    Each row is reduced at its smallest live column for as long as that
    column holds a pivot; elimination can bring in new columns, so the
    candidates sit in a heap.  The row is stored as the pivot of the first
    column that has none.  Rows are consumed lazily and no more are read
    once the rank reaches ``ncols``: no row can raise it past the number
    of columns.
    """
    pivots: dict = {}
    for src in rows:
        row = {k: Fraction(v) for k, v in src.items() if v}
        heap = list(row)
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            c = row.get(col)
            if c is None:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = {k: v / c for k, v in row.items()}
                break
            for k, v in pivot.items():
                s = row.get(k, 0) - c * v
                if s:
                    if k not in row:
                        heapq.heappush(heap, k)
                    row[k] = s
                else:
                    row.pop(k, None)
        if len(pivots) == ncols:
            break
    return len(pivots)
