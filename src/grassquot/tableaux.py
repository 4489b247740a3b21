"""Rectangular semistandard tableaux as standard monomials.

A degree-d standard monomial on the Grassmannian cone is a weakly
increasing chain of d column tuples; we store it as an r x d grid whose
rows increase weakly and whose columns increase strictly.  Torus
invariants are the tableaux with uniform content.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .weyl import ColumnTuple


class LemmaViolation(RuntimeError):
    """A combinatorial fact this library relies on failed on concrete input."""


@dataclass(frozen=True)
class Tableau:
    """r x d grid, rows weakly increasing, columns strictly increasing."""

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        rows = self.rows
        if rows and len({len(row) for row in rows}) > 1:
            raise ValueError("ragged tableau")
        for row in rows:
            for a, b in zip(row, row[1:]):
                if a > b:
                    raise ValueError(f"row not weakly increasing: {row}")
            if row and (row[0] < 1 or max(row) > self.n):
                raise ValueError(f"entries out of range [1, {self.n}]: {row}")
        for up, dn in zip(rows, rows[1:]):
            for a, b in zip(up, dn):
                if a >= b:
                    raise ValueError(f"column not strictly increasing: {a} then {b}")

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> tuple[int, ...]:
        """Column j, 0-based."""
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.d)]

    def content(self) -> Counter:
        c: Counter = Counter()
        for row in self.rows:
            c.update(row)
        return c

    def first_column(self) -> ColumnTuple:
        return ColumnTuple(self.column(0), self.n)

    def to_json(self) -> dict:
        return {
            "rows": self.r,
            "cols": self.d,
            "n": self.n,
            "entries": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Tableau":
        t = cls(tuple(tuple(row) for row in obj["entries"]), obj["n"])
        if (t.r, t.d) != (obj["rows"], obj["cols"]):
            raise ValueError("inconsistent shape in tableau encoding")
        return t

    @classmethod
    def from_columns(cls, cols, n: int, r: int | None = None) -> "Tableau":
        """Canonical tableau with the given column multiset.

        Columns are sorted ascending; raises if the sorted sequence is not
        a componentwise chain (then the multiset indexes no standard
        monomial).
        """
        cols = sorted(tuple(c) for c in cols)
        if not cols:
            if r is None:
                raise ValueError("cannot infer r for an empty tableau")
            return cls(tuple(() for _ in range(r)), n)
        for a, b in zip(cols, cols[1:]):
            if any(x > y for x, y in zip(a, b)):
                raise ValueError(f"columns {a}, {b} are not comparable")
        rr = len(cols[0])
        return cls(tuple(tuple(c[i] for c in cols) for i in range(rr)), n)


def columns_form_chain(cols) -> bool:
    """True iff the multiset of columns sorts into a componentwise chain."""
    cols = sorted(tuple(c) for c in cols)
    return all(all(x <= y for x, y in zip(a, b)) for a, b in zip(cols, cols[1:]))


def is_zero_weight(t: Tableau) -> bool:
    """True iff every value 1..n appears equally often (torus invariance)."""
    c = t.content()
    if t.d == 0:
        return True
    if t.r * t.d % t.n != 0:
        return False
    target = t.r * t.d // t.n
    return all(c.get(i, 0) == target for i in range(1, t.n + 1))


def iter_invariants(r: int, n: int, m: int,
                    w: ColumnTuple | tuple, v: ColumnTuple | tuple):
    """Yield invariant r x (m*n) tableaux, first column >= v, last <= w.

    Every value of [1, n] appears exactly r*m times.  Depth-first search
    over the column chain in ascending lexicographic order, so tableaux
    arrive in column-lexicographic order, duplicate-free and complete.
    """
    if r < 1 or n < r or m < 1:
        raise ValueError(f"need 1 <= r <= n and m >= 1, got r={r}, n={n}, m={m}")
    we = w.entries if isinstance(w, ColumnTuple) else tuple(w)
    ve = v.entries if isinstance(v, ColumnTuple) else tuple(v)
    if len(we) != r or len(ve) != r:
        raise ValueError("column bounds must have r entries")
    if not all(a <= b for a, b in zip(ve, we)):
        return
    d = m * n
    need = r * m
    from itertools import combinations

    pool = [c for c in combinations(range(1, n + 1), r)
            if all(x <= y for x, y in zip(c, we))]

    remaining = {i: need for i in range(1, n + 1)}
    chosen: list[tuple[int, ...]] = []

    def feasible(prev: tuple[int, ...], cols_left: int) -> bool:
        for val, cnt in remaining.items():
            if cnt == 0:
                continue
            if cnt > cols_left:
                return False
            # value must still fit in some row k: prev[k] <= val <= w[k]
            if not any(prev[k] <= val <= we[k] for k in range(r)):
                return False
        return True

    def rec(prev: tuple[int, ...], cols_left: int):
        if cols_left == 0:
            yield Tableau.from_columns(chosen, n)
            return
        for c in pool:
            if any(x < p for x, p in zip(c, prev)):
                continue
            if any(remaining[x] == 0 for x in c):
                continue
            for x in c:
                remaining[x] -= 1
            chosen.append(c)
            if feasible(c, cols_left - 1):
                yield from rec(c, cols_left - 1)
            chosen.pop()
            for x in c:
                remaining[x] += 1

    yield from rec(ve, d)


def enumerate_invariants(r: int, n: int, m: int,
                         w: ColumnTuple | tuple, v: ColumnTuple | tuple) -> list[Tableau]:
    """All invariant tableaux of iter_invariants, materialized in order."""
    return list(iter_invariants(r, n, m, w, v))


def column_census(t: Tableau) -> Counter:
    """Multiset of the columns of t."""
    return Counter(t.columns())


def deglex_key(t: Tableau) -> tuple:
    """Sort key for the degree-lexicographic order on rectangular tableaux."""
    return (t.d, tuple(t.columns()))


def deglex_compare(s: Tableau, t: Tableau) -> int:
    """-1, 0 or 1: longer tableau is greater; at equal length compare the
    column sequences left to right, each column lexicographically."""
    ks, kt = deglex_key(s), deglex_key(t)
    return (ks > kt) - (ks < kt)
