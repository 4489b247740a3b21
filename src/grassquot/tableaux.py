"""Rectangular semistandard tableaux as standard monomials.

A degree-d standard monomial on the Grassmannian cone is a weakly
increasing chain of d column tuples; we store it as an r x d grid whose
rows increase weakly and whose columns increase strictly.  Torus
invariants are the tableaux with uniform content.

The invariant r x mn tableaux are enumerated as chains of horizontal
strips (the Gelfand-Tsetlin description; Stanley, EC2 7.10).  The cells
holding the values 1..k form a partition shape(k) inside the r x mn box,
and the cells holding k form a horizontal strip of exactly r*m cells:
shape(k-1) <= shape(k) rowwise, and row i+1 of shape(k) is at most row i
of shape(k-1).  The componentwise bounds first column >= v and last
column <= w are row conditions: row i holds no value below v_i, so it is
empty while k < v_i, and none above w_i, so it is full once k >= w_i.
A forward pass over the states (k, shape) finds the reachable ones, a
backward pass counts the ways to complete each, and the walk enters only
states that can be completed.  The states live for one call only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .weyl import ColumnTuple, _entries


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
        return list(zip(*self.rows))

    def content(self) -> Counter:
        c: Counter = Counter()
        for row in self.rows:
            c.update(row)
        return c

    def to_json(self) -> dict:
        return {
            "rows": self.r,
            "cols": self.d,
            "n": self.n,
            "entries": [list(row) for row in self.rows],
        }

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
        return cls(tuple(zip(*cols)), n)


def is_zero_weight(t: Tableau) -> bool:
    """True iff every value 1..n appears equally often (torus invariance)."""
    c = t.content()
    if t.d == 0:
        return True
    if t.r * t.d % t.n != 0:
        return False
    target = t.r * t.d // t.n
    return all(c.get(i, 0) == target for i in range(1, t.n + 1))


def _bounded_compositions(lo: tuple[int, ...], hi: tuple[int, ...], total: int):
    """Yield the tuples x with lo[i] <= x[i] <= hi[i] and sum(x) == total."""
    if not lo:
        if total == 0:
            yield ()
        return
    rest_lo, rest_hi = sum(lo[1:]), sum(hi[1:])
    for x in range(max(lo[0], total - rest_hi), min(hi[0], total - rest_lo) + 1):
        for tail in _bounded_compositions(lo[1:], hi[1:], total - x):
            yield (x,) + tail


def _live_layers(r: int, n: int, m: int, w, v) -> list[dict]:
    """The states of the strip walk that lead to a tableau, layer by layer.

    layers[k] maps each shape filled by the values 1..k from which the
    values k+1..n can still be placed to its successors, each with its
    number of completions.  A forward pass finds the reachable shapes and
    a backward pass counts completions and drops the shapes with none.
    """
    if r < 1 or n < r or m < 1:
        raise ValueError(f"need 1 <= r <= n and m >= 1, got r={r}, n={n}, m={m}")
    we, ve = _entries(w), _entries(v)
    if len(we) != r or len(ve) != r:
        raise ValueError("column bounds must have r entries")
    d, need = m * n, r * m
    layers: list[dict] = [{(0,) * r: None}]
    for k in range(1, n + 1):
        for shape in layers[-1]:
            # value k fills a horizontal strip of need cells; row i is
            # empty while k < v_i and full once k >= w_i
            lo = tuple(d if k >= we[i] else shape[i] for i in range(r))
            hi = tuple(0 if k < ve[i] else (shape[i - 1] if i else d) for i in range(r))
            layers[-1][shape] = list(_bounded_compositions(lo, hi, sum(shape) + need))
        layers.append(dict.fromkeys(nxt for nxts in layers[-1].values() for nxt in nxts))
    count = dict.fromkeys(layers.pop(), 1)
    for k in reversed(range(n)):
        layers[k] = {shape: live for shape, nxts in layers[k].items()
                     if (live := [(nxt, count[nxt]) for nxt in nxts if nxt in count])}
        count = {shape: sum(c for _, c in live) for shape, live in layers[k].items()}
    return layers


def count_invariants(r: int, n: int, m: int,
                     w: ColumnTuple | tuple, v: ColumnTuple | tuple) -> int:
    """Number of tableaux enumerate_invariants returns, without building any."""
    return sum(c for _, c in _live_layers(r, n, m, w, v)[0].get((0,) * r, ()))


def enumerate_invariants(r: int, n: int, m: int,
                         w: ColumnTuple | tuple, v: ColumnTuple | tuple) -> list[Tableau]:
    """Invariant r x (m*n) tableaux with first column >= v and last <= w.

    Every value of [1, n] appears exactly r*m times, and the bounds are
    componentwise.  The values are placed in turn, each as a horizontal
    strip of r*m cells; row i takes no value below v_i and is full from
    value w_i on.  Completion counts, kept for this call only, keep
    the walk to states that finish, so every state it enters yields a
    tableau.  The list is duplicate-free, complete and sorted by column
    tuple (column-lexicographic order), which lists the degree-lex least
    tableau first.
    """
    layers = _live_layers(r, n, m, w, v)
    out: list[Tableau] = []
    stack = [(0, (0,) * r, ((),) * r)]
    while stack:
        k, shape, rows = stack.pop()
        if k == n:
            out.append(Tableau(rows, n))
            continue
        for nxt, _ in layers[k].get(shape, ()):
            stack.append((k + 1, nxt, tuple(row + (k + 1,) * (b - a)
                                            for row, a, b in zip(rows, shape, nxt))))
    # Sort by the column word, one character per entry: the order of the
    # column tuples, with a key a fraction of the size of a tuple of tuples.
    out.sort(key=lambda t: "".join(map(chr, chain.from_iterable(zip(*t.rows)))))
    return out


def column_census(t: Tableau) -> Counter:
    """Multiset of the columns of t."""
    return Counter(t.columns())


def deglex_key(t: Tableau) -> tuple:
    """Sort key for the degree-lexicographic order on rectangular tableaux."""
    return (t.d, tuple(t.columns()))
