"""Combinatorics of I(r,n): column tuples, reduced words, weights.

A column tuple is a strictly increasing r-tuple in [1, n].  It serves three
roles at once: a Pluecker coordinate index, a torus-fixed point of the
Grassmannian, and a minimal-length coset representative in the symmetric
group S_n.  Permutations are one-line tuples of values 1..n; a word of
simple reflections evaluates by right multiplication, so ``w * s_i`` swaps
the values in positions i, i+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

Perm = tuple[int, ...]


class UnsupportedInput(ValueError):
    """Input outside the coprime/Grassmannian setting this library covers."""


# ---------------------------------------------------------------------------
# permutations (one-line notation, values 1..n)

def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_mul(a: Perm, b: Perm) -> Perm:
    """Compose a after b: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def perm_length(p: Perm) -> int:
    """Coxeter length = number of inversions."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def right_mul_s(p: Perm, i: int) -> Perm:
    """p * s_i: swap the entries in positions i, i+1 (1-based)."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def word_to_perm(letters: Iterable[int], n: int) -> Perm:
    p = list(range(1, n + 1))
    for i in letters:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter s_{i} out of range for S_{n}")
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def is_reduced(letters: Iterable[int], n: int) -> bool:
    letters = tuple(letters)
    return perm_length(word_to_perm(letters, n)) == len(letters)


def reduced_word_of(p: Perm) -> tuple[int, ...]:
    """A reduced word for p, built by greedily removing right descents."""
    cur = p
    rev: list[int] = []
    n = len(p)
    while True:
        for i in range(1, n):
            if cur[i - 1] > cur[i]:
                rev.append(i)
                cur = right_mul_s(cur, i)
                break
        else:
            break
    return tuple(reversed(rev))


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class ColumnTuple:
    """Strictly increasing r-tuple in [1, n]; an element of I(r, n)."""

    entries: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        e = self.entries
        if not e:
            raise ValueError("empty column tuple")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise ValueError(f"entries not strictly increasing: {e}")
        if e[0] < 1 or e[-1] > self.n:
            raise ValueError(f"entries {e} out of range [1, {self.n}]")

    @property
    def r(self) -> int:
        return len(self.entries)

    def to_permutation(self) -> Perm:
        """Minimal coset representative: entries then their complement."""
        rest = [i for i in range(1, self.n + 1) if i not in set(self.entries)]
        return self.entries + tuple(rest)

    def to_json(self) -> dict:
        return {"r": self.r, "n": self.n, "entries": list(self.entries)}


@dataclass(frozen=True)
class ReducedWord:
    """A reduced word in the simple reflections s_1..s_{n-1}."""

    letters: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if not is_reduced(self.letters, self.n):
            raise ValueError(f"word {self.letters} is not reduced in S_{self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def to_permutation(self) -> Perm:
        return word_to_perm(self.letters, self.n)


@dataclass(frozen=True)
class Weight:
    """Weight of the diagonal torus in epsilon-coordinates (sum zero)."""

    eps: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.eps) != 0:
            raise ValueError(f"epsilon coordinates must sum to 0, got {self.eps}")

    def alpha(self) -> tuple[int, ...]:
        """Simple-root coordinates; the k-th is the k-th partial sum."""
        out = []
        acc = 0
        for c in self.eps[:-1]:
            acc += c
            out.append(acc)
        return tuple(out)

    def height(self) -> int:
        return sum(self.alpha())


# ---------------------------------------------------------------------------
# operations

def _entries(bound: ColumnTuple | tuple) -> tuple[int, ...]:
    """The entries of a column tuple, or of a plain tuple of ints."""
    return bound.entries if isinstance(bound, ColumnTuple) else tuple(bound)


def bruhat_leq(u: ColumnTuple | tuple, w: ColumnTuple | tuple) -> bool:
    """Componentwise order on I(r,n): u <= w iff u(i) <= w(i) for all i."""
    ue, we = _entries(u), _entries(w)
    if isinstance(u, ColumnTuple) and isinstance(w, ColumnTuple):
        if (u.r, u.n) != (w.r, w.n):
            raise ValueError(f"mismatched (r, n): ({u.r},{u.n}) vs ({w.r},{w.n})")
    elif len(ue) != len(we):
        raise ValueError("mismatched tuple lengths")
    return all(a <= b for a, b in zip(ue, we))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def minimal_schubert(r: int, n: int) -> ColumnTuple:
    """The smallest w in I(r,n) carrying a torus invariant in degree n.

    Entry i is the least a with a*r >= i*n, i.e. ceil(i*n/r).
    """
    if not 1 <= r < n:
        raise UnsupportedInput(f"need 1 <= r < n, got r={r}, n={n}")
    if math.gcd(r, n) != 1:
        raise UnsupportedInput(f"r={r} and n={n} must be coprime")
    return ColumnTuple(tuple(_ceil_div(i * n, r) for i in range(1, r + 1)), n)


def minimal_richardson_v(r: int, n: int) -> ColumnTuple:
    """The opposite bound: [1, a_1, ..., a_{r-1}] with a_i = ceil(i*n/r)."""
    w = minimal_schubert(r, n)
    return ColumnTuple((1,) + w.entries[:-1], n)


def gamma_tableau(r: int, n: int):
    """The r x n tableau filled 1..n in reading order, each value r times.

    Its first column is minimal_richardson_v(r, n) and its last column is
    minimal_schubert(r, n); it indexes the unique degree-1 invariant on the
    minimal Richardson pair.
    """
    minimal_schubert(r, n)  # validates coprimality
    from .tableaux import Tableau

    word = [v for v in range(1, n + 1) for _ in range(r)]
    rows = tuple(tuple(word[i * n:(i + 1) * n]) for i in range(r))
    return Tableau(rows, n)


def canonical_word(c: ColumnTuple) -> ReducedWord:
    """The reduced word (s_{b1-1}..s_1)(s_{b2-1}..s_2)...(s_{br-1}..s_r)."""
    letters: list[int] = []
    for i, b in enumerate(c.entries, start=1):
        letters.extend(range(b - 1, i - 1, -1))
    return ReducedWord(tuple(letters), c.n)


def is_coxeter_quotient(w: ColumnTuple, v: ColumnTuple) -> bool:
    """True iff w v^{-1} is a Coxeter element of S_n.

    A Coxeter element has length n-1 and uses every simple reflection
    exactly once in any reduced word.
    """
    if not bruhat_leq(v, w):
        raise ValueError(f"{v.entries} is not below {w.entries} in Bruhat order")
    c = perm_mul(w.to_permutation(), perm_inv(v.to_permutation()))
    word = reduced_word_of(c)
    n = w.n
    return len(word) == n - 1 and len(set(word)) == n - 1


def weight_n_omega(v: ColumnTuple) -> Weight:
    """The weight v(n * omega_r): n-r at the positions v(1..r), -r elsewhere."""
    chosen = set(v.entries)
    eps = tuple(v.n - v.r if i in chosen else -v.r for i in range(1, v.n + 1))
    return Weight(eps)


def restriction_height(v: ColumnTuple) -> int:
    """Height of v(n * omega_r): the degree of invariant sections restricted
    to the open cell of the Richardson stratum at v."""
    return weight_n_omega(v).height()
