"""Deodhar decomposition machinery: subexpressions, cell matrices, sections.

A subexpression of a reduced word keeps or skips each letter; positions are
classified by whether the running prefix product goes up (kept ascent),
stays (skipped), or goes down (kept descent).  Distinguished subexpressions
never skip a descent; positive distinguished ones never meet a descent at
all, and each target below the word's element has exactly one of those.
Cell matrices parametrize the corresponding strata with one free parameter
per skipped letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from . import g37
from .symbolic import Poly, PolyMatrix, add_into, sparse_rank
from .tableaux import LemmaViolation, Tableau, enumerate_invariants
from .weyl import (ColumnTuple, Perm, canonical_word, gamma_tableau,
                   identity_perm, is_reduced, minimal_richardson_v,
                   minimal_schubert, perm_length, restriction_height,
                   right_mul_s, word_to_perm)


class NotBelowError(ValueError):
    """Requested element is not below the word's element in Bruhat order."""


@dataclass(frozen=True)
class SubexpressionMask:
    """Per-letter keep/skip choices along a reduced word."""

    letters: tuple[int, ...]
    keep: tuple[bool, ...]
    n: int

    def __post_init__(self) -> None:
        if len(self.letters) != len(self.keep):
            raise ValueError("mask length mismatch")
        if not is_reduced(self.letters, self.n):
            raise ValueError(f"word {self.letters} is not reduced in S_{self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def kept_positions(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, k in enumerate(self.keep) if k)


@dataclass(frozen=True)
class MaskClasses:
    j_up: frozenset[int]      # kept ascents
    j_free: frozenset[int]    # skipped letters (one parameter each)
    j_down: frozenset[int]    # kept descents
    distinguished: bool
    pds: bool
    product: Perm


def classify(mask: SubexpressionMask) -> MaskClasses:
    """J-classes of the mask plus the distinguished / positive flags.

    A skipped descent breaks distinguishedness; a kept descent lands in the
    down class and breaks positivity.
    """
    cur = identity_perm(mask.n)
    up, free, down = set(), set(), set()
    distinguished = True
    for pos, (letter, keep) in enumerate(zip(mask.letters, mask.keep), start=1):
        ascends = cur[letter - 1] < cur[letter]
        if keep:
            (up if ascends else down).add(pos)
            cur = right_mul_s(cur, letter)
        else:
            free.add(pos)
            if not ascends:
                distinguished = False
    return MaskClasses(frozenset(up), frozenset(free), frozenset(down),
                       distinguished, distinguished and not down, cur)


def find_pds(word: tuple[int, ...], v: Perm, n: int) -> SubexpressionMask:
    """The unique positive distinguished subexpression multiplying to v.

    Scans right to left, keeping a letter exactly when it is a right
    descent of the remaining target.
    """
    if not is_reduced(word, n):
        raise ValueError(f"word {word} is not reduced in S_{n}")
    cur = tuple(v)
    keep = [False] * len(word)
    for pos in range(len(word), 0, -1):
        i = word[pos - 1]
        if cur[i - 1] > cur[i]:
            keep[pos - 1] = True
            cur = right_mul_s(cur, i)
    if cur != identity_perm(n):
        raise NotBelowError(f"{v} is not below the element of {word}")
    mask = SubexpressionMask(tuple(word), tuple(keep), n)
    cls = classify(mask)
    if not (cls.pds and cls.product == tuple(v)):
        raise LemmaViolation(f"right-to-left scan of {word} for {v} is not its PDS")
    return mask


def enumerate_distinguished(word: tuple[int, ...], v: Perm, n: int) -> list[SubexpressionMask]:
    """All distinguished subexpressions of the word multiplying to v.

    Depth-first over positions: a descent forces keeping the letter, an
    ascent branches.  The unique PDS (if v is below the word) is a member.
    """
    if not is_reduced(word, n):
        raise ValueError(f"word {word} is not reduced in S_{n}")
    target = tuple(v)
    m = len(word)
    out: list[SubexpressionMask] = []

    def rec(pos: int, cur: Perm, keep: list[bool]) -> None:
        if pos == m:
            if cur == target:
                out.append(SubexpressionMask(tuple(word), tuple(keep), n))
            return
        i = word[pos]
        if cur[i - 1] < cur[i]:
            keep.append(False)
            rec(pos + 1, cur, keep)
            keep.pop()
            keep.append(True)
            rec(pos + 1, right_mul_s(cur, i), keep)
            keep.pop()
        else:
            keep.append(True)
            rec(pos + 1, right_mul_s(cur, i), keep)
            keep.pop()

    rec(0, identity_perm(n), [])
    return out


# ---------------------------------------------------------------------------
# cell matrices

@dataclass(frozen=True)
class CellMatrix:
    """n x n matrix over parameters: one p-variable per skipped letter, one
    m-variable per kept descent, ordered by letter position."""

    mat: PolyMatrix
    n: int
    p_positions: tuple[int, ...]
    m_positions: tuple[int, ...]

    @property
    def nvars(self) -> int:
        return len(self.p_positions) + len(self.m_positions)

    def substitute(self, values) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(e.subs(values) for e in row) for row in self.mat)


_Entry = dict[tuple[int, ...], int]   # exponent -> coefficient
_Column = dict[int, _Entry]           # row -> entry


def _times(col: _Column, e: tuple[int, ...], sign: int) -> _Column:
    """A new column: col times sign * (the monomial with exponent e)."""
    return {row: {tuple(map(add, x, e)): sign * c for x, c in entry.items()}
            for row, entry in col.items()}


def _add_column(target: _Column, col: _Column) -> _Column:
    """Add col into target, dropping the rows that cancel."""
    for row, entry in col.items():
        if not add_into(target.setdefault(row, {}), entry.items()):
            del target[row]
    return target


def _cell_columns(mask: SubexpressionMask) -> tuple[list[_Column], tuple[int, ...], tuple[int, ...]]:
    """The columns of the cell matrix of a distinguished mask, with its
    p-positions and m-positions.

    The matrix is the ordered product of the per-letter factors.  Each
    factor differs from the identity only in its (i, i+1) block, so
    right-multiplying by it rewrites columns a = i and b = i+1 of the
    running product and nothing else:

    - skipped letter, y_i(p): a becomes a + p*b;
    - kept descent, x_i(m) s_i: (a, b) becomes (m*a + b, -a);
    - kept ascent, s_i: (a, b) becomes (b, -a).

    The running product is sparse: a column maps the rows where it is
    nonzero to their entries, and an entry maps exponents to ``int``
    coefficients (every factor has integer entries).
    """
    cls = classify(mask)
    if not cls.distinguished:
        raise ValueError("mask is not distinguished")
    p_positions = tuple(sorted(cls.j_free))
    m_positions = tuple(sorted(cls.j_down))
    nvars = len(p_positions) + len(m_positions)
    var = {pos: tuple(int(j == k) for j in range(nvars))
           for k, pos in enumerate(p_positions + m_positions)}
    one = (0,) * nvars  # the exponent of the monomial 1
    cols: list[_Column] = [{j: {one: 1}} for j in range(mask.n)]
    for pos, i in enumerate(mask.letters, start=1):
        a, b = cols[i - 1], cols[i]
        if pos in cls.j_free:
            cols[i - 1] = _add_column(a, _times(b, var[pos], 1))
        elif pos in cls.j_down:
            cols[i - 1], cols[i] = _add_column(_times(a, var[pos], 1), b), _times(a, one, -1)
        else:
            cols[i - 1], cols[i] = b, _times(a, one, -1)
    return cols, p_positions, m_positions


def cell_matrix(mask: SubexpressionMask) -> CellMatrix:
    """The cell matrix of a distinguished mask (``_cell_columns``) with
    ``Poly`` entries, each built once from the finished columns."""
    cols, p_positions, m_positions = _cell_columns(mask)
    nvars = len(p_positions) + len(m_positions)
    zero = Poly.zero(nvars)
    mat = tuple(tuple(Poly(nvars, col[row]) if row in col else zero for col in cols)
                for row in range(mask.n))
    return CellMatrix(mat, mask.n, p_positions, m_positions)


@lru_cache(maxsize=256)
def _cached_cell(letters: tuple[int, ...], keep: tuple[bool, ...],
                 n: int) -> tuple[_Column, ...]:
    """The sparse integer columns of a cell matrix (``_cell_columns``).
    Shared by every caller: read, never write."""
    return tuple(_cell_columns(SubexpressionMask(letters, keep, n))[0])


def _cell_support(mask: SubexpressionMask) -> tuple[list[int], int]:
    """For each column of the cell matrix of a distinguished mask, a row
    bitmask that holds every row where the column is nonzero; with the
    number of parameters.

    One pass over the letters with the moves of ``_cell_columns``, OR of
    row bitmasks in place of polynomial arithmetic: a skipped letter sets
    a to a | b, a kept descent sets (a, b) to (a | b, a) and a kept ascent
    to (b, a).  A sum's nonzero rows lie in the union of its summands', so
    each bitmask covers its column.  A skipped descent raises the
    ``ValueError`` of ``_cell_columns``.
    """
    cur = list(range(mask.n))     # the running prefix product, as in classify
    support = [1 << j for j in range(mask.n)]
    nvars = 0
    for i, keep in zip(mask.letters, mask.keep):
        a, b = support[i - 1], support[i]
        ascends = cur[i - 1] < cur[i]
        if not keep:
            if not ascends:
                raise ValueError("mask is not distinguished")
            support[i - 1] = a | b
            nvars += 1
            continue
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
        if ascends:
            support[i - 1], support[i] = b, a
        else:
            support[i - 1], support[i] = a | b, a
            nvars += 1
    return support, nvars


def _has_term_in_support(support: list[int], r: int, rows: tuple[int, ...],
                         seen: dict[tuple[int, ...], bool]) -> bool:
    """Whether some term of the Leibniz expansion of the minor that
    ``_minor`` takes on these rows has every factor inside the support:
    ``_minor``'s Laplace recursion on booleans.  ``seen`` maps rows to
    the answer and starts as {(): True}."""
    found = seen.get(rows)
    if found is None:
        col = support[r - len(rows)]
        found = any(col >> i & 1
                    and _has_term_in_support(support, r, rows[:k] + rows[k + 1:], seen)
                    for k, i in enumerate(rows))
        seen[rows] = found
    return found


def _product_terms(f: _Entry, g: _Entry, sign: int):
    """The terms of sign * f * g, one per pair of terms, for ``add_into``."""
    return ((tuple(map(add, x, y)), sign * a * b) for x, a in f.items() for y, b in g.items())


def _minor(cols: tuple[_Column, ...], r: int, rows: tuple[int, ...],
           minors: dict[tuple[int, ...], _Entry]) -> _Entry:
    """The minor on the increasing 0-based rows and the last len(rows) of
    the first r columns, by Laplace expansion down the first of those
    columns.  ``minors`` maps rows to their minor and starts as {(): 1}."""
    d = minors.get(rows)
    if d is None:
        col = cols[r - len(rows)]
        d = {}
        for k, i in enumerate(rows):
            entry = col.get(i)
            if entry is not None:
                sub = _minor(cols, r, rows[:k] + rows[k + 1:], minors)
                add_into(d, _product_terms(entry, sub, -1 if k % 2 else 1))
        minors[rows] = d
    return d


def restrict_section(t: Tableau, mask: SubexpressionMask) -> Poly:
    """Evaluate the standard monomial of t on the cell matrix of the mask.

    Each column of t becomes the r x r minor on those rows and the first
    r columns of the cell matrix; the result is their product, a
    polynomial in the cell parameters.

    Most sections vanish on most cells, and the cell's support pattern
    (``_cell_support``) proves it before any cell is built: when some
    column's minor has no Leibniz term with every factor inside the
    support, that minor is identically zero, since the support holds
    every nonzero entry, and so is the section.  Otherwise the minors are
    taken on the cached integer columns (``_cached_cell``), memoised by
    their rows for this call, and multiplied as ``int`` polynomials; a
    zero minor ends the call, and one ``Poly`` is built from the finished
    product.
    """
    if t.n != mask.n:
        raise ValueError(f"tableau on [1,{t.n}] does not match a rank-{mask.n} cell")
    support, nvars = _cell_support(mask)
    rows = [tuple(i - 1 for i in col) for col in t.columns()]
    seen = {(): True}
    if not all(_has_term_in_support(support, t.r, rs, seen) for rs in rows):
        return Poly.zero(nvars)
    cols = _cached_cell(mask.letters, mask.keep, mask.n)
    minors: dict[tuple[int, ...], _Entry] = {(): {(0,) * nvars: 1}}
    acc = minors[()]
    for rs in rows:
        d = _minor(cols, t.r, rs, minors)
        if not d:
            return Poly.zero(nvars)
        acc = add_into({}, _product_terms(acc, d, 1))
    return Poly(nvars, acc)


# ---------------------------------------------------------------------------
# quotient probes on the minimal Schubert variety of G(3,7)

W37_WORD = (2, 1, 4, 3, 6, 5, 2, 4, 3)

PROBE_CASES = {
    "s2s4s3": (2, 4, 3),
    "s2s3": (2, 3),
    "s4s3": (4, 3),
    "s3": (3,),
}


def _poly_invariant_form(sections: dict[int, Poly]) -> dict[int, Poly]:
    """Divide out the common monomial factor of the nonzero sections."""
    nz = [p for p in sections.values() if not p.is_zero()]
    if not nz:
        return sections
    gcd = nz[0].monomial_gcd()
    for p in nz[1:]:
        gcd = tuple(min(a, b) for a, b in zip(gcd, p.monomial_gcd()))
    return {i: (p if p.is_zero() else p.divide_monomial(gcd))
            for i, p in sections.items()}


def _equal_up_to_sign(a: Poly, b: Poly) -> bool:
    return a == b or a == -b


def _algebraically_independent_pair(f: Poly, g: Poly) -> bool:
    """Jacobian criterion in characteristic zero for two polynomials."""
    nv = f.nvars
    dfs = [f.derivative(i) for i in range(nv)]
    dgs = [g.derivative(i) for i in range(nv)]
    for i in range(nv):
        for j in range(i + 1, nv):
            if not (dfs[i] * dgs[j] - dfs[j] * dgs[i]).is_zero():
                return True
    return False


def quotient_probe(case: str) -> dict:
    """Structure of the invariant sections on one open Deodhar cell.

    Verifies the expected nonvanishing sections and the algebraic shape of
    the quotient they cut out (point, line, conic, or Segre quadric).
    """
    if case not in PROBE_CASES:
        raise ValueError(f"unknown case {case!r}; choose from {sorted(PROBE_CASES)}")
    n = 7
    v = word_to_perm(PROBE_CASES[case], n)
    mask = find_pds(W37_WORD, v, n)
    sections = {i: restrict_section(g37.Y[i], mask) for i in range(1, 8)}
    nonzero = sorted(i for i, p in sections.items() if not p.is_zero())
    nvars = len(mask.letters) - perm_length(v)
    checks: dict[str, bool] = {}

    hts = {i: sections[i].is_homogeneous() for i in nonzero}
    vt = ColumnTuple(tuple(sorted(v[:3])), n)
    expected_deg = restriction_height(vt)
    checks["sections_homogeneous_of_expected_degree"] = all(
        ok and deg == expected_deg for ok, deg in hts.values())

    if case == "s2s4s3":
        checks["only_y1_nonzero"] = nonzero == [1]
        p1 = sections[1]
        checks["y1_is_unit_monomial"] = (
            len(p1.terms) == 1
            and abs(next(iter(p1.terms.values()))) == 1
            and next(iter(p1.terms)) == (1, 4, 2, 5, 3, 6))
    elif case == "s2s3":
        checks["nonzero_set_y1_y2"] = nonzero == [1, 2]
        checks["algebraically_independent"] = _algebraically_independent_pair(
            sections[1], sections[2])
    elif case == "s4s3":
        checks["nonzero_set_y1_y3_y5"] = nonzero == [1, 3, 5]
        checks["conic_relation_y1y5_eq_y3sq"] = (
            sections[1] * sections[5] == sections[3] * sections[3])
        forms = _poly_invariant_form({i: sections[i] for i in (1, 3, 5)})
        x = Poly.var(nvars, 0) + Poly.var(nvars, 6)   # p1 + p7
        y = Poly.var(nvars, 0)                        # p1
        checks["forms_match_conic_parametrization"] = (
            _equal_up_to_sign(forms[1], x * x)
            and _equal_up_to_sign(forms[3], x * y)
            and _equal_up_to_sign(forms[5], y * y))
    elif case == "s3":
        checks["nonzero_set_y1_to_y6"] = nonzero == [1, 2, 3, 4, 5, 6]
        top = (sections[1], sections[3], sections[5])
        bot = (sections[2], sections[4], sections[6])
        checks["all_2x2_minors_vanish"] = all(
            (top[a] * bot[b] - top[b] * bot[a]).is_zero()
            for a in range(3) for b in range(a + 1, 3))
        forms = _poly_invariant_form(sections)
        x = Poly.var(nvars, 0) + Poly.var(nvars, 6)   # p1 + p7
        y = Poly.var(nvars, 0)                        # p1
        a_ = Poly.var(nvars, 2)                       # p3
        b_ = Poly.var(nvars, 2) + Poly.var(nvars, 7)  # p3 + p8
        expect = {2: x * x * a_, 4: x * y * a_, 6: y * y * a_,
                  1: x * x * b_, 3: x * y * b_, 5: y * y * b_}
        checks["forms_match_segre_parametrization"] = all(
            _equal_up_to_sign(forms[i], expect[i]) for i in expect)

    return {
        "case": case,
        "mask_kept_positions": list(mask.kept_positions()),
        "parameters": nvars,
        "nonvanishing": nonzero,
        "expected_degree": expected_deg,
        "checks": checks,
        "ok": all(checks.values()),
    }


# ---------------------------------------------------------------------------
# descent-degree consistency helpers

def lowered_v(r: int, n: int, i: int) -> ColumnTuple:
    """The minimal opposite bound with entry i+1 lowered by one."""
    v = list(minimal_richardson_v(r, n).entries)
    v[i] -= 1
    return ColumnTuple(tuple(v), n)


def descent_probe(r: int, n: int, i: int) -> dict:
    """Count sections on the lowered Richardson bound two independent ways.

    The enumeration count and the rank of the restricted sections on the
    open cell must agree; the count of value a_i - 1 in row i of the
    minimal invariant tableau is reported alongside for reference.
    """
    w = minimal_schubert(r, n)
    v = lowered_v(r, n, i)
    tabs = enumerate_invariants(r, n, 1, w, v)
    word = canonical_word(w).letters
    mask = find_pds(word, v.to_permutation(), n)
    rank = sparse_rank(restrict_section(t, mask).terms for t in tabs)
    gamma = gamma_tableau(r, n)
    a_i = w.entries[i - 1]
    gamma_row_count = gamma.rows[i - 1].count(a_i - 1)
    return {
        "r": r, "n": n, "i": i,
        "lowered_v": list(v.entries),
        "section_count": len(tabs),
        "restricted_rank": rank,
        "consistent": rank == len(tabs),
        "gamma_row_count_of_a_i_minus_1": gamma_row_count,
    }
