"""Degree-1 generation of the invariant ring of G(2,n), n odd.

Every degree-m invariant tableau splits into the subtableau on columns
1 mod m (candidate degree-1 factor) and the rest.  When the candidate is
not balanced, the defected values are repaired by swapping entries inside
small two-column blocks; the quadratic exchange identity turns each swap
into the swapped monomial plus a strictly smaller correction, and
induction on degree and on the degree-lexicographic order writes the
original monomial as a sum of products of degree-1 invariants.
``family_check`` certifies that induction step by step: each step is
checked exactly, and a tableau is certified once the pieces its step
rests on are.  ``factorize`` builds the factorization itself.  An exact
linear-algebra oracle certifies the resulting surjectivity degree by
degree.

The certificate runs on row tuples and integer column codes.  The lemma
checks read one first/last-position table per tableau
(``position_table``).  The repair step (``_step``) expands, straightens
and guards in codes with ``int`` coefficients through the straightening
kernel ``pluecker._straighten_codes``, and the certificate memoizes by
sorted code tuples.  Columns are decoded only for a message or for the
public ``SwapResult`` that ``swap_rewrite`` returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from typing import NamedTuple

from .pluecker import PlueckerPoly, _Codec, _codec, _straighten_codes, straighten
from .symbolic import add_into, sparse_rank
from .tableaux import (LemmaViolation, Tableau, deglex_key, enumerate_invariants,
                       is_zero_weight)


class FlaggedCase(RuntimeError):
    """Structurally unexpected input outside the proven block bookkeeping."""


# ---------------------------------------------------------------------------
# split / defects / positions

@dataclass(frozen=True)
class MuNuSplit:
    m: int
    mu: Tableau
    nu: Tableau


def split(t: Tableau, m: int) -> MuNuSplit:
    """Select the columns at positions 1 mod m as the candidate factor."""
    n = t.n
    if t.r != 2 or t.d != m * n:
        raise ValueError(f"expected a 2 x {m * n} tableau, got {t.r} x {t.d}")
    # any subsequence of a tableau's columns is again a tableau
    mu_rows = tuple(row[::m] for row in t.rows)
    nu_rows = tuple(tuple(x for j, x in enumerate(row) if j % m) for row in t.rows)
    return MuNuSplit(m, Tableau(mu_rows, n), Tableau(nu_rows, n))


@dataclass(frozen=True)
class DefectProfile:
    defects: tuple[int, ...]
    multiplicity: dict[int, int]


def defect_profile(rows: tuple[tuple[int, ...], ...], m: int, n: int) -> DefectProfile:
    """Values of odd multiplicity in the selected columns (1 mod m) of a tableau.

    Enforces the structural facts the repair step relies on: every value
    occurs, defects come in even number, and their multiplicities
    alternate 3, 1, 3, 1 in increasing order with the 3s hitting both rows.
    """
    mu_rows = tuple(row[::m] for row in rows)
    counts = {i: 0 for i in range(1, n + 1)}
    for row in mu_rows:
        for x in row:
            counts[x] += 1
    missing = [i for i, c in counts.items() if c == 0]
    if missing:
        raise LemmaViolation(f"values {missing} missing from the selected columns")
    defects = tuple(i for i, c in counts.items() if c % 2 == 1)
    if len(defects) % 2 == 1:
        raise LemmaViolation(f"odd number of defected values: {defects}")
    for idx, i in enumerate(defects, start=1):
        want = 3 if idx % 2 == 1 else 1
        if counts[i] != want:
            raise LemmaViolation(
                f"defect {i} (position {idx}) has multiplicity {counts[i]}, expected {want}")
        if idx % 2 == 1:
            if not (i in mu_rows[0] and i in mu_rows[1]):
                raise LemmaViolation(f"triple defect {i} missing from a row of mu")
    return DefectProfile(defects, counts)


Positions = tuple[list, list, list, list]
_POSITION_KEYS = ("f_top", "l_top", "f_bottom", "l_bottom")


def position_table(rows: tuple[tuple[int, ...], ...], n: int) -> Positions:
    """First/last 1-based columns of every value in each row of a 2-row tableau.

    Returns the lists (f_top, l_top, f_bottom, l_bottom), indexed by value,
    with None where the value is absent from that row.  One pass over each
    row fills them: a row is weakly increasing, so a value's first column
    is where the row changes to it.
    """
    table = []
    for row in rows:
        first: list = [None] * (n + 1)
        last: list = [None] * (n + 1)
        prev = None
        for j, x in enumerate(row, 1):
            if x != prev:
                first[x] = j
                prev = x
            last[x] = j
        table += (first, last)
    return tuple(table)


def mod_m_symmetry(pos: Positions, i: int, m: int) -> bool | None:
    """The residue law for value i, read off a tableau's position table.

    When i occurs in both rows, the boxes left of its first occurrences
    hold exactly the 2m(i-1) smaller values, so
    (f_bottom - 1) + (f_top - 1) = 0 mod m.  Returns True when the law
    holds and None when i misses a row, which makes it vacuous; a violation
    raises LemmaViolation with the four positions of i.
    """
    f_top, f_bottom = pos[0][i], pos[2][i]
    if f_top is None or f_bottom is None:
        return None
    if (f_top - 1 + f_bottom - 1) % m:
        raise LemmaViolation(
            f"first-occurrence residues of {i} violate the mod-{m} law: "
            f"{dict(zip(_POSITION_KEYS, (col[i] for col in pos)))}")
    return True


# ---------------------------------------------------------------------------
# blocks

@dataclass(frozen=True)
class SBlock:
    """Two-column pairs carrying one defect repair.

    The pairs run from the block of the last bottom occurrence of the
    defect to the first bottom occurrence of the next one; entries are
    addressed as (1)=top-left, (2)=top-right, (3)=bottom-left,
    (4)=bottom-right within each pair.
    """

    defect: int
    next_defect: int
    pairs: tuple[tuple[int, int], ...]  # 1-based (c1, c2) column indices

    def entries(self, rows: tuple[tuple[int, ...], ...], k: int) -> tuple[int, int, int, int]:
        c1, c2 = self.pairs[k]
        top, bottom = rows
        return top[c1 - 1], top[c2 - 1], bottom[c1 - 1], bottom[c2 - 1]


def _block_of(col: int, m: int) -> int:
    return -(-col // m)


def s_blocks(rows: tuple[tuple[int, ...], ...], pos: Positions, profile: DefectProfile,
             m: int) -> list[SBlock]:
    """One block per odd-position defect, with the adjacency laws checked.

    ``pos`` is the position table of the tableau with these rows."""
    if m < 2:
        return []
    blocks: list[SBlock] = []
    d = profile.defects
    f_bottom, l_bottom = pos[2], pos[3]
    for idx in range(0, len(d), 2):
        i_j, i_next = d[idx], d[idx + 1]
        l_j, f_next = l_bottom[i_j], f_bottom[i_next]
        if l_j is None or f_next is None:
            raise LemmaViolation(
                f"defects {i_j}, {i_next} missing from the bottom row")
        k0 = _block_of(l_j, m)
        k1 = _block_of(f_next, m)
        pairs = [((k - 1) * m + 1, k * m) for k in range(k0, k1)]
        last_c1 = (k1 - 1) * m + 1
        if last_c1 == f_next:
            raise FlaggedCase(
                f"first occurrence of {i_next} lands on a selected column; "
                f"the block around defect {i_j} is degenerate")
        pairs.append((last_c1, f_next))
        block = SBlock(i_j, i_next, tuple(pairs))
        _check_block(rows, block)
        blocks.append(block)
    return blocks


def _check_block(rows: tuple[tuple[int, ...], ...], b: SBlock) -> None:
    tt = len(b.pairs)
    first = b.entries(rows, 0)
    last = b.entries(rows, tt - 1)
    if first[2] != b.defect:
        raise LemmaViolation(
            f"block for {b.defect} does not start at its bottom value: {first}")
    if last[3] != b.next_defect:
        raise LemmaViolation(
            f"block for {b.defect} does not end at {b.next_defect}: {last}")
    for k in range(tt):
        e = b.entries(rows, k)
        if e[2] < e[1]:
            raise LemmaViolation(
                f"pair {k + 1} of block {b.defect}: bottom-left {e[2]} < top-right {e[1]}")
        if k + 1 < tt:
            nxt = b.entries(rows, k + 1)
            if e[3] != nxt[2]:
                raise LemmaViolation(
                    f"pairs {k + 1},{k + 2} of block {b.defect} not bottom-chained: {e} {nxt}")
            if b.defect <= e[0] <= b.next_defect and e[1] != nxt[0]:
                raise LemmaViolation(
                    f"pairs {k + 1},{k + 2} of block {b.defect} not top-chained: {e} {nxt}")


# ---------------------------------------------------------------------------
# the repair step

_MOVES = ("B", "T", "C", "N")
_NODE_CAP = 200_000  # move-search nodes per block before the case is flagged


def _apply_move(move: str, e: tuple[int, int, int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    p, q, r, s = e
    if move == "B":
        return (p, s), (q, r)
    if move == "T":
        return (q, r), (p, s)
    if move == "C":
        return (q, s), (p, r)
    return (p, r), (q, s)


def _find_block_moves(rows: tuple[tuple[int, ...], ...], b: SBlock) -> list[str]:
    """Moves per pair netting one defect unit onto the next defect.

    Depth-first over per-pair moves (swap bottoms, swap tops, swap whole
    columns, leave alone), tracking the exact multiset change of the
    selected columns; bottom swaps are preferred so defect-free runs
    reproduce the plain bottom-exchange scheme.  Both facts about a move
    come from _apply_move: it is valid when its new columns are strictly
    increasing, and it changes the selected columns by its new left column
    minus the old one.
    """
    target = {b.defect: -1, b.next_defect: 1}
    steps = []
    for k in range(len(b.pairs)):
        e = b.entries(rows, k)
        step = []
        for move in _MOVES:
            new1, new2 = _apply_move(move, e)
            if new1[0] < new1[1] and new2[0] < new2[1]:
                step.append((move, ((new1[0], 1), (new1[1], 1), (e[0], -1), (e[2], -1))))
        steps.append(step)
    nodes = 0

    def rec(k: int, delta: dict[int, int]) -> list[str] | None:
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_CAP:
            raise FlaggedCase(
                f"move search exceeded {_NODE_CAP} nodes on block {b.defect}")
        if k == len(steps):
            return [] if delta == target else None
        if len(delta) > 6:
            return None
        for move, change in steps[k]:
            tail = rec(k + 1, add_into(dict(delta), change))
            if tail is not None:
                return [move] + tail
        return None

    moves = rec(0, {})
    if moves is None:
        raise LemmaViolation(
            f"no entry-swap scheme repairs block {b.defect}->{b.next_defect} "
            f"with pairs {b.pairs}")
    return moves


@dataclass(frozen=True)
class SwapResult:
    mu_prime: Tableau
    nu_prime_columns: tuple[tuple[int, ...], ...]
    corrections: PlueckerPoly
    case: str


class _Step(NamedTuple):
    """A swap-repair step in column codes: the rows of mu', the sorted codes
    of nu', the straightened corrections (code tuple -> int, in descending
    order) and the case."""

    mu: tuple[tuple[int, ...], ...]
    nu: tuple[int, ...]
    corrections: dict[tuple[int, ...], int]
    case: str


def swap_rewrite(t: Tableau) -> SwapResult:
    """Rewrite p_t as p_mu' * p_nu' plus strictly smaller standard monomials.

    Applies the block repair moves to the columns of t, expands every
    bottom/top swap through the quadratic exchange p_(p,r) p_(q,s) =
    p_(p,s) p_(q,r) + p_(p,q) p_(r,s), and checks the advertised contract:
    the selected columns of the swapped tableau are balanced, every
    correction monomial is strictly smaller in degree-lex, and the whole
    expansion straightens back to p_t exactly.  The step runs in column
    codes (``_step``); this decodes its result.
    """
    n = t.n
    s = split(t, t.d // n)  # raises ValueError unless t is 2 x mn
    codec = _codec(2, n)
    step = _step(t.rows, codec.encode(t.columns()), codec, *_lemmas(t.rows, s.m, n))
    columns = codec.columns
    corrections = PlueckerPoly(2, n)
    corrections.terms = {tuple([columns[c] for c in mono]): Fraction(coeff)
                         for mono, coeff in step.corrections.items()}
    return SwapResult(Tableau(step.mu, n), tuple([columns[c] for c in step.nu]),
                      corrections, step.case)


def _lemmas(rows: tuple[tuple[int, ...], ...], m: int,
            n: int) -> tuple[DefectProfile, list[SBlock]]:
    """The defect profile and the blocks of the tableau with these rows."""
    profile = defect_profile(rows, m, n)
    return profile, s_blocks(rows, position_table(rows, n), profile, m)


def _step(rows: tuple[tuple[int, ...], ...], key: tuple[int, ...], codec: _Codec,
          profile: DefectProfile, blocks: list[SBlock]) -> _Step:
    """The swap repair of one tableau, on its rows and column codes.

    ``key`` holds the codes of the tableau's columns, in order, and
    ``profile`` and ``blocks`` are its lemma data.  The per-pair expansion,
    the check that it straightens back to p_t, the corrections and the
    degree-lex guard all run on codes with ``int`` coefficients; the guard
    compares code tuples, since code order is column order.  Columns are
    decoded only for a message.
    """
    n = codec.n
    m = len(key) // n
    if not profile.defects:
        return _Step(tuple(row[::m] for row in rows),
                     tuple(c for j, c in enumerate(key) if j % m), {}, "defect-free")
    used: set[int] = set()
    for b in blocks:
        cols = {c for pair in b.pairs for c in pair}
        if used & cols:
            raise FlaggedCase(f"blocks share columns near defect {b.defect}")
        used |= cols

    code = codec.code
    cols = list(zip(*rows))
    options: list[tuple[tuple[int, int], ...]] = []
    case = "bottom-swaps"
    for b in blocks:
        moves = _find_block_moves(rows, b)
        if any(mv in ("T", "C", "N") for mv in moves):
            case = "mixed-swaps"
        for k, ((c1, c2), mv) in enumerate(zip(b.pairs, moves)):
            e = b.entries(rows, k)
            new1, new2 = _apply_move(mv, e)
            cols[c1 - 1], cols[c2 - 1] = new1, new2
            main = (code[new1], code[new2])
            p, q, r, s_ = e
            if mv in ("B", "T") and p < q and r < s_:
                # exchange identity: main columns plus the (p,q),(r,s) term
                options.append((main, (code[p, q], code[r, s_])))
            else:
                options.append((main,))

    mu_cols = cols[::m]
    nu = tuple(sorted(code[c] for j, c in enumerate(cols) if j % m))
    try:
        mu_prime = Tableau.from_columns(mu_cols, n, r=2)
    except ValueError as exc:
        raise LemmaViolation(
            f"swapped selected columns {mu_cols} form no tableau: {exc}") from None
    if not is_zero_weight(mu_prime):
        raise LemmaViolation(f"swapped selected columns not balanced: {mu_cols}")

    # expand the per-pair identities; the all-main term is the swapped monomial
    expansion = {tuple([c for j, c in enumerate(key, start=1) if j not in used]): 1}
    for opt in options:
        expansion = add_into({}, ((tuple(sorted(mono + pair)), c)
                                  for mono, c in expansion.items() for pair in opt))
    comparable, exchange = codec.comparable, codec.exchange
    if _straighten_codes(dict(expansion), comparable, exchange) != {key: 1}:
        raise LemmaViolation("pair expansion does not straighten back to the input")

    main_key = tuple(sorted(code[c] for c in cols))
    coeff = expansion.pop(main_key, 0)
    if coeff == 0:
        raise LemmaViolation("swapped monomial missing from its own expansion")
    if coeff != 1:
        # a correction combination collided with the main monomial; the
        # surplus stays in the corrections and trips the degree-lex guard
        expansion[main_key] = coeff - 1
    corrections = _straighten_codes(expansion, comparable, exchange)
    tkey = (len(key), key)
    for mono in corrections:
        if (len(mono), mono) >= tkey:
            raise LemmaViolation(
                f"correction monomial {tuple([codec.columns[c] for c in mono])} "
                f"not smaller than the input")
    return _Step(mu_prime.rows, nu, corrections, case)


# ---------------------------------------------------------------------------
# factorization and the surjectivity oracle

Factorization = list[tuple[Fraction, tuple[Tableau, ...]]]


def _combine(acc: dict, factors: Factorization, coeff: Fraction,
             extra: tuple[Tableau, ...]) -> None:
    add_into(acc, ((tuple(sorted(tabs + extra, key=lambda T: T.rows)), coeff * c)
                   for c, tabs in factors))


def factorize(t: Tableau, _memo: dict | None = None) -> Factorization:
    """Express p_t as a sum of products of degree-1 invariants.

    Recursion: swap-rewrite p_t as p_mu' * p_nu' plus corrections and
    recurse into the strictly smaller pieces; a balanced selection comes
    back as mu' itself with no corrections.  The degree-lex guard in
    swap_rewrite makes the recursion well founded.
    """
    if _memo is None:
        _memo = {}
    if t.rows in _memo:
        return _memo[t.rows]
    n = t.n
    if t.d // n <= 1:
        result: Factorization = [(Fraction(1), (t,))]
    else:
        sr = swap_rewrite(t)
        nu_poly = straighten(PlueckerPoly.monomial(sr.nu_prime_columns, n))
        acc: dict = {}
        for terms, extra in ((nu_poly.terms, (sr.mu_prime,)), (sr.corrections.terms, ())):
            for mono, c in terms.items():
                rows = tuple(zip(*mono))
                fact = _memo.get(rows)
                if fact is None:
                    fact = factorize(Tableau(rows, n), _memo)
                _combine(acc, fact, c, extra)
        result = sorted(acc.items(), key=lambda kv: [T.rows for T in kv[0]])
        result = [(c, tabs) for tabs, c in result]
    _memo[t.rows] = result
    return result


def expand_factorization(fact: Factorization, n: int) -> PlueckerPoly:
    """Multiply every product back out and straighten; the re-expansion oracle."""
    return straighten(PlueckerPoly(2, n, add_into({}, (
        (tuple(sorted(chain.from_iterable(T.columns() for T in tabs))), c)
        for c, tabs in fact))))


def _certify(key: tuple[int, ...], codec: _Codec, memo: dict,
             step: _Step | None = None) -> None:
    """Certify the standard monomial with these column codes by induction, or raise.

    A degree-1 monomial is certified outright.  A degree-m one is certified
    when its swap-repair step passes (``step``, if the caller has run it
    already) and every term of the straightened p_nu' (degree m - 1) and
    every correction (degree m, smaller in degree-lex) is certified; the
    step's own checks make p_t their exact combination.  Outcomes are
    memoized by the sorted code tuple.  A failure is stored as its
    exception type and message and raised afresh for every monomial that
    rests on it, so each reports the same text.
    """
    n = codec.n
    if len(key) <= n:
        return
    if key not in memo:
        try:
            if step is None:
                rows = tuple(zip(*[codec.columns[c] for c in key]))
                step = _step(rows, key, codec, *_lemmas(rows, len(key) // n, n))
            nu = _straighten_codes({step.nu: 1}, codec.comparable, codec.exchange)
            for mono in chain(nu, step.corrections):
                _certify(mono, codec, memo)
            memo[key] = None
        except (LemmaViolation, FlaggedCase) as exc:
            memo[key] = (type(exc), str(exc))
    failure = memo[key]
    if failure is not None:
        raise failure[0](failure[1])


def surjectivity_oracle(n: int, m: int) -> tuple[int, int, bool]:
    """Rank of degree-1 products inside degree m, by exact elimination.

    Returns (rank of the span of all m-fold products of the degree-1
    basis, dimension of the degree-m invariants, equality flag), on the
    whole Grassmannian G(2,n): the bounds (1,2) and (n-1,n) hold every
    column, so each straightened product lies in the degree-m basis.
    Products and the basis are code tuples, and a product is standard when
    each adjacent code pair is one of the codec's comparable pairs.
    """
    if n % 2 == 0:
        raise ValueError("the degree-1 generation setting needs n odd")
    codec = _codec(2, n)
    comparable = codec.comparable
    basis1 = enumerate_invariants(2, n, 1, (n - 1, n), (1, 2))
    basis_m = enumerate_invariants(2, n, m, (n - 1, n), (1, 2))
    index = {codec.encode(t.columns()): k for k, t in enumerate(basis_m)}
    dim = len(basis_m)
    factors = [codec.encode(T.columns()) for T in basis1]

    def rows():
        # A product is determined by its column multiset.  Standard multisets
        # come first: their rows are unit vectors, so full rank is usually
        # reached before any product needs real straightening.
        seen = set()
        for standard in (True, False):
            for combo in combinations_with_replacement(factors, m):
                mono = tuple(sorted(chain.from_iterable(combo)))
                if mono in seen or all(pair in comparable
                                       for pair in zip(mono, mono[1:])) != standard:
                    continue
                seen.add(mono)
                terms = ({mono: 1} if standard
                         else _straighten_codes({mono: 1}, comparable, codec.exchange))
                row = {}
                for std, c in terms.items():
                    if std not in index:
                        raise LemmaViolation("straightened product left the basis: "
                                             f"{tuple([codec.columns[c] for c in std])}")
                    row[index[std]] = c
                yield row

    rank = sparse_rank(rows(), dim)
    return rank, dim, rank == dim


# ---------------------------------------------------------------------------
# family runner

def family_check(n: int, m: int, sample: int | None = None, seed: int = 1729) -> dict:
    """Run every structural lemma and the repair contract over one family.

    ``sample`` caps how many tableaux are processed (random but seeded)
    and must be at least 1.  Each processed tableau runs the lemma checks
    on its rows, with one position table for the residue and block laws,
    then its swap-repair step in column codes (``_step``), and is then
    certified by induction (``_certify``): no factorization is built or
    multiplied back out.  ``lemma_pass_counts["factorize"]`` and
    ``reexpanded`` count the certified tableaux; by the induction each of
    them has a factorization that re-expands to the input.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    tabs = enumerate_invariants(2, n, m, (n - 1, n), (1, 2))
    total = len(tabs)
    rng = random.Random(seed)
    if sample is not None and total > sample:
        tabs = rng.sample(tabs, sample)
        tabs.sort(key=deglex_key)
    violations: list[dict] = []
    cases: dict[str, int] = {}
    passed = {"defect_laws": 0, "residue_law": 0, "block_laws": 0,
              "swap_contract": 0, "factorize": 0}
    defected = 0
    codec = _codec(2, n)
    memo: dict = {}
    for t in tabs:
        rows = t.rows
        try:
            profile = defect_profile(rows, m, n)
            passed["defect_laws"] += 1
            pos = position_table(rows, n)
            for i in range(1, n + 1):
                mod_m_symmetry(pos, i, m)
            passed["residue_law"] += 1
            blocks = s_blocks(rows, pos, profile, m)
            passed["block_laws"] += 1
            key = codec.encode(t.columns())
            step = _step(rows, key, codec, profile, blocks)
            passed["swap_contract"] += 1
            cases[step.case] = cases.get(step.case, 0) + 1
            if profile.defects:
                defected += 1
            # the certificate reuses the contract's step; t is not in the
            # memo yet, since the tableaux come in ascending degree-lex
            # order and the induction reaches only smaller ones
            _certify(key, codec, memo, step)
            passed["factorize"] += 1
        except (LemmaViolation, FlaggedCase) as exc:
            violations.append({"tableau": [list(r) for r in rows],
                               "error": str(exc)})
    return {
        "n": n, "m": m,
        "family_size": total,
        "checked": len(tabs),
        "defected": defected,
        "cases": cases,
        "lemma_pass_counts": passed,
        "reexpanded": passed["factorize"],
        "violations": violations,
        "ok": not violations,
    }
