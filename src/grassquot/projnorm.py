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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement

from .pluecker import PlueckerPoly, _first_violation, straighten, tableau_to_poly
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


def defect_profile(s: MuNuSplit) -> DefectProfile:
    """Values of odd multiplicity in the selected subtableau.

    Enforces the structural facts the repair step relies on: every value
    occurs, defects come in even number, and their multiplicities
    alternate 3, 1, 3, 1 in increasing order with the 3s hitting both rows.
    """
    n = s.mu.n
    counts = {i: 0 for i in range(1, n + 1)}
    for row in s.mu.rows:
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
            if not (i in s.mu.rows[0] and i in s.mu.rows[1]):
                raise LemmaViolation(f"triple defect {i} missing from a row of mu")
    return DefectProfile(defects, counts)


def row_positions(t: Tableau, i: int) -> dict[str, int | None]:
    """First/last 1-based columns where value i occurs in each row."""
    top, bottom = t.rows[0], t.rows[1]

    def first(row):
        return row.index(i) + 1 if i in row else None

    def last(row):
        return len(row) - row[::-1].index(i) if i in row else None

    return {"f_top": first(top), "l_top": last(top),
            "f_bottom": first(bottom), "l_bottom": last(bottom)}


def mod_m_symmetry(t: Tableau, i: int, m: int) -> dict:
    """First/last occurrence columns of i per row, with the residue law.

    When i occurs in both rows, the boxes left of its first occurrences
    hold exactly the 2m(i-1) smaller values, so
    (f_bottom - 1) + (f_top - 1) = 0 mod m.  Absent rows make the law
    vacuous.
    """
    pos = row_positions(t, i)
    out = dict(pos)
    out["both_rows"] = pos["f_top"] is not None and pos["f_bottom"] is not None
    if out["both_rows"]:
        ok = (pos["f_top"] - 1 + pos["f_bottom"] - 1) % m == 0
        out["congruence_holds"] = ok
        if not ok:
            raise LemmaViolation(
                f"first-occurrence residues of {i} violate the mod-{m} law: {pos}")
    else:
        out["congruence_holds"] = None
    return out


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

    def entries(self, t: Tableau, k: int) -> tuple[int, int, int, int]:
        c1, c2 = self.pairs[k]
        return (t.rows[0][c1 - 1], t.rows[0][c2 - 1],
                t.rows[1][c1 - 1], t.rows[1][c2 - 1])


def _block_of(col: int, m: int) -> int:
    return -(-col // m)


def s_blocks(t: Tableau, profile: DefectProfile, m: int) -> list[SBlock]:
    """One block per odd-position defect, with the adjacency laws checked."""
    if m < 2:
        return []
    blocks: list[SBlock] = []
    d = profile.defects
    for idx in range(0, len(d), 2):
        i_j, i_next = d[idx], d[idx + 1]
        pos_j = row_positions(t, i_j)
        pos_next = row_positions(t, i_next)
        if pos_j["l_bottom"] is None or pos_next["f_bottom"] is None:
            raise LemmaViolation(
                f"defects {i_j}, {i_next} missing from the bottom row")
        k0 = _block_of(pos_j["l_bottom"], m)
        k1 = _block_of(pos_next["f_bottom"], m)
        pairs = [((k - 1) * m + 1, k * m) for k in range(k0, k1)]
        last_c1 = (k1 - 1) * m + 1
        f_next = pos_next["f_bottom"]
        if last_c1 == f_next:
            raise FlaggedCase(
                f"first occurrence of {i_next} lands on a selected column; "
                f"the block around defect {i_j} is degenerate")
        pairs.append((last_c1, f_next))
        block = SBlock(i_j, i_next, tuple(pairs))
        _check_block(t, block)
        blocks.append(block)
    return blocks


def _check_block(t: Tableau, b: SBlock) -> None:
    tt = len(b.pairs)
    first = b.entries(t, 0)
    last = b.entries(t, tt - 1)
    if first[2] != b.defect:
        raise LemmaViolation(
            f"block for {b.defect} does not start at its bottom value: {first}")
    if last[3] != b.next_defect:
        raise LemmaViolation(
            f"block for {b.defect} does not end at {b.next_defect}: {last}")
    for k in range(tt):
        e = b.entries(t, k)
        if e[2] < e[1]:
            raise LemmaViolation(
                f"pair {k + 1} of block {b.defect}: bottom-left {e[2]} < top-right {e[1]}")
        if k + 1 < tt:
            nxt = b.entries(t, k + 1)
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


def _find_block_moves(t: Tableau, b: SBlock) -> list[str]:
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
        e = b.entries(t, k)
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


def swap_rewrite(t: Tableau) -> SwapResult:
    """Rewrite p_t as p_mu' * p_nu' plus strictly smaller standard monomials.

    Applies the block repair moves to the columns of t, expands every
    bottom/top swap through the quadratic exchange p_(p,r) p_(q,s) =
    p_(p,s) p_(q,r) + p_(p,q) p_(r,s), and checks the advertised contract:
    the selected columns of the swapped tableau are balanced, every
    correction monomial is strictly smaller in degree-lex, and the whole
    expansion straightens back to p_t exactly.
    """
    m = t.d // t.n
    s = split(t, m)
    profile = defect_profile(s)
    return _swap_repaired(t, s, profile, s_blocks(t, profile, m))


def _swap_repaired(t: Tableau, s: MuNuSplit, profile: DefectProfile,
                   blocks: list[SBlock]) -> SwapResult:
    """swap_rewrite, given the split, defect profile and blocks of t."""
    n = t.n
    m = s.m
    if not profile.defects:
        return SwapResult(s.mu, tuple(s.nu.columns()), PlueckerPoly.zero(2, n),
                          "defect-free")
    used: set[int] = set()
    for b in blocks:
        cols = {c for pair in b.pairs for c in pair}
        if used & cols:
            raise FlaggedCase(f"blocks share columns near defect {b.defect}")
        used |= cols

    cols = t.columns()
    options: list[list[tuple[tuple[int, int], ...]]] = []
    case = "bottom-swaps"
    for b in blocks:
        moves = _find_block_moves(t, b)
        if any(mv in ("T", "C", "N") for mv in moves):
            case = "mixed-swaps"
        for k, ((c1, c2), mv) in enumerate(zip(b.pairs, moves)):
            e = b.entries(t, k)
            new1, new2 = _apply_move(mv, e)
            cols[c1 - 1], cols[c2 - 1] = new1, new2
            p, q, r, s_ = e
            if mv in ("B", "T") and p < q and r < s_:
                # exchange identity: main columns plus the (p,q),(r,s) term
                options.append([(new1, new2), ((p, q), (r, s_))])
            else:
                options.append([(new1, new2)])

    untouched = [c for j, c in enumerate(cols, start=1) if j not in used]
    mu_cols = cols[::m]
    nu_cols = [c for j, c in enumerate(cols) if j % m]
    try:
        mu_prime = Tableau.from_columns(mu_cols, n, r=2)
    except ValueError as exc:
        raise LemmaViolation(
            f"swapped selected columns {mu_cols} form no tableau: {exc}") from None
    if not is_zero_weight(mu_prime):
        raise LemmaViolation(f"swapped selected columns not balanced: {mu_cols}")

    # expand the per-pair identities; the all-main term is the swapped monomial
    expansion: dict[tuple, Fraction] = {tuple(sorted(untouched)): Fraction(1)}
    for opt in options:
        expansion = add_into({}, ((tuple(sorted(mono + cols)), c)
                                  for mono, c in expansion.items() for cols in opt))
    total = PlueckerPoly(2, n, expansion)
    if not (straighten(total) - tableau_to_poly(t)).is_zero():
        raise LemmaViolation("pair expansion does not straighten back to the input")

    main_key = tuple(sorted(cols))
    rest = dict(expansion)
    coeff = rest.pop(main_key, Fraction(0))
    if coeff == 0:
        raise LemmaViolation("swapped monomial missing from its own expansion")
    if coeff != 1:
        # a correction combination collided with the main monomial; the
        # surplus stays in the corrections and trips the degree-lex guard
        rest[main_key] = coeff - 1
    corrections = straighten(PlueckerPoly(2, n, rest))
    tkey = deglex_key(t)
    for mono in corrections.terms:
        if (len(mono), tuple(mono)) >= tkey:
            raise LemmaViolation(
                f"correction monomial {mono} not smaller than the input")
    return SwapResult(mu_prime, tuple(sorted(nu_cols)), corrections, case)


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


def _certify(rows: tuple, n: int, memo: dict, sr: SwapResult | None = None) -> None:
    """Certify the standard monomial with these rows by induction, or raise.

    A degree-1 monomial is certified outright.  A degree-m one is certified
    when its swap repair passes (``sr``, if the caller has run it already)
    and every term of the straightened p_nu' (degree m - 1) and every
    correction (degree m, smaller in degree-lex) is certified; the step's
    own checks make p_t their exact combination.  Outcomes are memoized by
    rows.  A failure is stored as its exception type and message and raised
    afresh for every monomial that rests on it, so each reports the same text.
    """
    if len(rows[0]) <= n:
        return
    if rows not in memo:
        try:
            if sr is None:
                sr = swap_rewrite(Tableau(rows, n))
            nu_poly = straighten(PlueckerPoly.monomial(sr.nu_prime_columns, n))
            for mono in chain(nu_poly.terms, sr.corrections.terms):
                _certify(tuple(zip(*mono)), n, memo)
            memo[rows] = None
        except (LemmaViolation, FlaggedCase) as exc:
            memo[rows] = (type(exc), str(exc))
    failure = memo[rows]
    if failure is not None:
        raise failure[0](failure[1])


def surjectivity_oracle(n: int, m: int) -> tuple[int, int, bool]:
    """Rank of degree-1 products inside degree m, by exact elimination.

    Returns (rank of the span of all m-fold products of the degree-1
    basis, dimension of the degree-m invariants, equality flag), on the
    whole Grassmannian G(2,n): the bounds (1,2) and (n-1,n) hold every
    column, so each straightened product lies in the degree-m basis.
    """
    if n % 2 == 0:
        raise ValueError("the degree-1 generation setting needs n odd")
    basis1 = enumerate_invariants(2, n, 1, (n - 1, n), (1, 2))
    basis_m = enumerate_invariants(2, n, m, (n - 1, n), (1, 2))
    index = {tuple(t.columns()): k for k, t in enumerate(basis_m)}
    dim = len(basis_m)
    factors = [tuple(T.columns()) for T in basis1]

    def rows():
        # A product is determined by its column multiset.  Standard multisets
        # come first: their rows are unit vectors, so full rank is usually
        # reached before any product needs real straightening.
        seen = set()
        for standard in (True, False):
            for combo in combinations_with_replacement(factors, m):
                mono = tuple(sorted(chain.from_iterable(combo)))
                if mono in seen or (_first_violation(mono) is None) != standard:
                    continue
                seen.add(mono)
                terms = ({mono: 1} if standard
                         else straighten(PlueckerPoly(2, n, {mono: 1})).terms)
                row = {}
                for std, c in terms.items():
                    if std not in index:
                        raise LemmaViolation(f"straightened product left the basis: {std}")
                    row[index[std]] = c
                yield row

    rank = sparse_rank(rows(), dim)
    return rank, dim, rank == dim


# ---------------------------------------------------------------------------
# family runner

def family_check(n: int, m: int, sample: int | None = None, seed: int = 1729) -> dict:
    """Run every structural lemma and the repair contract over one family.

    ``sample`` caps how many tableaux are processed (random but seeded)
    and must be at least 1.  After its own step, each processed tableau is
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
    memo: dict = {}
    for t in tabs:
        try:
            s = split(t, m)
            profile = defect_profile(s)
            passed["defect_laws"] += 1
            for i in range(1, n + 1):
                mod_m_symmetry(t, i, m)
            passed["residue_law"] += 1
            blocks = s_blocks(t, profile, m)
            passed["block_laws"] += 1
            sr = _swap_repaired(t, s, profile, blocks)
            passed["swap_contract"] += 1
            cases[sr.case] = cases.get(sr.case, 0) + 1
            if profile.defects:
                defected += 1
            # the certificate reuses the contract's swap repair; t is not in
            # the memo yet, since the tableaux come in ascending degree-lex
            # order and the induction reaches only smaller ones
            _certify(t.rows, n, memo, sr)
            passed["factorize"] += 1
        except (LemmaViolation, FlaggedCase) as exc:
            violations.append({"tableau": [list(r) for r in t.rows],
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
