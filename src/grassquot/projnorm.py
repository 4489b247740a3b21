"""Degree-1 generation of the invariant ring of G(2,n), n odd.

Every degree-m invariant tableau splits into the subtableau on columns
1 mod m (candidate degree-1 factor) and the rest.  When the candidate is
not balanced, the defected values are repaired by swapping entries inside
small two-column blocks; the quadratic exchange identity turns each swap
into the swapped monomial plus a strictly smaller correction, and
induction on degree and on the degree-lexicographic order writes the
original monomial as a sum of products of degree-1 invariants.  An exact
linear-algebra oracle certifies the resulting surjectivity degree by
degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement

from .pluecker import (PlueckerPoly, _first_violation, restrict_schubert,
                       straighten, tableau_to_poly)
from .symbolic import add_into, sparse_rank
from .tableaux import (LemmaViolation, Tableau, columns_form_chain, deglex_key,
                       enumerate_invariants, is_zero_weight)


class FlaggedCase(RuntimeError):
    """Structurally unexpected input outside the proven block bookkeeping."""


# ---------------------------------------------------------------------------
# split / defects / positions

@dataclass(frozen=True)
class MuNuSplit:
    source: Tableau
    m: int
    mu_columns: tuple[int, ...]   # 1-based positions 1, m+1, ..., (n-1)m+1
    mu: Tableau
    nu: Tableau


def split(t: Tableau, m: int) -> MuNuSplit:
    """Select the columns at positions 1 mod m as the candidate factor."""
    n = t.n
    if t.r != 2 or t.d != m * n:
        raise ValueError(f"expected a 2 x {m * n} tableau, got {t.r} x {t.d}")
    mu_pos = tuple(c for c in range(1, t.d + 1) if (c - 1) % m == 0)
    mu_cols = [t.column(c - 1) for c in mu_pos]
    nu_cols = [t.column(c - 1) for c in range(1, t.d + 1) if (c - 1) % m != 0]
    return MuNuSplit(t, m, mu_pos,
                     Tableau.from_columns(mu_cols, n, r=2),
                     Tableau.from_columns(nu_cols, n, r=2))


@dataclass(frozen=True)
class DefectProfile:
    defects: tuple[int, ...]
    multiplicity: dict[int, int]

    def __iter__(self):
        return iter(self.defects)


def defect_profile(s: MuNuSplit) -> DefectProfile:
    """Values of odd multiplicity in the selected subtableau.

    Enforces the structural facts the repair step relies on: every value
    occurs, defects come in even number, and their multiplicities
    alternate 3, 1, 3, 1 in increasing order with the 3s hitting both rows.
    """
    n = s.source.n
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


def _move_delta(move: str, e: tuple[int, int, int, int]) -> tuple[tuple[int, int], ...]:
    """(value, +-1) changes a move makes to the selected columns' multiset."""
    p, q, r, s = e
    if move == "B":
        return (r, -1), (s, 1)
    if move == "T":
        return (p, -1), (q, 1)
    if move == "C":
        return (p, -1), (r, -1), (q, 1), (s, 1)
    return ()


def _move_valid(move: str, e: tuple[int, int, int, int]) -> bool:
    if move in ("B", "T"):
        return e[1] < e[2]  # swapped column (q, r) must stay strict
    return True


def _find_block_moves(t: Tableau, b: SBlock, node_cap: int = 200_000) -> list[str]:
    """Moves per pair netting one defect unit onto the next defect.

    Depth-first over per-pair moves (swap bottoms, swap tops, swap whole
    columns, leave alone), tracking the exact multiset change of the
    selected columns; bottom swaps are preferred so defect-free runs
    reproduce the plain bottom-exchange scheme.
    """
    target = {b.defect: -1, b.next_defect: 1}
    entries = [b.entries(t, k) for k in range(len(b.pairs))]
    nodes = 0

    def rec(k: int, delta: dict[int, int]) -> list[str] | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise FlaggedCase(
                f"move search exceeded {node_cap} nodes on block {b.defect}")
        if k == len(entries):
            return [] if delta == target else None
        if len(delta) > 6:
            return None
        for move in _MOVES:
            if not _move_valid(move, entries[k]):
                continue
            tail = rec(k + 1, add_into(dict(delta), _move_delta(move, entries[k])))
            if tail is not None:
                return [move] + tail
        return None

    moves = rec(0, {})
    if moves is None:
        raise LemmaViolation(
            f"no entry-swap scheme repairs block {b.defect}->{b.next_defect} "
            f"with pairs {b.pairs}")
    return moves


def _apply_move(move: str, e: tuple[int, int, int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    p, q, r, s = e
    if move == "B":
        return (p, s), (q, r)
    if move == "T":
        return (q, r), (p, s)
    if move == "C":
        return (q, s), (p, r)
    return (p, r), (q, s)


@dataclass(frozen=True)
class SwapResult:
    source: Tableau
    mu_prime: Tableau
    nu_prime_columns: tuple[tuple[int, ...], ...]
    corrections: PlueckerPoly
    moves: tuple[tuple[int, str], ...]   # (defect, moves string) per block
    case: str


def swap_rewrite(t: Tableau) -> SwapResult:
    """Rewrite p_t as p_mu' * p_nu' plus strictly smaller standard monomials.

    Applies the block repair moves in place, expands every bottom/top swap
    through the quadratic exchange p_(p,r) p_(q,s) = p_(p,s) p_(q,r) +
    p_(p,q) p_(r,s), and checks the advertised contract: the selected
    columns of the swapped tableau are balanced, every correction monomial
    is strictly smaller in degree-lex, and the whole expansion straightens
    back to p_t exactly.
    """
    n = t.n
    m = t.d // n
    s = split(t, m)
    profile = defect_profile(s)
    if not profile.defects:
        return SwapResult(t, s.mu, tuple(s.nu.columns()),
                          PlueckerPoly.zero(2, n), (), "defect-free")
    blocks = s_blocks(t, profile, m)
    used: set[int] = set()
    for b in blocks:
        cols = {c for pair in b.pairs for c in pair}
        if used & cols:
            raise FlaggedCase(f"blocks share columns near defect {b.defect}")
        used |= cols

    grid = [list(t.rows[0]), list(t.rows[1])]
    options: list[list[tuple[tuple[int, int], ...]]] = []
    move_log = []
    case = "bottom-swaps"
    for b in blocks:
        moves = _find_block_moves(t, b)
        move_log.append((b.defect, "".join(moves)))
        if any(mv in ("T", "C", "N") for mv in moves):
            case = "mixed-swaps"
        for k, ((c1, c2), mv) in enumerate(zip(b.pairs, moves)):
            e = b.entries(t, k)
            new1, new2 = _apply_move(mv, e)
            grid[0][c1 - 1], grid[1][c1 - 1] = new1
            grid[0][c2 - 1], grid[1][c2 - 1] = new2
            p, q, r, s_ = e
            if mv in ("B", "T") and p < q and r < s_:
                # exchange identity: main columns plus the (p,q),(r,s) term
                options.append([(new1, new2), ((p, q), (r, s_))])
            else:
                options.append([(new1, new2)])

    untouched = [t.column(j - 1) for j in range(1, t.d + 1) if j not in used]

    mu_pos = [c for c in range(1, t.d + 1) if (c - 1) % m == 0]
    mu_cols = [(grid[0][c - 1], grid[1][c - 1]) for c in mu_pos]
    nu_cols = [(grid[0][c - 1], grid[1][c - 1]) for c in range(1, t.d + 1)
               if (c - 1) % m != 0]
    if not columns_form_chain(mu_cols):
        raise LemmaViolation(f"swapped selected columns not a chain: {mu_cols}")
    mu_prime = Tableau.from_columns(mu_cols, n, r=2)
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

    main_key = tuple(sorted((grid[0][j], grid[1][j]) for j in range(t.d)))
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
    return SwapResult(t, mu_prime, tuple(sorted(nu_cols)), corrections,
                      tuple(move_log), case)


# ---------------------------------------------------------------------------
# factorization and the surjectivity oracle

Factorization = list[tuple[Fraction, tuple[Tableau, ...]]]


def minimal_invariant_tableau(n: int, m: int) -> Tableau:
    """The degree-lex least invariant tableau of the full 2 x mn family.

    The column-lexicographic enumeration yields it first; its m shifted
    column selections are balanced and identical, giving the factorization
    base case.
    """
    from .tableaux import iter_invariants

    return next(iter_invariants(2, n, m, (n - 1, n), (1, 2)))


def _combine(acc: dict, factors: Factorization, coeff: Fraction,
             extra: tuple[Tableau, ...]) -> None:
    add_into(acc, ((tuple(sorted(tabs + extra, key=lambda T: T.rows)), coeff * c)
                   for c, tabs in factors))


def factorize(t: Tableau, _memo: dict | None = None) -> Factorization:
    """Express p_t as a sum of products of degree-1 invariants.

    Recursion: strip a balanced selected subtableau when one exists,
    otherwise swap-rewrite and recurse into the strictly smaller pieces.
    The degree-lex guard in swap_rewrite makes the recursion well founded.
    """
    if _memo is None:
        _memo = {}
    if t.rows in _memo:
        return _memo[t.rows]
    n = t.n
    m = t.d // n
    if m <= 1:
        result: Factorization = [(Fraction(1), (t,))]
        _memo[t.rows] = result
        return result
    s = split(t, m)
    acc: dict = {}
    if is_zero_weight(s.mu):
        _combine(acc, factorize(s.nu, _memo), Fraction(1), (s.mu,))
    else:
        sr = swap_rewrite(t)
        nu_poly = straighten(PlueckerPoly.monomial(sr.nu_prime_columns, n))
        for mono, c in nu_poly.terms.items():
            sub = Tableau.from_columns(mono, n, r=2)
            _combine(acc, factorize(sub, _memo), c, (sr.mu_prime,))
        for mono, c in sr.corrections.terms.items():
            sub = Tableau.from_columns(mono, n, r=2)
            _combine(acc, factorize(sub, _memo), c, ())
    result = sorted(acc.items(), key=lambda kv: [T.rows for T in kv[0]])
    result = [(c, tabs) for tabs, c in result]
    _memo[t.rows] = result
    return result


def expand_factorization(fact: Factorization, n: int) -> PlueckerPoly:
    """Multiply every product back out and straighten; the re-expansion oracle."""
    return straighten(PlueckerPoly(2, n, add_into({}, (
        (tuple(sorted(chain.from_iterable(T.columns() for T in tabs))), c)
        for c, tabs in fact))))


def surjectivity_oracle(n: int, m: int,
                        w: tuple[int, int] | None = None) -> tuple[int, int, bool]:
    """Rank of degree-1 products inside degree m, by exact elimination.

    Returns (rank of the span of all m-fold products of the degree-1
    basis, dimension of the degree-m invariants, equality flag).
    """
    if n % 2 == 0:
        raise ValueError("the degree-1 generation setting needs n odd")
    top = w if w is not None else (n - 1, n)
    bottom = (1, 2)
    basis1 = enumerate_invariants(2, n, 1, top, bottom)
    basis_m = enumerate_invariants(2, n, m, top, bottom)
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
                poly = restrict_schubert(straighten(PlueckerPoly(2, n, {mono: 1})),
                                         top, bottom)
                row = {}
                for std, c in poly.terms.items():
                    if std not in index:
                        raise LemmaViolation(f"straightened product left the basis: {std}")
                    row[index[std]] = c
                yield row

    rank = sparse_rank(rows(), dim)
    return rank, dim, rank == dim


# ---------------------------------------------------------------------------
# family runner

def family_check(n: int, m: int, sample: int | None = None, seed: int = 1729,
                 reexpand: int | None = None) -> dict:
    """Run every structural lemma and the repair contract over one family.

    ``sample`` caps how many tableaux are processed (random but seeded);
    ``reexpand`` caps how many full factorizations are multiplied back out
    and compared with the input (None = all processed tableaux).
    """
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
    reexpand_budget = len(tabs) if reexpand is None else reexpand
    reexpanded = 0
    for t in tabs:
        try:
            s = split(t, m)
            profile = defect_profile(s)
            passed["defect_laws"] += 1
            for i in range(1, n + 1):
                mod_m_symmetry(t, i, m)
            passed["residue_law"] += 1
            s_blocks(t, profile, m)
            passed["block_laws"] += 1
            sr = swap_rewrite(t)
            passed["swap_contract"] += 1
            cases[sr.case] = cases.get(sr.case, 0) + 1
            if profile.defects:
                defected += 1
            fact = factorize(t, memo)
            if reexpanded < reexpand_budget:
                if not (expand_factorization(fact, n) - tableau_to_poly(t)).is_zero():
                    raise LemmaViolation("factorization does not re-expand to the input")
                reexpanded += 1
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
        "reexpanded": reexpanded,
        "violations": violations,
        "ok": not violations,
    }
