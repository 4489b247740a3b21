"""Case-study data for the minimal Schubert variety in the Grassmannian G(3,7).

The degree-1 invariant ring there has seven generators; we keep their
tableaux, the distinguished degree-2 invariant Z20, the quadratic relations
among the generators, and the structural column facts used as checks on
every enumerated invariant.
"""

from __future__ import annotations

from .tableaux import LemmaViolation, Tableau, column_census

N = 7
W37 = (3, 5, 7)
V37 = (1, 3, 5)

Y_ROWS = {
    1: ((1, 1, 1, 2, 2, 2, 3), (3, 3, 4, 4, 4, 5, 5), (5, 6, 6, 6, 7, 7, 7)),
    2: ((1, 1, 1, 2, 2, 2, 3), (3, 3, 4, 4, 5, 5, 5), (4, 6, 6, 6, 7, 7, 7)),
    3: ((1, 1, 1, 2, 2, 3, 3), (2, 3, 4, 4, 4, 5, 5), (5, 6, 6, 6, 7, 7, 7)),
    4: ((1, 1, 1, 2, 2, 3, 3), (2, 3, 4, 4, 5, 5, 5), (4, 6, 6, 6, 7, 7, 7)),
    5: ((1, 1, 1, 2, 3, 3, 3), (2, 2, 4, 4, 4, 5, 5), (5, 6, 6, 6, 7, 7, 7)),
    6: ((1, 1, 1, 2, 3, 3, 3), (2, 2, 4, 4, 5, 5, 5), (4, 6, 6, 6, 7, 7, 7)),
    7: ((1, 1, 1, 2, 2, 3, 3), (2, 4, 4, 4, 5, 5, 5), (3, 6, 6, 6, 7, 7, 7)),
}

Y = {i: Tableau(rows, N) for i, rows in Y_ROWS.items()}

Z20 = Tableau(
    ((1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3),
     (2, 2, 2, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5),
     (3, 5, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7)),
    N,
)

GAMMA37 = Y[1]

# Structural column facts for every invariant tableau in this family.
FIRST_COLUMNS = {(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)}
FORBIDDEN_COLUMNS = {
    (1, 2, 7), (1, 3, 7), (1, 4, 7), (1, 5, 6), (1, 5, 7),
    (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 3, 7), (2, 4, 5),
    (2, 5, 6), (3, 4, 6), (3, 5, 6),
}

# Quadratic relations among the generators, valid on the Schubert variety:
# lhs product = signed sum of rhs products.
RELATIONS = [
    ("Y1*Y4", (1, 4), ((1, (2, 3)), (-1, (2, 7)), (1, (1, 7)))),
    ("Y1*Y5", (1, 5), ((1, (3, 3)), (-1, (3, 7)))),
    ("Y1*Y6", (1, 6), ((1, (3, 4)), (-1, (4, 7)))),
    ("Y2*Y5", (2, 5), ((1, (3, 4)), (-1, (3, 7)))),
    ("Y2*Y6", (2, 6), ((1, (4, 4)), (-1, (4, 7)))),
    ("Y3*Y6", (3, 6), ((1, (4, 5)),)),
]


def observation_report(t: Tableau, m: int) -> dict:
    """Column structure checks for a degree-m invariant on this family."""
    census = column_census(t)
    combined_57 = census.get((2, 5, 7), 0) + census.get((3, 5, 7), 0)
    checks = {
        "first_column_allowed": t.column(0) in FIRST_COLUMNS,
        "last_column_is_357": t.column(t.d - 1) == W37,
        "no_forbidden_columns": all(census.get(c, 0) == 0 for c in FORBIDDEN_COLUMNS),
        "count_246_equals_m": census.get((2, 4, 6), 0) == m,
        "count_146_at_least_m": census.get((1, 4, 6), 0) >= m,
        "count_257_plus_357_at_least_2m": combined_57 >= 2 * m,
    }
    return {"ok": all(checks.values()), "checks": checks}


def factor_lemma_witness(t: Tableau) -> tuple[str, Tableau]:
    """Factor a degree-m invariant as generator * invariant of lower degree.

    Searches Y1..Y7 for a sub-multiset of the columns of t whose complement
    is again a standard monomial; falls back to Z20 (complement two degrees
    lower).  Failure would falsify the factorization lemma this family
    relies on, so it raises LemmaViolation.
    """
    m = t.d // N
    if m < 2:
        raise ValueError("need degree at least 2")
    census = column_census(t)

    def try_factor(g: Tableau) -> Tableau | None:
        gc = column_census(g)
        if any(census.get(c, 0) < k for c, k in gc.items()):
            return None
        rest = census - gc
        try:
            return Tableau.from_columns(rest.elements(), N, r=3)
        except ValueError:
            return None

    for i in range(1, 8):
        comp = try_factor(Y[i])
        if comp is not None:
            return (f"y{i}", comp)
    comp = try_factor(Z20)
    if comp is not None:
        return ("z20", comp)
    raise LemmaViolation(f"no generator factors the degree-{m} invariant {t.rows}")
