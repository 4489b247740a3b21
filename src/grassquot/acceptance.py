"""The acceptance suite: every shipped claim as an executable criterion.

Each criterion is exact (no tolerances); a criterion returns a payload
with a boolean ``passed`` plus enough detail to diagnose a failure.  The
suite is deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, product

from . import g37
from .deodhar import (SubexpressionMask, W37_WORD, classify, find_pds,
                      quotient_probe, restrict_section)
from .pluecker import PlueckerPoly, restrict_schubert, straighten, verify_relation
from .projnorm import family_check, surjectivity_oracle
from .rewriting import (check_confluence, format_poly, g37_rules, normal_form_count,
                        reduce_poly, scroll_matrix_check, y_mono)
from .tableaux import count_invariants, enumerate_invariants
from .weyl import (ColumnTuple, canonical_word, gamma_tableau, minimal_schubert,
                   minimal_richardson_v, perm_inv, perm_length, perm_mul,
                   reduced_word_of, restriction_height)

DEFAULT_SEED = 1729

GAMMA38_ROWS = ((1, 1, 1, 2, 2, 2, 3, 3),
                (3, 4, 4, 4, 5, 5, 5, 6),
                (6, 6, 7, 7, 7, 8, 8, 8))


def crit_1_minimal_data(seed: int) -> dict:
    w = minimal_schubert(3, 7)
    g38 = gamma_tableau(3, 8)
    checks = {
        "minimal_schubert_3_7": w.entries == (3, 5, 7),
        "gamma_3_8_matches": g38.rows == GAMMA38_ROWS,
    }
    return {"passed": all(checks.values()), "checks": checks}


def crit_2_degree_one_basis(seed: int) -> dict:
    inv = enumerate_invariants(3, 7, 1, g37.W37, (1, 2, 3))
    got = {t.rows for t in inv}
    want = {g37.Y[i].rows for i in range(1, 8)}
    narrowed = enumerate_invariants(3, 7, 1, g37.W37, g37.V37)
    checks = {
        "seven_invariants": len(inv) == 7,
        "equals_generators": got == want,
        "narrow_bound_gives_gamma_only": (
            len(narrowed) == 1 and narrowed[0] == g37.GAMMA37),
    }
    return {"passed": all(checks.values()), "checks": checks}


def crit_3_column_observations(seed: int) -> dict:
    bad = []
    counts = {}
    for m in (1, 2):
        tabs = enumerate_invariants(3, 7, m, g37.W37, (1, 2, 3))
        counts[m] = len(tabs)
        for t in tabs:
            rep = g37.observation_report(t, m)
            if not rep["ok"]:
                bad.append({"m": m, "tableau": [list(r) for r in t.rows],
                            "checks": rep["checks"]})
    return {"passed": not bad, "family_sizes": counts, "failures": bad}


def crit_4_straightening_identities(seed: int) -> dict:
    lhs = PlueckerPoly.monomial([(2, 5, 7), (3, 4, 7)], 7)
    want = (PlueckerPoly.monomial([(2, 4, 7), (3, 5, 7)], 7)
            - PlueckerPoly.monomial([(2, 3, 7), (4, 5, 7)], 7))
    ok_exchange = straighten(lhs) == want
    ok_z20, _ = verify_relation([g37.Y[5], g37.Y[7]], [(1, [g37.Z20])],
                                g37.W37, (1, 2, 3))
    checks = {"two_column_exchange": ok_exchange, "y5_y7_equals_z20": ok_z20}
    return {"passed": all(checks.values()), "checks": checks}


def crit_5_relations(seed: int) -> dict:
    restricted_ok = {}
    unrestricted_fail = {}
    for name, (i, j), rhs in g37.RELATIONS:
        signed = [(s, [g37.Y[a], g37.Y[b]]) for s, (a, b) in rhs]
        # the bounds of the whole Grassmannian restrict nothing
        raw_ok, raw = verify_relation([g37.Y[i], g37.Y[j]], signed,
                                      (5, 6, 7), (1, 2, 3))
        restricted_ok[name] = restrict_schubert(raw, g37.W37, (1, 2, 3)).is_zero()
        unrestricted_fail[name] = not raw_ok
    passed = all(restricted_ok.values()) and any(unrestricted_fail.values())
    return {"passed": passed, "restricted": restricted_ok,
            "negative_control_failures": unrestricted_fail}


def crit_6_confluence(seed: int) -> dict:
    system = g37_rules()
    report = check_confluence(system, through_degree=4)
    j125 = reduce_poly({y_mono(7, 1, 2, 5): Fraction(1)}, system)
    j126 = reduce_poly({y_mono(7, 1, 2, 6): Fraction(1)}, system)
    want125 = {y_mono(7, 2, 3, 3): Fraction(1), y_mono(7, 2, 3, 7): Fraction(-1)}
    want126 = {y_mono(7, 2, 3, 4): Fraction(1), y_mono(7, 2, 4, 7): Fraction(-1)}
    checks = {
        "all_ambiguities_join": report["ok"],
        "join_Y1Y2Y5": j125 == want125,
        "join_Y1Y2Y6": j126 == want126,
    }
    return {"passed": all(checks.values()), "checks": checks,
            "ambiguity_count": len(report["ambiguities"]),
            "joins": {"Y1*Y2*Y5": format_poly(j125), "Y1*Y2*Y6": format_poly(j126)}}


def crit_7_dimension_match(seed: int) -> dict:
    system = g37_rules()
    detail = {}
    ok = True
    for m in (1, 2, 3):
        nf = normal_form_count(system, m)
        dim = count_invariants(3, 7, m, g37.W37, (1, 2, 3))
        detail[m] = {"normal_forms": nf, "invariants": dim}
        ok &= nf == dim
    return {"passed": ok, "dimensions": detail}


def crit_8_scroll(seed: int) -> dict:
    rep = scroll_matrix_check(g37_rules())
    return {"passed": rep["ok"], "minors": {str(k): v for k, v in rep["minors"].items()}}


def _suffix_mask(u_word: tuple[int, ...], v_word: tuple[int, ...], n: int) -> SubexpressionMask:
    word = u_word + v_word
    keep = (False,) * len(u_word) + (True,) * len(v_word)
    return SubexpressionMask(word, keep, n)


def crit_9_deodhar(seed: int) -> dict:
    n = 7
    by_product: dict = {}
    for keep in product([False, True], repeat=9):
        c = classify(SubexpressionMask(W37_WORD, keep, n))
        by_product.setdefault(c.product, []).append(c)
    uniqueness = all(sum(1 for c in lst if c.pds) == 1 for lst in by_product.values())

    v37 = minimal_richardson_v(3, 7)
    mask37 = find_pds(W37_WORD, v37.to_permutation(), n)
    sec = restrict_section(g37.Y[1], mask37)
    mono_ok = (len(sec.terms) == 1
               and next(iter(sec.terms)) == (1, 4, 2, 5, 3, 6)
               and abs(next(iter(sec.terms.values()))) == 1)
    deg21 = True
    for i in range(1, 8):
        p = restrict_section(g37.Y[i], mask37)
        hom, deg = p.is_homogeneous()
        deg21 &= hom and (p.is_zero() or deg == 21)

    w = minimal_schubert(3, 7)
    wp = w.to_permutation()
    lw = perm_length(wp)
    admissible = []
    for entries in combinations(range(1, 8), 3):
        v = ColumnTuple(entries, n)
        if not all(a <= b for a, b in zip(entries, w.entries)):
            continue
        vp = v.to_permutation()
        u = perm_mul(wp, perm_inv(vp))
        if perm_length(u) + perm_length(vp) == lw:
            admissible.append((v, reduced_word_of(u), canonical_word(v).letters))
    rng = random.Random(seed)
    homog_ok = True
    cases = 0
    failures = []
    while cases < 200:
        v, u_word, v_word = rng.choice(admissible)
        t = g37.Y[rng.randint(1, 7)]
        mask = _suffix_mask(u_word, v_word, n)
        p = restrict_section(t, mask)
        hom, deg = p.is_homogeneous()
        ok = hom and (p.is_zero() or deg == restriction_height(v))
        if not ok:
            failures.append({"v": list(v.entries), "tableau": [list(r) for r in t.rows]})
            homog_ok = False
        cases += 1
    checks = {
        "pds_unique_over_all_subword_targets": uniqueness,
        "y1_restricts_to_unit_monomial": mono_ok,
        "v37_sections_homogeneous_degree_21": deg21,
        "random_sections_homogeneous_at_height": homog_ok,
    }
    return {"passed": all(checks.values()), "checks": checks,
            "distinct_targets": len(by_product), "sampled_cases": cases,
            "failures": failures}


def crit_10_probes(seed: int) -> dict:
    reports = {case: quotient_probe(case) for case in ("s2s4s3", "s2s3", "s4s3", "s3")}
    return {"passed": all(r["ok"] for r in reports.values()),
            "cases": {k: {"ok": r["ok"], "nonvanishing": r["nonvanishing"]}
                      for k, r in reports.items()}}


def crit_11_families(seed: int) -> dict:
    reports = {}
    ok = True
    for n, m in ((5, 2), (5, 3), (7, 2)):
        rep = family_check(n, m, seed=seed)
        reports[f"n{n}_m{m}"] = {k: rep[k] for k in
                                 ("family_size", "checked", "defected", "cases",
                                  "lemma_pass_counts", "reexpanded", "ok",
                                  "violations")}
        ok &= rep["ok"]
    return {"passed": ok, "families": reports}


def crit_12_surjectivity(seed: int) -> dict:
    detail = {}
    ok = True
    for n, m in ((5, 2), (5, 3), (7, 2)):
        rank, dim, equal = surjectivity_oracle(n, m)
        detail[f"n{n}_m{m}"] = {"rank": rank, "dim": dim, "equal": equal}
        ok &= equal
    return {"passed": ok, "oracles": detail}


CRITERIA = (
    (1, "minimal Schubert data and the reading-order tableau", crit_1_minimal_data),
    (2, "degree-1 invariant basis on the minimal Schubert variety", crit_2_degree_one_basis),
    (3, "column-structure observations in degrees 1 and 2", crit_3_column_observations),
    (4, "two-column straightening and the distinguished degree-2 product", crit_4_straightening_identities),
    (5, "all six quadratic relations modulo the Schubert restriction", crit_5_relations),
    (6, "rewriting system is confluent with the stated joins", crit_6_confluence),
    (7, "normal-form counts equal invariant dimensions (degrees 1-3)", crit_7_dimension_match),
    (8, "rank-one matrix form reproduces the relations", crit_8_scroll),
    (9, "unique positive subexpressions and homogeneous restrictions", crit_9_deodhar),
    (10, "open-cell section structure of the four quotient probes", crit_10_probes),
    (11, "defect, block and repair contracts over the 2-row families", crit_11_families),
    (12, "degree-1 products span every tested invariant degree", crit_12_surjectivity),
)


def run_criterion(cid: int, seed: int = DEFAULT_SEED) -> dict:
    entry = next((c for c in CRITERIA if c[0] == cid), None)
    if entry is None:
        raise ValueError(f"no acceptance criterion {cid}")
    t0 = time.perf_counter()
    payload = entry[2](seed)
    payload.update({"id": cid, "title": entry[1],
                    "elapsed_s": round(time.perf_counter() - t0, 3)})
    return payload


def run_suite(only: int | None = None, seed: int = DEFAULT_SEED) -> dict:
    ids = [cid for cid, _, _ in CRITERIA] if only is None else [only]
    results = [run_criterion(cid, seed) for cid in ids]
    return {"passed": all(r["passed"] for r in results), "criteria": results}
