"""The benchmark's three workloads: seeded inputs, jobs and exact checks.

A workload is a closed loop of passes.  A pass is the workload's whole job
mix in a seeded order, so every pass does the same kinds of work; pass k
draws its inputs from its own generator, seeded by the workload seed and
k, when the runner asks for it.  The runner times each job and checks its
result afterwards, outside the timed span.  Checks compare mathematical
content only, against values recorded at the seed commit in
``expected.json`` or against an independent evaluation; they never
compare timings or the payload ``ok`` of ``projnorm --oracle``.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from grassquot import acceptance, cli, deodhar, g37, pluecker, rewriting, weyl

WORKLOADS = ("acceptance", "g2n-certify", "g37-presentation")

G2N_FAMILIES = ((5, 2), (5, 3), (5, 4), (5, 5), (5, 6), (5, 7), (5, 8), (7, 2), (7, 3))

# The g37 rules with Y3*Y6 -> Y4*Y5 replaced by Y3*Y6 -> Y4^2: not confluent.
NEGATIVE_RULES = """\
# g37 presentation with Y3*Y6 -> Y4*Y5 replaced by Y3*Y6 -> Y4^2
Y1*Y4 -> Y2*Y3 - Y2*Y7 + Y1*Y7
Y1*Y5 -> Y3^2 - Y3*Y7
Y1*Y6 -> Y3*Y4 - Y4*Y7
Y2*Y5 -> Y3*Y4 - Y3*Y7
Y2*Y6 -> Y4^2 - Y4*Y7
Y3*Y6 -> Y4^2
"""
NEGATIVE_FAILURES = 34

# Left-hand sides of the g37 rules, as generator index pairs; a normal
# form has no monomial divisible by any of them.
G37_LHS = ((1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (3, 6))
NORMAL_FORM_DEGREES = range(1, 9)
REDUCE_PER_DEGREE = 16          # polynomials per degree 5..9 in the batch
REDUCE_TERMS = 6
SECTION_SAMPLE = 200
SWEEP_TABLEAUX = (1, 4, 7)
SWEEP_MASKS = 404
SWEEP_CHUNK = 101               # masks per sweep job: 12 jobs of one tableau each
SWEEP_CHECKED_PER_CHUNK = 10    # sections per sweep job re-evaluated through minors
PROBES = ("s2s4s3", "s2s3", "s4s3", "s3")


class Mismatch(Exception):
    """A job's result differs from its expected exact value."""


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]     # returns the verdict; raises Mismatch
    output: Path | None = None      # the report file of a CLI job


@dataclass
class Plan:
    seed: int
    warmup: list[Job]                               # one untimed job of each kind
    make_pass: Callable[[random.Random], list[Job]]

    def pass_jobs(self, k: int) -> list[Job]:
        """The jobs of pass k, with inputs drawn from the seed and k."""
        return self.make_pass(random.Random(f"{self.seed}/pass{k}"))


def prepare(workload: str, seed: int, tmp: Path) -> Plan:
    """Generate the workload's fixed inputs and warm-up jobs from the seed."""
    makers = {"acceptance": _acceptance, "g2n-certify": _g2n_certify,
              "g37-presentation": _g37_presentation}
    warmup, make_pass = makers[workload](random.Random(f"{seed}/warmup"), tmp)
    return Plan(seed, warmup, make_pass)


def cell_cache_info() -> tuple[int, int]:
    """(hits, misses) of the deodhar cell-matrix cache."""
    info = deodhar._cached_cell.cache_info()
    return info.hits, info.misses


def clear_caches() -> None:
    """Empty the cell-matrix cache, the only state grassquot keeps across
    calls, so that each set-up starts as a fresh process would."""
    deodhar._cached_cell.cache_clear()


@functools.cache
def _expected() -> dict:
    return json.loads(Path(__file__).with_name("expected.json").read_text())


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def plain(obj) -> Any:
    """The JSON form of obj: tuples become lists, keys become strings."""
    return json.loads(json.dumps(obj, sort_keys=True, default=str))


def _cli_job(kind: str, argv: list[str], out: Path,
             check_report: Callable[[int, dict], str]) -> Job:
    full = ["--json", "--output", str(out), *argv]

    def check(rc: int) -> str:
        report = json.loads(out.read_text())
        out.unlink()
        return check_report(rc, report)

    return Job(kind, lambda: cli.main(full), check, out)


# ---------------------------------------------------------------------------
# acceptance: the twelve criteria, one job each

ACCEPTANCE_IGNORED = ("elapsed_s", "id", "title")


def acceptance_content(payload: dict) -> dict:
    return plain({k: v for k, v in payload.items() if k not in ACCEPTANCE_IGNORED})


def _criterion_job(cid: int, seed: int) -> Job:
    def check(payload: dict) -> str:
        _expect(payload["passed"] is True, f"criterion {cid} did not pass")
        _expect(acceptance_content(payload) == _expected()["acceptance"][str(cid)],
                f"criterion {cid}: payload differs from the recorded one")
        return "pass"

    return Job(f"crit_{cid:02d}", lambda: acceptance.run_criterion(cid, seed), check)


def _acceptance(rng: random.Random, tmp: Path):
    def make_pass(prng: random.Random) -> list[Job]:
        seed = prng.randrange(2 ** 31)
        return [_criterion_job(cid, seed) for cid in range(1, 13)]

    # One job kind, run_criterion.  Criteria 9 and 10 warm it up: they fill
    # the cell-matrix cache, the only state the criteria keep across calls.
    seed = rng.randrange(2 ** 31)
    return [_criterion_job(cid, seed) for cid in (9, 10)], make_pass


# ---------------------------------------------------------------------------
# g2n-certify: projnorm --exhaustive --oracle over the G(2,n) families

def projnorm_content(payload: dict) -> dict:
    return plain({k: v for k, v in payload.items() if k != "ok"})


def _projnorm_job(n: int, m: int, out: Path) -> Job:
    def check(rc: int, report: dict) -> str:
        payload = report["payload"]
        oracle = payload["oracle"]
        _expect(rc == 0 and report["status"] == "pass",
                f"projnorm n={n} m={m}: status {report['status']}, exit {rc}")
        _expect(oracle["rank"] == oracle["dim"] == payload["family_size"],
                f"projnorm n={n} m={m}: rank {oracle['rank']}, dim {oracle['dim']}, "
                f"family {payload['family_size']}")
        _expect(projnorm_content(payload) == _expected()["g2n-certify"][f"{n},{m}"],
                f"projnorm n={n} m={m}: payload differs from the recorded one")
        return f"pass size={payload['family_size']} rank={oracle['rank']}"

    argv = ["projnorm", "--n", str(n), "--m", str(m), "--exhaustive", "--oracle"]
    return _cli_job(f"projnorm_n{n}_m{m}", argv, out, check)


def _g2n_certify(rng: random.Random, tmp: Path):
    out = tmp / "projnorm.json"

    def make_pass(prng: random.Random) -> list[Job]:
        order = list(G2N_FAMILIES)
        prng.shuffle(order)
        return [_projnorm_job(n, m, out) for n, m in order]

    # One job kind: the smallest family warms up the certification path.
    return [_projnorm_job(5, 2, out)], make_pass


# ---------------------------------------------------------------------------
# g37-presentation: rewriting and Deodhar sections on G(3,7)

def confluence_content(payload: dict) -> dict:
    return {"exhaustive_ok": payload["exhaustive_ok"],
            "joined": [a["joined"] for a in payload["ambiguities"]]}


def _confluence_job(kind: str, rules: str, out: Path, want_status: str) -> Job:
    def check(rc: int, report: dict) -> str:
        want_rc = 1 if want_status == "fail" else 0
        _expect(report["status"] == want_status and rc == want_rc,
                f"{kind}: status {report['status']}, exit {rc}")
        _expect(confluence_content(report["payload"]) == _expected()["g37-presentation"][kind],
                f"{kind}: ambiguity verdicts differ from the recorded ones")
        if want_status == "fail":
            system = rewriting.parse_rules(Path(rules).read_text(), 7)
            failures = rewriting.check_confluence(system, 4)["exhaustive_failures"]
            _expect(len(failures) == NEGATIVE_FAILURES,
                    f"{kind}: {len(failures)} exhaustive failures, want {NEGATIVE_FAILURES}")
        return f"{want_status} ambiguities={len(report['payload']['ambiguities'])}"

    argv = ["confluence", "--rules", rules, "--max-degree", "4"]
    return _cli_job(kind, argv, out, check)


def _verify_relations_job(out: Path) -> Job:
    def check(rc: int, report: dict) -> str:
        payload = report["payload"]
        _expect(rc == 0 and report["status"] == "pass",
                f"verify-relations: status {report['status']}, exit {rc}")
        _expect(sorted(payload) == _expected()["g37-presentation"]["verify_relations"],
                f"verify-relations: relations {sorted(payload)}")
        bad = [k for k, v in payload.items() if not (v["holds"] and v["residue"] == "0")]
        _expect(not bad, f"verify-relations: {bad} do not hold")
        return "pass"

    return _cli_job("verify_relations", ["verify-relations"], out, check)


def _probe_job(case: str, out: Path) -> Job:
    def check(rc: int, report: dict) -> str:
        payload = report["payload"]
        want = _expected()["g37-presentation"]["probes"][case]
        _expect(rc == 0 and report["status"] == "pass",
                f"probe {case}: status {report['status']}, exit {rc}")
        _expect(all(payload["checks"].values()), f"probe {case}: checks {payload['checks']}")
        got = {k: payload[k] for k in want}
        _expect(got == want, f"probe {case}: {got} differs from {want}")
        return f"pass nonvanishing={payload['nonvanishing']}"

    return _cli_job(f"probe_{case}", ["deodhar", "--probe", case], out, check)


def _random_poly(rng: random.Random, degree: int) -> dict:
    poly: dict = {}
    while len(poly) < REDUCE_TERMS:
        e = [0] * 7
        for _ in range(degree):
            e[rng.randrange(7)] += 1
        poly[tuple(e)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return poly


def _minors_value(i: int, frame: pluecker.Matrix) -> Fraction:
    """Y_i at the frame: the product of the minors over its columns."""
    value = Fraction(1)
    for col in g37.Y[i].columns():
        value *= pluecker.minor(frame, col)
    return value


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _schubert_frame(rng: random.Random) -> pluecker.Matrix:
    """A 7 x 3 rational matrix whose column j lives on rows 1..w_j for
    w = (3,5,7): a point of the Schubert variety of w, where the g37 rules
    hold.  Drawn again until no generator vanishes there."""
    while True:
        frame = tuple(tuple(_rational(rng) if row < w else Fraction(0) for w in g37.W37)
                      for row in range(7))
        if all(_y_values(frame)):
            return frame


def _y_values(frame: pluecker.Matrix) -> list[Fraction]:
    return [_minors_value(i, frame) for i in range(1, 8)]


def _evaluate_y(poly: dict, y: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        for v, k in zip(y, mono):
            c *= v ** k
        total += c
    return total


def _reduce_job(system, polys: list[dict], frame: pluecker.Matrix) -> Job:
    """Normal forms of the polynomials; each must be irreducible, keep the
    input degree and take the input's value at a seeded Schubert point."""
    lhs = [tuple(pair.count(k) for k in range(1, 8)) for pair in G37_LHS]

    def check(outputs: list[dict]) -> str:
        _expect(len(outputs) == len(polys), "reduce_poly: output count")
        y = _y_values(frame)
        for p, q in zip(polys, outputs):
            degree = sum(next(iter(p)))
            for mono, c in q.items():
                _expect(c != 0, f"reduce_poly: zero coefficient on {mono}")
                _expect(sum(mono) == degree, f"reduce_poly: {mono} not of degree {degree}")
                _expect(not any(all(a >= b for a, b in zip(mono, l)) for l in lhs),
                        f"reduce_poly: {mono} is still reducible")
            want, got = _evaluate_y(p, y), _evaluate_y(q, y)
            _expect(got == want, f"reduce_poly: normal form evaluates to {got}, "
                                 f"the input to {want}")
        return "irreducible, values agree"

    return Job("reduce_poly_batch", lambda: [rewriting.reduce_poly(p, system) for p in polys],
               check)


def _normal_form_job(system) -> Job:
    def check(counts: list[int]) -> str:
        _expect(counts[:3] == [7, 22, 50], f"normal_form_count m=1..3: {counts[:3]}")
        _expect(counts == _expected()["g37-presentation"]["normal_form_count"],
                f"normal_form_count m=1..8: {counts}")
        return "pass"

    return Job("normal_form_count",
               lambda: [rewriting.normal_form_count(system, m) for m in NORMAL_FORM_DEGREES],
               check)


def _admissible_suffix_masks() -> list[tuple[deodhar.SubexpressionMask, int]]:
    """Masks u*v of criterion 9 style, for v admissible below w = (3,5,7),
    with the restriction height of v."""
    n = 7
    w = weyl.minimal_schubert(3, n)
    wp = w.to_permutation()
    out = []
    for entries in itertools.combinations(range(1, n + 1), 3):
        if not all(a <= b for a, b in zip(entries, w.entries)):
            continue
        v = weyl.ColumnTuple(entries, n)
        vp = v.to_permutation()
        u = weyl.perm_mul(wp, weyl.perm_inv(vp))
        if weyl.perm_length(u) + weyl.perm_length(vp) != weyl.perm_length(wp):
            continue
        u_word = weyl.reduced_word_of(u)
        v_word = weyl.canonical_word(v).letters
        keep = (False,) * len(u_word) + (True,) * len(v_word)
        out.append((deodhar.SubexpressionMask(u_word + v_word, keep, n),
                    weyl.restriction_height(v)))
    return out


def _cell_frame(mask: deodhar.SubexpressionMask,
                point: tuple[Fraction, ...]) -> pluecker.Matrix:
    """The first three columns of ``CellMatrix.substitute`` at the point."""
    return tuple(row[:3] for row in deodhar.cell_matrix(mask).substitute(point))


def _rational_point(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    return tuple(_rational(rng) for _ in range(size))


def _sections_job(masks: list[tuple[deodhar.SubexpressionMask, int]],
                  sample: list[tuple[int, int]],
                  points: dict[int, tuple[Fraction, ...]]) -> Job:
    """Sections of Y_i over masks[k] for each (k, i) in the sample.  Each
    must be homogeneous of the mask's restriction height and evaluate at
    points[k] to the product of minors there."""

    def check(sections: list) -> str:
        _expect(len(sections) == len(sample), "sections: output count")
        frames = {k: _cell_frame(masks[k][0], point) for k, point in points.items()}
        for (k, i), p in zip(sample, sections):
            mask, height = masks[k]
            degrees = {sum(e) for e in p.terms}
            _expect(degrees <= {height},
                    f"section of Y{i} on {mask.kept_positions()}: degrees {degrees}, "
                    f"want {height}")
            got, want = p.subs(points[k]), _minors_value(i, frames[k])
            _expect(got == want, f"section of Y{i} on {mask.kept_positions()} "
                                 f"evaluates to {got}, minors give {want}")
        return "homogeneous, minors agree"

    return Job("sections_sample",
               lambda: [deodhar.restrict_section(g37.Y[i], masks[k][0]) for k, i in sample],
               check)


def _sweep_masks() -> list[deodhar.SubexpressionMask]:
    masks = [deodhar.SubexpressionMask(deodhar.W37_WORD, keep, 7)
             for keep in itertools.product((False, True), repeat=len(deodhar.W37_WORD))]
    masks = [m for m in masks if deodhar.classify(m).distinguished]
    if len(masks) != SWEEP_MASKS:
        raise RuntimeError(f"{len(masks)} distinguished masks of W37_WORD, "
                           f"expected {SWEEP_MASKS}")
    return masks


def _sweep_job(i: int, masks, checked: list[tuple[int, tuple[Fraction, ...]]]) -> Job:
    """Sections of Y_i over a run of consecutive masks; ``checked`` holds
    (index into masks, rational point) pairs re-evaluated through minors."""

    def check(sections: list) -> str:
        _expect(len(sections) == len(masks), "sweep: output count")
        for k, point in checked:
            got = sections[k].subs(point)
            want = _minors_value(i, _cell_frame(masks[k], point))
            _expect(got == want, f"sweep: Y{i} on {masks[k].kept_positions()} "
                                 f"evaluates to {got}, minors give {want}")
        return "minors agree"

    return Job("sweep_chunk", lambda: [deodhar.restrict_section(g37.Y[i], m) for m in masks],
               check)


def _sweep_block(rng: random.Random, masks) -> list[Job]:
    """Y1, Y4 and Y7 over all distinguished masks, tableau-major, in chunks
    run back to back.  Each tableau visits more masks than the cell cache
    holds, so every restriction in the block misses the cache."""
    jobs = []
    for i in SWEEP_TABLEAUX:
        for lo in range(0, len(masks), SWEEP_CHUNK):
            chunk = masks[lo:lo + SWEEP_CHUNK]
            checked = [(k, _rational_point(rng, len(deodhar.W37_WORD)))
                       for k in sorted(rng.sample(range(len(chunk)), SWEEP_CHECKED_PER_CHUNK))]
            jobs.append(_sweep_job(i, chunk, checked))
    return jobs


def _g37_presentation(rng: random.Random, tmp: Path):
    system = rewriting.g37_rules()
    negative = tmp / "g37_negative.rules"
    negative.write_text(NEGATIVE_RULES)
    admissible = _admissible_suffix_masks()
    sweep = _sweep_masks()

    def make_pass(prng: random.Random) -> list[Job]:
        out = tmp / "report.json"
        jobs = [_confluence_job("confluence_g37", "g37", out, "pass"),
                _confluence_job("confluence_negative", str(negative), out, "fail"),
                _verify_relations_job(out),
                _normal_form_job(system)]
        jobs += [_probe_job(case, out) for case in PROBES]
        polys = [_random_poly(prng, d) for d in range(5, 10) for _ in range(REDUCE_PER_DEGREE)]
        jobs.append(_reduce_job(system, polys, _schubert_frame(prng)))
        sample = [(prng.randrange(len(admissible)), prng.randint(1, 7))
                  for _ in range(SECTION_SAMPLE)]
        points = {k: _rational_point(prng, len(admissible[k][0])) for k, _i in sorted(set(sample))}
        jobs.append(_sections_job(admissible, sample, points))
        prng.shuffle(jobs)
        at = prng.randrange(len(jobs) + 1)
        return jobs[:at] + _sweep_block(prng, sweep) + jobs[at:]

    warmup = {}
    for job in make_pass(rng):
        warmup.setdefault(job.kind, job)
    return list(warmup.values()), make_pass
