"""grassquot benchmark: one closed-loop client over exact-certificate workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --untimed

One process, one thread: each job starts when the previous one has
finished.  The run sets up three times, before its first pass and after
each of the next two, and reports the median set-up.  One set-up is a fresh interpreter that imports grassquot and the
benchmark, then, in this process and from an empty cell-matrix cache,
seeded input generation and one untimed warm-up job of each kind.  It then runs whole
passes of the workload's job mix, at least two, until the timed jobs add
up to S seconds, checks every job's exact result outside its timed span, and
prints one JSON line of metrics last.  It exits 1 when a check failed.

--trace 1 instead traces the first pass (spans around grassquot calls,
see tracing.py), then runs the untraced loop for the criterion times and
the tracing overhead, and reports the per-layer metrics; it sets up once.
--untimed sets up once, runs one pass and prints only the verdicts.  Results and spans are
written under bench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
OUT = BENCH / "out"

MIN_PASSES = 2
SETUP_REPEATS = 3
TAIL_BEYOND = 10
LAYERS = ("tableaux", "pluecker", "projnorm", "rewriting", "deodhar", "symbolic",
          "g37", "acceptance", "cli", "bench")
CALL_METRICS = ("tableaux.enumerate", "pluecker.straighten", "projnorm.swap_rewrite",
                "projnorm.factorize", "rewriting.all_normal_forms", "rewriting.apply_rule",
                "rewriting.reduce_poly", "deodhar.restrict_section", "deodhar.cell_matrix",
                "symbolic.mat_det", "g37.observation_report")
SELF_METRICS = ("tableaux.enumerate", "pluecker.straighten", "pluecker.mul", "pluecker.add",
                "pluecker.restrict_schubert", "projnorm.oracle", "projnorm.swap_rewrite",
                "projnorm.factorize", "projnorm.expand", "rewriting.check_confluence",
                "rewriting.reduce_poly", "rewriting.normal_form_count",
                "deodhar.restrict_section", "deodhar.cell_matrix", "deodhar.quotient_probe",
                "symbolic.mat_det", "symbolic.mul", "symbolic.mat_mul",
                "g37.observation_report", "cli.main")
COUNT_METRICS = ("tableaux.enumerate.emitted", "pluecker.straighten.terms_in",
                 "pluecker.straighten.terms_out", "projnorm.oracle.rows",
                 "projnorm.oracle.rank", "projnorm.oracle.dim")


@dataclass
class Record:
    kind: str
    seconds: float
    verdict: str | None
    error: str | None
    report_bytes: int


def run_job(job, tracer=None) -> Record:
    """Time one job, then check it; gc runs before, outside the timed span."""
    gc.collect()
    error = result = None
    t0 = perf_counter()
    try:
        if tracer is None:
            result = job.run()
        else:
            with tracer.job():
                result = job.run()
    except Exception:
        error = "raised " + traceback.format_exc(limit=-3).strip().splitlines()[-1]
    seconds = perf_counter() - t0
    nbytes = job.output.stat().st_size if job.output is not None and job.output.exists() else 0
    verdict = None
    if error is None:
        from workloads import Mismatch
        try:
            verdict = job.check(result)
        except Mismatch as exc:
            error = f"mismatch: {exc}"
        except Exception:
            error = "check raised " + traceback.format_exc(limit=-3).strip().splitlines()[-1]
    return Record(job.kind, seconds, verdict, error, nbytes)


def fresh_import_s() -> float:
    """Wall time of a new interpreter that imports grassquot and the
    benchmark's modules, as a run does before its first job."""
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
            "import tracing, workloads")
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - t0


def run_pass(plan, k: int, tracer=None) -> list[Record]:
    return [run_job(job, tracer) for job in plan.pass_jobs(k)]


def run_passes(plan, seconds: float, after_pass=None) -> list[Record]:
    """Whole passes until the timed jobs add up to `seconds`, and at least
    MIN_PASSES, so that every job kind is timed more than once.
    `after_pass`, if given, runs untimed after each pass."""
    records: list[Record] = []
    k = 0
    while k < MIN_PASSES or sum(r.seconds for r in records) < seconds:
        records += run_pass(plan, k)
        k += 1
        if after_pass is not None:
            after_pass()
    return records


def set_up_once(workloads, workload: str, seed: int, tmp: Path, log: dict):
    """One set-up: a fresh interpreter's import, then, from an empty cell
    cache, seeded input generation and the warm-up jobs.  Appends its
    times and warm-up errors to `log` and returns the plan."""
    import_s = fresh_import_s()
    workloads.clear_caches()
    t0 = perf_counter()
    plan = workloads.prepare(workload, seed, tmp)
    for job in plan.warmup:
        rec = run_job(job)
        if rec.error:
            log["warmup_errors"].append(f"warm-up {rec.kind}: {rec.error}")
    log["import_s"].append(import_s)
    log["setup_repeats_s"].append(import_s + perf_counter() - t0)
    return plan


def jobs_per_second(records: list[Record]) -> float:
    """Jobs over the time spent in them."""
    return len(records) / sum(r.seconds for r in records)


def tail_latency(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond) at the highest percentile with at
    least TAIL_BEYOND jobs beyond it; the maximum when no percentile above
    the median has that many."""
    xs = sorted(times)
    n = len(xs)
    idx = n - 1 - TAIL_BEYOND
    if idx < n // 2:
        return xs[-1], 100.0, 0
    return xs[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def environment(seed: int) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    load = read("/proc/loadavg")
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "loadavg": [float(x) for x in load.split()[:3]] if load else None,
            "git_commit": git_commit(),
            "seed": seed}


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summarize(records: list[Record]) -> dict:
    by_kind: dict[str, list[float]] = {}
    verdicts: dict[str, list[str]] = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
        if r.verdict is not None:
            verdicts.setdefault(r.kind, [])
            if r.verdict not in verdicts[r.kind]:
                verdicts[r.kind].append(r.verdict)
    return {"jobs": len(records),
            "busy_s": sum(r.seconds for r in records),
            "failed": sum(r.error is not None for r in records),
            "errors": [f"{r.kind}: {r.error}" for r in records if r.error][:20],
            "kind_median_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
            "samples_s": [[r.kind, r.seconds] for r in records],
            "verdicts": dict(sorted(verdicts.items()))}


def end_to_end(records: list[Record], setup_s: float) -> tuple[dict, dict]:
    times = [r.seconds for r in records]
    tail, pct, beyond = tail_latency(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_second(records), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    beside = {"samples": len(times),
              "tail_percentile": pct, "tail_beyond": beyond,
              "failed_frac": sum(r.error is not None for r in records) / len(records)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, beside


def per_layer(summary: dict, traced: list[Record], untraced: list[Record],
              cache_delta: tuple[int, int]) -> dict:
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    m: dict[str, tuple[float, str]] = {}
    for name in CALL_METRICS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_METRICS:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNT_METRICS:
        m[name] = (counts.get(name, 0), "count")
    factorize = calls.get("projnorm.factorize", 0)
    m["projnorm.factorize.memo_hit_ratio"] = (
        counts.get("projnorm.factorize.memo_hits", 0) / factorize if factorize else 0.0, "ratio")
    hits, misses = cache_delta
    m["deodhar.cell_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                         "ratio")
    m["projnorm.calls"] = (sum(v for k, v in calls.items() if k.startswith("projnorm.")),
                           "count")
    crit_times: dict[str, list[float]] = {}
    for r in untraced:
        crit_times.setdefault(r.kind, []).append(r.seconds)
    for cid in range(1, 13):
        kind = f"crit_{cid:02d}"
        m[f"acceptance.{kind}_s"] = (statistics.median(crit_times[kind])
                                     if kind in crit_times else 0.0, "s")
    m["cli.report_bytes"] = (sum(r.report_bytes for r in traced), "bytes")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (summary["layer_share"].get(layer, 0.0), "ratio")
    m["trace.overhead_ratio"] = (jobs_per_second(untraced) / jobs_per_second(traced), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "grassquot" / "__init__.py").is_file():
        print(f"bench: no grassquot sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grassquot
    if Path(grassquot.__file__).resolve().parent != SRC / "grassquot":
        print(f"bench: imported grassquot from {grassquot.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--untimed", action="store_true",
                    help="set up once, run one pass, print only the verdicts")
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    log = {"import_s": [], "setup_repeats_s": [], "warmup_errors": []}
    detail = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed)}
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"tmp-{tag}-") as tmp:
        def set_up():
            return set_up_once(workloads, args.workload, args.seed, Path(tmp), log)

        plan = set_up()
        if args.untimed:
            records = run_pass(plan, 0)
            detail.update(summarize(records))
            metrics = None
        elif args.trace:
            tracer = tracing.Tracer()
            cache0 = workloads.cell_cache_info()
            tracer.install()
            try:
                traced = run_pass(plan, 0, tracer)
            finally:
                tracer.uninstall()
            cache1 = workloads.cell_cache_info()
            untraced = run_passes(plan, seconds=args.seconds)
            summary = tracer.summary()
            records = traced + untraced
            cache_delta = (cache1[0] - cache0[0], cache1[1] - cache0[1])
            metrics = per_layer(summary, traced, untraced, cache_delta)
            detail.update(summarize(records))
            detail["tracing"] = {**summary, "cell_cache_hits_misses": cache_delta,
                               "traced_jobs": len(traced), "untraced_jobs": len(untraced)}
            tracer.write_spans(OUT / f"spans-{tag}.jsonl")
        else:
            # Set up again after each of the first passes, so that the
            # set-up median samples the run, not only its first second.
            def set_up_again():
                if len(log["setup_repeats_s"]) < SETUP_REPEATS:
                    set_up()

            records = run_passes(plan, args.seconds, after_pass=set_up_again)
            metrics, beside = end_to_end(records, statistics.median(log["setup_repeats_s"]))
            detail.update(summarize(records))
            detail.update(beside)

    warmup_errors = log["warmup_errors"]
    detail.update(log, warmup_errors=warmup_errors[:20])
    failed = detail["failed"]
    result = {"correct": failed == 0 and not warmup_errors,
              "attempted": len(records), "failed": failed}
    if metrics is None:
        result["verdicts"] = detail["verdicts"]
    else:
        result["metrics"] = metrics
        detail["metrics"] = metrics
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
