"""Reproducibility self-test of the benchmark's traced mode.

For each workload it makes two traced runs with seed 1 and one with
seed 2.  The work counts of the traced pass (calls per traced function,
emitted tableaux, straightening terms, oracle rows/rank/dim, memo and
cell-cache hits and misses, report bytes) must be identical across the
two same-seed runs, and the verdicts of every job kind identical across
the two seeds.  Exits 1 and names each difference otherwise.

    python3 bench/repro_check.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
WORKLOADS = ("acceptance", "g2n-certify", "g37-presentation")
SEEDS = (1, 2)
# Length of the untraced loop after the traced pass; its minimum of two
# passes is enough, since only the traced pass's counts and the verdicts
# are compared.
UNTRACED_SECONDS = 1


def traced_run(workload: str, seed: int) -> dict:
    """The detail record (second-to-last output line) of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(UNTRACED_SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run exited {proc.returncode}\n"
                         f"{proc.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: "
                         f"{detail['errors'] + detail['warmup_errors']}")
    return detail


def counts(detail: dict) -> dict:
    tracing = detail["tracing"]
    out = {f"calls.{k}": v for k, v in tracing["calls"].items()}
    out.update({f"counts.{k}": v for k, v in tracing["counts"].items()})
    out["cell_cache.hits_misses"] = tracing["cell_cache_hits_misses"]
    out["cli.report_bytes"] = detail["metrics"]["cli.report_bytes"]["value"]
    return out


def differences(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a.get(k)} != {b.get(k)}" for k in sorted(set(a) | set(b))
            if a.get(k) != b.get(k)]


def main() -> int:
    seed, other = SEEDS
    problems = []
    for workload in WORKLOADS:
        first = traced_run(workload, seed)
        again = traced_run(workload, seed)
        second_seed = traced_run(workload, other)
        diff = differences(counts(first), counts(again))
        problems += [f"{workload} seed {seed} counts: {d}" for d in diff]
        vdiff = differences(first["verdicts"], second_seed["verdicts"])
        problems += [f"{workload} seeds {seed}/{other} verdicts: {d}" for d in vdiff]
        print(f"{workload}: {len(counts(first))} counts "
              f"{'identical' if not diff else 'DIFFER'} across two runs of seed {seed}; "
              f"verdicts {'identical' if not vdiff else 'DIFFER'} for seeds {seed} and {other}",
              flush=True)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
