"""Command-line front end.

Every subcommand emits a report {command, status, payload} either as JSON
(sorted keys, byte-stable for a fixed seed) or as readable text.  Timing is
reported only on request so that default output stays reproducible.  Exit
code is 1 when the status is "fail", 2 on invalid input (reported as one
line on stderr), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import acceptance, g37
from .deodhar import (PROBE_CASES, W37_WORD, classify,
                      enumerate_distinguished, find_pds, quotient_probe)
from .pluecker import verify_relation
from .projnorm import family_check, surjectivity_oracle
from .rewriting import (check_confluence, format_mono, format_poly, g37_rules,
                        parse_rules)
from .tableaux import enumerate_invariants
from .weyl import (ColumnTuple, gamma_tableau, minimal_richardson_v,
                   minimal_schubert)

DEFAULT_SEED = acceptance.DEFAULT_SEED


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _report(command: str, status: str, payload, args) -> int:
    elapsed = None
    if getattr(args, "timing", False):
        elapsed = round((time.perf_counter() - args._t0) * 1000, 1)
    out = {"command": command, "status": status, "payload": payload,
           "seed": getattr(args, "seed", None),
           "timing_ms": elapsed}
    if args.json:
        _emit(json.dumps(out, sort_keys=True, separators=(",", ":"), default=str), args)
    else:
        _emit(_render_text(out), args)
    return 0 if status != "fail" else 1


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_text(report: dict) -> str:
    lines = [f"[{report['status']}] {report['command']}"]
    payload = report["payload"]

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                else:
                    lines.append(f"{pad}- {v}")

    walk(payload, 1)
    if report.get("timing_ms") is not None:
        lines.append(f"  timing_ms: {report['timing_ms']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def cmd_minimal_schubert(args) -> int:
    w = minimal_schubert(args.r, args.n)
    v = minimal_richardson_v(args.r, args.n)
    return _report("minimal-schubert", "info",
                   {"w": w.to_json(), "v": v.to_json()}, args)


def cmd_gamma(args) -> int:
    t = gamma_tableau(args.r, args.n)
    return _report("gamma", "info", t.to_json(), args)


def cmd_invariants(args) -> int:
    w = args.w or tuple(range(args.n - args.r + 1, args.n + 1))
    v = args.v or tuple(range(1, args.r + 1))
    tabs = enumerate_invariants(args.r, args.n, args.m, w, v)
    payload: dict = {"r": args.r, "n": args.n, "m": args.m,
                     "w": list(w), "v": list(v), "count": len(tabs)}
    if not args.count_only:
        payload["tableaux"] = [t.to_json() for t in tabs]
    return _report("invariants", "info", payload, args)


def cmd_verify_relations(args) -> int:
    results = {}
    ok = True
    for name, (i, j), rhs in g37.RELATIONS:
        signed = [(s, [g37.Y[a], g37.Y[b]]) for s, (a, b) in rhs]
        holds, residue = verify_relation([g37.Y[i], g37.Y[j]], signed,
                                         g37.W37, (1, 2, 3))
        results[name] = {"holds": holds, "residue": repr(residue)}
        ok &= holds
    holds_z, residue_z = verify_relation([g37.Y[5], g37.Y[7]], [(1, [g37.Z20])],
                                         g37.W37, (1, 2, 3))
    results["Y5*Y7=Z20"] = {"holds": holds_z, "residue": repr(residue_z)}
    ok &= holds_z
    return _report("verify-relations", "pass" if ok else "fail", results, args)


def cmd_confluence(args) -> int:
    if args.rules == "g37":
        system = g37_rules()
    else:
        with open(args.rules) as fh:
            system = parse_rules(fh.read(), args.generators)
    rep = check_confluence(system, args.max_degree)
    payload = {
        "rules": args.rules,
        "ambiguities": [
            {"monomial": format_mono(a["monomial"]),
             "rules": list(a["rules"]),
             "joined": a["joined"],
             "normal_form": format_poly(a["normal_form"]) if a["joined"] else None,
             "via_first": format_poly(a["via_first"]),
             "via_second": format_poly(a["via_second"])}
            for a in rep["ambiguities"]],
        "exhaustive_degree": rep["exhaustive_degree"],
        "exhaustive_ok": rep["exhaustive_ok"],
        "ok": rep["ok"],
    }
    return _report("confluence", "pass" if rep["ok"] else "fail", payload, args)


def cmd_deodhar(args) -> int:
    if args.probe:
        rep = quotient_probe(args.probe)
        return _report("deodhar", "pass" if rep["ok"] else "fail", rep, args)
    word = args.word or W37_WORD
    n = max(word) + 1 if args.n is None else args.n
    if args.v is None:
        raise ValueError("--v is required unless --probe is given")
    if len(args.v) == n and sorted(args.v) == list(range(1, n + 1)):
        v = tuple(args.v)
    else:
        v = ColumnTuple(args.v, n).to_permutation()
    if args.enumerate:
        masks = enumerate_distinguished(word, v, n)
        payload = {"word": list(word), "v": list(v), "count": len(masks),
                   "masks": [{"kept_positions": list(m.kept_positions()),
                              "pds": classify(m).pds} for m in masks]}
        return _report("deodhar", "info", payload, args)
    mask = find_pds(word, v, n)
    cls = classify(mask)
    payload = {"word": list(word), "v": list(v),
               "kept_positions": list(mask.kept_positions()),
               "free_positions": sorted(cls.j_free),
               "parameters": len(cls.j_free) + len(cls.j_down)}
    return _report("deodhar", "info", payload, args)


def cmd_projnorm(args) -> int:
    if args.oracle and args.n % 2 == 0:
        raise ValueError("the degree-1 generation setting needs n odd")
    sample = None if args.exhaustive else args.sample
    payload = family_check(args.n, args.m, sample=sample, seed=args.seed)
    if args.oracle:
        rank, dim, equal = surjectivity_oracle(args.n, args.m)
        payload["oracle"] = {"rank": rank, "dim": dim, "equal": equal}
        payload["ok"] = payload["ok"] and equal
    return _report("projnorm", "pass" if payload["ok"] else "fail", payload, args)


def cmd_acceptance(args) -> int:
    if args.list:
        payload = [{"id": cid, "title": title} for cid, title, _ in acceptance.CRITERIA]
        return _report("acceptance", "info", payload, args)
    result = acceptance.run_suite(only=args.only, seed=args.seed)
    status = "pass" if result["passed"] else "fail"
    criteria = [{k: v for k, v in crit.items() if k != "elapsed_s" or args.timing}
                for crit in result["criteria"]]
    if args.json:
        return _report("acceptance", status, {"criteria": criteria,
                                              "passed": result["passed"]}, args)
    lines = [f"[{'PASS' if crit['passed'] else 'FAIL'}] criterion {crit['id']:2d}"
             f"  {crit['title']}" + (f"  ({crit['elapsed_s']}s)" if args.timing else "")
             for crit in criteria]
    _emit("\n".join(lines + [f"acceptance: {status}"]), args)
    return 0 if result["passed"] else 1


# ---------------------------------------------------------------------------

def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--json", action="store_true",
                        default=d if suppress else False,
                        help="emit a JSON report")
    parser.add_argument("--output", default=d,
                        help="write the report to a file instead of stdout")
    parser.add_argument("--seed", type=int,
                        default=d if suppress else DEFAULT_SEED,
                        help="seed for sampled checks (default %(default)s)" if not suppress
                        else "seed for sampled checks")
    parser.add_argument("--timing", action="store_true",
                        default=d if suppress else False,
                        help="include wall-clock timing in the report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grassquot",
        description="Exact combinatorics of torus quotients of Grassmannians")
    _common_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimal-schubert", parents=[common], help="minimal Schubert/Richardson bounds")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_minimal_schubert)

    p = sub.add_parser("gamma", parents=[common], help="the reading-order invariant tableau")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("invariants", parents=[common], help="enumerate invariant tableaux")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--w", type=_int_list, default=None,
                   help="upper column bound, e.g. 3,5,7")
    p.add_argument("--v", type=_int_list, default=None,
                   help="lower column bound, e.g. 1,2,3")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("verify-relations", parents=[common], help="check the quadratic relations")
    p.add_argument("--family", choices=["g37"], default="g37")
    p.set_defaults(fn=cmd_verify_relations)

    p = sub.add_parser("confluence", parents=[common], help="join ambiguities and verify normal forms")
    p.add_argument("--rules", default="g37",
                   help="'g37' or a rule file like 'Y1*Y5 -> Y3^2 - Y3*Y7'")
    p.add_argument("--generators", type=int, default=7,
                   help="generator count for rule files (default %(default)s)")
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(fn=cmd_confluence)

    p = sub.add_parser("deodhar", parents=[common], help="subexpressions, cells and probes")
    p.add_argument("--word", type=_int_list, default=None,
                   help="reduced word, e.g. 2,1,4,3,6,5,2,4,3")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--v", type=_int_list, default=None,
                   help="one-line permutation or increasing column tuple")
    p.add_argument("--enumerate", action="store_true",
                   help="list all distinguished subexpressions for v")
    p.add_argument("--probe", choices=sorted(PROBE_CASES),
                   help="run one open-cell section probe")
    p.set_defaults(fn=cmd_deodhar)

    p = sub.add_parser("projnorm", parents=[common], help="two-row family checks and the rank oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--oracle", action="store_true",
                   help="also run the exact surjectivity oracle")
    p.set_defaults(fn=cmd_projnorm)

    p = sub.add_parser("acceptance", parents=[common], help="run the acceptance criteria")
    p.add_argument("--only", type=int, default=None, help="run a single criterion")
    p.add_argument("--list", action="store_true", help="list criteria without running")
    p.set_defaults(fn=cmd_acceptance)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"grassquot {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
