"""Span tracing for the benchmark's traced mode.

The tracer wraps grassquot from the outside; nothing under ``src/``
changes.  Installing it replaces each traced function in every loaded
grassquot module that bound it by name (``projnorm.straighten`` as well
as ``pluecker.straighten``), and the traced operator methods on their
class.  Recursive calls such as ``factorize`` and ``all_normal_forms``
resolve their module global at call time, so every level is seen.

A wrapper records a span only while a job runs: (id, name, start, end,
parent id, job id).  Spans stay in memory and are written out at the
end.  A span's self time is its duration minus its child spans.  Spans
of ``weyl`` functions are transparent: their time stays in the caller's
self time, and is reported on its own only as a share, so the run can
show that it is small.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "bench.job"

# (module, attribute, span name); an attribute "Class.method" wraps the method.
TRACED = (
    ("tableaux", "enumerate_invariants", "tableaux.enumerate"),
    ("pluecker", "straighten", "pluecker.straighten"),
    ("pluecker", "restrict_schubert", "pluecker.restrict_schubert"),
    ("pluecker", "verify_relation", "pluecker.verify_relation"),
    ("pluecker", "PlueckerPoly.__mul__", "pluecker.mul"),
    ("pluecker", "PlueckerPoly.__add__", "pluecker.add"),
    ("projnorm", "family_check", "projnorm.family_check"),
    ("projnorm", "surjectivity_oracle", "projnorm.oracle"),
    ("projnorm", "swap_rewrite", "projnorm.swap_rewrite"),
    ("projnorm", "factorize", "projnorm.factorize"),
    ("projnorm", "expand_factorization", "projnorm.expand"),
    ("rewriting", "check_confluence", "rewriting.check_confluence"),
    ("rewriting", "all_normal_forms", "rewriting.all_normal_forms"),
    ("rewriting", "apply_rule", "rewriting.apply_rule"),
    ("rewriting", "reduce_poly", "rewriting.reduce_poly"),
    ("rewriting", "normal_form_count", "rewriting.normal_form_count"),
    ("rewriting", "scroll_matrix_check", "rewriting.scroll_matrix_check"),
    ("rewriting", "parse_rules", "rewriting.parse_rules"),
    ("deodhar", "restrict_section", "deodhar.restrict_section"),
    ("deodhar", "cell_matrix", "deodhar.cell_matrix"),
    ("deodhar", "quotient_probe", "deodhar.quotient_probe"),
    ("deodhar", "classify", "deodhar.classify"),
    ("deodhar", "find_pds", "deodhar.find_pds"),
    ("symbolic", "mat_det", "symbolic.mat_det"),
    ("symbolic", "mat_mul", "symbolic.mat_mul"),
    ("symbolic", "Poly.__mul__", "symbolic.mul"),
    ("g37", "observation_report", "g37.observation_report"),
    ("acceptance", "run_criterion", "acceptance.run_criterion"),
    ("cli", "main", "cli.main"),
)

TRANSPARENT_LAYER = "weyl"


def _factorize_memo_hit(counts: Counter, args, kwargs) -> None:
    memo = args[1] if len(args) > 1 else kwargs.get("_memo")
    if memo is not None and args[0].rows in memo:
        counts["projnorm.factorize.memo_hits"] += 1


def _count_emitted(counts: Counter, args, kwargs, result) -> None:
    counts["tableaux.enumerate.emitted"] += len(result)


def _count_terms(counts: Counter, args, kwargs, result) -> None:
    counts["pluecker.straighten.terms_in"] += len(args[0].terms)
    counts["pluecker.straighten.terms_out"] += len(result.terms)


def _count_oracle(counts: Counter, args, kwargs, result) -> None:
    rank, dim, _equal = result
    counts["projnorm.oracle.rank"] += rank
    counts["projnorm.oracle.dim"] += dim


BEFORE = {"projnorm.factorize": _factorize_memo_hit}
AFTER = {"tableaux.enumerate": _count_emitted,
         "pluecker.straighten": _count_terms,
         "projnorm.oracle": _count_oracle}


class Tracer:
    """Records spans around grassquot calls made inside ``job()`` blocks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job: int | None = None
        self._next = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "grassquot" or name.startswith("grassquot.")]
        targets = []
        for mod, attr, name in TRACED:
            owner = sys.modules[f"grassquot.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                targets.append((getattr(owner, cls_name), meth, name))
            else:
                targets.append((owner, attr, name))
        weyl = sys.modules["grassquot.weyl"]
        for attr, fn in sorted(vars(weyl).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == weyl.__name__):
                targets.append((weyl, attr, f"weyl.{attr}"))
        for owner, attr, name in targets:
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            if inspect.isclass(owner):
                self._bind(owner, attr, wrapper)
                continue
            for mod in modules:
                for bound, val in list(vars(mod).items()):
                    if val is orig:
                        self._bind(mod, bound, wrapper)

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer.counts, args, kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer._job))
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def job(self):
        """Root span of one job; grassquot calls inside it are recorded."""
        sid = self._next
        self._next += 1
        self._job = sid
        self._stack = [sid]
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.spans.append((sid, ROOT, t0, t1, None, sid))
            self._job = None
            self._stack = []

    # -- analysis -------------------------------------------------------
    def summary(self) -> dict:
        """Calls, self time and counts per span name, and self-time shares
        per layer.  Layer shares exclude weyl, whose time is in its callers;
        ``weyl_share`` is the time under outermost weyl spans."""
        names = {s[0]: s[1] for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, name, t0, t1, parent, _job in self.spans:
            if parent is not None and not name.startswith(TRANSPARENT_LAYER + "."):
                child_time[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        total = weyl = 0.0
        oracle_rows = 0
        for sid, name, t0, t1, parent, _job in self.spans:
            calls[name] += 1
            own = (t1 - t0) - child_time[sid]
            self_s[name] += own
            layer = name.split(".")[0]
            parent_name = names.get(parent, "")
            if name == ROOT:
                total += t1 - t0
            if layer == TRANSPARENT_LAYER:
                if not parent_name.startswith(TRANSPARENT_LAYER + "."):
                    weyl += t1 - t0
            else:
                layer_self[layer] += own
            if name == "pluecker.restrict_schubert" and parent_name == "projnorm.oracle":
                oracle_rows += 1
        counts = Counter(self.counts)
        counts["projnorm.oracle.rows"] = oracle_rows
        return {
            "jobs": calls[ROOT],
            "traced_s": total,
            "calls": dict(sorted(calls.items())),
            "self_s": dict(sorted(self_s.items())),
            "counts": dict(sorted(counts.items())),
            "layer_share": {k: v / total for k, v in sorted(layer_self.items())} if total else {},
            "weyl_share": weyl / total if total else 0.0,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "job"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
