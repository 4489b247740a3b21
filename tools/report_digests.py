"""Print a digest of each of a fixed set of grassquot reports.

    PYTHONPATH=src python3 tools/report_digests.py > digests.txt

Runs every command below in this process through ``grassquot.cli.main``
and prints one line per command: the sha256 of its stdout and stderr,
its exit code and its argv.  Run it once per checkout, with that
checkout's ``src`` on PYTHONPATH, and diff the two outputs: equal lines
mean byte-identical reports and equal exit codes.  The commands run in a
fresh temporary directory that holds the benchmark's non-confluent rule
file (``NEGATIVE_RULES`` of ``bench/workloads.py``), the same file with
``Y3*Y6`` sent to a three-term right side, where the strategy search is
widest, a file whose right sides have degree 1, so reductions mix
degrees, and two malformed files, each named by the same relative path in
every checkout, since the confluence report quotes it.  A command that
raises is recorded as the interpreter would end it: exit code 1, with the
exception's type and message as its stderr.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from grassquot import cli  # noqa: E402
from workloads import NEGATIVE_RULES  # noqa: E402

G2N_FAMILIES = ((5, 2), (5, 3), (5, 4), (5, 5), (5, 6), (5, 7), (5, 8), (7, 2), (7, 3))
PROBES = ("s2s4s3", "s2s3", "s4s3", "s3")

NEGATIVE = "g37_negative.rules"
THREE_TERM = "g37_three_term.rules"
THREE_TERM_RULES = NEGATIVE_RULES.replace("Y3*Y6 -> Y4^2", "Y3*Y6 -> Y4*Y5 - Y4^2 + Y4*Y7")
# file name -> contents, written next to each other before the commands run
RULE_FILES = {
    NEGATIVE: NEGATIVE_RULES,
    THREE_TERM: THREE_TERM_RULES,
    "mixed_degree.rules": "Y1*Y2 -> Y3\nY2*Y3 -> Y1\n",
    "zero_denominator.rules": "Y1*Y2 -> 1/0*Y3\n",
    "unsigned_term.rules": "Y1*Y2 -> Y3 Y4\n",
}
INVARIANTS = ["invariants", "--r", "3", "--n", "7", "--m", "2", "--w", "3,5,7", "--v", "1,2,3"]

# Every subcommand appears at least once; acceptance and verify-relations
# also in text mode.
COMMANDS = (
    [["projnorm", "--n", str(n), "--m", str(m), "--exhaustive", "--oracle", "--json"]
     for n, m in G2N_FAMILIES]
    + [["projnorm", "--n", "7", "--m", "2", "--sample", "60", "--json"],
       ["projnorm", "--n", "9", "--m", "2", "--sample", "200", "--json"],
       ["acceptance", "--json"],
       ["acceptance"],
       ["verify-relations", "--json"],
       ["verify-relations"],
       ["confluence", "--rules", "g37", "--max-degree", "4", "--json"],
       ["confluence", "--rules", NEGATIVE, "--max-degree", "4", "--json"],
       ["confluence", "--rules", THREE_TERM, "--max-degree", "3", "--json"],
       ["confluence", "--rules", "mixed_degree.rules", "--max-degree", "3", "--json"],
       ["minimal-schubert", "--r", "3", "--n", "7", "--json"],
       ["gamma", "--r", "3", "--n", "8", "--json"],
       INVARIANTS + ["--json"],
       INVARIANTS + ["--count-only", "--json"],
       ["deodhar", "--v", "1,3,5", "--json"],
       ["deodhar", "--v", "1,3,5", "--enumerate", "--json"]]
    + [["deodhar", "--probe", case, "--json"] for case in PROBES]
    # input errors, which exit 2
    + [["acceptance", "--only", "13"],
       ["invariants", "--r", "2", "--n", "5", "--m", "1", "--w", "5,4", "--json"],
       ["projnorm", "--n", "5", "--m", "0", "--json"],
       ["projnorm", "--n", "5", "--m", "2", "--sample", "0", "--json"],
       ["confluence", "--rules", NEGATIVE, "--max-degree", "1", "--json"],
       ["confluence", "--rules", "zero_denominator.rules", "--json"],
       ["confluence", "--rules", "unsigned_term.rules", "--json"]]
)


def digest(argv: list[str]) -> tuple[str, int]:
    """sha256 of the command's stdout and stderr, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    text = out.getvalue() + "\0" + err.getvalue()
    return hashlib.sha256(text.encode()).hexdigest(), code


def main() -> int:
    print(f"# grassquot from {cli.__file__}", file=sys.stderr)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in RULE_FILES.items():
                Path(name).write_text(text)
            for argv in COMMANDS:
                sha, code = digest(argv)
                print(sha, code, " ".join(argv), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
