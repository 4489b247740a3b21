"""Every definition in the package is read by a command, a bench file or a tool.

The definitions are the functions, classes and methods in
``src/grassquot/*.py``.  A definition counts as read when its name occurs
as a name, an attribute or a dot-separated part of a string constant
(``bench/tracing.py`` names its targets in strings) anywhere in the
package outside ``__init__.py``, in ``bench/*.py`` or in ``tools/*.py``.
Dunder methods are called by the language and are not checked.  The
scan matches by name, so a name shared with a read definition is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grassquot"

# Read only by tests, and kept on purpose.
KEEP = {
    "evaluate",              # the minor-evaluation oracle for straightening
    "factor_lemma_witness",  # the Z20 oracle for the G(3,7) factorization lemma
    "descent_probe",         # the Richardson descent probe, for a command to adopt
    "is_coxeter_quotient",   # the Coxeter-quotient test, for a command to adopt
}


def _definitions() -> dict[str, str]:
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.setdefault(node.name, f"{path.name}:{node.lineno}")
    return defs


def _reads() -> set[str]:
    sources = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
               + sorted((ROOT / "bench").glob("*.py"))
               + sorted((ROOT / "tools").glob("*.py")))
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_definition_is_read_outside_the_tests():
    reads = _reads()
    unread = {name: where for name, where in _definitions().items() if name not in reads}
    assert set(unread) == KEEP, unread
