"""Every definition in the package is read, and every option passed, by a
command, a bench file or a tool.

The definitions are the functions, classes and methods in
``src/grassquot/*.py``.  A definition counts as read when its name occurs
as a name, an attribute or a dot-separated part of a string constant
(``bench/tracing.py`` names its targets in strings) anywhere in the
package outside ``__init__.py``, in ``bench/*.py`` or in ``tools/*.py``.
Dunder methods are called by the language and are not checked.  The
scan matches by name, so a name shared with a read definition is read.

The options are the parameters with a default of those functions and
methods, an ``__init__``'s under its class's name.  An option counts as
passed when a call in the same sources whose callee has that name, as a
name or an attribute, gives it by position or by keyword; a ``*`` or
``**`` argument gives every parameter it can reach.
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


def _sources() -> list[Path]:
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + sorted((ROOT / "bench").glob("*.py"))
            + sorted((ROOT / "tools").glob("*.py")))


def _reads() -> set[str]:
    names = set()
    for path in _sources():
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



def _options() -> list[tuple[str, str, int | None, str]]:
    """(callee name, parameter, index among a call's positional arguments
    or None if keyword-only, where it is defined) of each option."""
    options = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(node))
            if node.name == "__init__" and cls is not None:
                name = cls.name
            elif node.name.startswith("__") and node.name.endswith("__"):
                continue
            else:
                name = node.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            bound = cls is not None and not static  # a call does not pass self or cls
            args = node.args
            positional = (args.posonlyargs + args.args)[bound:]
            where = f"{path.name}:{node.lineno}"
            first = len(positional) - len(args.defaults)
            options += [(name, arg.arg, index, where)
                        for index, arg in enumerate(positional) if index >= first]
            options += [(name, arg.arg, None, where)
                        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
    return options


def _passed() -> set[tuple[str, object]]:
    """(callee name, what a call gives): a keyword, the index of a
    positional argument, "*" for a starred one and "**" for a mapping."""
    passed = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            passed.update((name, index) for index in range(len(node.args)))
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed.add((name, "*"))
            passed.update((name, kw.arg or "**") for kw in node.keywords)
    return passed


def test_every_option_is_passed_outside_the_tests():
    passed = _passed()
    unpassed = {
        f"{name}({param})": where for name, param, index, where in _options()
        if not {(name, param), (name, "**")} & passed
        and (index is None or not {(name, index), (name, "*")} & passed)}
    assert unpassed == {}, unpassed
