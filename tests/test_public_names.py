"""Every public name the package exports or defines at module level is used
by the package or the benchmark, and so is every public field, property and
method of an exported class.

The readers are the package's own modules (not ``__init__.py``, which only
re-exports) and ``bench/*.py``: the names and attributes they read, plus the
function names ``bench/traced_cli.py`` lists in ``TRACED`` as strings.  A
demo is not a reader: a name that only demos and tests call is a test oracle
and belongs in ``oracles.py``.
"""
import ast
import dataclasses
import inspect
from pathlib import Path

import fourierdistill
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fourierdistill"
BENCH = ROOT / "bench"


def _used_names(paths) -> set[str]:
    """Names read in the given files, bare or as attributes (``fourier.x``).

    Definitions, assignments and imports are not uses, so a function is not
    its own caller and a constant or field is not its own reader.  Listing a
    dataclass's fields with ``dataclasses.fields(cls)`` reads every field.
    """
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "dataclasses.fields":
                cls = getattr(fourierdistill, ast.unparse(node.args[0]).rpartition(".")[2])
                used |= {f.name for f in dataclasses.fields(cls)}
    return used


def _traced_names() -> set[str]:
    """The function names, given as strings, in ``bench/traced_cli.py``'s ``TRACED``."""
    for node in ast.parse((BENCH / "traced_cli.py").read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return {c.value for names in node.value.values for c in ast.walk(names)
                    if isinstance(c, ast.Constant)}
    raise AssertionError("bench/traced_cli.py defines no TRACED")


def _package_and_bench_uses() -> set[str]:
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    return _used_names(files + sorted(BENCH.glob("*.py"))) | _traced_names()


def _module_level_public_names() -> set[str]:
    """``module.name`` of every public function, class and constant defined
    at the top level of a package module."""
    defined = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined |= {f"{path.stem}.{name}" for name in names if not name.startswith("_")}
    return defined


def _exported() -> dict:
    return {
        name: obj for name, obj in vars(fourierdistill).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
        and getattr(obj, "__module__", "").startswith("fourierdistill")
    }


def _public_members(cls) -> set[str]:
    """Public fields, properties and methods of a class, including those it
    inherits from a package base class."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for base in cls.__mro__:
        if base.__module__.startswith("fourierdistill"):
            names |= {m for m in vars(base) if not m.startswith("_")}
    return names


def test_every_exported_name_has_a_caller():
    exported = _exported()
    assert exported
    assert sorted(exported.keys() - _package_and_bench_uses()) == []


def test_every_public_member_of_an_exported_class_has_a_reader():
    used = _package_and_bench_uses()
    classes = {name: obj for name, obj in _exported().items() if inspect.isclass(obj)}
    assert "ProtocolResult" in classes
    unread = sorted(f"{name}.{member}" for name, cls in classes.items()
                    for member in _public_members(cls) - used)
    assert unread == []


def test_every_module_level_public_name_has_a_reader():
    # exported or not: a public helper left behind when its caller goes is dead code
    defined = _module_level_public_names()
    assert {"distill.run_protocol_sparse", "distill.NEG_INF", "cli.SCHEMA_VERSION"} <= defined
    used = _package_and_bench_uses()
    assert sorted(q for q in defined if q.partition(".")[2] not in used) == []


def test_readers_are_package_and_bench_not_demos():
    used = _package_and_bench_uses()
    # read outside the package only by TRACED and by bench/make_reference.py
    assert {"from_fourier_basis", "expected_cost_recursion"} <= used
    # formulas that only demos and tests called live in oracles.py
    moved = {"alias_fold", "series_coefficient", "toffoli_closed_form", "transform_cost",
             "circuit_to_text"}
    assert moved & (used | set(vars(fourierdistill))) == set()
    assert all(callable(getattr(oracles, name)) for name in moved)
