"""Every public name the package exports or defines at module level is used
by the package or the benchmark, and so is every public field, property and
method of an exported class.  Every defaulted parameter of a public
function, method or constructor is passed by one of their calls: a default
that no caller overrides belongs in the body.

The readers are the package's own modules (not ``__init__.py``, which only
re-exports) and ``bench/*.py``: the names and attributes they read, plus the
function names ``bench/traced_cli.py`` lists in ``TRACED`` as strings.  A
parameter is passed by a call in those files that uses the callable's name,
bare or as an attribute, and reaches the parameter's position or names it
(``replace`` names a dataclass field).  A demo is not a reader or a caller:
a name that only demos and tests call is a test oracle and belongs in
``oracles.py``, and a parameter that only they pass goes.
"""
import ast
import dataclasses
import importlib
import inspect
import math
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


def _reader_files() -> list[Path]:
    return [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))


def _package_and_bench_uses() -> set[str]:
    return _used_names(_reader_files()) | _traced_names()


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
    # read outside the package only by bench/make_reference.py
    assert "expected_cost_recursion" in used
    # Names that only demos and tests called are gone: no reader file reads
    # them and no package module defines them.  TRACED may still list one
    # (it lists from_fourier_basis); its metrics then read zero.
    defined = {q.partition(".")[2] for q in _module_level_public_names()}
    read = _used_names(_reader_files()) | defined | set(vars(fourierdistill))
    moved = {"alias_fold", "series_coefficient", "toffoli_closed_form", "transform_cost",
             "circuit_to_text", "approx_initial_state", "distill_pair", "qvr_phase",
             "from_fourier_basis"}
    assert moved & read == set()
    # the formulas among them live in oracles.py
    assert all(callable(getattr(oracles, name)) for name in moved - {"distill_pair"})


def test_dense_fourier_coefficients_are_plain_arrays():
    # to_fourier_basis and the exact engine hand out read-only ndarrays;
    # StateVector is the one dense value type
    assert not hasattr(fourierdistill, "FourierAmplitudes")
    assert [p.name for p in SRC.glob("*.py") if "FourierAmplitudes" in p.read_text()] == []


def _calls(paths) -> dict[str, list[tuple[float, set]]]:
    """For each name called in the given files, bare or as an attribute, the
    positional count and the keyword names of every call.

    A ``*`` argument passes every position and a ``**`` argument every
    keyword (its name is None).  ``replace(obj, field=...)`` sets dataclass
    fields by keyword; its object is not a position of any constructor.
    """
    calls: dict[str, list[tuple[float, set]]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func).rpartition(".")[2]
            positions = len(node.args)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                positions = math.inf
            if name == "replace":
                positions = 0
            calls.setdefault(name, []).append((positions, {kw.arg for kw in node.keywords}))
    return calls


def _defaulted_parameters():
    """``module.callable.parameter``, the names a call uses, and the position
    and parameter itself, for each defaulted parameter of a public function,
    of a public method (its receiver not counted) and of a public class's
    constructor, defined in a package module.  A dataclass field is also
    passed by ``replace``."""
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"fourierdistill.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = [(name, (name, "replace") if dataclasses.is_dataclass(obj) else (name,),
                        obj, 0)]
            if inspect.isclass(obj):
                targets += [(f"{name}.{m}", (m,), f, 1) for m, f in vars(obj).items()
                            if not m.startswith("_") and inspect.isfunction(f)]
            for qualname, callers, fn, receiver in targets:
                try:
                    params = list(inspect.signature(fn).parameters.values())[receiver:]
                except ValueError:  # no signature, as for an exception class
                    continue
                for position, param in enumerate(params):
                    if param.default is not param.empty:
                        yield f"{path.stem}.{qualname}.{param.name}", callers, position, param


def test_every_defaulted_parameter_is_passed_by_a_caller():
    calls = _calls(_reader_files())
    found, unpassed = set(), []
    for qualname, callers, position, param in _defaulted_parameters():
        found.add(qualname)
        sites = [site for name in callers for site in calls.get(name, [])]
        by_position = param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
        by_keyword = param.kind is not param.POSITIONAL_ONLY
        if not any((by_position and positions > position)
                   or (by_keyword and keywords & {param.name, None})
                   for positions, keywords in sites):
            unpassed.append(qualname)
    assert {"distill.run_protocol_sparse.advice", "distill.ProtocolSchedule.note",
            "resources.ResourceReport.toffoli_expected_mean"} <= found
    assert sorted(unpassed) == []

