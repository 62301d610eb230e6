"""Every public name the package exports is used by the package or a demo,
and so is every public field, property and method of an exported class.

A name that only tests call is a test oracle and belongs in ``oracles.py``.
"""
import ast
import dataclasses
import inspect
from pathlib import Path

import fourierdistill

ROOT = Path(__file__).resolve().parent.parent


def _used_names(paths) -> set[str]:
    """Names read in the given files, bare or as attributes (``fourier.x``).

    Definitions and imports are not uses, so a function is not its own caller.
    """
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _package_and_demo_uses() -> set[str]:
    src = ROOT / "src" / "fourierdistill"
    files = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    return _used_names(files + sorted((ROOT / "demos").glob("*.py")))


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
    assert sorted(exported.keys() - _package_and_demo_uses()) == []


def test_every_public_member_of_an_exported_class_has_a_reader():
    used = _package_and_demo_uses()
    classes = {name: obj for name, obj in _exported().items() if inspect.isclass(obj)}
    assert "ProtocolResult" in classes
    unread = sorted(f"{name}.{member}" for name, cls in classes.items()
                    for member in _public_members(cls) - used)
    assert unread == []
