"""Every public name the package exports is used by the package or a demo.

A name that only tests call is a test oracle and belongs in ``oracles.py``.
"""
import ast
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


def test_every_exported_name_has_a_caller():
    src = ROOT / "src" / "fourierdistill"
    files = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    used = _used_names(files + sorted((ROOT / "demos").glob("*.py")))
    exported = {
        name for name, obj in vars(fourierdistill).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
        and getattr(obj, "__module__", "").startswith("fourierdistill")
    }
    assert exported
    assert sorted(exported - used) == []
