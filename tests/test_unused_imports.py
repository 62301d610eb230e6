"""Every name a module imports is read in that module.

The package's ``__init__.py`` is left out: its imports are the public API it
re-exports.  ``from __future__`` imports change the compiler, not the
namespace, and are left out too.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read there."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(imported - read)


def test_rule_sees_bare_dotted_aliased_and_from_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
              "print(np.zeros(1), tau)\n")
    assert _unused_imports(source) == ["os", "pi"]


def test_no_module_imports_a_name_it_never_reads():
    files = [p for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py")
             if p.name != "__init__.py"]
    assert len(files) > 20
    unused = {str(p.relative_to(ROOT)): names for p in sorted(files)
              if (names := _unused_imports(p.read_text()))}
    assert unused == {}
