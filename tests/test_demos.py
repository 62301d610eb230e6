"""Every script in demos/ runs to completion and prints its golden stdout."""
import runpy
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))
GOLDEN = TESTS / "golden" / "demos"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys, monkeypatch):
    # `python demos/x.py` cannot import the test oracles, so neither can the demo here
    monkeypatch.setattr(sys, "path", [p for p in sys.path if Path(p).resolve() != TESTS])
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.txt").read_text()
