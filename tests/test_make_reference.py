"""``bench/make_reference.py`` still reproduces ``bench/reference.json``.

The benchmark's job checks compare CLI output with that file, and the script
that rebuilds it reads the library directly (``run_protocol_sparse``,
``run_protocol_exact``, ``toffoli_capped``, ``expected_cost_recursion`` and
more), so a library change that breaks one of those calls, or moves one of
their values, shows here.  The script runs in process on a reduced job list,
and its write is captured, so the file itself is never rewritten.
"""
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

#: Relative tolerance on floats; the file predates the 512-harmonic round
#: probabilities, and its values drift from today's by up to 6.2e-14.
FLOAT_REL = 1e-12


def _assert_matches(got, want, where: str) -> None:
    """Integers, booleans and sizes exactly, floats to ``FLOAT_REL``; a group
    of records (a dict of dicts) may hold fewer keys than the file."""
    if isinstance(got, dict):
        if all(isinstance(v, dict) for v in got.values()):
            assert got.keys() <= want.keys(), where
        else:
            assert got.keys() == want.keys(), where
        for key, value in got.items():
            _assert_matches(value, want[key], f"{where}/{key}")
    elif isinstance(got, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(got, float):
        assert math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=0.0), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def test_reduced_run_matches_the_reference_file(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import jobs
    import make_reference

    monkeypatch.setattr(jobs, "SPARSE_DEEP", ((100, None),))
    monkeypatch.setattr(jobs, "EXACT_N", (18,))
    monkeypatch.setattr(jobs, "RESOURCES_RANGE", (5, 12))
    written = {}
    monkeypatch.setattr(Path, "write_text",
                        lambda path, text, *args, **kwargs: written.setdefault(path, text))
    make_reference.main()
    assert list(written) == [BENCH / "reference.json"]
    produced = json.loads(written[BENCH / "reference.json"])
    assert list(produced["distill_sparse"]) == ["100"]
    assert list(produced["distill_exact"]) == ["18"]
    assert list(produced["resources"]) == [str(n) for n in range(5, 13)]
    _assert_matches(produced, json.loads((BENCH / "reference.json").read_text()), "")
