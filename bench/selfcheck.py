"""Quick self-check of the benchmark on a tiny job list (about 10 s).

Usage, from the root of a checkout: python3 bench/selfcheck.py

Runs run.py in-process with the workload's jobs swapped for two small ones,
once untraced and once traced, and checks the result line's schema, that
its metric names and units are exactly those BENCHMARK.json declares, that
a job whose check fails is counted as failed, and that a checkout without
the package sources exits non-zero without printing a result.  Exits 0 when
every check holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import jobs
import run


def _tiny(name: str, seed: int) -> list[jobs.Job]:
    return [jobs.Job(("distill", "--n", "8", "--engine", "sparse"), json.loads),
            jobs.Job(("resources", "--n-min", "5", "--n-max", "6", "--trials", "20",
                      "--seed", str(seed)), lambda out: None)]


def _failing(name: str, seed: int) -> list[jobs.Job]:
    def check(out: str) -> None:
        raise jobs.CheckError("deliberate failure")
    return [jobs.Job(("distill", "--n", "8", "--engine", "sparse"), check)]


def _run(workload, trace: int, src: Path = run.SRC) -> tuple[int, list[str]]:
    argv = ["run.py", "--workload", "dense-exact", "--seed", "3", "--seconds", "1",
            "--trace", str(trace)]
    out = io.StringIO()
    saved = sys.argv, jobs.workload, run.SRC
    sys.argv, jobs.workload, run.SRC = argv, workload, src
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main()
    finally:
        sys.argv, jobs.workload, run.SRC = saved
    return code, out.getvalue().splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError("attempted and failed must be whole numbers, attempted >= 1")
    return result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = _run(_tiny, trace)
        result = _result(lines)
        declared = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if code != 0 or not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: tiny job list did not pass: {lines[-1]}")
        if got != declared:
            problems.append(f"trace {trace}: metrics {got} differ from BENCHMARK.json {declared}")
        if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
            problems.append(f"trace {trace}: a metric value is not a number")
    result = _result(_run(_failing, 0)[1])
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"a failing check was not counted: {result}")
    code, lines = _run(_tiny, 0, src=run.ROOT / "no-such-src")
    if code == 0 or lines:
        problems.append("a checkout without sources did not fail cleanly")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
