"""The traced bench runner still sees the spans its per-layer metrics read.

``bench/traced_cli.py`` binds call arguments by name (``n``, ``trials``,
``seed``), and its ``install()`` rebinds package functions for the whole
process, so it runs in a subprocess of its own.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_resources_sweep_records_engine_and_monte_carlo_spans():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), "resources",
         "--n-min", "5", "--n-max", "8", "--trials", "5", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["exit"] == 0
    names = {span[0] for span in record["spans"]}
    assert {"resources.expected_cost_monte_carlo", "distill.run_protocol_sparse"} <= names
