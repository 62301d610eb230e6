"""The traced bench runner still sees the spans its per-layer metrics read.

``bench/traced_cli.py`` binds call arguments by name (``n``, ``trials``,
``seed``) and reads ``.dim`` of the first argument of the Fourier
transforms, and its ``install()`` rebinds package functions for the whole
process, so each command runs in a subprocess of its own.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced(*argv) -> dict:
    """The JSON record of one traced command line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "traced_cli.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["exit"] == 0
    return record


def test_traced_resources_sweep_records_engine_and_monte_carlo_spans():
    record = _traced("resources", "--n-min", "5", "--n-max", "8", "--trials", "5",
                     "--seed", "1")
    names = {span[0] for span in record["spans"]}
    assert {"resources.expected_cost_monte_carlo", "distill.run_protocol_sparse"} <= names


def test_traced_dense_job_keeps_its_output_and_records_transform_spans():
    record = _traced("arbitrary-k", "--n", "8", "--k", "5")
    assert record["stdout"] == (ROOT / "tests" / "golden" / "arbitrary_k_n8_k5.json").read_text()
    spans = {span[0]: span[4] for span in record["spans"]}
    assert "arbitrary.distill_k" in spans
    # arbitrary-k transforms its prepared state in place; simulate still
    # transforms the circuit's output register through to_fourier_basis
    spans = {span[0]: span[4] for span in _traced("simulate", "--n", "5")["spans"]}
    assert spans["fourier.to_fourier_basis"] == {"points": 32}
