"""Benchmark of the ``fourierdistill`` command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: a single benchmark process runs the workload's
jobs one after another, each a fresh ``python -m fourierdistill.cli``
subprocess, so every job pays interpreter start, import and cold caches as a
user does.  Outputs are checked job by job (see jobs.py).

``--trace 0`` repeats the untraced job list while the next pass fits in
``--seconds`` (at least once) and reports end-to-end metrics, medians over
passes.  ``--trace 1`` alternates untraced and traced passes in the same way;
traced jobs run through traced_cli.py and give the per-layer metrics, summed
over one pass's jobs and taken as medians over passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment the jobs ran in, the job list and each pass's wall
time.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).with_name("traced_cli.py")

#: Fresh-interpreter imports timed for setup_s before every pass and after
#: the last, so the samples span the run; their median is reported.
SETUP_SAMPLES = 3

#: Thread-count variables of BLAS and OpenMP runtimes, capped at nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "process.import_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "distill.run_protocol_sparse.calls": "count",
    "distill.run_protocol_sparse.total_s": "s",
    "distill.sparse_extend.calls": "count",
    "distill.sparse_extend.self_s": "s",
    "distill.sparse_extend.harmonics_in": "count",
    "distill.sparse_extend.harmonics_out": "count",
    "distill.sparse_symmetric_round.calls": "count",
    "distill.sparse_symmetric_round.self_s": "s",
    "distill.initial_sparse_spectrum.self_s": "s",
    "distill.run_protocol_exact.calls": "count",
    "distill.run_protocol_exact.total_s": "s",
    "distill.extend_register.self_s": "s",
    "distill.distill_pair.self_s": "s",
    "fourier.to_fourier_basis.calls": "count",
    "fourier.to_fourier_basis.self_s": "s",
    "fourier.from_fourier_basis.calls": "count",
    "fourier.from_fourier_basis.self_s": "s",
    "fourier.fft.computed_bytes": "B",
    "fourier.fft.computed_flops": "flop",
    "fourier.approx_initial_state.self_s": "s",
    "fourier.pure_fourier_state.self_s": "s",
    "fourier.fidelity.self_s": "s",
    "circuits.apply_circuit.calls": "count",
    "circuits.apply_circuit.self_s": "s",
    "circuits.apply_circuit.gates": "count",
    "circuits.apply_circuit.s_per_gate": "s/gate",
    "circuits.clone_fourier_state.self_s": "s",
    "arbitrary.qvr_phase.calls": "count",
    "arbitrary.qvr_phase.self_s": "s",
    "arbitrary.distill_k.total_s": "s",
    "resources.full_resource_report.calls": "count",
    "resources.full_resource_report.calls_per_n": "calls/n",
    "resources.expected_cost_monte_carlo.calls": "count",
    "resources.expected_cost_monte_carlo.self_s": "s",
    "resources.expected_cost_monte_carlo.trials": "count",
    "resources.expected_cost_monte_carlo.s_per_trial": "s/trial",
    "resources.monte_carlo.useful_ratio": "ratio",
    "resources.round_success_probabilities.calls": "count",
    "resources.engine_runs": "count",
    "resources.probability_cache_hit_ratio": "ratio",
    "resources.toffoli_capped.total_s": "s",
}


@dataclass
class JobRun:
    """One finished child process."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's src first on the path, no
    amplitude-cap override, fixed hashing, BLAS/OpenMP threads <= nproc."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "FOURIERDISTILL_AMP_CAP"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONNOUSERSITE="1")
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = nproc()
        env[var] = str(min(int(current), limit) if current.isdigit() and int(current) > 0
                       else limit)
    return env


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git; a plain
    export has none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(env: dict[str, str]) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": nproc(),
        **{var: env[var] for var in (*THREAD_VARS, "PYTHONHASHSEED")},
    }


def run_child(argv: list[str], env: dict[str, str]) -> JobRun:
    """Run one child to completion; its own rusage comes from wait4, since
    RUSAGE_CHILDREN keeps a maximum over every child reaped so far."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return JobRun(proc.returncode, out.decode(), err[0].decode(), wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_pass(job_list: list[jobs.Job], env: dict[str, str],
             traced: bool) -> tuple[float, list[JobRun]]:
    prefix = [sys.executable, str(TRACED_CLI)] if traced else \
        [sys.executable, "-m", "fourierdistill.cli"]
    start = time.perf_counter()
    runs = [run_child(prefix + list(job.args), env) for job in job_list]
    return time.perf_counter() - start, runs


def check_pass(job_list: list[jobs.Job], runs: list[JobRun], traced: bool) -> int:
    """Check every job's output; returns the number of failed jobs."""
    failed = 0
    for job, run in zip(job_list, runs):
        try:
            if run.returncode != 0:
                raise jobs.CheckError(f"exit code {run.returncode}: {run.stderr.strip()}")
            out = json.loads(run.stdout)["stdout"] if traced else run.stdout
            job.check(out)
        except Exception as exc:  # any malformed output is a failed job
            failed += 1
            print(f"FAILED {' '.join(job.args)}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return failed


def measure_setup(env: dict[str, str]) -> list[float]:
    """Wall times of fresh interpreters importing the CLI and exiting."""
    argv = [sys.executable, "-c", "import fourierdistill.cli"]
    times = []
    for _ in range(SETUP_SAMPLES):
        run = run_child(argv, env)
        if run.returncode != 0:
            raise RuntimeError(f"importing the package failed: {run.stderr.strip()}")
        times.append(run.wall_s)
    return times


def layer_metrics(records: list[dict], untraced_wall: float, traced_wall: float,
                  untraced_runs: list[JobRun]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``records`` from traced_cli.py)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counted = defaultdict(float)
    distinct = defaultdict(int)
    engine_runs = 0
    for record in records:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        keys = defaultdict(set)
        for i, (name, start, end, parent, counts) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                if key == "key":
                    keys[name].add(tuple(value))
                else:
                    counted[f"{name}.{key}"] += value
            if points := (counts or {}).get("points"):
                # computed, not measured: complex128 read and write, 5 N log2 N flops
                counted["fourier.fft.computed_bytes"] += 16 * points * 2
                counted["fourier.fft.computed_flops"] += 5 * points * math.log2(points)
            if name.startswith("distill.run_protocol_"):
                while parent >= 0 and not spans[parent][0].startswith("resources."):
                    parent = spans[parent][3]
                engine_runs += parent >= 0
        for name, seen in keys.items():
            distinct[name] += len(seen)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    mc = "resources.expected_cost_monte_carlo"
    report = "resources.full_resource_report"
    probs = "resources.round_success_probabilities"
    gates = counted["circuits.apply_circuit.gates"]
    trials = counted[f"{mc}.trials"]
    values = {
        "process.import_s": sum(r["import_s"] for r in records),
        "process.cpu_s": sum(r.cpu_s for r in untraced_runs),
        "trace.overhead_s": traced_wall - untraced_wall,
        "circuits.apply_circuit.s_per_gate": ratio(self_s["circuits.apply_circuit"], gates),
        f"{report}.calls_per_n": ratio(calls[report], distinct[report]),
        f"{mc}.s_per_trial": ratio(self_s[mc], trials),
        "resources.monte_carlo.useful_ratio": ratio(distinct[mc], calls[mc]),
        "resources.engine_runs": engine_runs,
        "resources.probability_cache_hit_ratio": 1.0 - ratio(engine_runs, calls[probs])
        if calls[probs] else 0.0,
    }
    tables = {"calls": calls, "total_s": total, "self_s": self_s}
    for metric in PER_LAYER.keys() - values.keys():
        name, field = metric.rsplit(".", 1)
        values[metric] = tables[field][name] if field in tables else counted[metric]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fourierdistill" / "cli.py").is_file():
        print(f"no fourierdistill sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    job_list = jobs.workload(args.workload, args.seed)

    attempted = failed = 0
    walls: list[float] = []
    setup: list[float] = []
    rss: list[float] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        if not args.trace:
            setup += measure_setup(env)
        wall, runs = run_pass(job_list, env, traced=False)
        attempted += len(runs)
        failed += check_pass(job_list, runs, traced=False)
        walls.append(wall)
        rss.append(max(r.peak_rss_mb for r in runs))
        pass_s = wall
        if args.trace:
            traced_wall, traced_runs = run_pass(job_list, env, traced=True)
            attempted += len(traced_runs)
            bad = check_pass(job_list, traced_runs, traced=True)
            failed += bad
            if not bad:
                records = [json.loads(r.stdout) for r in traced_runs]
                layers.append(layer_metrics(records, wall, traced_wall, runs))
            pass_s += traced_wall
        if time.perf_counter() - start + pass_s > args.seconds:
            break

    if args.trace:
        metrics = {name: {"value": statistics.median(m[name] for m in layers) if layers else 0.0,
                          "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        setup += measure_setup(env)
        values = {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss),
                  "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"environment": environment(env), "workload": args.workload,
                      "seed": args.seed, "jobs": [" ".join(j.args) for j in job_list],
                      "pass_wall_s": walls}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
