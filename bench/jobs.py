"""Workload job lists and the per-job correctness checks.

A job is one ``fourierdistill`` command line plus a check of its standard
output.  Checks compare against ``reference.json`` (values of the package
as first benchmarked; ``make_reference.py`` rebuilds it) and are written to
survive the planned numerical fixes:

* integers (sizes, rounds, widths, Toffoli counts) must match exactly;
* sparse ``final_log2_error`` must match to a relative 1e-8;
* exact-engine errors near float epsilon are not pinned (they are
  cancellation-limited today); per-round ``p_success`` and
  ``meets_threshold`` are checked instead;
* the gate-level adder check must match every basis state it tried, however
  many that is;
* Monte Carlo means are tested statistically against the analytic
  ``expected_cost_recursion``, never against exact draws.

See README.md for why each workload and size was chosen.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Sparse-engine targets of sparse-deep, as (n, max_harmonics or None).
SPARSE_DEEP = ((100, None), (200, None), (500, None), (300, 16384))
EXACT_N = (20, 18)
SIMULATE_N = 8
ARBITRARY_N = 20
ARBITRARY_ROUNDS = 3
CLONE_N = 11
RESOURCES_RANGE = (5, 100)
RESOURCES_TRIALS = 250

#: Standard errors a Monte Carlo mean may sit from the analytic expectation.
MC_Z = 6.0


class CheckError(Exception):
    """A job's output disagrees with the reference."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its standard output must pass."""

    args: tuple[str, ...]
    check: Callable[[str], None]


@functools.cache
def reference() -> dict:
    return json.loads(Path(__file__).with_name("reference.json").read_text())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(value: float, expected: float, rel: float, what: str) -> None:
    _require(math.isclose(value, expected, rel_tol=rel, abs_tol=0.0),
             f"{what}: {value!r} differs from {expected!r} by more than {rel:g} relative")


def sparse_key(n: int, max_harmonics: int | None) -> str:
    return f"{n}" if max_harmonics is None else f"{n}:{max_harmonics}"


def distill_sparse(n: int, max_harmonics: int | None) -> Job:
    ref = reference()["distill_sparse"][sparse_key(n, max_harmonics)]
    args = ("distill", "--n", str(n), "--engine", "sparse")
    if max_harmonics is not None:
        args += ("--max-harmonics", str(max_harmonics))

    def check(out: str) -> None:
        d = json.loads(out)
        _require(d["engine"] == "sparse" and d["n"] == n, "wrong command echoed")
        _require(d["sizes"] == ref["sizes"], f"sizes {d['sizes']} != {ref['sizes']}")
        _require([r["size"] for r in d["rounds"]] == ref["sizes"], "round sizes differ")
        _close(d["final_log2_error"], ref["final_log2_error"], 1e-8, "final_log2_error")
        _require(d["meets_threshold"] is True, "meets_threshold is not true")

    return Job(args, check)


def distill_exact(n: int) -> Job:
    ref = reference()["distill_exact"][str(n)]

    def check(out: str) -> None:
        d = json.loads(out)
        _require(d["engine"] == "exact" and d["n"] == n, "wrong command echoed")
        _require(d["sizes"] == ref["sizes"], f"sizes {d['sizes']} != {ref['sizes']}")
        _require([r["size"] for r in d["rounds"]] == ref["sizes"], "round sizes differ")
        for r, p in zip(d["rounds"], ref["p_success"]):
            _close(r["p_success"], p, 1e-9, f"round {r['round']} p_success")
        _require(d["meets_threshold"] is True, "meets_threshold is not true")

    return Job(("distill", "--n", str(n), "--engine", "exact"), check)


def simulate(n: int) -> Job:
    ref = reference()["simulate"][str(n)]

    def check(out: str) -> None:
        d = json.loads(out)
        _require(d["n"] == n, "wrong command echoed")
        _require(d["toffoli_circuit"] == ref["toffoli_circuit"], "toffoli_circuit differs")
        _require(d["toffoli_formula"] == ref["toffoli_formula"], "toffoli_formula differs")
        adder = d["adder_check"]
        _require(adder["basis_states"] >= 1 and adder["matches"] == adder["basis_states"],
                 f"adder check matched {adder['matches']} of {adder['basis_states']}")
        _require(d["max_weight_diff"] <= 1e-9, f"max_weight_diff {d['max_weight_diff']}")
        _close(d["p_circuit"], d["p_predicted"], 1e-9, "p_circuit vs p_predicted")
        _close(d["fidelity_circuit"], d["fidelity_predicted"], 1e-9,
               "fidelity_circuit vs fidelity_predicted")

    return Job(("simulate", "--n", str(n)), check)


def arbitrary_k(n: int, k: int) -> Job:
    ref = reference()["arbitrary_k"][str(n)]

    def check(out: str) -> None:
        d = json.loads(out)
        _require(d["n"] == n and d["k"] == k % (1 << n), "wrong n or k echoed")
        for key in ("truncate_bits", "adders", "toffoli_cost"):
            _require(d[key] == ref[key], f"{key} {d[key]} != {ref[key]}")
        _require(len(d["rounds"]) == ARBITRARY_ROUNDS, "wrong number of rounds")
        _require(all(r["size"] == n for r in d["rounds"]), "rounds are not full width")
        _require(d["initial_fidelity"] > 0.5, "initial fidelity is not above one half")
        # A symmetric round maps fidelity f to f**2 / p, so p = f_prev**2 / f.
        previous = d["initial_fidelity"]
        for r in d["rounds"]:
            _close(r["p_success"], previous ** 2 / r["fidelity"], 1e-9,
                   f"round {r['round']} p_success vs fidelities")
            _require(r["fidelity"] >= previous, f"round {r['round']} lost fidelity")
            previous = r["fidelity"]

    return Job(("arbitrary-k", "--n", str(n), "--k", str(k),
                "--rounds", str(ARBITRARY_ROUNDS)), check)


def clone(n: int) -> Job:
    ref = reference()["clone"][str(n)]

    def check(out: str) -> None:
        d = json.loads(out)
        _require(d["n"] == n and d["k"] == 1, "wrong n or k echoed")
        _require(d["adder_toffolis"] == ref["adder_toffolis"], "adder_toffolis differs")
        for key in ("fidelity_first", "fidelity_second", "joint_fidelity"):
            _require(abs(d[key] - 1.0) <= 1e-9, f"{key} {d[key]} is not 1")

    return Job(("clone", "--n", str(n)), check)


RESOURCES_HEADER = ("n,toffoli_deterministic,toffoli_expected_mean,"
                    "toffoli_expected_std,rounds,width")


def resources(n_min: int, n_max: int, trials: int, seed: int) -> Job:
    ref = reference()["resources"]

    def check(out: str) -> None:
        lines = out.strip().splitlines()
        _require(lines[0] == RESOURCES_HEADER, f"CSV header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        _require([int(r[0]) for r in rows] == list(range(n_min, n_max + 1)), "wrong n values")
        for n, det, mean, std, rounds, width in rows:
            exp = ref[n]
            _require(int(det) == exp["toffoli_deterministic"], f"n={n} toffoli_deterministic")
            _require(int(rounds) == exp["rounds"], f"n={n} rounds")
            _require(int(width) == exp["width"], f"n={n} width")
            mean, std = float(mean), float(std)
            _require(mean >= int(det), f"n={n} expected cost below the deterministic cost")
            limit = MC_Z * std / math.sqrt(trials)
            _require(abs(mean - exp["expected_recursion"]) <= limit,
                     f"n={n} Monte Carlo mean {mean} is more than {MC_Z} standard "
                     f"errors from {exp['expected_recursion']}")

    return Job(("resources", "--n-min", str(n_min), "--n-max", str(n_max),
                "--trials", str(trials), "--seed", str(seed)), check)


def seeded_k(seed: int) -> int:
    """Index for arbitrary-k: half of the register's bits set, placed by the
    seed.  A fixed popcount keeps the number of QVR phase passes, and so the
    job's cost, the same for every seed."""
    bits = random.Random(seed).sample(range(ARBITRARY_N), ARBITRARY_N // 2)
    return sum(1 << b for b in bits)


def workload(name: str, seed: int) -> list[Job]:
    """Job list of a workload; the seed picks Monte Carlo seeds and k."""
    if name == "sparse-deep":
        return [distill_sparse(n, h) for n, h in SPARSE_DEEP]
    if name == "dense-exact":
        return [distill_exact(n) for n in EXACT_N] + [
            simulate(SIMULATE_N), arbitrary_k(ARBITRARY_N, seeded_k(seed)), clone(CLONE_N)]
    if name == "resource-sweep":
        return [resources(*RESOURCES_RANGE, RESOURCES_TRIALS, seed)]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sparse-deep", "dense-exact", "resource-sweep")
