"""Rebuild reference.json, the values the benchmark's job checks compare with.

Usage: PYTHONPATH=src python3 bench/make_reference.py

Run it only when a change deliberately alters one of these values, and say
so in the change: the file pins the package's outputs as first benchmarked.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from fourierdistill import arbitrary, circuits, distill, resources

import jobs


def main() -> None:
    ref = {"distill_sparse": {}, "distill_exact": {}}
    for n, h in jobs.SPARSE_DEEP:
        kwargs = {} if h is None else {"max_harmonics": h}
        result = distill.run_protocol_sparse(n, **kwargs)
        ref["distill_sparse"][jobs.sparse_key(n, h)] = {
            "sizes": list(result.schedule.sizes),
            "final_log2_error": result.final_log_error / math.log(2.0),
        }
    for n in jobs.EXACT_N:
        result = distill.run_protocol_exact(n)
        ref["distill_exact"][str(n)] = {
            "sizes": list(result.schedule.sizes),
            "p_success": [r.p_success for r in result.rounds],
        }
    ref["simulate"] = {str(jobs.SIMULATE_N): {
        "toffoli_circuit": circuits.build_distillation_circuit(jobs.SIMULATE_N)[0].toffoli_count,
        "toffoli_formula": resources.adder_toffoli_count(jobs.SIMULATE_N),
    }}
    adders = (1 << jobs.ARBITRARY_ROUNDS) - 1
    ref["arbitrary_k"] = {str(jobs.ARBITRARY_N): {
        "truncate_bits": arbitrary.default_truncate_bits(jobs.ARBITRARY_N),
        "adders": adders,
        "toffoli_cost": adders * resources.adder_toffoli_count(jobs.ARBITRARY_N),
    }}
    ref["clone"] = {str(jobs.CLONE_N): {
        "adder_toffolis": resources.adder_toffoli_count(jobs.CLONE_N),
    }}
    n_min, n_max = jobs.RESOURCES_RANGE
    ref["resources"] = {}
    for n in range(n_min, n_max + 1):
        report = resources.toffoli_capped(n)
        ref["resources"][str(n)] = {
            "toffoli_deterministic": report.toffoli_deterministic,
            "rounds": report.rounds,
            "width": report.width_qubits,
            "expected_recursion": resources.expected_cost_recursion(n),
        }
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
