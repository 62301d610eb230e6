"""Command-line surface: machine-readable reports for every subsystem.

Subcommands::

    spectrum     series weights and their aliased fold onto an n-qubit register
    distill      multi-round protocol trace (exact or sparse engine)
    simulate     gate-level distillation step cross-checked against the spectra
    resources    per-n Toffoli costs, optionally with Monte Carlo retry overhead
    compare      phase kickback vs T-sequence rotation costs per precision bit
    arbitrary-k  QVR preparation and full-width distillation toward index k
    clone        one-adder copy of a Fourier state

Exit codes: 0 success, 2 validation error, 3 capacity error, 4 a numerical
precision warning was raised and --strict was set.  All floating-point
output carries 12 significant digits.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from . import circuits, distill, fourier, resources
from .arbitrary import distill_k
from .errors import CapacityError, PrecisionWarning

#: Version tag carried by every JSON payload; CSV headers are pinned by
#: golden tests and only change together with this number.
SCHEMA_VERSION = 1

ROUND_COLUMNS = ("round", "size", "p_success", "fidelity", "error")

#: Most rows of one spectrum request (about 4 s of series sums).
MAX_SPECTRUM_ROWS = 1 << 20


def _g(x: float) -> float:
    """Round-trip a float through 12 significant digits for stable output."""
    return float(f"{x:.12g}")


def _jsonify(obj):
    if isinstance(obj, float):
        return _g(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _cell(x) -> str:
    """One CSV cell: empty for None, floats at 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _rounds(result: distill.ProtocolResult) -> list[dict]:
    """Per-round rows of a protocol run, numbered from 1."""
    return [
        {"round": i, "size": size, "p_success": rec.p_success,
         "fidelity": rec.fidelity, "error": rec.error}
        for i, (size, rec) in enumerate(zip(result.schedule.sizes, result.rounds), start=1)
    ]


# Each command returns (JSON payload, CSV columns, CSV rows as dicts).

def cmd_spectrum(a: argparse.Namespace):
    if a.j_max - a.j_min >= MAX_SPECTRUM_ROWS:
        raise CapacityError(f"--j-min {a.j_min} to --j-max {a.j_max} spans "
                            f"{a.j_max - a.j_min + 1} rows, above the limit of "
                            f"{MAX_SPECTRUM_ROWS} rows")
    rows = [
        {
            "j": j,
            "series_weight": fourier.series_weight(j),
            "folded_weight": fourier.initial_state_weight(a.n, j),
        }
        for j in range(a.j_min, a.j_max + 1)
    ]
    payload = {"command": "spectrum", "n": a.n, "rows": rows}
    return payload, ("j", "series_weight", "folded_weight"), rows


def cmd_distill(a: argparse.Namespace):
    if a.engine == "exact":
        result = distill.run_protocol_exact(a.n, s0=a.s0, pad=a.pad)
    else:
        result = distill.run_protocol_sparse(a.n, s0=a.s0, pad=a.pad,
                                             max_harmonics=a.max_harmonics)
    rounds = _rounds(result)
    payload = {
        "n": result.schedule.n_target,
        "engine": a.engine,
        "sizes": list(result.schedule.sizes),
        "note": result.schedule.note,
        "rounds": rounds,
        "final_error": result.final.error,
        "final_log2_error": (result.final_log_error / math.log(2.0)
                             if result.final_log_error != distill.NEG_INF else None),
        "log2_threshold": result.log_threshold / math.log(2.0),
        "threshold": result.threshold,
        "meets_threshold": result.meets_threshold,
    }
    return payload, ROUND_COLUMNS, rounds


def _adder_check_summary(n: int) -> dict:
    """Adder-vs-oracle verification on every basis input (ancilla at 0)."""
    adder, _ = circuits.build_adder_circuit(n)
    inputs = np.arange(1 << (2 * n), dtype=np.uint64)
    images = circuits.basis_images(adder, inputs << np.uint64(1))
    expected = circuits.modular_add_oracle(n).astype(np.uint64) << np.uint64(1)
    matches = int(np.count_nonzero(images == expected))
    return {"mode": "exhaustive", "basis_states": len(inputs), "matches": matches}


def cmd_simulate(a: argparse.Namespace):
    if a.n >= 2:  # a smaller n gets the preparation's own refusal below
        cap = fourier.amplitude_cap()
        if 2 * a.n + 1 > cap:
            largest = (cap - 1) // 2
            fits = (f"the largest --n is {largest}" if largest >= 2 else
                    "the cap fits no --n (the smallest, --n 2, needs 5 qubits)")
            raise CapacityError(
                f"--n {a.n} needs {2 * a.n + 1} qubits (two registers and the carry "
                f"ancilla), above the amplitude-vector cap {cap}: {fits}; "
                f"raise {fourier.AMPLITUDE_CAP_ENV}")
    prep = circuits.approx_state_circuit(a.n)  # Clifford preparation from |0...0>
    zeros = fourier.StateVector(np.eye(1, 1 << a.n, dtype=complex)[0])
    inp = circuits.apply_circuit(prep, zeros).amps
    joint = np.kron(np.kron(inp, inp), np.array([1.0, 0.0]))
    circuit, second = circuits.build_distillation_circuit(a.n)
    final = circuits.apply_circuit(circuit, fourier.StateVector(joint))
    p_circuit, output = circuits.extract_register(final, second)
    circuit_weights = np.abs(fourier.to_fourier_basis(output)) ** 2
    # plan_schedule's single-round case: one symmetric round at size n, whose
    # output is the coset j = 1 (mod COSET_STRIDE); every weight off it is 0
    predicted = distill.run_protocol_exact(a.n, s0=a.n, pad=0)
    coset = np.s_[1::distill.COSET_STRIDE]
    diff = float(max(np.max(np.abs(circuit_weights[coset] - np.abs(predicted.output) ** 2)),
                     np.max(np.delete(circuit_weights, coset))))
    payload = {
        "command": "simulate",
        "n": a.n,
        "p_circuit": p_circuit,
        "p_predicted": predicted.final.p_success,
        "fidelity_circuit": float(circuit_weights[1]),
        "fidelity_predicted": predicted.final.fidelity,
        "max_weight_diff": diff,
        "toffoli_circuit": circuit.toffoli_count,
        "toffoli_formula": resources.adder_toffoli_count(a.n) if a.n >= 3 else None,
        "adder_check": _adder_check_summary(a.n),
    }
    columns = ("n", "p_circuit", "p_predicted", "fidelity_circuit", "fidelity_predicted",
               "max_weight_diff", "toffoli_circuit", "toffoli_formula")
    return payload, columns, [payload]


def cmd_resources(a: argparse.Namespace):
    rows = [
        {
            "n": report.schedule.n_target,
            "toffoli_deterministic": report.toffoli_deterministic,
            "toffoli_expected_mean": report.toffoli_expected_mean,
            "toffoli_expected_std": report.toffoli_expected_std,
            "rounds": report.rounds,
            "width": report.width_qubits,
        }
        for report in resources.resource_reports(range(a.n_min, a.n_max + 1), a.trials,
                                                 a.seed, a.s0, a.pad)
    ]
    payload = {"command": "resources", "trials": a.trials, "seed": a.seed, "rows": rows}
    columns = ("n", "toffoli_deterministic", "toffoli_expected_mean",
               "toffoli_expected_std", "rounds", "width")
    return payload, columns, rows


def cmd_compare(a: argparse.Namespace):
    table = resources.comparison_table(range(a.p_min, a.p_max + 1))
    rows = [dataclasses.asdict(r) for r in table]
    columns = tuple(f.name for f in dataclasses.fields(resources.ComparisonRow))
    return {"command": "compare", "rows": rows}, columns, rows


def cmd_arbitrary_k(a: argparse.Namespace):
    prep, result = distill_k(a.n, a.k, a.rounds, a.truncate_bits)
    # the adder cost formula starts at 3 qubits, as in simulate and clone
    cost = resources.ResourceReport(result.schedule) if a.n >= 3 else None
    rounds = _rounds(result)
    payload = {
        "command": "arbitrary-k",
        "n": a.n,
        "k": prep.k,
        "truncate_bits": prep.truncate_bits,
        "initial_fidelity": prep.fidelity,
        "rounds": rounds,
        "final_error": result.final.error,
        "adders": sum(cost.adders) if cost else None,
        "toffoli_cost": cost.toffoli_deterministic if cost else None,
    }
    rows = [{**r, "k": prep.k, "truncate_bits": prep.truncate_bits} for r in rounds]
    return payload, ROUND_COLUMNS + ("k", "truncate_bits"), rows


def cmd_clone(a: argparse.Namespace):
    source = fourier.pure_fourier_state(a.n, a.k)
    fidelity = circuits.clone_fourier_state(source, a.k)  # of each register and the pair
    payload = {
        "command": "clone",
        "n": a.n,
        "k": a.k % source.dim,
        "fidelity_first": fidelity,
        "fidelity_second": fidelity,
        "joint_fidelity": fidelity,
        "adder_toffolis": resources.adder_toffoli_count(a.n) if a.n >= 3 else None,
    }
    columns = ("n", "k", "fidelity_first", "fidelity_second", "joint_fidelity")
    return payload, columns, [payload]


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "distill": cmd_distill,
    "simulate": cmd_simulate,
    "resources": cmd_resources,
    "compare": cmd_compare,
    "arbitrary-k": cmd_arbitrary_k,
    "clone": cmd_clone,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourierdistill",
        description="Fourier-state distillation: spectra, protocols, circuits, costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("--format", choices=("json", "csv"), default=default_format,
                       help="output format (default: %(default)s)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--strict", action="store_true",
                       help="exit with code 4 if a precision warning is raised")

    p = sub.add_parser("spectrum", help="series weights and their aliased fold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j-min", type=int, default=-15)
    p.add_argument("--j-max", type=int, default=15)
    common(p, "csv")

    p = sub.add_parser("distill", help="multi-round protocol trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=("exact", "sparse"), default="exact")
    p.add_argument("--s0", type=int, default=distill.DEFAULT_S0)
    p.add_argument("--pad", type=int, default=distill.DEFAULT_PAD)
    p.add_argument("--max-harmonics", type=int, default=distill.DEFAULT_MAX_HARMONICS,
                   help="harmonic budget of the sparse engine")
    common(p, "json")

    p = sub.add_parser("simulate", help="gate-level distillation step")
    p.add_argument("--n", type=int, default=5)
    common(p, "json")

    p = sub.add_parser("resources", help="Toffoli costs per target precision")
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials for expected cost (0 = deterministic only)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--s0", type=int, default=distill.DEFAULT_S0)
    p.add_argument("--pad", type=int, default=distill.DEFAULT_PAD)
    common(p, "csv")

    p = sub.add_parser("compare", help="kickback vs T-sequence rotation costs")
    p.add_argument("--p-min", type=int, default=6)
    p.add_argument("--p-max", type=int, default=20)
    common(p, "csv")

    p = sub.add_parser("arbitrary-k", help="prepare and distill an index-k state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--truncate-bits", type=int, default=None)
    common(p, "json")

    p = sub.add_parser("clone", help="copy a Fourier state with one adder")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    common(p, "json")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write output to {out}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                payload, columns, rows = _COMMANDS[args.command](args)
            finally:  # a command that fails still reports what it warned
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
        if args.format == "json":
            text = json.dumps(_jsonify({"schema_version": SCHEMA_VERSION, **payload}), indent=2)
        else:
            text = "\n".join([",".join(columns)]
                             + [",".join(_cell(row[c]) for c in columns) for row in rows])
        _emit(text, args.out)
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    if args.strict and any(issubclass(w.category, PrecisionWarning) for w in caught):
        return 4
    return 0

if __name__ == "__main__":
    sys.exit(main())
