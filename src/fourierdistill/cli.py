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
import json
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import circuits, distill, fourier, resources
from .arbitrary import default_truncate_bits, distill_k
from .errors import CapacityError, PrecisionWarning

#: Version tag carried by every JSON payload; CSV headers are pinned by
#: golden tests and only change together with this number.
SCHEMA_VERSION = 1

SPECTRUM_CSV_HEADER = "j,series_weight,folded_weight"
SIMULATE_CSV_HEADER = ("n,p_circuit,p_predicted,fidelity_circuit,"
                       "fidelity_predicted,max_weight_diff,toffoli_circuit,"
                       "toffoli_formula")
CLONE_CSV_HEADER = "n,k,fidelity_first,fidelity_second,joint_fidelity"
ARBITRARY_CSV_HEADER = "round,size,p_success,fidelity,error,k,truncate_bits"


@dataclass(frozen=True)
class RunConfig:
    """Validated options of one CLI invocation."""

    command: str
    fmt: str
    out: str | None
    strict: bool
    args: argparse.Namespace


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


def cmd_spectrum(cfg: RunConfig):
    a = cfg.args
    if a.j_min > a.j_max:
        rows = []
    else:
        rows = [
            {
                "j": j,
                "series_weight": fourier.series_weight(j),
                "folded_weight": fourier.initial_state_weight(a.n, j),
            }
            for j in range(a.j_min, a.j_max + 1)
        ]
    payload = {"command": "spectrum", "n": a.n, "rows": rows}
    csv_rows = [SPECTRUM_CSV_HEADER] + [
        f"{r['j']},{r['series_weight']:.12g},{r['folded_weight']:.12g}" for r in rows
    ]
    return payload, csv_rows


def cmd_distill(cfg: RunConfig):
    a = cfg.args
    if a.engine == "exact":
        result = distill.run_protocol_exact(a.n, s0=a.s0, pad=a.pad)
    else:
        result = distill.run_protocol_sparse(a.n, s0=a.s0, pad=a.pad,
                                             max_harmonics=a.max_harmonics)
    return distill.trace_json_obj(result), distill.trace_csv_rows(result)


def _adder_check_summary(n: int) -> dict:
    """Adder-vs-oracle verification: exhaustive for n <= 4, sampled above."""
    adder, _ = circuits.build_adder_circuit(n)
    perm = circuits.modular_add_oracle(n)
    N = 1 << n
    if n <= 4:
        indices = list(range(N * N))
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(0)
        indices = [int(i) for i in rng.integers(N * N, size=128)]
        mode = "sampled"
    matches = 0
    for idx in indices:
        amps = np.zeros(1 << (2 * n + 1), complex)
        amps[idx << 1] = 1.0
        run = circuits.apply_circuit(adder, fourier.StateVector(amps))
        out = int(np.argmax(np.abs(run.state.amps)))
        if out == int(perm[idx]) << 1 and abs(run.state.amps[out] - 1.0) < 1e-10:
            matches += 1
    return {"mode": mode, "basis_states": len(indices), "matches": matches}


def cmd_simulate(cfg: RunConfig):
    a = cfg.args
    if a.n > 8:
        raise CapacityError("gate-level simulation is limited to n <= 8 "
                            "(two registers plus ancilla)")
    inp = fourier.approx_initial_state(a.n)
    joint = np.kron(np.kron(inp.amps, inp.amps), np.array([1.0, 0.0]))
    circuit, layout = circuits.build_distillation_circuit(a.n)
    run = circuits.apply_circuit(circuit, fourier.StateVector(joint),
                                 postselect={q: 0 for q in layout.first})
    fixed = {q: 0 for q in layout.first}
    fixed[layout.ancilla[0]] = 0
    output = circuits.extract_register(run.state, layout, fixed)
    circuit_weights = fourier.spectrum_of(output)
    predicted = distill.symmetric_round(fourier.spectrum_of(inp), target_k=1)
    diff = float(np.max(np.abs(circuit_weights.weights - predicted.output.weights)))
    payload = {
        "command": "simulate",
        "n": a.n,
        "p_circuit": run.probability,
        "p_predicted": predicted.p_success,
        "fidelity_circuit": circuit_weights.weight(1),
        "fidelity_predicted": predicted.fidelity,
        "max_weight_diff": diff,
        "toffoli_circuit": circuit.toffoli_count,
        "toffoli_formula": resources.adder_toffoli_count(a.n),
        "adder_check": _adder_check_summary(a.n),
    }
    csv_rows = [
        SIMULATE_CSV_HEADER,
        ",".join([
            str(a.n),
            f"{run.probability:.12g}",
            f"{predicted.p_success:.12g}",
            f"{circuit_weights.weight(1):.12g}",
            f"{predicted.fidelity:.12g}",
            f"{diff:.12g}",
            str(circuit.toffoli_count),
            str(resources.adder_toffoli_count(a.n)),
        ]),
    ]
    return payload, csv_rows


def cmd_resources(cfg: RunConfig):
    a = cfg.args
    if a.n is not None:
        n_values = [a.n]
    else:
        if a.n_min > a.n_max:
            n_values = []
        else:
            n_values = list(range(a.n_min, a.n_max + 1))
    if a.trials < 0:
        raise ValueError("--trials must be non-negative")
    if a.trials > 0 and a.seed is None:
        raise ValueError("--seed is required when --trials > 0")
    reports = [resources.full_resource_report(n, a.trials, a.seed, a.s0, a.pad)
               for n in n_values]
    json_rows = [
        {
            "n": report.n_target,
            "toffoli_deterministic": report.toffoli_deterministic,
            "toffoli_expected_mean": report.toffoli_expected_mean,
            "toffoli_expected_std": report.toffoli_expected_std,
            "rounds": report.rounds,
            "width": report.width_qubits,
        }
        for report in reports
    ]
    return {"command": "resources", "trials": a.trials, "seed": a.seed,
            "rows": json_rows}, resources.resources_csv_rows(reports)


def cmd_compare(cfg: RunConfig):
    a = cfg.args
    p_values = list(range(a.p_min, a.p_max + 1)) if a.p_min <= a.p_max else []
    rows = resources.comparison_table(p_values)
    payload = {
        "command": "compare",
        "rows": [
            {
                "p": r.p,
                "eps_f": r.eps_f,
                "log2_inv_eps_f": r.log2_inv_eps_f,
                "t_gates_bit_form": r.t_gates_bit_form,
                "t_gates_from_eps": r.t_gates_from_eps,
                "kickback_toffolis": r.kickback_toffolis,
                "kickback_ancillas": r.kickback_ancillas,
            }
            for r in rows
        ],
    }
    return payload, resources.comparison_csv_rows(p_values)


def cmd_arbitrary_k(cfg: RunConfig):
    a = cfg.args
    t = a.truncate_bits if a.truncate_bits is not None else default_truncate_bits(a.n)
    result = distill_k(a.n, a.k, a.rounds, t)
    payload = {
        "command": "arbitrary-k",
        "n": a.n,
        "k": result.k,
        "truncate_bits": result.truncate_bits,
        "initial_fidelity": result.initial_fidelity,
        "rounds": [
            {"round": i + 1, "size": rec.size, "p_success": rec.p_success,
             "fidelity": rec.fidelity, "error": rec.error}
            for i, rec in enumerate(result.trace)
        ],
        "final_error": result.final.error,
        "adders": result.adders,
        "toffoli_cost": result.toffoli_cost,
    }
    csv_rows = [ARBITRARY_CSV_HEADER]
    for i, rec in enumerate(result.trace):
        csv_rows.append(f"{i + 1},{rec.size},{rec.p_success:.12g},"
                        f"{rec.fidelity:.12g},{rec.error:.12g},"
                        f"{result.k},{result.truncate_bits}")
    return payload, csv_rows


def cmd_clone(cfg: RunConfig):
    a = cfg.args
    source = fourier.pure_fourier_state(a.n, a.k)
    result = circuits.clone_fourier_state(a.n, source, k=a.k)
    payload = {
        "command": "clone",
        "n": a.n,
        "k": result.k,
        "fidelity_first": result.fidelity_first,
        "fidelity_second": result.fidelity_second,
        "joint_fidelity": result.joint_fidelity,
        "adder_toffolis": resources.adder_toffoli_count(a.n) if a.n >= 3 else None,
    }
    csv_rows = [
        CLONE_CSV_HEADER,
        f"{a.n},{result.k},{result.fidelity_first:.12g},"
        f"{result.fidelity_second:.12g},{result.joint_fidelity:.12g}",
    ]
    return payload, csv_rows


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

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (default depends on the command)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--strict", action="store_true",
                       help="exit with code 4 if a precision warning is raised")

    p = sub.add_parser("spectrum", help="series weights and their aliased fold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j-min", type=int, default=-15)
    p.add_argument("--j-max", type=int, default=15)
    common(p)

    p = sub.add_parser("distill", help="multi-round protocol trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=("exact", "sparse"), default="exact")
    p.add_argument("--s0", type=int, default=distill.DEFAULT_S0)
    p.add_argument("--pad", type=int, default=distill.DEFAULT_PAD)
    p.add_argument("--max-harmonics", type=int, default=distill.DEFAULT_MAX_HARMONICS,
                   help="harmonic budget of the sparse engine")
    common(p)

    p = sub.add_parser("simulate", help="gate-level distillation step (n <= 8)")
    p.add_argument("--n", type=int, default=5)
    common(p)

    p = sub.add_parser("resources", help="Toffoli costs per target precision")
    p.add_argument("--n", type=int, default=None, help="single target n")
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials for expected cost (0 = deterministic only)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--s0", type=int, default=distill.DEFAULT_S0)
    p.add_argument("--pad", type=int, default=distill.DEFAULT_PAD)
    common(p)

    p = sub.add_parser("compare", help="kickback vs T-sequence rotation costs")
    p.add_argument("--p-min", type=int, default=6)
    p.add_argument("--p-max", type=int, default=20)
    common(p)

    p = sub.add_parser("arbitrary-k", help="prepare and distill an index-k state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--truncate-bits", type=int, default=None)
    common(p)

    p = sub.add_parser("clone", help="copy a Fourier state with one adder")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    common(p)

    return parser


_DEFAULT_FORMAT = {
    "spectrum": "csv",
    "distill": "json",
    "simulate": "json",
    "resources": "csv",
    "compare": "csv",
    "arbitrary-k": "json",
    "clone": "json",
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write output to {out}: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format or _DEFAULT_FORMAT[args.command]
    cfg = RunConfig(command=args.command, fmt=fmt, out=args.out,
                    strict=args.strict, args=args)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload, csv_rows = _COMMANDS[args.command](cfg)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        text = json.dumps(_jsonify(payload), indent=2)
    else:
        text = "\n".join(csv_rows)
    try:
        _emit(text, cfg.out)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if cfg.strict and any(issubclass(w.category, PrecisionWarning) for w in caught):
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
