"""Run one ``fourierdistill`` command line with spans around public functions.

Usage: PYTHONPATH=src python3 bench/traced_cli.py <cli arguments...>

The package is not changed: after import, each traced function is replaced
by a timing wrapper in every namespace that holds it (its own module, the
modules and package that imported it by name, and the CLI's command table).
Spans stay in memory and are written once, when the invocation ends, as one
JSON object on standard output: the CLI's exit code, its captured output,
the import time and the spans ``[name, start_s, end_s, parent, counts]``,
where ``parent`` is the index of the enclosing span or -1.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

#: Traced public functions by module; a span is named "<module>.<function>".
#: Each command function in the CLI's table is traced as well.
TRACED = {
    "fourier": ("to_fourier_basis", "from_fourier_basis", "approx_initial_state",
                "pure_fourier_state", "fidelity"),
    "distill": ("run_protocol_exact", "run_protocol_sparse", "initial_sparse_spectrum",
                "sparse_extend", "sparse_symmetric_round", "extend_register",
                "distill_pair"),
    "circuits": ("apply_circuit", "clone_fourier_state"),
    "arbitrary": ("qvr_phase", "distill_k"),
    "resources": ("full_resource_report", "toffoli_capped",
                  "round_success_probabilities", "expected_cost_monte_carlo"),
    "cli": ("main",),
}


def _first(arguments: dict):
    return next(iter(arguments.values()))


#: Work counts a span records, from the call's bound arguments and its result.
COUNTS = {
    "fourier.to_fourier_basis": lambda a, r: {"points": _first(a).dim},
    "fourier.from_fourier_basis": lambda a, r: {"points": _first(a).dim},
    "distill.sparse_extend": lambda a, r: {"harmonics_in": len(_first(a)),
                                           "harmonics_out": len(r)},
    "circuits.apply_circuit": lambda a, r: {"gates": len(_first(a).gates)},
    "resources.full_resource_report": lambda a, r: {"key": [a["n"]]},
    "resources.expected_cost_monte_carlo": lambda a, r: {
        "trials": a["trials"], "key": [a["n"], a["trials"], a["seed"]]},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counts(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function wherever the package holds it."""
        cli = importlib.import_module("fourierdistill.cli")
        commands = getattr(cli, "_COMMANDS", {})
        targets = [(f"{mod}.{name}", getattr(importlib.import_module(f"fourierdistill.{mod}"),
                                             name, None))
                   for mod, names in TRACED.items() for name in names]
        targets += [(f"cli.{fn.__name__}", fn) for fn in commands.values()]
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "fourierdistill" or name.startswith("fourierdistill.")]
        namespaces.append(commands)
        for name, fn in targets:
            if fn is None:  # renamed or removed: its metrics read zero
                continue
            traced = self.wrap(name, fn)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        ns[key] = traced


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    cli = importlib.import_module("fourierdistill.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    json.dump({"exit": code, "stdout": captured.getvalue(), "import_s": import_s,
               "spans": tracer.spans}, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
