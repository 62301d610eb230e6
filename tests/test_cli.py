"""End-to-end tests of the command-line surface: schemas, determinism,
exit codes."""
import argparse
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from fourierdistill import (
    CapacityError,
    PrecisionWarning,
    arbitrary,
    cli,
    distill,
    fourier,
    resources,
)
from fourierdistill.cli import ROUND_COLUMNS, _adder_check_summary, main
from oracles import traced_peak


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = Path(__file__).parent / "golden"

#: Golden case name -> (default format, command line).  The expected stdout of
#: each case in each format is ``golden/<name>.<format>``.
GOLDEN_CASES = {
    "spectrum_n8": ("csv", ["spectrum", "--n", "8"]),
    "distill_n10": ("json", ["distill", "--n", "10"]),
    "distill_n12_sparse": ("json", ["distill", "--n", "12", "--engine", "sparse"]),
    "simulate_n5": ("json", ["simulate", "--n", "5"]),
    "resources_5_12": ("csv", ["resources", "--n-min", "5", "--n-max", "12"]),
    "resources_5_40_trials50": ("csv", ["resources", "--n-min", "5", "--n-max", "40",
                                        "--trials", "50", "--seed", "3"]),
    "compare_6_10": ("csv", ["compare", "--p-min", "6", "--p-max", "10"]),
    "arbitrary_k_n8_k5": ("json", ["arbitrary-k", "--n", "8", "--k", "5"]),
    "clone_n4_k3": ("json", ["clone", "--n", "4", "--k", "3"]),
}

#: Fields that hold rounding noise (about 1e-16), compared with a tolerance.
NOISE_FIELDS = {"simulate_n5": "max_weight_diff"}


def _pull_field(text, fmt, field):
    """``text`` with the value of ``field`` cut out, and that value."""
    if fmt == "json":
        m = re.search(rf'"{field}": ([^,\n]+)', text)
        return text[:m.start(1)] + text[m.end(1):], float(m.group(1))
    lines = text.split("\n")
    col = lines[0].split(",").index(field)
    cells = lines[1].split(",")
    value = float(cells[col])
    cells[col] = ""
    lines[1] = ",".join(cells)
    return "\n".join(lines), value


@pytest.mark.parametrize("fmt", ["json", "csv", None])
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_stdout(capsys, name, fmt):
    default, argv = GOLDEN_CASES[name]
    code, out, err = run_cli(capsys, *argv, *(["--format", fmt] if fmt else []))
    assert (code, err) == (0, "")
    fmt = fmt or default
    expected = (GOLDEN / f"{name}.{fmt}").read_text()
    field = NOISE_FIELDS.get(name)
    if field:
        out, value = _pull_field(out, fmt, field)
        expected, expected_value = _pull_field(expected, fmt, field)
        assert value == pytest.approx(expected_value, abs=1e-12)
    assert out == expected


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--`` option of a parser and its subcommands, ``--help`` aside."""
    options = set()
    for action in parser._actions:
        options |= {o for o in action.option_strings if o.startswith("--")}
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _long_options(sub)
    return options - {"--help"}


def test_readme_shared_flags_name_every_option():
    # the README's "Shared flags" sentence, range flags written as --x-min/--x-max
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    sentence = re.search(r"Shared flags:(.*?)\.\s", readme, re.S).group(1)
    documented = set(re.findall(r"--[a-z0-9-]+", sentence))
    assert documented == _long_options(cli.build_parser())


class TestSpectrumCommand:
    def test_support_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "8",
                               "--j-min", "-15", "--j-max", "15")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,series_weight,folded_weight"
        nonzero = [int(row.split(",")[0]) for row in lines[1:]
                   if float(row.split(",")[1]) != 0.0]
        assert nonzero == [-15, -11, -7, -3, 1, 5, 9, 13]
        by_j = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
        assert float(by_j[1][1]) == pytest.approx(8 / math.pi ** 2, rel=1e-10, abs=0.0)
        assert float(by_j[-3][1]) == pytest.approx(8 / (9 * math.pi ** 2), rel=1e-10, abs=0.0)
        assert float(by_j[2][1]) == 0.0

    def test_register_beyond_double_exponent_range(self, capsys):
        # 2**1100 does not fit a double; the weight still does
        code, out, _ = run_cli(capsys, "spectrum", "--n", "1100",
                               "--j-min", "1", "--j-max", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,0.810569469139,0.810569469139"

    @pytest.mark.parametrize("j", [2 ** 600 + 1, 2 ** 1024 + 1])
    def test_harmonic_past_float_range(self, capsys, j):
        # the series weight leaves float range; the 8-qubit fold brings j back to 1
        code, out, err = run_cli(capsys, "spectrum", "--n", "8",
                                 "--j-min", str(j), "--j-max", str(j))
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"{j},0,0.810610160468"

    @pytest.mark.parametrize("n", [10 ** 11, 10 ** 400])
    def test_register_whose_dimension_is_never_built(self, capsys, n):
        # 2**n is a 12.5 GB int at 10**11 and past Python's ints at 10**400
        code, out, err = run_cli(capsys, "spectrum", "--n", str(n))
        assert (code, err) == (0, "")
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert len(rows) == 31
        assert all(series == folded for _, series, folded in rows)
        assert dict((j, s) for j, s, _ in rows)["1"] == "0.810569469139"

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "6",
                               "--j-min", "5", "--j-max", "4")
        assert code == 0
        assert out.strip() == "j,series_weight,folded_weight"

    def test_row_limit_is_capacity_error(self, capsys, monkeypatch):
        (code, out, err), peak = traced_peak(
            lambda: run_cli(capsys, "spectrum", "--n", "8",
                            "--j-min", "-20000000", "--j-max", "20000000"))
        assert (code, out) == (3, "")
        assert err == ("capacity error: --j-min -20000000 to --j-max 20000000 spans "
                       f"40000001 rows, above the limit of {cli.MAX_SPECTRUM_ROWS} rows\n")
        assert peak < 50e6  # refused before any row exists
        # the limit itself is a row count that still runs
        monkeypatch.setattr(cli, "MAX_SPECTRUM_ROWS", 4)
        code, out, _ = run_cli(capsys, "spectrum", "--n", "8", "--j-min", "0", "--j-max", "3")
        assert (code, len(out.splitlines())) == (0, 5)
        code, _, err = run_cli(capsys, "spectrum", "--n", "8", "--j-min", "0", "--j-max", "4")
        assert code == 3 and "spans 5 rows" in err


class TestDistillCommand:
    def test_exact_n10(self, capsys):
        code, out, _ = run_cli(capsys, "distill", "--n", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["meets_threshold"] is True
        assert obj["final_error"] <= math.sin(math.pi / 2 ** 10) ** 2
        assert obj["final_log2_error"] <= obj["log2_threshold"]
        assert [r["size"] for r in obj["rounds"]] == [5, 10, 12]
        assert all("p_success" in r for r in obj["rounds"])

    def test_sparse_n100(self, capsys):
        code, out, _ = run_cli(capsys, "distill", "--n", "100", "--engine", "sparse")
        assert code == 0
        obj = json.loads(out)
        assert obj["meets_threshold"] is True
        assert obj["final_log2_error"] < -195

    def test_single_round_flag_surfaced(self, capsys):
        code, out, _ = run_cli(capsys, "distill", "--n", "4")
        assert code == 0
        obj = json.loads(out)
        assert "single round" in obj["note"]
        assert len(obj["rounds"]) == 1

    def test_single_round_note_leaves_the_verdict_to_meets_threshold(self, capsys):
        # one round at the default s0 = 5 does not reach the 5-bit target
        code, out, _ = run_cli(capsys, "distill", "--n", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["note"] == "single round: n <= s0 leaves one round"
        assert obj["final_log2_error"] > obj["log2_threshold"]
        assert obj["meets_threshold"] is False

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_small_start_reaches_the_threshold(self, capsys, engine):
        # three doublings from 3 stopped at 12 qubits, below the 13-bit target
        code, out, _ = run_cli(capsys, "distill", "--n", "13", "--s0", "3",
                               "--engine", engine)
        assert code == 0
        obj = json.loads(out)
        assert obj["sizes"] == [3, 6, 12, 15]
        assert obj["meets_threshold"] is True

    @pytest.mark.parametrize("argv, expected", [
        (["distill", "--n", "2", "--s0", "2"],
         {"schema_version": 1, "n": 2, "engine": "exact", "sizes": [2],
          "note": "single round: n <= s0 leaves one round",
          "rounds": [{"round": 1, "size": 2, "p_success": 1.0, "fidelity": 1.0,
                      "error": 0.0}],
          "final_error": 0.0, "final_log2_error": None, "log2_threshold": -1.0,
          "threshold": 0.5, "meets_threshold": True}),
        (["simulate", "--n", "2"],
         {"schema_version": 1, "command": "simulate", "n": 2, "p_circuit": 1.0,
          "p_predicted": 1.0, "fidelity_circuit": 1.0, "fidelity_predicted": 1.0,
          "max_weight_diff": 0.0, "toffoli_circuit": 1, "toffoli_formula": None,
          "adder_check": {"mode": "exhaustive", "basis_states": 16, "matches": 16}}),
    ], ids=["distill", "simulate"])
    def test_coset_of_one_coefficient(self, capsys, argv, expected):
        # a 2-qubit last round leaves the exact engine one coefficient, c[1]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_exact_n20_peak_rss(self):
        # tracemalloc misses what numpy's C code allocates, so read each
        # child's own peak through wait4, above a child that only imports the CLI
        # the four children run at once: each one's ru_maxrss is its own
        script = textwrap.dedent("""
            import json, os, subprocess, sys
            cli = ["-m", "fourierdistill.cli"]
            children = [subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
                        for argv in (["-c", "import fourierdistill.cli"],
                                     [*cli, "distill", "--n", "20", "--engine", "exact"],
                                     [*cli, "arbitrary-k", "--n", "20", "--k", "292252"],
                                     [*cli, "distill", "--n", "21", "--engine", "exact"])]
            peaks = []
            for proc in children:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                if proc.returncode:
                    sys.exit(f"{proc.args} exited with {proc.returncode}")
                peaks.append(usage.ru_maxrss / 1024)
            print(json.dumps(peaks))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        env.pop(fourier.AMPLITUDE_CAP_ENV, None)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        imported, exact, arbitrary, rectangular = json.loads(proc.stdout)
        # one final coset of 2**20 coefficients (16 MB) plus scratch blocks:
        # +17.7 MB measured (+18.6 with new arrays per block)
        assert exact - imported <= 22
        # the 2**20-point state, built in one pass, transformed in place and
        # squared in place by the rounds: +17.7 MB measured (+18.6 as above)
        assert arbitrary - imported <= 22
        # a 2**21-point coset, whose transform is R x 2R and whose transpose
        # follows cycles: one 32 MB coset plus blocks, +34.6 MB measured; the
        # only check on the whole-grid transform stages that pocketfft's
        # buffers, unseen by tracemalloc, leave there
        assert rectangular - imported <= 42

    def test_capacity_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "distill", "--n", "40", "--engine", "exact")
        assert code == 3
        assert err == ("capacity error: schedule for n=40 stores 2**40 coefficients, one "
                       "coset of its 42-qubit register, above the amplitude-vector cap "
                       "2**22; use --engine sparse\n")
        code, _, err = run_cli(capsys, "distill", "--n", "40", "--engine", "sparse")
        assert (code, err) == (0, "")

    def test_refused_allocation_exit_code(self, capsys, monkeypatch):
        # past the cap check, a 16 PiB coset (beyond any address space) is
        # refused by numpy at once: one line and exit 3, not a traceback
        monkeypatch.setenv("FOURIERDISTILL_AMP_CAP", "60")
        code, out, err = run_cli(capsys, "distill", "--n", "50")
        assert (code, out) == (3, "")
        assert err.startswith("capacity error: Unable to allocate 16.0 PiB")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_cap_counts_the_exact_engines_coset(self, capsys, monkeypatch):
        # n = 21 needs 23-qubit registers, of which the engine stores the
        # 21-qubit coset; n = 23 stores 2**23 coefficients, above the cap
        monkeypatch.delenv("FOURIERDISTILL_AMP_CAP", raising=False)
        code, out, err = run_cli(capsys, "distill", "--n", "21", "--engine", "exact")
        assert (code, err) == (0, "")
        assert json.loads(out)["meets_threshold"] is True
        code, _, err = run_cli(capsys, "distill", "--n", "23", "--engine", "exact")
        assert code == 3
        assert "2**23 coefficients" in err and err.endswith("; use --engine sparse\n")

    def test_sparse_beyond_double_exponent_range(self, capsys):
        # 2**1030 does not fit a double; the threshold underflows to 0
        code, out, err = run_cli(capsys, "distill", "--n", "1030", "--engine", "sparse")
        assert code == 0
        obj = json.loads(out)
        assert obj["threshold"] == 0.0
        # the log form stays readable and decides meets_threshold
        assert obj["log2_threshold"] == pytest.approx(2 * math.log2(math.pi) - 2 * 1030)
        assert obj["meets_threshold"] == (obj["final_log2_error"] <= obj["log2_threshold"])
        assert all(math.isfinite(r[c]) for r in obj["rounds"] for c in ROUND_COLUMNS)
        assert math.isfinite(obj["final_log2_error"])
        assert "max_harmonics" in err  # the tail bound is reported, not hidden

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_harmonic_budget_below_one_names_the_option(self, capsys, budget):
        code, out, err = run_cli(capsys, "distill", "--n", "10", "--engine", "sparse",
                                 "--max-harmonics", budget)
        assert (code, out) == (2, "")
        assert err == (f"invalid request: --max-harmonics {budget} is below 1: the "
                       f"sparse engine keeps at least one harmonic\n")
        # the exact engine has no harmonic budget and ignores the option
        code, _, err = run_cli(capsys, "distill", "--n", "10", "--max-harmonics", budget)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("budget", [distill.MAX_HARMONICS + 1, 100_000_000])
    def test_harmonic_budget_above_limit_is_capacity_error(self, capsys, budget):
        (code, out, err), peak = traced_peak(
            lambda: run_cli(capsys, "distill", "--n", "100", "--engine", "sparse",
                            "--max-harmonics", str(budget)))
        assert (code, out) == (3, "")
        assert err == (f"capacity error: --max-harmonics {budget} exceeds the sparse "
                       f"engine's limit of {distill.MAX_HARMONICS} harmonics\n")
        assert peak < 50e6  # refused before any candidate buffer exists
        # the limit itself runs, at a size whose spectrum never fills it
        code, _, err = run_cli(capsys, "distill", "--n", "10", "--engine", "sparse",
                               "--max-harmonics", str(distill.MAX_HARMONICS))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    @pytest.mark.parametrize("argv, err", [
        (["--s0", "1"], "--s0 1 is below 2: the approximate initial state needs 2 qubits"),
        (["--pad", "-1"], "--pad -1 is negative: the last round must reach the target"),
    ])
    def test_planning_errors_name_the_flag(self, capsys, engine, argv, err):
        code, out, stderr = run_cli(capsys, "distill", "--n", "10", "--engine", engine, *argv)
        assert (code, out) == (2, "")
        assert stderr == f"invalid request: {err}\n"

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_one_qubit_first_round_rejected(self, capsys, engine):
        # --pad 0 caps the first round at n = 1 qubit, below the initial state
        code, out, stderr = run_cli(capsys, "distill", "--n", "1", "--pad", "0",
                                    "--engine", engine)
        assert (code, out) == (2, "")
        assert stderr == ("invalid request: --n 1 with --pad 0 makes a 1-qubit first "
                          "round: the approximate initial state needs 2 qubits\n")

    @pytest.mark.parametrize("n", [1075, 2000])
    def test_sparse_past_float_range_names_the_limit(self, capsys, n):
        # pi * 2**-n_fine underflows to 0 in the zero-order-hold kernel
        code, out, err = run_cli(capsys, "distill", "--n", str(n), "--engine", "sparse")
        assert (code, out) == (2, "")
        assert "size limit" in err and "underflows" in err
        assert "nan" not in err and "warning" not in err

    @pytest.mark.parametrize("n", [2 ** 1023, 2 ** 1100])
    def test_target_past_float_range_ends_at_each_engines_limit(self, capsys, n):
        # 2.0 * n overflows from 2**1023; the round count does not need it
        code, out, err = run_cli(capsys, "distill", "--n", str(n), "--engine", "exact")
        assert (code, out) == (3, "")
        assert err.startswith(f"capacity error: schedule for n={n} stores 2**{n} ")
        assert err.count("\n") == 1 and err.endswith("; use --engine sparse\n")
        code, out, err = run_cli(capsys, "distill", "--n", str(n), "--engine", "sparse")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "sparse engine's size limit" in err

    def test_strict_escalates_precision_warning(self, capsys):
        code, _, err = run_cli(capsys, "distill", "--n", "21", "--engine", "sparse",
                               "--s0", "21", "--max-harmonics", "4", "--strict")
        assert code == 4
        assert "warning" in err
        # without --strict the same run succeeds, warning on stderr only
        code2, _, err2 = run_cli(capsys, "distill", "--n", "21", "--engine", "sparse",
                                 "--s0", "21", "--max-harmonics", "4")
        assert code2 == 0
        assert "warning" in err2


class TestSimulateCommand:
    def test_n5_matches_prediction(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "5")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["p_circuit"] - obj["p_predicted"]) < 1e-9
        assert abs(obj["fidelity_circuit"] - obj["fidelity_predicted"]) < 1e-9
        assert obj["max_weight_diff"] < 1e-9
        assert obj["toffoli_circuit"] == 8
        assert obj["toffoli_formula"] == 6

    def test_capacity_limit(self, capsys, monkeypatch):
        # two registers plus the ancilla: 2n + 1 qubits under the amplitude cap
        monkeypatch.delenv("FOURIERDISTILL_AMP_CAP", raising=False)
        code, out, err = run_cli(capsys, "simulate", "--n", "11")
        assert (code, out) == (3, "")
        assert err == ("capacity error: --n 11 needs 23 qubits (two registers and the carry "
                       "ancilla), above the amplitude-vector cap 22: the largest --n is 10; "
                       "raise FOURIERDISTILL_AMP_CAP\n")

    def test_capacity_follows_the_cap_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FOURIERDISTILL_AMP_CAP", "16")
        code, out, err = run_cli(capsys, "simulate", "--n", "8")
        assert (code, out) == (3, "")
        assert err == ("capacity error: --n 8 needs 17 qubits (two registers and the carry "
                       "ancilla), above the amplitude-vector cap 16: the largest --n is 7; "
                       "raise FOURIERDISTILL_AMP_CAP\n")
        code, _, err = run_cli(capsys, "simulate", "--n", "7")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("cap, n, fits", [
        (4, 2, "the cap fits no --n (the smallest, --n 2, needs 5 qubits)"),
        (5, 3, "the largest --n is 2"),
    ])
    def test_capacity_names_an_n_that_runs(self, capsys, monkeypatch, cap, n, fits):
        # below a cap of 5 not even --n 2 runs, so no largest --n is named
        monkeypatch.setenv("FOURIERDISTILL_AMP_CAP", str(cap))
        code, out, err = run_cli(capsys, "simulate", "--n", str(n))
        assert (code, out) == (3, "")
        assert err == (f"capacity error: --n {n} needs {2 * n + 1} qubits (two registers and "
                       f"the carry ancilla), above the amplitude-vector cap {cap}: {fits}; "
                       f"raise FOURIERDISTILL_AMP_CAP\n")

    def test_capacity_is_checked_before_any_circuit(self, capsys, monkeypatch):
        # a huge --n is refused at once, before its gate lists are built
        monkeypatch.delenv("FOURIERDISTILL_AMP_CAP", raising=False)
        (code, out, err), peak = traced_peak(
            lambda: run_cli(capsys, "simulate", "--n", str(10 ** 12)))
        assert (code, out) == (3, "")
        assert err.startswith(f"capacity error: --n {10 ** 12} needs {2 * 10 ** 12 + 1} qubits")
        assert peak < 1e6

    def test_joint_vector_is_not_copied(self):
        # the joint register state is built once and adopted, not copied into
        # a StateVector; the warm-up call leaves one-off caches out of the peak
        cli.cmd_simulate(argparse.Namespace(n=8))
        _, peak = traced_peak(lambda: cli.cmd_simulate(argparse.Namespace(n=8)))
        joint = 16 * (1 << 17)  # 2n + 1 = 17 qubits of complex amplitudes
        assert peak <= 3.5 * joint  # 3.07 measured, 4.07 with the copies

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_below_two_qubits_rejected(self, capsys, n):
        # the preparation circuit names the limit before any vector is built
        code, out, err = run_cli(capsys, "simulate", "--n", str(n))
        assert (code, out) == (2, "")
        assert "at least 2" in err

    @pytest.mark.parametrize("n", range(2, 11))
    def test_prediction_is_the_exact_engine(self, n):
        # the circuit is checked against the engine that distill runs
        payload, _, _ = cli.cmd_simulate(argparse.Namespace(n=n))
        engine = distill.run_protocol_exact(n, s0=n, pad=0).final
        assert (payload["p_predicted"], payload["fidelity_predicted"]) == (
            engine.p_success, engine.fidelity)

    def test_n2_has_no_adder_formula(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["toffoli_formula"] is None
        assert obj["p_circuit"] == pytest.approx(1.0, abs=1e-12)
        code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert row.split(",")[header.split(",").index("toffoli_formula")] == ""

    @pytest.mark.parametrize("n", [1, 2])
    def test_adder_check_is_exhaustive(self, n):
        # simulate has no approximate input state at n = 1; from n = 2 on it
        # also reports this check (test_adder_check_reported)
        assert _adder_check_summary(n) == {
            "mode": "exhaustive", "basis_states": 4 ** n, "matches": 4 ** n}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_adder_check_reported(self, capsys, n):
        code, out, _ = run_cli(capsys, "simulate", "--n", str(n))
        assert code == 0
        assert json.loads(out)["adder_check"] == {
            "mode": "exhaustive", "basis_states": 4 ** n, "matches": 4 ** n}


class TestResourcesCommand:
    def test_deterministic_only_columns(self, capsys):
        code, out, _ = run_cli(capsys, "resources", "--n-min", "10", "--n-max", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("n,toffoli_deterministic,toffoli_expected_mean,"
                            "toffoli_expected_std,rounds,width")
        assert lines[1] == "10,76,,,3,24"

    @pytest.mark.parametrize("n", [2 ** 1023, 2 ** 1100])
    def test_target_past_float_range(self, capsys, n):
        code, out, err = run_cli(capsys, "resources", "--n-min", str(n), "--n-max", str(n))
        assert (code, err) == (0, "")
        report = resources.toffoli_capped(n)
        assert report.rounds == distill.rounds_required(n) == n.bit_length() - 1
        assert out.splitlines()[1] == (f"{n},{report.toffoli_deterministic},,,"
                                       f"{report.rounds},{report.width_qubits}")

    def test_small_start_prices_a_round_at_the_target(self, capsys):
        # sizes (3, 6, 12, 15): 8, 4, 2 and 1 adders of 2, 8, 20 and 26 Toffolis
        code, out, _ = run_cli(capsys, "resources", "--n-min", "13", "--n-max", "13", "--s0", "3")
        assert code == 0
        assert out.strip().splitlines()[1] == "13,114,,,4,30"

    def test_expected_cost_window(self, capsys):
        code, out, _ = run_cli(capsys, "resources", "--n-min", "10", "--n-max", "10",
                               "--trials", "2000", "--seed", "9")
        assert code == 0
        mean = float(out.strip().splitlines()[1].split(",")[2])
        assert 70 <= mean <= 140

    def test_seed_required_for_trials(self, capsys):
        code, _, err = run_cli(capsys, "resources", "--n-min", "10", "--n-max", "10",
                               "--trials", "10")
        assert code == 2
        assert "seed" in err

    def test_fixed_seed_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "resources", "--n-min", "8", "--n-max", "8",
                             "--trials", "300", "--seed", "4")
        _, out2, _ = run_cli(capsys, "resources", "--n-min", "8", "--n-max", "8",
                             "--trials", "300", "--seed", "4")
        assert out1 == out2

    def test_negative_trials_rejected(self, capsys):
        code, out, err = run_cli(capsys, "resources", "--n-min", "10", "--n-max", "10",
                                 "--trials", "-5")
        assert code == 2
        assert out == ""
        assert "invalid request" in err and "--trials" in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(capsys, "resources", "--n-min", "10", "--n-max", "10",
                                 "--trials", "5", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == ("invalid request: --seed -1 is negative: the random stream takes "
                       "a seed >= 0\n")

    def test_trials_above_limit_is_capacity_error(self, capsys):
        (code, out, err), peak = traced_peak(
            lambda: run_cli(capsys, "resources", "--n-min", "10", "--n-max", "10",
                            "--trials", "100000000", "--seed", "1"))
        assert code == 3
        assert out == ""
        assert err.startswith("capacity error:") and "--trials" in err
        assert peak < 50e6  # refused before any per-trial array exists

    def test_trial_limit_is_checked_before_any_engine_run(self, capsys, monkeypatch):
        # n = 1100 is past the sparse engine's size limit (exit 2); the trial
        # limit must be reported first, with no engine run
        def refuse(*args, **kwargs):
            raise AssertionError("ran the engine for a refused --trials")

        monkeypatch.setattr(resources, "round_success_probabilities", refuse)
        code, out, err = run_cli(capsys, "resources", "--n-min", "1100", "--n-max", "1100",
                                 "--trials", "100000000", "--seed", "1")
        assert (code, out) == (3, "")
        assert err == ("capacity error: --trials 100000000 exceeds the Monte Carlo "
                       "limit of 4194304 trials per estimate\n")

    def test_sweep_above_limit_is_capacity_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("priced a target of a refused sweep")

        monkeypatch.setattr(resources, "toffoli_capped", refuse)
        n_max = 5 + resources.MAX_TARGETS
        (code, out, err), peak = traced_peak(
            lambda: run_cli(capsys, "resources", "--n-min", "5", "--n-max", str(n_max)))
        assert (code, out) == (3, "")
        assert err == (f"capacity error: --n-min 5 to --n-max {n_max} spans "
                       f"{resources.MAX_TARGETS + 1} targets, above the limit of "
                       f"{resources.MAX_TARGETS} targets\n")
        assert peak < 1e6  # refused before the range is walked

    def test_sweep_at_limit_is_accepted(self, monkeypatch):
        monkeypatch.setattr(resources, "toffoli_capped", lambda n, s0, pad: n)
        sweep = range(5, 5 + resources.MAX_TARGETS)
        assert resources.resource_reports(sweep) == list(sweep)

    def test_single_target_flag_is_gone(self, capsys):
        # one target is --n-min N --n-max N; a bare --n matches both flags
        with pytest.raises(SystemExit) as exc:
            main(["resources", "--n", "10"])
        assert exc.value.code == 2
        assert "ambiguous option: --n could match --n-min, --n-max" in capsys.readouterr().err

    # with two faults at once the earlier flag of --trials, --seed, --s0, the
    # first target, the trial limit, the sweep limit and --pad is reported
    @pytest.mark.parametrize("argv, code, line", [
        (["--n-min", "3", "--n-max", "3", "--trials", "100000000", "--seed", "1"], 2,
         "invalid request: --n-min 3 is below 5: cost accounting starts at n = 5"),
        (["--n-min", "10", "--n-max", "10", "--pad", "-1", "--trials", "100000000",
          "--seed", "1"], 3,
         "capacity error: --trials 100000000 exceeds the Monte Carlo limit of 4194304 "
         "trials per estimate"),
        (["--n-min", "10", "--n-max", "10", "--trials", "-1", "--s0", "2"], 2,
         "invalid request: --trials -1 is negative: 0 turns the Monte Carlo estimate off"),
        (["--n-min", "10", "--n-max", "10", "--s0", "2", "--seed", "-1"], 2,
         "invalid request: --seed -1 is negative: the random stream takes a seed >= 0"),
        (["--n-min", "3", "--n-max", "3", "--s0", "2"], 2,
         "invalid request: --s0 2 is below 3: the adder cost formula needs registers of "
         "at least 3 qubits"),
        (["--n-min", "5", "--n-max", "1000000000", "--trials", "100000000", "--seed", "1"], 3,
         "capacity error: --trials 100000000 exceeds the Monte Carlo limit of 4194304 "
         "trials per estimate"),
        (["--n-min", "5", "--n-max", "1000000000", "--pad", "-1"], 3,
         "capacity error: --n-min 5 to --n-max 1000000000 spans 999999996 targets, above "
         "the limit of 131072 targets"),
    ], ids=["n-before-limit", "limit-before-pad", "trials-before-s0", "seed-before-s0",
            "s0-before-n", "trial-limit-before-sweep-limit", "sweep-limit-before-pad"])
    def test_first_fault_in_flag_order_is_reported(self, capsys, monkeypatch, argv,
                                                   code, line):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the engine for a refused request")

        monkeypatch.setattr(resources, "round_success_probabilities", refuse)
        assert run_cli(capsys, "resources", *argv) == (code, "", line + "\n")

    @pytest.mark.parametrize("trials", [[], ["--trials", "5", "--seed", "1"]])
    def test_s0_below_adder_minimum_rejected(self, capsys, monkeypatch, trials):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the engine for an invalid --s0")

        monkeypatch.setattr(resources, "round_success_probabilities", refuse)
        code, out, err = run_cli(capsys, "resources", "--n-min", "5", "--n-max", "8",
                                 "--s0", "2", *trials)
        assert (code, out) == (2, "")
        assert err == ("invalid request: --s0 2 is below 3: the adder cost formula "
                       "needs registers of at least 3 qubits\n")
        # distill counts no adders, so a 2-qubit first round stays valid there
        code, out, err = run_cli(capsys, "distill", "--n", "8", "--s0", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["sizes"][0] == 2

    @pytest.mark.parametrize("trials", [[], ["--trials", "5", "--seed", "1"]])
    def test_negative_pad_names_the_flag(self, capsys, trials):
        code, out, err = run_cli(capsys, "resources", "--n-min", "5", "--n-max", "6",
                                 "--pad", "-1", *trials)
        assert (code, out) == (2, "")
        assert err == ("invalid request: --pad -1 is negative: the last round must "
                       "reach the target\n")

    # a sweep of one target names its first target like a longer sweep
    @pytest.mark.parametrize("argv", [["--n-min", "3", "--n-max", "6"],
                                      ["--n-min", "3", "--n-max", "3"]],
                             ids=["n-min", "n"])
    def test_target_below_five_names_the_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, "resources", *argv)
        assert (code, out) == (2, "")
        assert err == ("invalid request: --n-min 3 is below 5: cost accounting starts "
                       "at n = 5\n")
        # an empty range has no target to reject
        code, out, _ = run_cli(capsys, "resources", "--n-min", "3", "--n-max", "2")
        assert (code, out.count("\n")) == (0, 1)

    def test_sweep_runs_each_shared_round_prefix_once(self, capsys, monkeypatch):
        # n = 5..100 schedule 491 rounds but only 138 distinct size prefixes
        assert sum(distill.plan_schedule(n).rounds for n in range(5, 101)) == 491
        extend = distill.sparse_extend
        calls = []

        def counted(sp, n_new, *args, **kwargs):
            calls.append(n_new)
            return extend(sp, n_new, *args, **kwargs)

        monkeypatch.setattr(distill, "sparse_extend", counted)
        code, _, _ = run_cli(capsys, "resources", "--n-min", "5", "--n-max", "100",
                             "--trials", "1", "--seed", "1")
        assert code == 0
        assert len(calls) == 138

    def test_sweep_keeps_one_schedule_path(self, capsys):
        # the reuse store is pruned to the last run's rounds after every n, so
        # the sweep peaks near one engine run; unpruned it is about 2.8x
        # untraced, so first-call allocations are not counted below
        main(["resources", "--n-min", "100", "--n-max", "100", "--trials", "1", "--seed", "1"])
        _, one = traced_peak(lambda: resources.round_success_probabilities(100))
        _, sweep = traced_peak(lambda: main(["resources", "--n-min", "60", "--n-max", "100",
                                             "--trials", "1", "--seed", "1"]))
        assert capsys.readouterr().err == ""
        assert sweep < 2 * one

    def test_sweep_warns_once_per_n_in_order(self, capsys):
        # Each n checks its own final tail, also when its rounds are reused.
        # This tail comes from the kernel's rounding past n = 640; once that
        # is fixed, these n stop warning and the case needs another source.
        code, _, err = run_cli(capsys, "resources", "--n-min", "698", "--n-max", "702",
                               "--trials", "5", "--seed", "1")
        assert code == 0
        assert err == "".join(
            f"warning: truncation tail bound exp(-119.22) is not negligible against "
            f"the error target for n={n}; round probabilities use a fixed 512-harmonic "
            f"budget\n" for n in range(698, 703))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_report_per_n(self, capsys, monkeypatch, fmt):
        calls = []
        build = resources.toffoli_capped

        def counted(n, *args, **kwargs):
            calls.append(n)
            return build(n, *args, **kwargs)

        monkeypatch.setattr(resources, "toffoli_capped", counted)
        code, _, _ = run_cli(capsys, "resources", "--n-min", "5", "--n-max", "8",
                             "--trials", "50", "--seed", "3", "--format", fmt)
        assert code == 0
        assert calls == [5, 6, 7, 8]

    def test_json_and_csv_rows_agree(self, capsys):
        argv = ["resources", "--n-min", "5", "--n-max", "8", "--trials", "50",
                "--seed", "3", "--format"]
        _, out, _ = run_cli(capsys, *argv, "json")
        payload = json.loads(out)
        _, out, _ = run_cli(capsys, *argv, "csv")
        csv_rows = out.splitlines()
        assert len(csv_rows) == len(payload["rows"]) + 1
        for row, line in zip(payload["rows"], csv_rows[1:]):
            cells = line.split(",")
            assert cells[0] == str(row["n"])
            assert cells[2] == f"{row['toffoli_expected_mean']:.12g}"
            assert cells[3] == f"{row['toffoli_expected_std']:.12g}"


class TestCompareCommand:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--p-min", "6", "--p-max", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("p,eps_f,log2_inv_eps_f,t_gates_bit_form,"
                            "t_gates_from_eps,kickback_toffolis,kickback_ancillas")
        row6 = lines[1].split(",")
        assert float(row6[1]) == pytest.approx(0.0173545758748, rel=1e-9, abs=0.0)
        assert 0.14 <= 6 - float(row6[2]) <= 0.16
        row10 = lines[5].split(",")
        assert float(row10[3]) == pytest.approx(25.65)
        assert row10[5] == "9"

    def test_precision_limit(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--p-min", "1022", "--p-max", "1022")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) > 0
        code, out, err = run_cli(capsys, "compare", "--p-min", "1100", "--p-max", "1100")
        assert (code, out) == (2, "")
        assert "1022" in err
        assert "--p-max 1100 is above 1022" in err
        code, out, err = run_cli(capsys, "compare", "--p-min", "6", "--p-max", "1023")
        assert (code, out) == (2, "")
        assert err.startswith("invalid request: --p-max 1023 is above 1022: ")

    def test_one_bit_rejected(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--p-min", "1", "--p-max", "5")
        assert (code, out) == (2, "")
        assert "p=1" in err
        assert err.startswith("invalid request: --p-min 1 is below 2: ")

    def test_empty_range(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--p-min", "9", "--p-max", "8")
        assert code == 0
        assert len(out.strip().splitlines()) == 1


class TestArbitraryKCommand:
    def test_reference_run(self, capsys):
        code, out, _ = run_cli(capsys, "arbitrary-k", "--n", "8", "--k", "5",
                               "--rounds", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 5
        assert obj["truncate_bits"] == 5
        fids = [r["fidelity"] for r in obj["rounds"]]
        assert fids == sorted(fids)
        assert obj["final_error"] < 1e-3
        assert obj["toffoli_cost"] == 84

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "arbitrary-k", "--n", "8", "--k", "5",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "round,size,p_success,fidelity,error,k,truncate_bits"
        assert lines[1].endswith(",5,5")

    def test_zero_rounds_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "arbitrary-k", "--n", "8", "--k", "5",
                                 "--rounds", "0")
        assert (code, out) == (2, "")
        assert "--rounds 0" in err

    def test_rounds_above_limit_is_capacity_error(self, capsys):
        (code, out, err), peak = traced_peak(
            lambda: run_cli(capsys, "arbitrary-k", "--n", "4", "--k", "1",
                            "--rounds", "20000000"))
        assert (code, out) == (3, "")
        assert err == (f"capacity error: --rounds 20000000 exceeds the limit of "
                       f"{arbitrary.MAX_ROUNDS} rounds\n")
        assert peak < 50e6  # refused before the schedule is built
        code, out, _ = run_cli(capsys, "arbitrary-k", "--n", "4", "--k", "1",
                               "--rounds", str(arbitrary.MAX_ROUNDS))
        assert code == 0
        assert len(json.loads(out)["rounds"]) == arbitrary.MAX_ROUNDS

    @pytest.mark.parametrize("n", [1, 2])
    def test_below_three_qubits_has_no_adder_cost(self, capsys, n):
        # the rounds run; only the adder cost formula needs 3 qubits
        code, out, err = run_cli(capsys, "arbitrary-k", "--n", str(n), "--k", "1")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert (obj["adders"], obj["toffoli_cost"]) == (None, None)
        assert [r["size"] for r in obj["rounds"]] == [n, n, n]
        code, out, err = run_cli(capsys, "arbitrary-k", "--n", str(n), "--k", "1",
                                 "--format", "csv")
        assert (code, err) == (0, "")
        lines = out.strip().splitlines()
        assert lines[0] == "round,size,p_success,fidelity,error,k,truncate_bits"
        assert [line.split(",")[1] for line in lines[1:]] == [str(n)] * 3


class TestCloneCommand:
    def test_pure_clone(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--n", "4", "--k", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["fidelity_first"] >= 1 - 1e-9
        assert obj["fidelity_second"] >= 1 - 1e-9
        assert obj["adder_toffolis"] == 4

    @pytest.mark.parametrize("k, index", [(9, 1), (-1, 7), (8, 0)])
    def test_index_reduced_mod_register(self, capsys, k, index):
        # the echoed k is the index of the state cloned, as in arbitrary-k
        code, out, _ = run_cli(capsys, "clone", "--n", "3", "--k", str(k))
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == index
        assert obj["joint_fidelity"] >= 1 - 1e-9

    def test_capacity_error_names_the_register_flag(self, capsys, monkeypatch):
        # only the source register is a dense vector, so the cap applies to --n
        monkeypatch.delenv("FOURIERDISTILL_AMP_CAP", raising=False)
        code, out, err = run_cli(capsys, "clone", "--n", "12")
        assert (code, err) == (0, "")
        assert json.loads(out)["joint_fidelity"] >= 1 - 1e-9
        code, out, err = run_cli(capsys, "clone", "--n", "23")
        assert (code, out) == (3, "")
        assert err == ("capacity error: n=23 exceeds the amplitude-vector cap 22; "
                       "raise FOURIERDISTILL_AMP_CAP\n")


@pytest.mark.parametrize("argv, message", [
    (["distill", "--n", "0"], "--n 0 is below 1: the target needs at least one bit of precision"),
    (["distill", "--n", "-3", "--engine", "sparse"],
     "--n -3 is below 1: the target needs at least one bit of precision"),
    (["arbitrary-k", "--n", "0", "--k", "1"],
     "--n 0 is below 1: a register needs at least one qubit"),
    (["arbitrary-k", "--n", "-1", "--k", "1"],
     "--n -1 is below 1: a register needs at least one qubit"),
    (["clone", "--n", "0"], "--n 0 is below 1: a register needs at least one qubit"),
    (["simulate", "--n", "1"],
     "--n 1 is below 2: the approximate initial state needs at least 2 qubits"),
    (["spectrum", "--n", "1"],
     "--n 1 is below 2: the approximate initial state needs at least 2 qubits"),
])
def test_register_size_below_minimum_names_the_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"invalid request: {message}\n"


#: One row per input rule the library owns: a direct call, the command line
#: that reaches the same check, and the message both report.
LIBRARY_RULES = {
    "max-harmonics": (lambda: distill.run_protocol_sparse(10, max_harmonics=0),
                      ["distill", "--n", "10", "--engine", "sparse", "--max-harmonics", "0"],
                      "--max-harmonics 0 is below 1: the sparse engine keeps at least one "
                      "harmonic"),
    "trials-negative": (lambda: resources.resource_reports([10], trials=-5),
                        ["resources", "--n-min", "10", "--n-max", "10", "--trials", "-5"],
                        "--trials -5 is negative: 0 turns the Monte Carlo estimate off"),
    "seed-negative": (lambda: resources.resource_reports([10], trials=5, seed=-1),
                      ["resources", "--n-min", "10", "--n-max", "10", "--trials", "5",
                       "--seed", "-1"],
                      "--seed -1 is negative: the random stream takes a seed >= 0"),
    "seed-negative-no-trials": (lambda: resources.resource_reports([10], seed=-1),
                                ["resources", "--n-min", "10", "--n-max", "10", "--seed", "-1"],
                                "--seed -1 is negative: the random stream takes a seed >= 0"),
    "seed-missing": (lambda: resources.resource_reports([10], trials=5),
                     ["resources", "--n-min", "10", "--n-max", "10", "--trials", "5"],
                     "--seed is required when --trials > 0"),
    "s0-adder": (lambda: resources.toffoli_capped(10, s0=2),
                 ["resources", "--n-min", "10", "--n-max", "10", "--s0", "2"],
                 "--s0 2 is below 3: the adder cost formula needs registers of at least 3 qubits"),
    "s0-adder-empty-sweep": (lambda: resources.resource_reports([], s0=2),
                             ["resources", "--n-min", "5", "--n-max", "4", "--s0", "2"],
                             "--s0 2 is below 3: the adder cost formula needs registers of "
                             "at least 3 qubits"),
    "n-below-five": (lambda: resources.toffoli_capped(4),
                     ["resources", "--n-min", "4", "--n-max", "4"],
                     "--n-min 4 is below 5: cost accounting starts at n = 5"),
    "p-below-two": (lambda: resources.comparison_table(range(1, 6)),
                    ["compare", "--p-min", "1", "--p-max", "5"],
                    "--p-min 1 is below 2: kickback rotation needs p >= 2 bits, got p=1"),
    # the end of the range is read, not found by walking it
    "p-above-1022": (lambda: resources.comparison_table(range(6, 10 ** 12 + 1)),
                     ["compare", "--p-min", "6", "--p-max", str(10 ** 12)],
                     f"--p-max {10 ** 12} is above 1022: eps_f ~ 2**-p must stay a normal "
                     "double"),
    "first-round-exact": (lambda: distill.run_protocol_exact(1, pad=0),
                          ["distill", "--n", "1", "--pad", "0"],
                          "--n 1 with --pad 0 makes a 1-qubit first round: the approximate "
                          "initial state needs 2 qubits"),
    "first-round-sparse": (lambda: distill.run_protocol_sparse(1, pad=0),
                           ["distill", "--n", "1", "--pad", "0", "--engine", "sparse"],
                           "--n 1 with --pad 0 makes a 1-qubit first round: the approximate "
                           "initial state needs 2 qubits"),
    # distill_k checks n, then --rounds
    "rounds-zero": (lambda: arbitrary.distill_k(8, 5, 0),
                    ["arbitrary-k", "--n", "8", "--k", "5", "--rounds", "0"],
                    "--rounds 0 is below 1: distillation needs at least one round"),
    "n-before-rounds": (lambda: arbitrary.distill_k(0, 5, 0),
                        ["arbitrary-k", "--n", "0", "--k", "5", "--rounds", "0"],
                        "--n 0 is below 1: a register needs at least one qubit"),
}


@pytest.mark.parametrize("rule", sorted(LIBRARY_RULES))
def test_library_rule_message_is_the_cli_message(capsys, monkeypatch, rule):
    call, argv, message = LIBRARY_RULES[rule]

    def refuse(*args, **kwargs):
        raise AssertionError("ran the engine for a refused request")

    monkeypatch.setattr(resources, "round_success_probabilities", refuse)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
    assert run_cli(capsys, *argv) == (2, "", f"invalid request: {message}\n")


class TestDenseCapacityAdvice:
    @pytest.mark.parametrize("argv, qubits", [(["arbitrary-k", "--n", "9", "--k", "5"], 9),
                                              (["clone", "--n", "5"], 5)])
    def test_advice_names_only_the_cap(self, capsys, monkeypatch, argv, qubits):
        # neither command has a sparse engine, so raising the cap is the remedy
        monkeypatch.setenv("FOURIERDISTILL_AMP_CAP", str(qubits - 1))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (f"capacity error: n={qubits} exceeds the amplitude-vector cap "
                       f"{qubits - 1}; raise FOURIERDISTILL_AMP_CAP\n")
        monkeypatch.setenv("FOURIERDISTILL_AMP_CAP", str(qubits))
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")

    def test_unreadable_cap_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FOURIERDISTILL_AMP_CAP", "abc")
        code, out, err = run_cli(capsys, "clone", "--n", "4")
        assert (code, out) == (2, "")
        assert err == ("invalid request: FOURIERDISTILL_AMP_CAP='abc' is not a whole "
                       "number of qubits\n")


class TestOutputHandling:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "compare", "--p-min", "6", "--p-max", "7",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("p,eps_f")
        assert content.endswith("\n")

    def test_unwritable_path_reports_with_path(self, capsys, tmp_path):
        bad = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(capsys, "compare", "--out", str(bad))
        assert (code, out) == (2, "")
        # rendered like every other exit-2 error, with the OS reason kept
        assert err.startswith(f"invalid request: cannot write output to {bad}: ")
        assert "No such file or directory" in err

    @pytest.mark.parametrize("error, code, prefix", [
        (ValueError, 2, "invalid request"), (CapacityError, 3, "capacity error")])
    def test_warnings_print_before_the_error_line(self, capsys, monkeypatch, error, code, prefix):
        def warn_then_fail(args):
            warnings.warn("tail bound too wide", PrecisionWarning)
            raise error("round 3 failed")

        monkeypatch.setitem(cli._COMMANDS, "compare", warn_then_fail)
        assert run_cli(capsys, "compare") == (
            code, "", f"warning: tail bound too wide\n{prefix}: round 3 failed\n")

    def test_argparse_validation_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["distill"])  # --n missing
        assert exc.value.code == 2

    def test_floats_printed_at_12_digits(self, capsys):
        _, out, _ = run_cli(capsys, "distill", "--n", "10", "--format", "csv")
        p_cell = out.strip().splitlines()[2].split(",")[2]
        assert p_cell == "0.962609727941"
