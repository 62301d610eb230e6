"""End-to-end tests of the command-line surface: schemas, determinism,
exit codes."""
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest

from fourierdistill import resources
from fourierdistill.cli import ROUND_COLUMNS, _adder_check_summary, main


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
        assert float(by_j[1][1]) == pytest.approx(8 / math.pi ** 2, rel=1e-10)
        assert float(by_j[-3][1]) == pytest.approx(8 / (9 * math.pi ** 2), rel=1e-10)
        assert float(by_j[2][1]) == 0.0

    def test_register_beyond_double_exponent_range(self, capsys):
        # 2**1100 does not fit a double; the weight still does
        code, out, _ = run_cli(capsys, "spectrum", "--n", "1100",
                               "--j-min", "1", "--j-max", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,0.810569469139,0.810569469139"

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "6",
                               "--j-min", "5", "--j-max", "4")
        assert code == 0
        assert out.strip() == "j,series_weight,folded_weight"


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

    def test_capacity_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "distill", "--n", "40", "--engine", "exact")
        assert code == 3
        assert "capacity" in err

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

    @pytest.mark.parametrize("n", [1075, 2000])
    def test_sparse_past_float_range_names_the_limit(self, capsys, n):
        # pi * 2**-n_fine underflows to 0 in the zero-order-hold kernel
        code, out, err = run_cli(capsys, "distill", "--n", str(n), "--engine", "sparse")
        assert (code, out) == (2, "")
        assert "size limit" in err and "underflows" in err
        assert "nan" not in err

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

    def test_capacity_limit(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--n", "9")
        assert code == 3

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_below_two_qubits_rejected(self, capsys, n):
        # the preparation circuit names the limit before any vector is built
        code, out, err = run_cli(capsys, "simulate", "--n", str(n))
        assert (code, out) == (2, "")
        assert "at least 2" in err

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
        code, out, _ = run_cli(capsys, "resources", "--n", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("n,toffoli_deterministic,toffoli_expected_mean,"
                            "toffoli_expected_std,rounds,width")
        assert lines[1] == "10,76,,,3,24"

    def test_expected_cost_window(self, capsys):
        code, out, _ = run_cli(capsys, "resources", "--n", "10",
                               "--trials", "2000", "--seed", "9")
        assert code == 0
        mean = float(out.strip().splitlines()[1].split(",")[2])
        assert 70 <= mean <= 140

    def test_seed_required_for_trials(self, capsys):
        code, _, err = run_cli(capsys, "resources", "--n", "10", "--trials", "10")
        assert code == 2
        assert "seed" in err

    def test_fixed_seed_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "resources", "--n", "8",
                             "--trials", "300", "--seed", "4")
        _, out2, _ = run_cli(capsys, "resources", "--n", "8",
                             "--trials", "300", "--seed", "4")
        assert out1 == out2

    def test_negative_trials_rejected(self, capsys):
        code, out, err = run_cli(capsys, "resources", "--n", "10", "--trials", "-5")
        assert code == 2
        assert out == ""
        assert "invalid request" in err and "--trials" in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(capsys, "resources", "--n", "10", "--trials", "5",
                                 "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "invalid request: --seed must be non-negative\n"

    def test_trials_above_limit_is_capacity_error(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "resources", "--n", "10",
                                     "--trials", "100000000", "--seed", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err.startswith("capacity error:") and "--trials" in err
        assert peak < 50e6  # refused before any per-trial array exists

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_report_per_n(self, capsys, monkeypatch, fmt):
        calls = []
        build = resources.full_resource_report

        def counted(n, *args, **kwargs):
            calls.append(n)
            return build(n, *args, **kwargs)

        monkeypatch.setattr(resources, "full_resource_report", counted)
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
        assert float(row6[1]) == pytest.approx(0.0173545758748, rel=1e-9)
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

    def test_one_bit_rejected(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--p-min", "1", "--p-max", "5")
        assert (code, out) == (2, "")
        assert "p=1" in err

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

    def test_bad_preparation_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "arbitrary-k", "--n", "8", "--k", "5",
                               "--truncate-bits", "1")
        assert code == 2
        assert "dominant" in err


class TestCloneCommand:
    def test_pure_clone(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--n", "4", "--k", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["fidelity_first"] >= 1 - 1e-9
        assert obj["fidelity_second"] >= 1 - 1e-9
        assert obj["adder_toffolis"] == 4


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
        code, _, err = run_cli(capsys, "compare", "--out", str(bad))
        assert code == 2
        assert str(bad) in err

    def test_argparse_validation_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["distill"])  # --n missing
        assert exc.value.code == 2

    def test_floats_printed_at_12_digits(self, capsys):
        _, out, _ = run_cli(capsys, "distill", "--n", "10", "--format", "csv")
        p_cell = out.strip().splitlines()[2].split(",")[2]
        assert p_cell == "0.962609727941"
