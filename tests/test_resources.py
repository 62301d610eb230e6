"""Tests for cost formulas, Monte Carlo retry overhead, and the rotation
cost comparison."""
import math

import numpy as np
import pytest

from fourierdistill import (
    CapacityError,
    adder_toffoli_count,
    comparison_table,
    epsilon_f_kickback,
    expected_cost_monte_carlo,
    expected_cost_recursion,
    plan_schedule,
    resource_reports,
    run_protocol_exact,
    run_protocol_sparse,
    t_sequence_cost,
    t_sequence_cost_bits,
    toffoli_capped,
)
from fourierdistill import resources
from fourierdistill.cli import main
from fourierdistill.distill import DEFAULT_PAD, DEFAULT_S0
from fourierdistill.resources import MAX_TRIALS, round_success_probabilities
from oracles import (
    epsilon_f_kickback_approx,
    toffoli_closed_form,
    toffoli_sum_direct,
    traced_peak,
    transform_cost,
)


REF_TRIALS = 10_000
VEC_TRIALS = 200_000


def _sample_tree_cost(costs, probs, r, rng):
    """Reference sampler: one trial of the distillation tree, node by node.

    A node at round r pays costs[r] per attempt plus two fresh subtrees of
    round r-1, and repeats until it succeeds with probability probs[r].
    """
    total = 0
    while True:
        total += costs[r]
        if r > 0:
            total += _sample_tree_cost(costs, probs, r - 1, rng)
            total += _sample_tree_cost(costs, probs, r - 1, rng)
        if rng.random() < probs[r]:
            return total


def _analytic_moments(costs, probs):
    """Mean and variance of the retry cost: a geometric number of attempts,
    each costing A_r plus two independent round r-1 subtrees.

    E_r = (2 E_(r-1) + A_r) / p_r
    V_r = 2 V_(r-1) / p_r + (1 - p_r) (A_r + 2 E_(r-1))**2 / p_r**2
    """
    mean = var = 0.0
    for cost, p in zip(costs, probs):
        attempt_mean = cost + 2 * mean
        mean, var = (attempt_mean / p,
                     2 * var / p + (1 - p) * attempt_mean ** 2 / p ** 2)
    return mean, var


class TestClosedForm:
    def test_reference_values(self):
        assert toffoli_closed_form(3, 5) == 212
        assert toffoli_closed_form(1, 5) == 16
        assert toffoli_closed_form(2, 5) == 68

    def test_matches_direct_sum_everywhere(self):
        for R in range(1, 9):
            for s in range(3, 21):
                assert toffoli_closed_form(R, s) == toffoli_sum_direct(R, s)

    def test_uncapped_accounting_is_the_closed_form(self):
        assert toffoli_sum_direct(3, 5) == toffoli_closed_form(3, 5) == 212

    def test_validation(self):
        with pytest.raises(ValueError):
            toffoli_closed_form(0, 5)
        with pytest.raises(ValueError):
            toffoli_closed_form(3, 2)


class TestCappedAccounting:
    def test_n10_schedule_costs(self):
        report = toffoli_capped(10)
        assert list(report.schedule.sizes) == [5, 10, 12]
        assert list(report.adders) == [4, 2, 1]
        assert [adder_toffoli_count(s) for s in report.schedule.sizes] == [6, 16, 20]
        assert report.toffoli_deterministic == 76

    def test_n5_single_round(self):
        report = toffoli_capped(5)
        assert report.rounds == 1
        assert report.toffoli_deterministic == 6

    def test_probabilities_attached(self):
        assert round_success_probabilities(10)[0] == pytest.approx(0.671875, abs=1e-9)

    def test_deterministic_counts_run_no_engine(self, monkeypatch, capsys):
        argv = ["resources", "--n-min", "5", "--n-max", "100"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        before = toffoli_capped(100)

        def refuse(*args, **kwargs):
            raise AssertionError("deterministic counts ran a spectral engine")

        monkeypatch.setattr(resources, "run_protocol_sparse", refuse)
        assert toffoli_capped(100) == before
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_minimum_target(self):
        with pytest.raises(ValueError):
            toffoli_capped(4)

    def test_width_bound_per_target(self):
        for n in range(5, 101):
            sched = plan_schedule(n)
            assert sched.width_qubits <= 2 * n + 5


class TestRoundProbabilities:
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_exact_and_sparse_engines_agree(self, n):
        exact = [r.p_success for r in run_protocol_exact(n).rounds]
        sparse = [r.p_success for r in run_protocol_sparse(n).rounds]
        assert len(exact) == len(sparse)
        for pe, ps in zip(exact, sparse):
            assert ps == pytest.approx(pe, abs=1e-3)

    @pytest.mark.parametrize("s0, pad, rel", [(DEFAULT_S0, DEFAULT_PAD, 1e-12),
                                              (4, 1, 2e-11), (6, 3, 2e-11),
                                              (5, 0, 2e-11)])
    def test_probabilities_match_exact_engine(self, s0, pad, rel):
        # the exact engine is ground truth wherever its vectors fit
        for n in range(5, 17):
            exact = [r.p_success for r in run_protocol_exact(n, s0=s0, pad=pad).rounds]
            assert round_success_probabilities(n, s0, pad) == pytest.approx(exact, rel=rel,
                                                                            abs=0.0)

    @pytest.mark.parametrize("s0, pad", [(DEFAULT_S0, DEFAULT_PAD), (4, 1), (6, 3), (5, 0)])
    def test_sweep_reuse_gives_the_same_floats(self, s0, pad):
        # each n resumes from the round prefix it shares with the n before it
        reuse = {}
        for n in range(5, 101):
            swept = round_success_probabilities(n, s0, pad, reuse)
            assert swept == round_success_probabilities(n, s0, pad)
            sizes = plan_schedule(n, s0, pad).sizes
            assert set(reuse) == {(resources.PROBABILITY_HARMONICS, sizes[:i])
                                  for i in range(1, len(sizes) + 1)}


class TestExpectedCost:
    def test_recursion_frozen_value(self):
        # E1 = 6/0.671875, E2 = (2 E1 + 16)/0.96261, E3 = (2 E2 + 20)/0.99966
        assert expected_cost_recursion(10) == pytest.approx(90.3819, abs=0.01)

    def test_monte_carlo_matches_recursion(self):
        mean, std = expected_cost_monte_carlo(10, trials=20000, seed=31415,
                                              probabilities=round_success_probabilities(10))
        stderr = std / math.sqrt(20000)
        assert abs(mean - expected_cost_recursion(10)) <= 3 * stderr

    def test_monte_carlo_deterministic_given_seed(self):
        probs = round_success_probabilities(10)
        a = expected_cost_monte_carlo(10, trials=500, seed=7, probabilities=probs)
        b = expected_cost_monte_carlo(10, trials=500, seed=7, probabilities=probs)
        assert a == b
        c = expected_cost_monte_carlo(10, trials=500, seed=8, probabilities=probs)
        assert a != c

    def test_sampled_distribution_matches_analytic_moments(self):
        # forced low probabilities make retries common; the level-by-level
        # sampler and the recursive reference sampler must both reproduce
        # the analytic mean and variance of the retry-the-subtree cost
        probs = [0.5, 0.6, 0.7]
        costs = [adder_toffoli_count(s) for s in plan_schedule(10).sizes]
        engine_mean, _ = _analytic_moments(costs, round_success_probabilities(10))
        assert engine_mean == pytest.approx(expected_cost_recursion(10), rel=1e-12, abs=0.0)
        mean, var = _analytic_moments(costs, probs)

        rng = np.random.default_rng(1618)
        ref = np.array([_sample_tree_cost(costs, probs, len(costs) - 1, rng)
                        for _ in range(REF_TRIALS)], dtype=float)
        ref_mean, ref_var = ref.mean(), ref.var(ddof=1)
        # spread of a sample variance: (mu4 - var**2) / trials
        var_spread = np.mean((ref - ref.mean()) ** 4) - var ** 2

        vec_mean, vec_std = expected_cost_monte_carlo(
            10, trials=VEC_TRIALS, seed=2718, probabilities=probs)
        vec_var = vec_std ** 2

        for m, v, trials in ((vec_mean, vec_var, VEC_TRIALS),
                             (ref_mean, ref_var, REF_TRIALS)):
            assert abs(m - mean) <= 4 * math.sqrt(var / trials)
            assert abs(v - var) <= 4 * math.sqrt(var_spread / trials)
        both = 1 / VEC_TRIALS + 1 / REF_TRIALS
        assert abs(vec_mean - ref_mean) <= 4 * math.sqrt(var * both)
        assert abs(vec_var - ref_var) <= 4 * math.sqrt(var_spread * both)

    @pytest.mark.parametrize("n", [5, 10, 39, 100])
    def test_engine_probabilities_give_the_analytic_moments(self, n):
        probs = round_success_probabilities(n)
        costs = [adder_toffoli_count(s) for s in plan_schedule(n).sizes]
        mean, var = _analytic_moments(costs, probs)
        assert mean == pytest.approx(expected_cost_recursion(n), rel=1e-12, abs=0.0)
        trials = 2 ** 18
        sampled_mean, sampled_std = expected_cost_monte_carlo(n, trials, 7,
                                                              probabilities=probs)
        assert abs(sampled_mean - mean) <= 4 * math.sqrt(var / trials)
        assert sampled_std == pytest.approx(math.sqrt(var), rel=0.01, abs=0.0)

    def test_std_is_the_sample_std(self):
        # two trials with spread: mean -/+ std/sqrt(2) are the two sampled
        # costs, which holds for ddof=1 only
        spread = 0
        for seed in range(1, 21):
            mean, std = expected_cost_monte_carlo(10, trials=2, seed=seed,
                                                  probabilities=[0.5, 0.6, 0.7])
            if std > 0:
                spread += 1
                for cost in (mean - std / math.sqrt(2), mean + std / math.sqrt(2)):
                    assert cost == pytest.approx(round(cost), abs=1e-9)
        assert spread > 0

    @pytest.mark.parametrize("bad", [0.0, -0.25, float("nan"), 1.5])
    def test_probability_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="round 2"):
            expected_cost_monte_carlo(10, trials=10, seed=1,
                                      probabilities=[0.9, bad, 0.9])

    def test_trials_above_limit_refused_before_allocation(self):
        def refused():
            with pytest.raises(CapacityError, match="--trials"):
                expected_cost_monte_carlo(10, trials=MAX_TRIALS + 1, seed=1,
                                          probabilities=[0.9, 0.9, 0.9])

        _, peak = traced_peak(refused)
        assert peak < 1e6

    def test_forced_success_recovers_deterministic_count(self):
        report = toffoli_capped(10)
        mean, std = expected_cost_monte_carlo(10, trials=64, seed=1,
                                              probabilities=[1.0, 1.0, 1.0])
        assert mean == report.toffoli_deterministic
        assert std == 0.0

    def test_probability_rounding_above_one_is_clamped(self):
        # engine probabilities can exceed 1 by float rounding (about 6e-14)
        mean, std = expected_cost_monte_carlo(10, trials=8, seed=1,
                                              probabilities=[1.0, 1.0 + 1e-13, 1.0])
        assert (mean, std) == (76.0, 0.0)

    def test_expected_exceeds_deterministic(self):
        report, = resource_reports([10], trials=2000, seed=5)
        assert report.toffoli_expected_mean > report.toffoli_deterministic

    def test_sweep_reports_equal_single_n_reports(self):
        # the sweep's shared engine rounds give every n its own floats exactly
        assert resource_reports(range(5, 41), 50, 3) == [
            resource_reports([n], 50, 3)[0] for n in range(5, 41)]

    def test_n10_anchor_window(self):
        mean, _ = expected_cost_monte_carlo(10, trials=10000, seed=2024,
                                            probabilities=round_success_probabilities(10))
        assert 70 <= mean <= 140

    def test_sweep_refuses_negative_trials(self):
        with pytest.raises(ValueError, match="--trials -1 is negative"):
            resource_reports([10], trials=-1, seed=1)

    def test_validation(self):
        probs = round_success_probabilities(10)
        with pytest.raises(ValueError):
            expected_cost_monte_carlo(10, trials=0, seed=1, probabilities=probs)
        with pytest.raises(ValueError):
            expected_cost_monte_carlo(10, trials=10, seed=None, probabilities=probs)
        with pytest.raises(ValueError):
            expected_cost_monte_carlo(10, trials=10, seed=1, probabilities=[1.0])


class TestKickbackCost:
    @pytest.mark.filterwarnings("ignore:T-sequence cost model is out of regime")
    def test_examples(self):
        rows = comparison_table([2, 9])
        assert [r.kickback_toffolis for r in rows] == [1, 8]

    def test_register_and_ancilla_accounting(self):
        # (p + 1)-qubit Fourier register plus p carries
        assert comparison_table([9])[0].kickback_ancillas == 19

    def test_validation(self):
        # any other iterable is read whole, a range by its ends, whichever way it runs
        for p_values in ([1], [5, 1, 6], range(9, 0, -2), np.array([5, 1]), iter([5, 1])):
            with pytest.raises(ValueError, match="p=1"):
                comparison_table(p_values)
        assert [r.p for r in comparison_table(p for p in (6, 7))] == [6, 7]
        assert comparison_table(np.array([], dtype=int)) == []


class TestEpsilonF:
    def test_literal_complex_expression_small_p(self):
        # the stable half-angle form equals the literal trace expression
        for p in range(1, 16):
            literal = math.sqrt(1 - 0.5 * abs(1 + np.exp(1j * math.pi / 2 ** p)))
            assert epsilon_f_kickback(p) == pytest.approx(literal, rel=1e-6, abs=0.0)

    def test_four_significant_figures_at_p6(self):
        exact = epsilon_f_kickback(6)
        approx = epsilon_f_kickback_approx(6)
        assert abs(exact - approx) / exact < 5e-4

    @pytest.mark.parametrize("p", range(6, 41))
    def test_log_offset_window(self, p):
        offset = p - math.log2(1.0 / epsilon_f_kickback(p))
        assert 0.14 <= offset <= 0.16

    def test_monotone_to_zero(self):
        values = [epsilon_f_kickback(p) for p in range(1, 60)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] > 0


class TestTSequenceCost:
    def test_bit_form_at_p10(self):
        assert t_sequence_cost_bits(10) == pytest.approx(25.65, abs=1e-9)

    def test_formula_vs_bit_form_discrepancy_reported(self):
        # 3.21(p - 0.152) - 6.93 sits about one T gate below 3.21 p - 6.45
        for p in (8, 12, 20):
            gap = t_sequence_cost_bits(p) - t_sequence_cost(epsilon_f_kickback(p))
            assert gap == pytest.approx(0.968, abs=0.02)

    def test_formula_consistent_through_offset(self):
        for p in (6, 10, 20, 40):
            offset = math.log2(1.0 / epsilon_f_kickback(p)) - p
            composed = 3.21 * (p + offset) - 6.93
            assert t_sequence_cost(epsilon_f_kickback(p)) == pytest.approx(
                composed, abs=0.02)

    def test_out_of_regime_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            assert t_sequence_cost(0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            t_sequence_cost(1.5)
        with pytest.raises(ValueError):
            t_sequence_cost(0.0)


class TestTransformCost:
    def test_examples(self):
        assert transform_cost(10) == 28
        assert transform_cost(4) == 1
        assert transform_cost(100) == 4753

    def test_matches_direct_sum(self):
        for n in range(4, 60):
            assert transform_cost(n) == sum(s - 2 for s in range(3, n))

    def test_validation(self):
        with pytest.raises(ValueError):
            transform_cost(3)


class TestComparisonTable:
    def test_rows(self):
        rows = comparison_table([6, 10, 20])
        by_p = {r.p: r for r in rows}
        assert by_p[10].kickback_toffolis == 9
        assert by_p[10].t_gates_bit_form == pytest.approx(25.65)
        assert by_p[6].eps_f == pytest.approx(0.0173545758748, rel=1e-9, abs=0.0)
        assert by_p[20].kickback_ancillas == 41

    def test_csv_headers_golden(self, capsys):
        assert main(["resources", "--n-min", "9", "--n-max", "8"]) == 0
        assert main(["compare", "--p-min", "9", "--p-max", "8"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "n,toffoli_deterministic,toffoli_expected_mean,toffoli_expected_std,"
            "rounds,width",
            "p,eps_f,log2_inv_eps_f,t_gates_bit_form,t_gates_from_eps,"
            "kickback_toffolis,kickback_ancillas",
        ]

    def test_resources_rows_shape(self, capsys):
        assert main(["resources", "--n-min", "10", "--n-max", "10", "--trials", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].startswith("10,76,,,3,24")


class TestReportInvariants:
    @pytest.mark.parametrize("n", [5, 10, 20, 50, 100])
    def test_width_and_total_consistency(self, n):
        report = toffoli_capped(n)
        assert report.width_qubits <= 2 * n + 5
        R = report.rounds
        assert report.toffoli_deterministic == sum(
            (1 << (R - r)) * (2 * size - 4)
            for r, size in enumerate(report.schedule.sizes, start=1))

    def test_adder_cost_formula(self):
        assert adder_toffoli_count(5) == 6
        assert adder_toffoli_count(10) == 16
        with pytest.raises(ValueError):
            adder_toffoli_count(2)


@pytest.mark.parametrize("call, fragment", [
    (lambda: t_sequence_cost_bits(0), "p must be positive"),
], ids=["t-sequence-bits-p"])
def test_invalid_input_raises(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
