"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line on success.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks the corresponding criterion FAILED.
"""
import math

import numpy as np
import pytest

from fourierdistill import (
    apply_circuit,
    build_adder_circuit,
    build_distillation_circuit,
    clone_fourier_state,
    comparison_table,
    distill_k,
    epsilon_f_kickback,
    expected_cost_monte_carlo,
    extract_register,
    modular_add_oracle,
    plan_schedule,
    pure_fourier_state,
    rounds_required,
    run_protocol_exact,
    run_protocol_sparse,
    series_weight,
    t_sequence_cost_bits,
    to_fourier_basis,
    StateVector,
)
from fourierdistill.distill import _exact_rounds
from fourierdistill.resources import round_success_probabilities
from oracles import (
    apply_permutation,
    approx_initial_state,
    epsilon_f_kickback_approx,
    fidelity,
    rounds_required_simplified,
    spread_coset,
    toffoli_closed_form,
    toffoli_sum_direct,
    transform_cost,
)


def _report(num, text):
    print(f"PASS criterion {num:2d}: {text}")


def test_criterion_01_series_constants():
    assert abs(series_weight(1) - 8 / math.pi ** 2) < 1e-12
    assert abs(series_weight(-3) / series_weight(1) - 1 / 9) < 1e-12
    _report(1, "series constants |c_1|^2 = 8/pi^2 and sideband ratio 1/9 to 1e-12")


def test_criterion_02_initial_fidelity():
    for n in range(4, 17):
        f = fidelity(approx_initial_state(n), n, 1)
        assert f >= 0.81, f"n={n}: fidelity {f} below 0.81"
    _report(2, "initial-state fidelity >= 0.81 for every n in [4, 16]")


def test_criterion_03_symmetric_round_n12():
    out = run_protocol_exact(12, s0=12, pad=0).final  # one round at size 12
    assert 0.66 <= out.p_success <= 0.68
    assert abs(out.p_success - 2 / 3) < 1e-3
    assert 0.984 <= out.fidelity <= 0.986
    assert abs(out.fidelity - 96 / math.pi ** 4) < 1e-3
    _report(3, f"symmetric round at n=12: p={out.p_success:.6f} (to 2/3), "
               f"F={out.fidelity:.6f} (to 96/pi^4)")


def test_criterion_04_adder_action_n3_all_pairs():
    n, N = 3, 8
    perm = modular_add_oracle(n)
    circuit, _ = build_adder_circuit(n)
    for k in range(N):
        for kp in range(N):
            expected = np.kron(pure_fourier_state(n, (k - kp) % N).amps,
                               pure_fourier_state(n, kp).amps)
            joint = np.kron(pure_fourier_state(n, k).amps,
                            pure_fourier_state(n, kp).amps)
            via_oracle = apply_permutation(perm, StateVector(joint))
            assert abs(np.vdot(expected, via_oracle.amps)) ** 2 >= 1 - 1e-10
            out = apply_circuit(circuit, StateVector(np.kron(joint, [1.0, 0.0])))
            assert abs(np.vdot(np.kron(expected, [1.0, 0.0]), out.amps)) ** 2 >= 1 - 1e-10
    _report(4, "adder index arithmetic on all 64 pairs at n=3, "
               "oracle and decomposed circuit, fidelity 1 - 1e-10")


def test_criterion_05_gate_level_matches_spectral():
    n = 5
    inp = approx_initial_state(n)
    circuit, layout = build_distillation_circuit(n)
    joint = StateVector(np.kron(np.kron(inp.amps, inp.amps), [1.0, 0.0]))
    p_circuit, output = extract_register(apply_circuit(circuit, joint), layout)
    predicted = run_protocol_exact(n, s0=n, pad=0)
    assert abs(p_circuit - predicted.final.p_success) < 1e-9
    diff = np.max(np.abs(np.abs(to_fourier_basis(output)) ** 2
                         - np.abs(spread_coset(predicted.output)) ** 2))
    assert diff < 1e-9
    _report(5, f"distillation circuit at n=5 reproduces spectral step "
               f"(p diff {abs(p_circuit - predicted.final.p_success):.1e}, "
               f"weights diff {diff:.1e})")


def test_criterion_06_error_suppression_law():
    # three rounds at fixed size 16 on the exact engine, from its 2-qubit start
    buf = np.zeros(1 << 16, dtype=complex)
    buf[0] = 1
    for r, rec in enumerate(_exact_rounds(buf, 1, (16,) * 3, 1, stride=4)[0], start=1):
        eps = rec.error
        law = 9.0 ** -(2 ** r)
        assert law / 2 < eps < law * 2, f"r={r}: {eps} vs {law}"
    _report(6, "full-width errors at n=16 within factor 2 of 9^(-2^r), r=1..3")


def test_criterion_07_round_counts():
    assert rounds_required(10) == 3
    assert rounds_required(100) == 6
    boundary = []
    for n in range(6, 101):
        if rounds_required(n) != rounds_required_simplified(n):
            arg = 0.63 * n - 1.04
            assert abs(math.log2(arg) - round(math.log2(arg))) < 0.01
            boundary.append(n)
    assert boundary in ([], [8])
    _report(7, f"round counts 3 at n=10 and 6 at n=100; simplified form agrees "
               f"on [6,100] except ceiling boundary {boundary}")


def test_criterion_08_cost_formulas_and_monte_carlo():
    assert toffoli_closed_form(3, 5) == 212
    for R in range(1, 9):
        for s in range(3, 21):
            assert toffoli_closed_form(R, s) == toffoli_sum_direct(R, s)
    mean, std = expected_cost_monte_carlo(10, trials=10_000, seed=20240229,
                                          probabilities=round_success_probabilities(10))
    assert 70 <= mean <= 140
    _report(8, f"closed form = direct sum on [1,8]x[3,20], value 212 at (3,5); "
               f"expected cost at n=10 is {mean:.1f} (in [70, 140])")


def test_criterion_09_final_state_quality():
    exact10 = run_protocol_exact(10)
    assert exact10.final.error <= math.sin(math.pi / 2 ** 10) ** 2
    for n in range(8, 17):
        e = run_protocol_exact(n)
        s = run_protocol_sparse(n)
        for re, rs in zip(e.rounds, s.rounds):
            assert abs(re.p_success - rs.p_success) < 1e-3
            assert abs(re.fidelity - rs.fidelity) < 1e-4
    big = run_protocol_sparse(100)
    assert big.final_log_error <= big.log_threshold
    _report(9, f"exact n=10 error {exact10.final.error:.2e} meets sin^2(pi/2^10); "
               f"engines agree on [8,16]; n=100 log2 error "
               f"{big.final_log_error / math.log(2):.1f} <= "
               f"{big.log_threshold / math.log(2):.1f}")


def test_criterion_10_width_bound():
    for n in range(5, 101):
        width = plan_schedule(n).width_qubits
        assert width <= 2 * n + 5, f"n={n}: width {width}"
    _report(10, "logical width <= 2n + 5 for every schedule with n in [5, 100]")


def test_criterion_11_rotation_comparison():
    for p in range(6, 41):
        eps = epsilon_f_kickback(p)
        offset = p - math.log2(1.0 / eps)
        assert abs(offset - 0.15) <= 0.01, f"p={p}: offset {offset}"
        rel = abs(eps - epsilon_f_kickback_approx(p)) / eps
        assert rel < 5e-4, f"p={p}: approximation off at 4 significant figures"
    assert comparison_table([10])[0].kickback_toffolis == 9
    assert t_sequence_cost_bits(10) == pytest.approx(25.65)
    _report(11, "log2(1/eps_F) = p - 0.15 within 0.01 and 4-digit agreement on "
                "p in [6,40]; kickback p-1 Toffolis vs 3.21p - 6.45 T gates")


def test_criterion_12_arbitrary_index():
    prep, result = distill_k(8, 5, 3, 5)
    assert prep.fidelity > 0.5
    fids = [prep.fidelity] + [rec.fidelity for rec in result.rounds]
    for a, b in zip(fids, fids[1:]):
        if a < 1.0:
            assert b > a
    assert result.final.error < 1e-3
    assert transform_cost(10) == 28
    _report(12, f"index-5 preparation F={prep.fidelity:.4f} > 0.5; three rounds "
                f"strictly increase fidelity to error {result.final.error:.1e} "
                f"< 1e-3; transform cost 28 at n=10")


def test_criterion_13_cloning():
    # the fidelity of each register and of the pair
    assert clone_fourier_state(pure_fourier_state(4, 3), 3) >= 1 - 1e-9
    _report(13, "one-adder clone of the n=4, k=3 state leaves both registers "
                "at fidelity 1 - 1e-9")
