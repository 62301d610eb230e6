"""Tests for QVR preparation and arbitrary-index distillation."""
import math
import random

import numpy as np
import pytest

from fourierdistill import (
    default_truncate_bits,
    distill_k,
    pure_fourier_state,
    ResourceReport,
    StateVector,
    run_protocol_exact,
    to_fourier_basis,
)
from fourierdistill.arbitrary import _qvr_coefficients
from fourierdistill.distill import _exact_rounds
from oracles import (
    counted_transforms,
    distill_k_reference,
    fidelity,
    qvr_phase,
    qvr_state_reference,
    spread_coset,
    traced_peak,
    transform_cost,
)


class TestQvrPhase:
    @pytest.mark.parametrize("n,bit", [(4, 0), (4, 2), (6, 3), (8, 5)])
    def test_exact_phase_shifts_index(self, n, bit):
        # full-precision phase maps |+>^n exactly onto the 2**bit Fourier state
        out = qvr_phase(pure_fourier_state(n, 0), bit, truncate_bits=n)
        assert fidelity(out, n, 1 << bit) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_beyond_n_is_exact(self):
        a = qvr_phase(pure_fourier_state(6, 0), 1, truncate_bits=6)
        b = qvr_phase(pure_fourier_state(6, 0), 1, truncate_bits=60)
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-15)

    def test_exact_phase_permutes_spectrum(self):
        # spectrum weights shift by 2**bit (mod N) for any input state
        rng = np.random.default_rng(17)
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        s = StateVector(raw / np.linalg.norm(raw))
        shifted = qvr_phase(s, 2, truncate_bits=6)
        np.testing.assert_allclose(np.abs(to_fourier_basis(shifted)) ** 2,
                                   np.roll(np.abs(to_fourier_basis(s)) ** 2, 4), atol=1e-12)

    def test_single_gate_error_scale(self):
        # frozen: one QVR gate at ceil(log2 n)+2 bits on an 8-qubit register
        out = qvr_phase(pure_fourier_state(8, 0), 0, truncate_bits=5)
        f = fidelity(out, 8, 1)
        assert f == pytest.approx(0.9968414039, abs=1e-9)
        assert f >= 1 - 1.0 / 8  # measured constant c is about 0.025

    def test_one_bit_stress_case(self):
        # coarsest quantization; behavior recorded, no convergence claim
        out = qvr_phase(pure_fourier_state(8, 0), 0, truncate_bits=1)
        f = fidelity(out, 8, 1)
        assert f == pytest.approx(0.4053050802, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            qvr_phase(pure_fourier_state(4, 0), 4, 3)
        with pytest.raises(ValueError):
            qvr_phase(pure_fourier_state(4, 0), 0, 0)


class TestPrepareApproxK:
    def test_k_zero_is_exact(self):
        initial, _ = distill_k(8, 0, 1)
        assert initial == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(_qvr_coefficients(8, 0, 5),
                                   to_fourier_basis(pure_fourier_state(8, 0)), atol=1e-13)

    def test_reference_case_n8_k5(self):
        initial, _ = distill_k(8, 5, 1)
        assert initial > 0.5
        assert initial == pytest.approx(0.993242621294, abs=1e-9)

    def test_full_precision_is_exact_for_k1(self):
        weight = abs(_qvr_coefficients(8, 1, 8)[1]) ** 2
        assert weight == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_default_truncation_exceeds_half_fidelity(self, n):
        for k in (1, n - 1, (1 << n) - 1, (1 << (n - 1)) + 3):
            initial, _ = distill_k(n, k, 1)
            assert initial > 0.5

    def test_default_truncation_makes_k_dominant(self):
        # default_truncate_bits' bound: the weight at k is above 1/2, so k is
        # the argmax, for every k at n <= 9, for k with half of its bits set
        # (the benchmark's arbitrary-k job) and for k with every bit set, the
        # most floored phases, up to the amplitude cap (measured minimum
        # weight 0.985, at n = 8, k = 127)
        cases = [(n, k) for n in range(1, 10) for k in range(1 << n)]
        for n in (14, 17, 20):
            half = random.Random(n).sample(range(n), n // 2)
            cases.append((n, sum(1 << b for b in half)))
        cases += [(n, (1 << n) - 1) for n in (14, 17, 20, 22)]
        for n, k in cases:
            moduli = np.abs(_qvr_coefficients(n, k, default_truncate_bits(n)))
            assert moduli[k] ** 2 > 0.5, (n, k)
            assert moduli.argmax() == k, (n, k)

    def test_k_reduced_mod_dimension(self):
        initial, result = distill_k(3, 9, 2)
        expected_initial, expected = distill_k(3, 1, 2)
        assert (initial, result.rounds) == (expected_initial, expected.rounds)
        np.testing.assert_array_equal(result.output, expected.output)

    def test_default_truncate_bits(self):
        assert default_truncate_bits(8) == 5
        assert default_truncate_bits(100) == 9

    def test_default_truncate_bits_needs_a_register(self):
        # distill_k checks the register size first, so only a direct call gets here
        with pytest.raises(ValueError, match="n must be positive"):
            default_truncate_bits(0)


class TestDistillK:
    def test_reference_run_n8_k5(self):
        initial, result = distill_k(8, 5, 3)
        fids = [rec.fidelity for rec in result.rounds]
        assert all(b > a for a, b in zip([initial] + fids, fids) if a < 1.0)
        assert result.final.error < 1e-3
        assert ResourceReport(result.schedule).toffoli_deterministic == 7 * 12 == 84

    def test_round3_error_is_summed_off_target_weight(self):
        # three symmetric rounds raise every weight to the 8th power; the
        # error (4e-20) is far below the float resolution of 1 - fidelity
        _, result = distill_k(8, 5, 3)
        w8 = (np.abs(_qvr_coefficients(8, 5, default_truncate_bits(8))) ** 2) ** 8
        expected = math.fsum(np.delete(w8, 5)) / math.fsum(w8)
        assert result.final.error > 0
        assert result.final.error == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert result.final.log_error == pytest.approx(math.log(expected), rel=1e-12, abs=0.0)

    def test_monotone_strict_until_saturation(self):
        # a truncation one bit below the default still raises fidelity every round
        coeffs = _qvr_coefficients(8, 5, 4)
        initial = abs(coeffs[5]) ** 2
        rounds, _ = _exact_rounds(coeffs, len(coeffs), (8, 8), 5)
        f1, f2 = rounds[0].fidelity, rounds[1].fidelity
        assert initial < f1 < f2 < 1.0 + 1e-12

    def test_fundamental_index_cross_check(self):
        # the QVR route and the doubling protocol both converge on index 1
        _, via_k = distill_k(10, 1, 3)
        via_protocol = run_protocol_exact(10)
        assert via_k.final.error < 1e-3
        assert via_protocol.final.error < 1e-3
        assert np.abs(via_k.output).argmax() == 1
        assert (np.abs(spread_coset(via_protocol.output)) ** 2).argmax() == 1

    def test_coarse_truncation_loses_dominance(self):
        # below default_truncate_bits the bound can fail: 1-bit quantization
        # leaves the dominant weight at index 3, not 5
        weights = np.abs(_qvr_coefficients(8, 5, 1)) ** 2
        assert weights.argmax() == 3
        assert weights[5] < weights[3]

    def test_cost_accounting_exact(self):
        # the tree of R full-width rounds holds 2**R - 1 adders of 2n - 4 Toffolis
        for rounds in (1, 2, 4):
            _, result = distill_k(6, 3, rounds)
            assert result.schedule.sizes == (6,) * rounds
            assert len(result.rounds) == rounds
            cost = ResourceReport(result.schedule)
            assert sum(cost.adders) == (1 << rounds) - 1
            assert cost.toffoli_deterministic == ((1 << rounds) - 1) * (2 * 6 - 4)

    def test_prepared_state_is_left_unchanged(self):
        # each run prepares its own buffer: two runs from the same (n, k)
        # give identical results
        first_initial, first = distill_k(8, 5, 3)
        second_initial, second = distill_k(8, 5, 3)
        assert first_initial == second_initial
        assert first.rounds == second.rounds
        assert np.array_equal(first.output, second.output)
        assert first.output is not second.output

    def test_one_transform(self, monkeypatch):
        # the QVR state is transformed once; full-width rounds stay in the
        # Fourier basis
        calls = counted_transforms(monkeypatch)
        distill_k(12, 2731, 3)
        assert calls == [(1 << 12, False)]

    def test_validation(self):
        with pytest.raises(ValueError):
            distill_k(8, 5, 0)

    def test_cli_run_builds_no_weight_array(self):
        # the initial fidelity reads one coefficient, and the rounds square
        # the prepared buffer itself: one 2**n vector plus the QVR pass's
        # scratch blocks of 2**14 points (1.13 vectors measured, 1.29 with new
        # blocks per pass step and the transform's per-block temporaries; a
        # 2**n array of moduli would add 0.5, a copy of the buffer 1)
        distill_k(18, 2731, 3)  # numpy's first FFT allocates caches
        _, peak = traced_peak(lambda: distill_k(18, 2731, 3))
        assert peak <= 1.2 * (16 << 18)


class TestBitIdentity:
    @pytest.mark.parametrize("n,k", [(8, 5), (12, 2731)])
    def test_distill_k_matches_direct_form(self, n, k):
        initial, result = distill_k(n, k, 3)
        expected_initial, trace = distill_k_reference(n, k, rounds=3)
        assert initial == expected_initial
        assert [(r.p_success, r.fidelity, r.error, r.log_error)
                for r in result.rounds] == trace

    # (20, 292252) is the benchmark's arbitrary-k job at seed 1
    @pytest.mark.parametrize("n,k", [(8, 5), (12, 2731), (20, 292252)])
    def test_initial_fidelity_matches_direct_overlap(self, n, k):
        # arbitrary-k reports this prepared fidelity as its initial_fidelity
        initial, _ = distill_k(n, k, 1)
        direct = StateVector(qvr_state_reference(n, k, default_truncate_bits(n)))
        assert initial == pytest.approx(fidelity(direct, n, k), rel=1e-14, abs=0.0)

    def test_one_pass_matches_chained_phases(self):
        # the transform of qvr_phase chained over k's set bits from |+>^n
        for n in range(1, 11):
            for t in sorted({1, default_truncate_bits(n), n + 1}):
                # states[k] chains the phases of k's set bits, lowest first
                states = [pure_fourier_state(n, 0)]
                for k in range(1, 1 << n):
                    top = k.bit_length() - 1
                    states.append(qvr_phase(states[k - (1 << top)], top, t))
                for k, state in enumerate(states):
                    coeffs = _qvr_coefficients(n, k, t)
                    # to_fourier_basis up to 2**14 points: one pocketfft call
                    expected = np.fft.fft(state.amps) / math.sqrt(1 << n)
                    assert np.array_equal(coeffs, expected), (n, k, t)

    def test_phase_lookup_matches_exp_per_amplitude(self):
        for n in range(1, 9):
            N = 1 << n
            y = np.arange(N, dtype=np.int64)
            s = pure_fourier_state(n, 0)
            for b in range(n):
                for t in range(1, n + 2):
                    q = ((y << b) % N) << min(t, n) >> n
                    direct = s.amps * np.exp(2j * np.pi * q / (1 << min(t, n)))
                    assert np.array_equal(qvr_phase(s, b, t).amps, direct), (n, b, t)


class TestTransformNote:
    def test_delegates_to_cost_formula(self):
        assert transform_cost(10) == 28
        assert transform_cost(100) == 4753
