"""Tests for QVR preparation and arbitrary-index distillation."""
import math

import numpy as np
import pytest

from fourierdistill import (
    DegenerateInputError,
    default_truncate_bits,
    distill_k,
    prepare_approx_k,
    pure_fourier_state,
    qvr_phase,
    run_protocol_exact,
    spectrum_of,
    transform_cost,
)
from oracles import distill_k_reference, fidelity


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
        from fourierdistill import StateVector
        s = StateVector(raw / np.linalg.norm(raw))
        shifted = qvr_phase(s, 2, truncate_bits=6)
        np.testing.assert_allclose(spectrum_of(shifted).weights,
                                   np.roll(spectrum_of(s).weights, 4), atol=1e-12)

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
        prep = prepare_approx_k(8, 0, 5)
        assert prep.fidelity == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(prep.state.amps, pure_fourier_state(8, 0).amps,
                                   atol=1e-13)

    def test_reference_case_n8_k5(self):
        prep = prepare_approx_k(8, 5, 5)
        assert prep.fidelity > 0.5
        assert prep.fidelity == pytest.approx(0.993242621294, abs=1e-9)

    def test_full_precision_is_exact_for_k1(self):
        prep = prepare_approx_k(8, 1, truncate_bits=8)
        assert prep.fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_default_truncation_exceeds_half_fidelity(self, n):
        for k in (1, n - 1, (1 << n) - 1, (1 << (n - 1)) + 3):
            prep = prepare_approx_k(n, k)
            assert prep.fidelity > 0.5

    def test_k_reduced_mod_dimension(self):
        prep = prepare_approx_k(3, 9)
        assert prep.k == 1
        np.testing.assert_array_equal(prep.state.amps, prepare_approx_k(3, 1).state.amps)

    def test_default_truncate_bits(self):
        assert default_truncate_bits(8) == 5
        assert default_truncate_bits(100) == 9


class TestDistillK:
    def test_reference_run_n8_k5(self):
        result = distill_k(8, 5, rounds=3, truncate_bits=5)
        fids = [rec.fidelity for rec in result.trace]
        assert all(b > a for a, b in zip([result.initial_fidelity] + fids, fids)
                   if a < 1.0)
        assert result.final.error < 1e-3
        assert result.toffoli_cost == 7 * 12 == 84

    def test_round3_error_is_summed_off_target_weight(self):
        # three symmetric rounds raise every weight to the 8th power; the
        # error (4e-20) is far below the float resolution of 1 - fidelity
        result = distill_k(8, 5, rounds=3)
        w8 = spectrum_of(prepare_approx_k(8, 5).state).weights ** 8
        expected = math.fsum(np.delete(w8, 5)) / math.fsum(w8)
        assert result.final.error > 0
        assert result.final.error == pytest.approx(expected, rel=1e-12)
        assert result.final.log_error == pytest.approx(math.log(expected), rel=1e-12)

    def test_monotone_strict_until_saturation(self):
        result = distill_k(8, 5, rounds=2, truncate_bits=4)
        f0 = result.initial_fidelity
        f1, f2 = result.trace[0].fidelity, result.trace[1].fidelity
        assert f0 < f1 < f2 < 1.0 + 1e-12

    def test_fundamental_index_cross_check(self):
        # the QVR route and the doubling protocol both converge on index 1
        via_k = distill_k(10, 1, rounds=3)
        via_protocol = run_protocol_exact(10)
        assert via_k.final.error < 1e-3
        assert via_protocol.final_error < 1e-3
        assert spectrum_of(via_protocol.output_state).dominant_index() == 1

    def test_wrong_dominant_index_detected(self):
        # 1-bit quantization leaves the dominant weight at index 3, not 5
        with pytest.raises(DegenerateInputError):
            distill_k(8, 5, rounds=3, truncate_bits=1)

    def test_cost_accounting_exact(self):
        for rounds in (1, 2, 4):
            result = distill_k(6, 3, rounds=rounds)
            assert result.adders == (1 << rounds) - 1
            assert result.toffoli_cost == result.adders * (2 * 6 - 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            distill_k(8, 5, rounds=0)


class TestBitIdentity:
    @pytest.mark.parametrize("n,k", [(8, 5), (12, 2731)])
    def test_distill_k_matches_direct_form(self, n, k):
        result = distill_k(n, k, rounds=3)
        initial, trace = distill_k_reference(n, k, rounds=3)
        assert result.initial_fidelity == initial
        assert [(r.p_success, r.fidelity, r.error, r.log_error)
                for r in result.trace] == trace

    # (20, 292252) is the benchmark's arbitrary-k job at seed 1
    @pytest.mark.parametrize("n,k", [(8, 5), (12, 2731), (20, 292252)])
    def test_initial_fidelity_matches_direct_overlap(self, n, k):
        # distill_k reports this prepared fidelity as its initial_fidelity
        prep = prepare_approx_k(n, k)
        assert prep.fidelity == pytest.approx(fidelity(prep.state, n, k), rel=1e-14)

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
