"""Tests for QVR preparation and arbitrary-index distillation."""
import math

import numpy as np
import pytest

from fourierdistill import (
    DegenerateInputError,
    FourierAmplitudes,
    default_truncate_bits,
    distill_k,
    prepare_approx_k,
    pure_fourier_state,
    qvr_phase,
    ResourceReport,
    StateVector,
    run_protocol_exact,
    to_fourier_basis,
)
from fourierdistill.cli import main
from oracles import (
    counted_transforms,
    distill_k_reference,
    fidelity,
    qvr_state_reference,
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
        np.testing.assert_allclose(to_fourier_basis(shifted).weights(),
                                   np.roll(to_fourier_basis(s).weights(), 4), atol=1e-12)

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
        np.testing.assert_allclose(prep.coefficients.coeffs,
                                   to_fourier_basis(pure_fourier_state(8, 0)).coeffs, atol=1e-13)

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
        np.testing.assert_array_equal(prep.coefficients.coeffs,
                                      prepare_approx_k(3, 1).coefficients.coeffs)

    def test_default_truncate_bits(self):
        assert default_truncate_bits(8) == 5
        assert default_truncate_bits(100) == 9

    def test_default_truncate_bits_needs_a_register(self):
        # prepare_approx_k checks the register size first, so only a direct call gets here
        with pytest.raises(ValueError, match="n must be positive"):
            default_truncate_bits(0)


class TestDistillK:
    def test_reference_run_n8_k5(self):
        prep = prepare_approx_k(8, 5, 5)
        result = distill_k(prep, rounds=3)
        fids = [rec.fidelity for rec in result.rounds]
        assert all(b > a for a, b in zip([prep.fidelity] + fids, fids) if a < 1.0)
        assert result.final_error < 1e-3
        assert ResourceReport(result.schedule).toffoli_deterministic == 7 * 12 == 84

    def test_round3_error_is_summed_off_target_weight(self):
        # three symmetric rounds raise every weight to the 8th power; the
        # error (4e-20) is far below the float resolution of 1 - fidelity
        prep = prepare_approx_k(8, 5)
        result = distill_k(prep, rounds=3)
        w8 = prep.coefficients.weights() ** 8
        expected = math.fsum(np.delete(w8, 5)) / math.fsum(w8)
        assert result.final.error > 0
        assert result.final.error == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert result.final.log_error == pytest.approx(math.log(expected), rel=1e-12, abs=0.0)

    def test_monotone_strict_until_saturation(self):
        prep = prepare_approx_k(8, 5, truncate_bits=4)
        result = distill_k(prep, rounds=2)
        f1, f2 = result.rounds[0].fidelity, result.rounds[1].fidelity
        assert prep.fidelity < f1 < f2 < 1.0 + 1e-12

    def test_fundamental_index_cross_check(self):
        # the QVR route and the doubling protocol both converge on index 1
        via_k = distill_k(prepare_approx_k(10, 1), rounds=3)
        via_protocol = run_protocol_exact(10)
        assert via_k.final_error < 1e-3
        assert via_protocol.final_error < 1e-3
        assert via_k.final.output.weights().argmax() == 1
        assert via_protocol.final.output.weights().argmax() == 1

    def test_wrong_dominant_index_detected(self):
        # 1-bit quantization leaves the dominant weight at index 3, not 5
        with pytest.raises(DegenerateInputError):
            distill_k(prepare_approx_k(8, 5, truncate_bits=1), rounds=3)

    def test_cost_accounting_exact(self):
        # the tree of R full-width rounds holds 2**R - 1 adders of 2n - 4 Toffolis
        prep = prepare_approx_k(6, 3)
        for rounds in (1, 2, 4):
            result = distill_k(prep, rounds=rounds)
            assert result.schedule.sizes == (6,) * rounds
            assert len(result.rounds) == rounds
            cost = ResourceReport(result.schedule)
            assert sum(cost.adders) == (1 << rounds) - 1
            assert cost.toffoli_deterministic == ((1 << rounds) - 1) * (2 * 6 - 4)

    def test_prepared_state_is_left_unchanged(self):
        prep = prepare_approx_k(8, 5)
        before = np.array(prep.coefficients.coeffs)
        distill_k(prep, rounds=3)
        assert np.array_equal(prep.coefficients.coeffs, before)

    def test_one_transform(self, monkeypatch):
        # the QVR state is transformed once; full-width rounds stay in the
        # Fourier basis
        calls = counted_transforms(monkeypatch)
        distill_k(prepare_approx_k(12, 2731), rounds=3)
        assert calls == [(1 << 12, False)]

    def test_validation(self):
        with pytest.raises(ValueError):
            distill_k(prepare_approx_k(8, 5), rounds=0)

    def test_cli_run_builds_no_weight_array(self, monkeypatch, capsys):
        # the initial fidelity and the dominance check read the coefficients
        # directly, so arbitrary-k squares no 2**n weight array
        calls = []
        weights = FourierAmplitudes.weights

        def counted(self):
            calls.append(self.dim)
            return weights(self)

        monkeypatch.setattr(FourierAmplitudes, "weights", counted)
        assert main(["arbitrary-k", "--n", "8", "--k", "5"]) == 0
        capsys.readouterr()
        assert calls == []


class TestBitIdentity:
    @pytest.mark.parametrize("n,k", [(8, 5), (12, 2731)])
    def test_distill_k_matches_direct_form(self, n, k):
        prep = prepare_approx_k(n, k)
        result = distill_k(prep, rounds=3)
        initial, trace = distill_k_reference(n, k, rounds=3)
        assert prep.fidelity == initial
        assert [(r.p_success, r.fidelity, r.error, r.log_error)
                for r in result.rounds] == trace

    # (20, 292252) is the benchmark's arbitrary-k job at seed 1
    @pytest.mark.parametrize("n,k", [(8, 5), (12, 2731), (20, 292252)])
    def test_initial_fidelity_matches_direct_overlap(self, n, k):
        # arbitrary-k reports this prepared fidelity as its initial_fidelity
        prep = prepare_approx_k(n, k)
        direct = StateVector(qvr_state_reference(n, k, prep.truncate_bits))
        assert prep.fidelity == pytest.approx(fidelity(direct, n, k), rel=1e-14, abs=0.0)

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
