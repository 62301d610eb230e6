"""Tests for Fourier-state construction, basis conversion, and series math."""
import functools
import math

import numpy as np
import pytest

from fourierdistill import (
    CapacityError,
    StateVector,
    epsilon_f_kickback,
    fidelity_threshold,
    initial_state_weight,
    pure_fourier_state,
    series_weight,
    to_fourier_basis,
)
from fourierdistill.fourier import (
    _transpose,
    _unitary_fft,
    log_fidelity_threshold,
    require_register_size,
)
from oracles import (
    alias_fold,
    approx_initial_state,
    dft_direct,
    fidelity,
    from_fourier_basis,
    qvr_phase,
    series_coefficient,
    spread_coset,
    traced_peak,
)


class TestPureFourierState:
    def test_n1_k0_is_plus(self):
        s = pure_fourier_state(1, 0)
        np.testing.assert_allclose(s.amps, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_n2_k2_alternates(self):
        s = pure_fourier_state(2, 2)
        np.testing.assert_allclose(s.amps, np.array([1, -1, 1, -1]) / 2, atol=1e-14)

    def test_n3_k1_phases_and_self_fidelity(self):
        s = pure_fourier_state(3, 1)
        expected = np.exp(2j * np.pi * np.arange(8) / 8) / math.sqrt(8)
        np.testing.assert_allclose(s.amps, expected, atol=1e-14)
        assert fidelity(s, 3, 1) == pytest.approx(1.0, abs=1e-12)

    def test_k_wraps_mod_dimension(self):
        np.testing.assert_allclose(pure_fourier_state(3, 9).amps,
                                   pure_fourier_state(3, 1).amps, atol=1e-14)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            pure_fourier_state(40, 1)

    def test_eigenstate_of_modular_increment(self):
        # incrementing the basis index multiplies the state by a global phase
        for n, k in [(3, 1), (4, 5), (6, 13)]:
            s = pure_fourier_state(n, k)
            N = s.dim
            shifted = np.empty_like(s.amps)
            shifted[(np.arange(N) + 1) % N] = s.amps
            phase = np.exp(-2j * np.pi * k / N)
            np.testing.assert_allclose(shifted, phase * s.amps, atol=1e-10)


class TestRotationAngles:
    def test_angles_reconstruct_state(self):
        # product form: qubit m (0 = most significant) carries the rotation
        # diag(1, exp(i*pi*k/2**m)) on top of |+>
        n, k = 5, 7
        amps = np.array([1.0])
        for m in range(n):
            amps = np.kron(amps, np.array([1, np.exp(1j * np.pi * k / 2 ** m)]) / math.sqrt(2))
        np.testing.assert_allclose(amps, pure_fourier_state(n, k).amps, atol=1e-12)


class TestApproxInitialState:
    def test_n2_is_z_plus_s_plus(self):
        z_plus = np.array([1, -1]) / math.sqrt(2)
        s_plus = np.array([1, 1j]) / math.sqrt(2)
        np.testing.assert_allclose(approx_initial_state(2).amps,
                                   np.kron(z_plus, s_plus), atol=1e-15)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_fidelity_at_least_081(self, n):
        assert fidelity(approx_initial_state(n), n, 1) >= 0.81

    def test_fidelity_approaches_series_limit(self):
        # |a_1|^2 decreases toward |c_1|^2 = 8/pi^2 from above
        limit = 8 / math.pi ** 2
        f10 = fidelity(approx_initial_state(10), 10, 1)
        f16 = fidelity(approx_initial_state(16), 16, 1)
        assert limit < f16 < f10
        assert f10 == pytest.approx(limit, abs=3e-6)
        assert f16 == pytest.approx(limit, abs=1e-9)

    def test_matches_phase_staircase_two_bits(self):
        # the two-bit staircase is the QVR phase of bit 0 truncated to 2 bits
        for n in (2, 5, 9):
            staircase = qvr_phase(pure_fourier_state(n, 0), 0, 2)
            np.testing.assert_allclose(staircase.amps, approx_initial_state(n).amps,
                                       atol=1e-15)


class TestBasisConversion:
    def test_pure_state_gives_delta_spectrum(self):
        coeffs = to_fourier_basis(pure_fourier_state(4, 7))
        expected = np.zeros(16)
        expected[7] = 1.0
        np.testing.assert_allclose(np.abs(coeffs), expected, atol=1e-12)

    def test_initial_state_weights_n8(self):
        w = np.abs(to_fourier_basis(approx_initial_state(8))) ** 2
        assert w[1] == pytest.approx(0.810610160468, abs=1e-9)
        assert w[256 - 3] == pytest.approx(0.090103975485, abs=1e-9)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_weights_vanish_off_support(self, n):
        w = np.abs(to_fourier_basis(approx_initial_state(n))) ** 2
        off = [j for j in range(1 << n) if j % 4 != 1]
        assert np.max(w[off]) < 1e-12

    def test_round_trip_identity_random(self):
        rng = np.random.default_rng(20240521)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            s = StateVector(raw / np.linalg.norm(raw))
            back = from_fourier_basis(to_fourier_basis(s))
            assert np.max(np.abs(back.amps - s.amps)) < 1e-10

    def test_inverse_of_delta_is_pure_state(self):
        delta = np.zeros(32, complex)
        delta[0] = 1.0
        np.testing.assert_allclose(from_fourier_basis(delta).amps,
                                   np.full(32, 1 / math.sqrt(32)), atol=1e-13)
        delta = np.zeros(32, complex)
        delta[5] = 1.0
        np.testing.assert_allclose(from_fourier_basis(delta).amps,
                                   pure_fourier_state(5, 5).amps, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_fft_matches_direct_transform(self, n):
        rng = np.random.default_rng(7 + n)
        raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        s = StateVector(raw / np.linalg.norm(raw))
        np.testing.assert_allclose(to_fourier_basis(s), dft_direct(s), atol=1e-10)

    def test_oracles_return_plain_arrays(self):
        # the same form as to_fourier_basis and the exact engine's output
        folded, _ = alias_fold(4, series_coefficient, 64)
        for coeffs in (dft_direct(approx_initial_state(4)), spread_coset(np.ones(4) / 2),
                       folded):
            assert type(coeffs) is np.ndarray and coeffs.dtype == complex
            assert coeffs.shape == (16,)

    def test_direct_transform_capped(self):
        with pytest.raises(CapacityError):
            dft_direct(pure_fourier_state(11, 0))


class TestBlockedTransform:
    """Above 2**14 points ``_unitary_fft`` is a blocked four-step FFT; up to
    there it is one pocketfft call."""

    @pytest.mark.parametrize("m", range(1, 22))
    def test_matches_numpy_within_rounding(self, m):
        # odd m exercises the R x 2R transpose, even m the square one
        N = 1 << m
        x = np.random.default_rng(m).random(2 * N).view(complex)
        reference = np.fft.fft(x)
        reference /= math.sqrt(N)
        tol = 1e-14 * np.abs(reference).max()
        # ifft(x)[j] = fft(x)[-j] / N, so the inverse needs no second reference
        buf = _unitary_fft(x.copy(), inverse=True)
        assert abs(buf[0] - reference[0]) <= tol
        assert np.abs(buf[1:] - reference[:0:-1]).max(initial=0.0) <= tol
        # inverse then forward returns x, which is numpy's forward transform
        # of the inverse to within rounding
        _unitary_fft(buf)
        buf -= x
        assert np.abs(buf).max() <= 1e-14 * np.abs(x).max()

    def test_one_pocketfft_call_up_to_the_block(self):
        rng = np.random.default_rng(14)
        for m in range(1, 15):
            N = 1 << m
            x = rng.normal(size=N) + 1j * rng.normal(size=N)
            assert np.array_equal(_unitary_fft(x.copy()), np.fft.fft(x) / math.sqrt(N))
            assert np.array_equal(_unitary_fft(x.copy(), inverse=True),
                                  np.fft.ifft(x) * math.sqrt(N))

    def test_blocked_transform_holds_no_long_temporary(self):
        # pocketfft's scratch is not traced; what is traced is the twiddle
        # tables and scratch tiles (0.17 MiB measured; 0.66 MiB with per-block
        # exponent grids and gathered factors)
        buf = np.ones(1 << 20, dtype=complex)
        _, peak = traced_peak(lambda: _unitary_fft(buf))
        assert peak <= 1 << 18
        assert buf[0] == 1 << 10 and np.abs(buf[1:]).max() < 1e-9

    @pytest.mark.parametrize("C_per_R", [1, 2])
    @pytest.mark.parametrize("R", [1 << b for b in range(1, 10)])
    def test_transpose_is_exact(self, R, C_per_R):
        # R from 2 past the tile side (64) to 512; the tiles change shape,
        # so the result is compared bit for bit
        C = C_per_R * R
        grid = np.random.default_rng(R + C).random((R, 2 * C)).view(complex)
        buf = grid.ravel().copy()
        _transpose(buf, R, C)
        assert np.array_equal(buf, np.ascontiguousarray(grid.T).ravel())


class TestSeriesCoefficients:
    def test_fundamental_weight_exact(self):
        assert abs(series_coefficient(1) - (2 - 2j) / math.pi) < 1e-15
        assert series_weight(1) == pytest.approx(8 / math.pi ** 2, abs=1e-15)

    def test_sideband_ratio_exactly_one_ninth(self):
        assert series_weight(-3) / series_weight(1) == pytest.approx(1 / 9, abs=1e-15)

    @pytest.mark.parametrize("j", [0, 2, 3, 4, -1, -2, 6, 100])
    def test_zero_off_support(self, j):
        assert series_coefficient(j) == 0

    def test_support_is_one_mod_four_signed(self):
        support = [j for j in range(-20, 21) if series_coefficient(j) != 0]
        assert support == [j for j in range(-20, 21) if j % 4 == 1]

    def test_tail_decay_exact(self):
        for j in (5, -7, 101, -1003):
            assert series_weight(j) == pytest.approx(8 / (math.pi * j) ** 2, rel=1e-14, abs=0.0)

    def test_partial_sums_monotone_to_one(self):
        # total mass over j = 1 (mod 4) is (8/pi^2) * sum over odd m of 1/m^2 = 1
        total = 0.0
        prev = 0.0
        for t in range(20000):
            total += series_weight(4 * t + 1) + series_weight(-(4 * t + 3))
            assert total > prev
            assert total < 1.0
            prev = total
        assert total == pytest.approx(1.0, abs=2e-5)


@pytest.fixture(scope="module")
def staircase_fold():
    """``alias_fold`` of the staircase series at j_max = 2**18, once per n."""
    return functools.cache(lambda n: alias_fold(n, series_coefficient, 1 << 18))


class TestAliasFold:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_cross_validates_against_direct_spectrum(self, staircase_fold, n):
        # The fold reproduces the series (midpoint) convention; against the
        # right-limit-sampled state the weights agree at the O(1/N) scale,
        # quartering with every added qubit pair.
        N = 1 << n
        folded, tail = staircase_fold(n)
        direct = np.abs(to_fourier_basis(approx_initial_state(n))) ** 2
        diff = np.max(np.abs(np.abs(folded) ** 2 - direct))
        assert diff < 2.5 / N
        assert diff > 0.5 / N  # the convention gap is real, not a tolerance slack
        assert 0 <= tail < 1e-3

    def test_matches_cotangent_closed_form(self, staircase_fold):
        # the full aliasing class sums to (2-2i)/N * cot(pi j / N); j_max
        # truncation limits the comparison, not the fold arithmetic
        n, N = 8, 256
        folded, _ = staircase_fold(n)
        for signed_j in (1, 5, -3, -7):
            ratio = folded[signed_j % N] / folded[1]
            exact = math.tan(math.pi / N) / math.tan(math.pi * signed_j / N)
            assert ratio.imag == pytest.approx(0.0, abs=1e-9)
            assert ratio.real == pytest.approx(exact, abs=1e-4)

    def test_delta_series(self):
        folded, tail = alias_fold(6, lambda j: 1.0 if j == 1 else 0.0, 64)
        assert abs(folded[1]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert tail == pytest.approx(0.0, abs=1e-12)

    def test_fold_arithmetic_brute_force(self):
        # n=4: index 13 aliases the signed harmonics -3, 13, -19, 29, ...
        j_max = 10_000
        folded, _ = alias_fold(4, series_coefficient, j_max)
        expected = sum(series_coefficient(16 * x + 13)
                       for x in range(-(j_max // 16) - 1, j_max // 16 + 2)
                       if abs(16 * x + 13) <= j_max)
        norm = math.sqrt(sum(
            abs(sum(series_coefficient(16 * x + j)
                    for x in range(-(j_max // 16) - 1, j_max // 16 + 2)
                    if abs(16 * x + j) <= j_max)) ** 2
            for j in range(16)))
        assert folded[13] == pytest.approx(expected / norm, abs=1e-12)
        # the in-window harmonic at +13 measurably shifts the class total
        # away from the dominant -3 term (they carry opposite signs)
        assert abs(expected - series_coefficient(-3)) > abs(series_coefficient(13)) / 2

    def test_rejects_small_window(self):
        with pytest.raises(ValueError):
            alias_fold(6, series_coefficient, 32)


class TestFidelity:
    def test_pure_self(self):
        assert fidelity(pure_fourier_state(4, 1), 4, 1) == pytest.approx(1.0, abs=1e-12)

    def test_initial_state_n8(self):
        assert fidelity(approx_initial_state(8), 8, 1) >= 0.81

    def test_orthogonal_states(self):
        uniform = pure_fourier_state(3, 0)
        assert fidelity(uniform, 3, 1) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(pure_fourier_state(3, 0), 4, 1)


class TestFidelityThreshold:
    def test_single_qubit(self):
        assert fidelity_threshold(1) == pytest.approx(1.0, abs=1e-15)

    def test_n5(self):
        assert fidelity_threshold(5) == pytest.approx(9.60736e-3, rel=1e-5, abs=0.0)

    def test_small_angle_regime(self):
        thr = fidelity_threshold(10)
        approx = (math.pi / 2 ** 10) ** 2
        assert thr == pytest.approx(9.41e-6, rel=1e-2, abs=0.0)
        assert abs(thr - approx) / approx < 0.01

    def test_twice_the_kickback_truncation(self):
        # sin^2(2x) = 2 cos^2(x) * (sqrt(2) sin(x))**2 at x = pi / 2**(n + 1)
        for n in range(2, 60):
            truncation = epsilon_f_kickback(n - 1) ** 2
            assert fidelity_threshold(n) == pytest.approx(
                2 * math.cos(math.pi / 2 ** (n + 1)) ** 2 * truncation, rel=1e-15, abs=0.0)

    def test_log_form_consistent(self):
        for n in (3, 10, 30, 50):
            assert log_fidelity_threshold(n) == pytest.approx(
                math.log(fidelity_threshold(n)), rel=1e-12, abs=0.0)
        # far beyond float range of sin^2 underflow concerns
        assert log_fidelity_threshold(100) == pytest.approx(
            2 * (math.log(math.pi) - 100 * math.log(2)), rel=1e-14, abs=0.0)


class TestClosedFormWeights:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_matches_dft(self, n):
        w = np.abs(to_fourier_basis(approx_initial_state(n))) ** 2
        for j in range(1 << n):
            assert initial_state_weight(n, j) == pytest.approx(w[j], abs=1e-12)

    def test_signed_index_and_huge_register(self):
        assert initial_state_weight(8, -3) == pytest.approx(
            initial_state_weight(8, 253), rel=1e-14, abs=0.0)
        # approaches the series weight for astronomically large registers
        assert initial_state_weight(100, -3) == pytest.approx(series_weight(-3), rel=1e-10,
                                                              abs=0.0)

    def test_weights_past_float_range_are_zero(self):
        # (pi*j)**2 overflows from |j| ~ 2**511, and float(j) itself from 2**1024
        for j in (2 ** 600 + 1, 2 ** 1024 + 1, 1 - 2 ** 1100):
            assert series_weight(j) == 0.0
            assert initial_state_weight(5000, j) == 0.0  # the series weight, unbuilt N
        # N sin(pi m/N) = pi * 2**601 overflows when squared
        assert initial_state_weight(1200, 2 ** 600 + 1) == 0.0
        # a small register folds j back into float range
        assert initial_state_weight(8, 2 ** 600 + 1) == initial_state_weight(8, 1)

    def test_huge_register_is_the_series_weight_without_building_2_to_the_n(self):
        # 1 << 10**400 raises OverflowError and 1 << 10**11 is a 12.5 GB int
        for n in (10 ** 11, 10 ** 400):
            for j in (-3, 1, 5, 2 ** 600 + 1):
                assert initial_state_weight(n, j) == series_weight(j)
        # either side of the shortcut's threshold n = bit_length(|j|) + 1000
        for j in (1, -3, 2 ** 40 + 1, -(2 ** 300) + 1):
            bound = abs(j).bit_length() + 1000
            assert initial_state_weight(bound, j) == initial_state_weight(bound + 1, j) \
                == series_weight(j)


class TestValidationAndSerialization:
    def test_state_requires_normalization(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(4, complex))

    def test_state_requires_power_of_two(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(3, complex) / math.sqrt(3))

    def test_amps_are_read_only(self):
        s = pure_fourier_state(3, 1)
        with pytest.raises(ValueError):
            s.amps[0] = 0.0

    def test_constructor_does_not_alias_the_callers_array(self):
        # a complex ndarray is adopted and frozen in place ...
        arr = np.full(4, 0.5, dtype=complex)
        assert StateVector(arr).amps is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
        # ... anything else is converted, leaving the caller's object alone ...
        for given in ([0.5] * 4, np.full(4, 0.5)):
            stored = StateVector(given).amps
            assert stored is not given and stored.dtype == complex
            assert np.array_equal(stored, np.full(4, 0.5))
            assert not stored.flags.writeable
        assert given.flags.writeable
        # ... so a caller who keeps writing to an array passes a copy
        mine = np.full(4, 0.5, dtype=complex)
        stored = StateVector(mine.copy()).amps
        mine[0] = 0.0
        assert mine.flags.writeable
        assert np.array_equal(stored, np.full(4, 0.5))

    def test_to_fourier_basis_returns_a_new_read_only_array(self):
        s = approx_initial_state(4)
        amps = s.amps.copy()
        coeffs = to_fourier_basis(s)
        assert isinstance(coeffs, np.ndarray) and coeffs.dtype == complex
        assert not np.shares_memory(coeffs, s.amps)
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 0.0
        assert np.array_equal(s.amps, amps)

    def test_amplitude_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("FOURIERDISTILL_AMP_CAP", "4")
        with pytest.raises(CapacityError):
            pure_fourier_state(5, 1)
        assert pure_fourier_state(4, 1).n == 4


@pytest.mark.parametrize("call, fragment", [
    (lambda: require_register_size(0), "--n 0 is below 1: a register needs at least one qubit"),
    (lambda: alias_fold(2, lambda j: 0j, 4), "series is zero on the truncation window"),
    (lambda: fidelity_threshold(0), "n must be positive"),
    (lambda: log_fidelity_threshold(0), "n must be positive"),
], ids=["register-size", "zero-series", "threshold-n", "log-threshold-n"])
def test_invalid_input_raises(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
