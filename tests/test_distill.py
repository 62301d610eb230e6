"""Tests for the distillation step, schedules, and both protocol engines.

Expected values marked "frozen" were computed with an independent dense
oracle (direct amplitude construction, numpy FFT, literal tensor products)
before this module existed.
"""
import ast
import dataclasses
import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierdistill import (
    CapacityError,
    DistillationOutcome,
    PrecisionWarning,
    ProtocolSchedule,
    SparseSpectrum,
    StateVector,
    distill_k,
    plan_schedule,
    pure_fourier_state,
    rounds_required,
    run_protocol_exact,
    run_protocol_sparse,
    sparse_extend,
    sparse_symmetric_round,
    to_fourier_basis,
)
from fourierdistill import fourier
from fourierdistill.cli import main
from fourierdistill.distill import (
    _EXTEND_BLOCK,
    _exact_rounds,
    _extend_coset,
    _postselect,
    log_extension_kernel,
)
from oracles import (
    _amplitude_round,
    _signed_index,
    approx_initial_state,
    counted_transforms,
    exact_protocol_reference,
    extend_register,
    fidelity,
    from_fourier_basis,
    initial_sparse_spectrum,
    log_extension_kernel_reference,
    output_state,
    predicted_log_error,
    rounds_required_simplified,
    sparse_extend_reference,
    sparse_protocol_mp,
    sparse_spectrum,
    sparse_weight,
    sparse_weights,
    spread_coset,
    squared_weights,
    traced_peak,
)


def kernel_weights(n_coarse, n_fine, j, m):
    """Linear zero-order-hold weights of fine harmonics j + 2**n_coarse * m."""
    return np.exp(log_extension_kernel(n_coarse, n_fine, [j], np.asarray(m)))[0]


def delta_coeffs(n, k):
    c = np.zeros(1 << n, dtype=complex)
    c[k % (1 << n)] = 1.0
    return c


def initial_coeffs(n):
    """Fourier coefficients of the approximate initial state."""
    return to_fourier_basis(approx_initial_state(n))


def one_round(n):
    """The exact engine's run of one symmetric round at size n, from its
    2-qubit start: plan_schedule's single-round case, as ``simulate``
    predicts."""
    return run_protocol_exact(n, s0=n, pad=0)


def sparse_start():
    """The sparse engine's start: the 2-qubit index-1 Fourier state."""
    return sparse_spectrum(2, {1: 0.0})


class TestDistillPair:
    """One distillation step, as the exact engine runs it."""

    def test_two_deltas_at_target(self):
        (out,), output = _exact_rounds(delta_coeffs(4, 1), 16, (4,), 1)
        assert out.p_success == pytest.approx(1.0, abs=1e-12)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        assert abs(output[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_success_probability_converges_to_two_thirds(self):
        # Sum over odd m of 1/m^4 = pi^4/96 makes the limit exactly 2/3
        p12 = one_round(12).final.p_success
        p16 = one_round(16).final.p_success
        assert p12 == pytest.approx(2 / 3, abs=4e-7)
        assert p16 == pytest.approx(2 / 3, abs=2e-9)
        assert abs(p16 - 2 / 3) < abs(p12 - 2 / 3)

    def test_symmetric_fidelity_converges_to_limit(self):
        # |c_1|^4 / (2/3) = 96/pi^4
        limit = 96 / math.pi ** 4
        out = one_round(16).final
        assert out.fidelity == pytest.approx(limit, abs=1e-9)
        assert out.fidelity <= 0.986

    def test_amplitude_route_matches_weight_route(self):
        out_amp = one_round(6)
        p_w, weights_w = squared_weights(np.abs(initial_coeffs(6)) ** 2)
        assert out_amp.final.p_success == pytest.approx(p_w, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(np.abs(spread_coset(out_amp.output)) ** 2, weights_w,
                                   rtol=0.0, atol=1e-12)

    def test_step_is_one_exact_engine_round(self):
        # the full-length round (distill_k's route) is the direct form of one
        # step: both square the same coefficients and sum the same weights
        coeffs = initial_coeffs(8)
        (engine,), _ = _exact_rounds(np.array(coeffs), 1 << 8, (8,), 1)
        (p, fid, err, log_err), _ = _amplitude_round(coeffs, 1)
        assert (p, fid, err, log_err) == (
            engine.p_success, engine.fidelity, engine.error, engine.log_error)

    def test_error_complements_fidelity(self):
        out = one_round(8).final
        assert out.error + out.fidelity == pytest.approx(1.0, abs=1e-12)


def after_rounds(n, r):
    """Weights after r symmetric rounds at fixed register size n, on the
    exact engine's coset from its 2-qubit start."""
    buf = np.zeros(1 << (n - 2), dtype=complex)
    buf[0] = 1
    return np.abs(spread_coset(_exact_rounds(buf, 1, (n,) * r, 1, stride=4)[1])) ** 2


class TestRepeatedSymmetric:
    def test_single_round_agrees_with_step(self):
        # r rounds raise every weight to the power 2**r, then renormalize
        w = np.abs(initial_coeffs(8)) ** 2
        for r in (1, 2, 3):
            power = w ** (2 ** r)
            np.testing.assert_allclose(after_rounds(8, r), power / power.sum(),
                                       atol=1e-12)

    @pytest.mark.parametrize("r,target", [(1, 1 / 81), (2, 9.0 ** -4), (3, 9.0 ** -8)])
    def test_error_tracks_ninth_power_law(self, r, target):
        out = after_rounds(16, r)
        eps = 1.0 - out[1]
        assert target / 2 < eps < target * 2

    def test_frozen_error_values_n16(self):
        # frozen from the independent dense oracle
        assert 1 - after_rounds(16, 2)[1] == pytest.approx(1.551550e-4, rel=1e-5, abs=0.0)
        assert 1 - after_rounds(16, 3)[1] == pytest.approx(2.323716e-8, rel=1e-5, abs=0.0)

    def test_large_round_count_stays_finite(self):
        out = after_rounds(10, 8)
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(out).all()


class TestExtendRegister:
    def test_plus_states_extend_to_index_zero(self):
        ext = extend_register(pure_fourier_state(3, 0), 6)
        np.testing.assert_allclose(ext.amps, pure_fourier_state(6, 0).amps, atol=1e-13)

    def test_pure_fundamental_extension_error_frozen(self):
        # frozen: fidelity 0.996794491447, about a third of sin^2(pi/2^5)
        ext = extend_register(pure_fourier_state(5, 1), 10)
        overlap = abs(np.vdot(pure_fourier_state(10, 1).amps, ext.amps)) ** 2
        assert overlap == pytest.approx(0.996794491447, abs=1e-10)
        assert 1 - overlap <= 0.5 * math.sin(math.pi / 32) ** 2

    def test_same_size_is_identity(self):
        s = approx_initial_state(4)
        assert extend_register(s, 4) is s

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError):
            extend_register(approx_initial_state(5), 4)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            extend_register(approx_initial_state(5), 40)


class TestExtendCoset:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_full_extension_on_the_coset(self, n, d):
        # c[1::4] of the approximate initial state, then grown by d qubits,
        # against the literal extension transformed at full length
        state = approx_initial_state(n)
        coset = to_fourier_basis(state)[1::4]
        full = to_fourier_basis(extend_register(state, n + d))
        buf = np.zeros(len(full), dtype=complex)
        buf[:len(coset)] = coset
        grown = _extend_coset(buf, len(coset), n + d, 4, 1)
        assert grown.base is buf and len(grown) == len(full) // 4
        np.testing.assert_allclose(grown, full[1::4], rtol=0.0, atol=1e-15)
        # the other three quarters hold no weight
        assert np.abs(np.delete(full, np.s_[1::4])).max() <= 1e-15

    def test_blocked_outer_product_matches_one_outer_product(self):
        # 2**12 coefficients grown 16-fold fill four blocks, each writing over
        # entries of h that the blocks above it have already read
        rng = np.random.default_rng(12)
        coset = rng.normal(size=1 << 12) + 1j * rng.normal(size=1 << 12)
        buf = np.zeros(1 << 16, dtype=complex)
        buf[:len(coset)] = coset
        grown = _extend_coset(buf, len(coset), 18, 4, 1)
        twiddle = np.exp(np.arange(16) * (-2j * np.pi / (1 << 18)))
        twiddle /= math.sqrt(16)
        h = fourier._unitary_fft(coset.copy(), inverse=True)
        expected = fourier._unitary_fft(np.multiply.outer(h, twiddle).ravel())
        assert np.array_equal(grown, expected)

    def test_long_twiddle_row_matches_one_outer_product(self):
        # growth by 2**15 builds each row's twiddle in two pieces of 2**14
        # columns, with the same np.exp per element as one full-length row
        coset = np.array([0.6, 0.8j])
        buf = np.zeros(1 << 16, dtype=complex)
        buf[:2] = coset
        grown = _extend_coset(buf, 2, 18, 4, 1)
        twiddle = np.exp(np.arange(1 << 15) * (-2j * np.pi / (1 << 18)))
        twiddle /= math.sqrt(1 << 15)
        h = fourier._unitary_fft(coset.copy(), inverse=True)
        expected = fourier._unitary_fft(np.multiply.outer(h, twiddle).ravel())
        assert np.array_equal(grown, expected)

    def test_stride_one_is_the_plus_append(self):
        coeffs = initial_coeffs(4)
        buf = np.zeros(1 << 7, dtype=complex)
        buf[:len(coeffs)] = coeffs
        grown = _extend_coset(buf, len(coeffs), 7, 1, 0)
        assert grown.base is buf and len(grown) == len(buf)
        full = to_fourier_basis(extend_register(approx_initial_state(4), 7))
        np.testing.assert_allclose(grown, full, rtol=0.0, atol=1e-15)


class TestSpreadCoset:
    """The oracle that spreads an exact-engine coset back to every index,
    through which the full-length comparisons read the engine's output."""

    @pytest.mark.parametrize("r", range(4))
    @pytest.mark.parametrize("length", [1, 1 << 13, 1 << 14, 1 << 15])
    def test_matches_a_strided_copy(self, r, length):
        # distinct nonzero entries, normalized, a coset of length 1 included
        stride = 4
        rng = np.random.default_rng(length + r)
        coset = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        coset /= np.linalg.norm(coset)
        coeffs = spread_coset(coset, stride, r)
        assert len(coeffs) == stride * length
        assert coeffs[r::stride].tobytes() == coset.tobytes()
        assert not np.delete(coeffs, np.s_[r::stride]).any()


class TestExtensionKernel:
    @pytest.mark.parametrize("j", [1, -3, 5, 11])
    def test_matches_dense_extension_spectrum(self, j):
        # acceptance oracle for the kernel: DFT of the literally extended state
        s, n_new = 5, 10
        dense = np.abs(to_fourier_basis(extend_register(pure_fourier_state(s, j), n_new))) ** 2
        Nf = 1 << n_new
        offsets = np.arange(-16, 16)
        for m, kernel in zip(offsets, kernel_weights(s, n_new, j, offsets)):
            jf = j + (1 << s) * int(m)
            assert kernel == pytest.approx(dense[jf % Nf], abs=1e-12)

    def test_class_weights_sum_to_one(self):
        s, n_new = 4, 9
        for j in (1, -3, 7):
            total = sum(kernel_weights(s, n_new, j, np.arange(1 << (n_new - s))))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_underflowed_coarse_frequency_is_past_the_size_limit(self):
        # j / 2**1100 underflows to 0.0: the kernel refuses it rather than
        # weigh nonzero harmonics as a class of j = 0
        with pytest.raises(ValueError, match="past the sparse engine's size limit"):
            log_extension_kernel(1100, 1101, [1, 3], np.arange(-1.0, 1.0))

    @pytest.mark.parametrize("n", [3, 53, 54, 64, 300, 1022])
    def test_coarse_frequencies_are_exact_quotients(self, n):
        # up to n = 1022 the kernel scales float(j) by 2**-n: float(j) is
        # correctly rounded and the scaled value is normal, so it is j / 2**n
        # bit for bit, also where j has 54 or more significant bits and rounds
        rng = random.Random(n)
        half = 1 << (n - 1)
        js = [half, -half, half - 1, 1 - half, 1, -1]
        js += [rng.choice((1, -1)) * rng.randrange(1, half) for _ in range(200)]
        if n > 56:  # halfway down to even, 55 bits rounding up, halfway up to even
            js += [(1 << 53) + 1, -((1 << 54) + 3), (1 << 55) + 12]
        exact = np.array([j / (1 << n) for j in js])
        assert np.array_equal(np.ldexp(np.array(js, dtype=float), -n), exact)
        m = np.arange(-8.0, 8.0)
        assert np.array_equal(log_extension_kernel(n, n + 4, js, m),
                              log_extension_kernel_reference(n, n + 4, js, m))

    def test_dominant_member_is_original_index(self):
        offsets = np.arange(-16, 16)
        members = dict(zip(offsets.tolist(), kernel_weights(5, 10, 1, offsets)))
        assert max(members, key=members.get) == 0
        assert members[0] == pytest.approx(0.996794491447, abs=1e-10)


class TestSparseSpectrum:
    def test_initial_matches_dense_weights(self):
        sp = sparse_extend(sparse_start(), 6)
        dense = np.abs(initial_coeffs(6)) ** 2
        assert len(sp) == 16
        for j, w in sparse_weights(sp).items():
            assert w == pytest.approx(dense[j % 64], rel=1e-12, abs=0.0)
        assert math.exp(sp.log_tail) == 0.0

    def test_initial_truncation_tracks_tail(self):
        sp = sparse_extend(sparse_start(), 10, max_harmonics=16)
        assert len(sp) == 16
        assert math.exp(sp.log_tail) > 0
        total = sum(sparse_weights(sp).values()) + math.exp(sp.log_tail)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_start_extends_to_the_closed_form(self):
        # the engine's 2-qubit start, extended, is the initial state's spectrum
        for n in (2, 3, 5, 10, 20, 39):
            for budget in (1, 4, 16, 512, 4096):
                sp = sparse_extend(sparse_start(), n, budget)
                ref = initial_sparse_spectrum(n, budget)
                assert sp.indices == ref.indices
                np.testing.assert_allclose(sp.log_weights, ref.log_weights, rtol=0, atol=1e-14)
                if ref.log_tail == -math.inf:
                    assert sp.log_tail == -math.inf
                else:
                    assert sp.log_tail == pytest.approx(ref.log_tail, rel=0, abs=1e-9)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            sparse_spectrum(4, {1: math.log(0.5)})

    def test_mapping_is_stored_in_descending_weight_order(self):
        sp = sparse_spectrum(4, {3: math.log(0.25), 1: math.log(0.5), 18: math.log(0.25)})
        assert sp.indices == (1, 3, 2)
        assert sp.indices[0] == 1
        assert sparse_weight(sp, 18) == pytest.approx(0.25, rel=1e-15, abs=0.0)
        assert sparse_weight(sp, 5) == 0.0
        with pytest.raises(ValueError):
            sparse_spectrum(4, {1: math.log(0.5), 17: math.log(0.5)})

    def test_only_the_engine_builds_spectra(self):
        # no public constructor, and no module but the engine's calls _ordered
        with pytest.raises(TypeError):
            SparseSpectrum(2, {1: 0.0})
        src = Path(__file__).resolve().parent.parent / "src" / "fourierdistill"
        callers = {path.name for path in src.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call)
                   and ast.unparse(node.func).endswith("SparseSpectrum._ordered")}
        assert callers == {"distill.py"}

    def test_signed_index_canonicalization(self):
        assert _signed_index(29, 32) == -3
        assert _signed_index(16, 32) == 16
        assert _signed_index(17, 32) == -15
        assert _signed_index(3, 32) == 3

    def test_sparse_round_matches_dense(self):
        sp = initial_sparse_spectrum(8)
        out, spectrum = sparse_symmetric_round(sp)
        dense = one_round(8)
        assert out.p_success == pytest.approx(dense.final.p_success, abs=1e-12)
        assert out.fidelity == pytest.approx(dense.final.fidelity, abs=1e-12)
        dense_weights = np.abs(spread_coset(dense.output)) ** 2
        for j, w in sparse_weights(spectrum).items():
            assert w == pytest.approx(dense_weights[j % 256], rel=1e-9, abs=1e-15)

    def test_sparse_extend_matches_dense_route(self):
        # per-weight cross-validation at (5 -> 10), the kernel's oracle
        sp = sparse_extend(initial_sparse_spectrum(5), 10)
        dense = np.abs(to_fourier_basis(extend_register(approx_initial_state(5), 10))) ** 2
        for j in range(1 << 10):
            assert sparse_weight(sp, j) == pytest.approx(dense[j], abs=1e-6)
        assert math.exp(sp.log_tail) < 1e-12

    def test_sparse_extend_delta_at_one(self):
        out = sparse_extend(sparse_spectrum(5, {1: 0.0}), 10)
        assert out.indices[0] == 1
        assert sparse_weight(out, 1) == pytest.approx(0.996794491447, abs=1e-9)
        # sidebands appear at 1 +/- 32 m
        assert sparse_weight(out, 1 - 32) > 0
        assert sparse_weight(out, 1 + 32) > 0

    def test_sparse_extend_ties_keep_class_then_member_order(self):
        # 1 and -1 mirror each other: every kernel weight of one class ties
        # with a weight of the other, also at the budget cut
        sp = sparse_spectrum(4, {1: math.log(0.5), -1: math.log(0.5)})
        assert sparse_extend(sp, 8, max_harmonics=3).indices == (1, -1, -15)
        wider = sparse_extend(sp, 8, max_harmonics=4)
        assert wider.indices == (1, -1, -15, 15)
        assert sparse_weight(wider, 15) == sparse_weight(wider, -15)

    def test_sparse_extend_budget_prunes_into_tail(self):
        sp = sparse_extend(initial_sparse_spectrum(5), 16, max_harmonics=64)
        assert len(sp) <= 64
        assert math.exp(sp.log_tail) > 0
        total = sum(sparse_weights(sp).values()) + math.exp(sp.log_tail)
        assert total == pytest.approx(1.0, abs=1e-9)


@st.composite
def sparse_extension_inputs(draw):
    """A complete spectrum of nonzero indices on n0 <= 6 qubits, a target size
    and a budget."""
    n0 = draw(st.integers(1, 6))
    N = 1 << n0
    support = draw(st.lists(st.integers(-(N // 2) + 1, N // 2).filter(bool), min_size=1,
                            max_size=min(N - 1, 16), unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(support), max_size=len(support)))
    total = sum(raw)
    sp = sparse_spectrum(n0, {j: math.log(w / total) for j, w in zip(support, raw)})
    return sp, n0 + draw(st.integers(1, 11)), draw(st.integers(1, 32))


class TestSparseTailBound:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sparse_extension_inputs())
    def test_extension_against_dense_route(self, inputs):
        sp, n_new, budget = inputs
        out = sparse_extend(sp, n_new, max_harmonics=budget)
        assert_same_spectrum(out, sparse_extend_reference(sp, n_new, budget))
        N, Nf = 1 << sp.n, 1 << n_new
        coeffs = np.zeros(N)
        for j, w in sparse_weights(sp).items():
            coeffs[j % N] = math.sqrt(w)
        dense = np.abs(to_fourier_basis(extend_register(from_fourier_basis(coeffs), n_new))) ** 2
        for j, w in sparse_weights(out).items():
            assert w == pytest.approx(dense[j % Nf], rel=1e-9, abs=0.0)
        # the mass really missing lies in the input's classes, off the kept set
        fine = np.arange(Nf)
        in_class = np.isin(fine % N, [j % N for j in sp.indices])
        kept = np.zeros(Nf, dtype=bool)
        kept[[j % Nf for j in out.indices]] = True
        missing = dense[in_class & ~kept].sum()
        assert missing <= math.exp(out.log_tail) * (1 + 1e-9)
        total = sum(sparse_weights(out).values()) + math.exp(out.log_tail)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n0,d,j", [(40, 10, 1), (60, 12, -3), (30, 8, 5)])
    def test_unresolvable_class_remainder_is_bounded(self, n0, d, j):
        # a class whose out-of-span remainder is below float resolution takes
        # the edge-kernel fallback; the truth is summed over the whole class
        out = sparse_extend(sparse_spectrum(n0, {j: 0.0}), n0 + d, max_harmonics=4)
        with mpmath.workdps(40):
            Ns, Nf = mpmath.mpf(2) ** n0, mpmath.mpf(2) ** (n0 + d)
            num = mpmath.sin(mpmath.pi * j / Ns) ** 2 / mpmath.mpf(4) ** d
            kernel = {m: num / mpmath.sin(mpmath.pi * (j + Ns * m) / Nf) ** 2
                      for m in range(-(1 << (d - 1)), 1 << (d - 1))}
            out_of_span = sum(w for m, w in kernel.items() if not -8 <= m < 8)
            kept = set(out.indices)
            missing = sum(w for m, w in kernel.items() if j + (1 << n0) * m not in kept)
            ratio = float(missing / mpmath.exp(out.log_tail))
        assert out_of_span < 1e-13
        assert 0.96 < ratio < 0.97


def assert_same_spectrum(out, ref):
    assert out.n == ref.n
    assert np.array_equal(out.log_weights, ref.log_weights)
    assert out.indices == ref.indices
    assert out.log_tail == ref.log_tail


def assert_extends_as_reference(sp, n_new, budget):
    """``sparse_extend`` against its direct form, bit for bit, and its tail
    within 4 ulps of the pruned mass summed in one piece; log-sum-exp errors
    are absolute in log space, so below |log_tail| = 1 the ulps are those of 1."""
    out = sparse_extend(sp, n_new, budget)
    assert_same_spectrum(out, sparse_extend_reference(sp, n_new, budget))
    whole = sparse_extend_reference(sp, n_new, budget, blocked=False).log_tail
    assert out.log_tail == whole or (
        abs(out.log_tail - whole) <= 4 * math.ulp(max(abs(whole), 1.0)))
    return out


class TestSparseExtendBitIdentity:
    """``sparse_extend`` gives the floats of its direct form bit for bit."""

    # n = 300 extends 2 -> 5 and 5 -> 10 (whole classes), 10 -> 20 and 20 -> 40 (exact
    # class deficits), 40 -> 80 (both remainders) and 80 -> 160 -> 302 (the
    # lobe bound on every class); the full spectra of the last steps take
    # 4 (budget 4096) and 8 (budget 16384) row blocks
    @pytest.mark.parametrize("budget", [4096, 16384])
    def test_schedule_extensions(self, budget):
        sp = sparse_start()
        for size in plan_schedule(300).sizes:
            out = assert_extends_as_reference(sp, size, budget)
            _, sp = sparse_symmetric_round(out)

    @pytest.mark.parametrize("budget", [3, 4])
    def test_weight_tie_at_the_cut(self, budget):
        sp = sparse_spectrum(4, {1: math.log(0.5), -1: math.log(0.5)})
        assert_extends_as_reference(sp, 8, budget)

    @pytest.mark.parametrize("budget,kept", [(1, (1,)), (3, (1, -1, 3)), (16, None)])
    def test_row_blocks_split_a_tie_at_the_cut(self, budget, kept):
        # equal harmonics of a 12-qubit register in whole classes of 16 members,
        # 3 blocks of rows.  Mirrored harmonics tie member for member, and a
        # class's central member outweighs every sideband, the more so the
        # smaller |j|: 1 and -1 sit on the first block boundary and 3 and -3 on
        # the second, so budget 1 cuts through the first tie and budget 3
        # through the second.  Row 0 (j = 2048) has the widest sidebands, which
        # set a lower bound on the cut that every block has candidates on both
        # sides of, the last one's widening with |j|
        rows = _EXTEND_BLOCK // 16
        rest = [s * j for j in range(6, 2048) for s in (1, -1)]
        order = ([2048] + rest[:rows - 2] + [1, -1] + rest[rows - 2:2 * rows - 4] + [3, -3]
                 + rest[2 * rows - 4:3 * rows - 10] + [5])
        sp = sparse_spectrum(12, {j: -math.log(len(order)) for j in order})
        assert sp.indices[rows - 1:rows + 1] == (1, -1)
        assert sp.indices[2 * rows - 1:2 * rows + 1] == (3, -3)
        assert 2 * rows < len(sp) < 3 * rows
        out = assert_extends_as_reference(sp, 16, budget)
        if kept is not None:
            assert out.indices == kept

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_small_spectra(self, data):
        # nonzero indices with weights of a few values, so that mirrored
        # harmonics tie, also at the cut; whole classes (2**d members) or
        # partial ones; budgets from 1 to past the candidate count, so that the
        # first 2 * budget candidates can hold fewer than budget and every
        # candidate can take part in the cut
        n0 = data.draw(st.integers(1, 5))
        N = 1 << n0
        support = data.draw(st.lists(st.integers(-(N // 2) + 1, N // 2).filter(bool),
                                     min_size=1, max_size=N - 1, unique=True))
        raw = data.draw(st.lists(st.sampled_from([1, 2, 4]), min_size=len(support),
                                 max_size=len(support)))
        sp = sparse_spectrum(n0, {j: math.log(w / sum(raw)) for j, w in zip(support, raw)})
        d = data.draw(st.integers(1, 8))
        budget = data.draw(st.integers(1, (len(sp) << d) + 2) | st.integers(1, 4))
        assert_extends_as_reference(sp, n0 + d, budget)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n0,support", [
        (5, (1, -3, 5, -7, 9, -11, 13, -15)),  # every index 1 (mod 4)
        (4, (-7, 3, -1, 8, -2)),  # any residue, the most negative index included
    ])
    def test_whole_class_wraps_into_the_signed_range(self, n0, support, d):
        # with 2**d <= 16 members every class is enumerated, and the member
        # m = -2**(d-1) of a negative j lies past -2**(n-1): it wraps to
        # j + 2**(n0+d-1), which a budget of every candidate keeps
        raw = np.arange(len(support), 0, -1, dtype=float)
        sp = sparse_spectrum(n0, dict(zip(support, np.log(raw / raw.sum()).tolist())))
        n = n0 + d
        for budget in (3, len(sp) << d):
            out = assert_extends_as_reference(sp, n, budget)
            assert all(-(1 << (n - 1)) < j <= 1 << (n - 1) for j in out.indices)
            if all(j % 4 == 1 for j in support):
                assert all(j % 4 == 1 for j in out.indices)
        assert {j + (1 << (n - 1)) for j in support if j < 0} <= set(out.indices)

    def test_indices_past_float_range(self):
        # 2 -> 1020 -> 1030 -> 1040: indices of more than 1024 bits, which
        # float(j) cannot hold, take the exact int route
        sp = sparse_start()
        for size, budget in [(1020, 16), (1030, 4096), (1040, 4096)]:
            sp = assert_extends_as_reference(sp, size, budget)
        assert max(abs(j) for j in sp.indices).bit_length() > 1024


class TestPostselect:
    @staticmethod
    def _coefficients(m: int) -> np.ndarray:
        c = np.random.default_rng(m).random(2 << m).view(complex)
        return c / np.linalg.norm(c)

    def test_one_block_is_the_unblocked_sum(self):
        # up to 2**14 weights the sums are numpy's own, bit for bit
        for m in (1, 5, 14):
            c = self._coefficients(m)
            for k in {0, 3 % (1 << m), (1 << m) - 1}:
                outcome = _postselect(c * c, k)
                expected, _ = _amplitude_round(c, k)
                assert (outcome.p_success, outcome.fidelity, outcome.error,
                        outcome.log_error) == expected

    @pytest.mark.parametrize("m, ks", [
        (16, (0, (1 << 14) - 1, 1 << 14, (1 << 16) - 1)),
        (20, (1 << 14, (1 << 20) - 1)),
    ])
    def test_block_partials_match_the_unblocked_sum(self, m, ks):
        # k in the first, the last and a middle block, and at a block's edges
        c = self._coefficients(m)
        for k in ks:
            outcome = _postselect(c * c, k)
            expected, _ = _amplitude_round(c, k)
            assert (outcome.p_success, outcome.fidelity, outcome.error) == pytest.approx(
                expected[:3], rel=1e-15, abs=0.0)


class TestRounds:
    def test_reference_targets(self):
        assert rounds_required(10) == 3
        assert rounds_required(100) == 6

    def test_small_targets_flagged_single_round(self):
        assert rounds_required(4) == 1
        assert rounds_required(2) == 1

    def test_targets_past_float_range(self):
        # above 2**1000 R = ceil(log2(n) + 1 - log2(log2 9)) on the exact int,
        # which matches the float form wherever 2.0 * n still fits a double
        def float_form(n):
            return math.ceil(math.log2((2.0 * n - 2.0 * math.log2(math.pi)) / math.log2(9.0)))
        for e in (1000, 1010, 1021, 1022):
            # log2(n) + 1 - log2(log2 9) crosses e + 1 between 1.5 and 1.6 * 2**e
            for n, rounds in (((1 << e) + 1, e), (3 << (e - 1), e), ((8 << e) // 5, e + 1)):
                assert rounds_required(n) == float_form(n) == rounds
        with pytest.raises(OverflowError):
            float_form(1 << 1023)
        assert rounds_required(1 << 1023) == 1023
        assert rounds_required(1 << 1100) == 1100
        assert rounds_required(10 ** 400) == math.ceil(400 * math.log2(10))

    def test_simplified_agreement_except_ceiling_boundary(self):
        mismatches = []
        for n in range(6, 101):
            if rounds_required(n) != rounds_required_simplified(n):
                arg = 0.63 * n - 1.04
                # only tolerated right at a power-of-two boundary
                assert abs(math.log2(arg) - round(math.log2(arg))) < 0.01
                mismatches.append(n)
        assert mismatches in ([], [8])  # n=8: argument lands exactly on 4.0


class TestPlanSchedule:
    def test_n10(self):
        sched = plan_schedule(10)
        assert sched.sizes == (5, 10, 12)
        assert sched.rounds == 3
        assert sched.width_qubits == 24

    def test_n5_single_round(self):
        sched = plan_schedule(5)
        assert sched.sizes == (5,)
        assert sched.note is not None

    def test_n100(self):
        assert plan_schedule(100).sizes == (5, 10, 20, 40, 80, 102)

    def test_doubling_cap_invariant(self):
        for n in range(6, 101):
            sched = plan_schedule(n)
            assert sched.sizes[0] == 5
            for a, b in zip(sched.sizes, sched.sizes[1:]):
                assert b == min(2 * a, n + 2)

    def test_width_bound(self):
        for n in range(5, 101):
            assert plan_schedule(n).width_qubits <= 2 * n + 5

    @pytest.mark.parametrize("n, s0, sizes", [(13, 3, (3, 6, 12, 15)),
                                              (20, 2, (2, 4, 8, 16, 22))])
    def test_small_start_keeps_doubling_to_the_target(self, n, s0, sizes):
        # rounds_required(n) doublings from s0 <= 3 can stop below n
        assert plan_schedule(n, s0=s0).sizes == sizes

    def test_last_round_reaches_the_target(self):
        for s0 in range(2, 9):
            for pad in range(4):
                for n in range(1, 300):
                    if n + pad < 2:  # a 1-qubit first round has no initial state
                        with pytest.raises(ValueError, match="1-qubit first round"):
                            plan_schedule(n, s0, pad)
                        continue
                    sched = plan_schedule(n, s0, pad)
                    assert sched.sizes[-1] >= n, (n, s0, pad)
                    assert sched.sizes[-1] <= max(s0, n + pad)
                    if n > s0:
                        assert sched.rounds >= rounds_required(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_schedule(10, s0=1)
        with pytest.raises(ValueError):
            plan_schedule(10, pad=-1)
        with pytest.raises(ValueError):
            ProtocolSchedule(n_target=10, sizes=(5, 4))
        with pytest.raises(ValueError, match="below the target"):
            ProtocolSchedule(n_target=10, sizes=(5, 9))


class TestPredictedLogError:
    def test_model_is_slightly_optimistic_against_the_exact_engine(self):
        # 240 schedules; the model leaves out sidebands, so it never lies
        # above the engine, and it is at most 0.61 bits below (n = 5, s0 = 4)
        gaps = []
        for n in range(5, 17):
            for s0 in range(4, 9):
                for pad in range(4):
                    result = run_protocol_exact(n, s0=s0, pad=pad)
                    gaps.append((result.final_log_error
                                 - predicted_log_error(result.schedule.sizes)) / math.log(2))
        assert len(gaps) == 240
        assert 0.0 <= min(gaps) and max(gaps) <= 0.7

    @pytest.mark.filterwarnings("error")
    def test_model_misses_the_threshold_where_the_sparse_engine_does(self):
        # an independent witness of the default schedule's threshold misses
        # (n = 27 and 103 today); on this range the model is 0 to 0.05 bits
        # below the engine
        reuse, engine_misses, model_misses = {}, set(), set()
        for n in range(6, 121):
            result = run_protocol_sparse(n, max_harmonics=512, reuse=reuse)
            predicted = predicted_log_error(result.schedule.sizes)
            gap = (result.final_log_error - predicted) / math.log(2)
            assert -1e-9 <= gap <= 0.06, n
            if not result.meets_threshold:
                engine_misses.add(n)
            if predicted > result.log_threshold:
                model_misses.add(n)
        assert model_misses == engine_misses

    def test_sideband_ratio_past_the_float_range_of_pi_over_2_to_the_s(self):
        # one round doubles rho(s), which tends to -2 ln 3: subnormal at
        # s = 1075 and 1076, and past them pi/2**s is 0, where sin(x) / sin(3x)
        # is 0/0
        for s in (1075, 1076, 1077, 1100, 2000, 10 ** 6):
            assert predicted_log_error([s]) == pytest.approx(-4.0 * math.log(3.0),
                                                             rel=1e-15, abs=0.0)
        with pytest.raises(ZeroDivisionError):
            math.sin(math.ldexp(math.pi, -1077)) / math.sin(3.0 * math.ldexp(math.pi, -1077))

    def test_sideband_ratio_is_the_quotient_of_sines_to_one_ulp(self):
        for s in range(3, 1001):
            x = math.ldexp(math.pi, -s)
            quotient = 4.0 * math.log(math.sin(x) / math.sin(3.0 * x))
            assert abs(predicted_log_error([s]) - quotient) <= math.ulp(quotient), s

    ITEM_3 = pytest.mark.xfail(strict=True, raises=AssertionError,
                               reason="ROADMAP item 3: from n = 388 the kernel's rounding "
                                      "moves mass into the tail")

    @pytest.mark.filterwarnings("ignore::fourierdistill.PrecisionWarning")
    @pytest.mark.parametrize("n", [100, 300, 387, 500, pytest.param(388, marks=ITEM_3),
                                   pytest.param(700, marks=ITEM_3),
                                   pytest.param(1000, marks=ITEM_3)])
    def test_sparse_engine_meets_the_model_past_the_dense_cap(self, n):
        # within 1e-12 bits through n = 387 and at 500; from n = 388 the engine
        # gives log2 -86.0, -172.0 and -344.0 where the model gives -806.74,
        # -1613.47 and -3226.95
        result = run_protocol_sparse(n, max_harmonics=512)
        predicted = predicted_log_error(plan_schedule(n).sizes)
        assert abs(result.final.log_error - predicted) / math.log(2) <= 0.05


class TestRunProtocolExact:
    def test_n10_frozen_trace(self):
        result = run_protocol_exact(10)
        p = [rec.p_success for rec in result.rounds]
        assert p[0] == pytest.approx(0.671875, abs=1e-12)
        assert p[1] == pytest.approx(0.9626097279, abs=1e-9)
        assert p[2] == pytest.approx(0.9996623916, abs=1e-9)
        errors = [rec.error for rec in result.rounds]
        assert errors[0] == pytest.approx(1.579976e-2, rel=1e-5, abs=0.0)
        assert errors[1] == pytest.approx(1.658905e-4, rel=1e-5, abs=0.0)
        assert errors[2] == pytest.approx(2.576991e-8, rel=1e-5, abs=0.0)
        assert result.meets_threshold
        assert result.final.error <= math.sin(math.pi / 2 ** 10) ** 2

    def test_final_error_is_off_target_weight(self):
        # 1 - fidelity keeps only about 8 digits of a 2.6e-8 error
        result = run_protocol_exact(10)
        weights = np.abs(spread_coset(result.output)) ** 2
        assert result.final.error == pytest.approx(math.fsum(np.delete(weights, 1)),
                                                   rel=1e-12, abs=0.0)

    def test_round1_success_probability_anchor(self):
        result = run_protocol_exact(10)
        assert 0.66 <= result.rounds[0].p_success <= 0.68

    def test_n5_single_round_about_five_bits(self):
        result = run_protocol_exact(5)
        assert len(result.rounds) == 1
        assert result.rounds[0].fidelity == pytest.approx(0.984200243598, abs=1e-10)
        # one round misses the strict 5-bit threshold by a factor below 2
        eps = result.final.error
        assert eps == pytest.approx(1 / 81, rel=0.3, abs=0.0)
        assert eps <= 2 * result.threshold
        assert not result.meets_threshold

    def test_capacity_error_for_large_targets(self):
        with pytest.raises(CapacityError):
            run_protocol_exact(40)

    def test_output_state_matches_reported_fidelity(self):
        result = run_protocol_exact(8)
        final_size = result.schedule.sizes[-1]
        assert fidelity(output_state(result), final_size, 1) == pytest.approx(
            result.final.fidelity, abs=1e-12)

    @pytest.mark.parametrize("n, s0, pad", [
        pytest.param(n, s0, pad, id=str(n) if (s0, pad) == (5, 2) else f"{n}-s0={s0}-pad={pad}")
        for n in (6, 10, 12, 16) for s0, pad in ((5, 2), (2, 0), (3, 1))
    ])
    def test_rounds_bit_identical_to_direct_form(self, n, s0, pad):
        # the engine transforms quarter-length cosets, which round differently
        # from the oracle's full-length FFTs: up to 9.7e-14 relative, in the
        # error field at n = 16, s0 = 3, pad = 1.  The name predates the
        # coset engine, when the two forms agreed bit for bit
        result = run_protocol_exact(n, s0=s0, pad=pad)
        rounds, output = exact_protocol_reference(n, s0, pad)
        assert [size for size, *_ in rounds] == list(result.schedule.sizes)
        for r, (_, *expected) in zip(result.rounds, rounds):
            assert (r.p_success, r.fidelity, r.error, r.log_error) == pytest.approx(
                tuple(expected), rel=1e-13, abs=0.0)
        # each squaring doubles a coefficient's relative rounding error; the
        # engine keeps the coset j = 1 (mod 4), and the oracle's full vector
        # holds no weight off it
        eps = np.finfo(float).eps
        np.testing.assert_allclose(result.output, output[1::4],
                                   rtol=0.0, atol=eps * 2 ** result.schedule.rounds)
        assert np.abs(np.delete(output, np.s_[1::4])).max() <= 1e-15

    @pytest.mark.parametrize("n, transforms", [
        (18, [(1, True), (1 << 3, False), (1 << 3, True), (1 << 8, False), (1 << 8, True),
              (1 << 18, False)]),
        (20, [(1, True), (1 << 3, False), (1 << 3, True), (1 << 8, False), (1 << 8, True),
              (1 << 18, False), (1 << 18, True), (1 << 20, False)]),
    ])
    def test_leaves_fourier_basis_only_to_extend(self, monkeypatch, n, transforms):
        # sizes (5, 10, 20, 20) and (5, 10, 20, 22), grown from the 2-qubit
        # start on quarter-length cosets: a round of the previous size squares
        # its coefficients without a transform
        calls = counted_transforms(monkeypatch)
        run_protocol_exact(n)
        assert calls == transforms

    @pytest.mark.parametrize("n", range(15, 19))
    def test_final_error_agrees_with_sparse_engine(self, n):
        # these schedules repeat their last size; a transform pair between
        # the two rounds put the exact error about 1e-12 off the sparse one
        exact = run_protocol_exact(n)
        assert exact.schedule.sizes[-1] == exact.schedule.sizes[-2]
        sparse = run_protocol_sparse(n)
        assert exact.final.error == pytest.approx(math.exp(sparse.final_log_error),
                                                  rel=1e-13, abs=0.0)

    def test_peak_memory_in_final_size_vectors(self):
        # one final coset, a quarter vector, plus blocks of 2**14 points: the
        # postselection's weights and the extension's outer product are built
        # in blocks too
        result, peak = traced_peak(lambda: run_protocol_exact(16))
        vector = 16 << max(result.schedule.sizes)  # bytes of one complex vector
        assert max(result.schedule.sizes) == 18
        assert peak <= 0.5 * vector

    def test_growth_from_the_start_holds_one_coset(self):
        # one 18-qubit round grows the 2-qubit start 2**16-fold: one coset of
        # 2**16 coefficients plus the twiddle row's pieces of 2**14 points and
        # the transform's blocks (1.64 cosets measured; a full-length twiddle
        # row took 3.0)
        run_protocol_exact(18, s0=18, pad=0)  # numpy's first FFT allocates caches
        _, peak = traced_peak(lambda: run_protocol_exact(18, s0=18, pad=0))
        assert peak <= 1.75 * (16 << 16)

    @pytest.mark.parametrize("n, s0, pad", [(2, 2, 0), (5, 5, 0), (10, 5, 2), (13, 3, 1)])
    def test_output_is_the_targets_coset(self, n, s0, pad):
        # c[1::4] of the last round's register, read-only, and nothing else
        result = run_protocol_exact(n, s0=s0, pad=pad)
        output = result.output
        assert isinstance(output, np.ndarray) and not output.flags.writeable
        assert len(output) == 1 << (result.schedule.sizes[-1] - 2)
        assert abs(output[0]) ** 2 == result.final.fidelity
        # distill_k's register never grows and its coset is every index
        output = distill_k(n, 3, 2)[1].output
        assert len(output) == 1 << n and not output.flags.writeable


class TestProtocolResult:
    def test_only_the_last_round_keeps_its_output(self):
        # a round holds only its numbers; the run holds the last round's output
        store = {}
        runs = [run_protocol_exact(10), run_protocol_sparse(10),
                run_protocol_sparse(10, reuse=store), run_protocol_sparse(12, reuse=store),
                distill_k(6, 3, 3)[1]]
        assert [f.name for f in dataclasses.fields(DistillationOutcome)] == [
            "p_success", "fidelity", "error", "log_error"]
        for result in runs:
            assert len(result.rounds) == result.schedule.rounds > 1
            assert result.final is result.rounds[-1]
            assert result.output is not None
        # the reuse store keeps each round's outcome with its output spectrum,
        # so a resumed run extends them
        assert all(isinstance(outcome, DistillationOutcome) and isinstance(sp, SparseSpectrum)
                   for outcome, sp in store.values())
        assert store[(4096, plan_schedule(12).sizes)][1] is runs[3].output


class TestRunProtocolSparse:
    @pytest.mark.parametrize("n", range(8, 17))
    def test_agrees_with_exact_engine(self, n):
        exact = run_protocol_exact(n)
        sparse = run_protocol_sparse(n)
        for re, rs in zip(exact.rounds, sparse.rounds):
            assert rs.p_success == pytest.approx(re.p_success, abs=1e-3)
            assert rs.fidelity == pytest.approx(re.fidelity, abs=1e-4)
        # true agreement is far tighter than the contract tolerances
        assert sparse.rounds[-1].p_success == pytest.approx(
            exact.rounds[-1].p_success, abs=1e-9)

    @pytest.mark.filterwarnings("ignore::fourierdistill.PrecisionWarning")
    @pytest.mark.parametrize("s0, pad", [(2, 0), (3, 1), (5, 2), (8, 3)])
    @pytest.mark.parametrize("budget", [1, 16, 4096])
    def test_every_round_holds_odd_harmonics_index_one_first(self, s0, pad, budget):
        # the reuse store keeps every round's output spectrum of the last run
        store = {}
        for n in (5, 12, 37, 100, 300):
            run_protocol_sparse(n, s0=s0, pad=pad, max_harmonics=budget, reuse=store)
            assert len(store) == plan_schedule(n, s0, pad).rounds
            for _, sp in store.values():
                assert sp.indices[0] == 1
                assert all(j % 4 == 1 for j in sp.indices)

    def test_n100_log_space_result(self):
        result = run_protocol_sparse(100)
        assert result.meets_threshold
        assert result.final_log_error <= result.log_threshold
        # around 9^(-2^6) by the suppression law, in log2 terms
        log2_err = result.final_log_error / math.log(2)
        assert -210 < log2_err < -195
        assert result.output.log_tail < result.final_log_error

    def test_error_squaring_in_log_space(self):
        # each round at most doubles log-error plus one bit of slack
        result = run_protocol_sparse(100)
        logs = [rec.log_error for rec in result.rounds]
        for prev, nxt in zip(logs, logs[1:]):
            assert nxt <= 2 * prev + math.log(2)

    def test_n10_error_within_factor_two_of_suppression_law(self):
        result = run_protocol_sparse(10)
        law = 9.0 ** -(2 ** len(result.rounds))
        assert law / 2 < result.final.error < law * 2

    def test_late_truncation_raises_precision_warning(self):
        # a heavily truncated initial spectrum distilled for a single round
        # leaves a tail bound far above the target error
        with pytest.warns(PrecisionWarning, match="; raise max_harmonics$"):
            run_protocol_sparse(21, s0=21, max_harmonics=4)

    def test_normal_runs_stay_quiet(self):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error", PrecisionWarning)
            run_protocol_sparse(100)
            run_protocol_sparse(40, max_harmonics=256)

    def test_extension_peak_memory_at_a_large_budget(self):
        # 16384 harmonics: 16 candidates per harmonic (2.1 MB) pass through one
        # block buffer of 2 * 16384 (0.26 MB), and only the survivors of the
        # lower bound on the cut stay; a spectrum's indices take about 0.7 MB
        _, peak = traced_peak(lambda: run_protocol_sparse(300, max_harmonics=16384))
        assert peak <= 3e6

    @pytest.mark.parametrize("s0,pad", [(4, 1), (6, 3), (5, 0)])
    def test_engine_agreement_off_default_parameters(self, s0, pad):
        for n in (9, 13):
            exact = run_protocol_exact(n, s0=s0, pad=pad)
            sparse = run_protocol_sparse(n, s0=s0, pad=pad)
            assert exact.schedule.sizes == sparse.schedule.sizes
            for re, rs in zip(exact.rounds, sparse.rounds):
                assert rs.p_success == pytest.approx(re.p_success, abs=1e-9)
                assert rs.fidelity == pytest.approx(re.fidelity, abs=1e-9)

    def test_trace_schema(self, capsys):
        argv = ["distill", "--n", "12", "--engine", "sparse", "--format"]
        assert main(argv + ["json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["engine"] == "sparse"
        assert [r["size"] for r in obj["rounds"]] == [5, 10, 14]
        assert obj["meets_threshold"] is True
        assert main(argv + ["csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "round,size,p_success,fidelity,error"
        assert len(rows) == 1 + len(obj["rounds"])


class TestDeepSparseRuns:
    # frozen from the earlier scalar implementation of the sparse engine
    FROZEN = {
        100: (-201.68421806799174, [0.6718749999999993, 0.9626097279409899,
                                    0.9996619995359951, 0.9999999484566544,
                                    0.9999999999999987, 1.0]),
        200: (-403.3684361359835, [0.6718749999999993, 0.9626097279409899,
                                   0.9996619995359951, 0.9999999484566544,
                                   0.9999999999999987, 1.0, 1.0]),
    }

    @pytest.mark.parametrize("n", [100, 200])
    def test_frozen_results_and_stable_order(self, n):
        log2_error, p_success = self.FROZEN[n]
        result = run_protocol_sparse(n)
        assert result.final_log_error / math.log(2) == pytest.approx(log2_error, rel=1e-10,
                                                                     abs=0.0)
        assert [rec.p_success for rec in result.rounds] == pytest.approx(p_success, rel=1e-12,
                                                                         abs=0.0)
        assert run_protocol_sparse(n).output.indices == result.output.indices
        # the target comes first, which sparse_symmetric_round relies on
        assert result.output.indices[0] == 1

    def test_matches_a_50_digit_port_at_n100(self):
        # the same budget, span, cut and tail in mpmath: the engine's float
        # arithmetic (p to 3.6e-15, the last log error to 4.4e-16 measured)
        result = run_protocol_sparse(100, max_harmonics=64)
        reference = sparse_protocol_mp(100, 64, 50)
        assert len(result.rounds) == len(reference) == 6
        for outcome, (p, _, _) in zip(result.rounds, reference):
            assert outcome.p_success == pytest.approx(float(p), rel=1e-13, abs=0.0)
        assert result.final_log_error == pytest.approx(float(reference[-1][1]), rel=1e-12,
                                                       abs=0.0)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: at the 20 -> 40 extension the float "
                              "deficit 1 - sum(kernel), 2.3e-13, is 0.3% below the "
                              "class remainder")
    def test_tail_bound_covers_the_50_digit_port_at_n100(self):
        store = {}
        run_protocol_sparse(100, max_harmonics=64, reuse=store)
        tails = [sp.log_tail for _, sp in store.values()]
        reference = sparse_protocol_mp(100, 64, 50)
        for tail, (_, _, log_tail) in zip(tails, reference):
            assert tail >= log_tail


class TestProtocolInvariants:
    @pytest.mark.parametrize("n", [10, 14])
    def test_error_squaring_bound(self, n):
        result = run_protocol_exact(n)
        errors = [rec.error for rec in result.rounds]
        for e_prev, e_next in zip(errors, errors[1:]):
            if e_prev <= 0.05:
                assert e_next <= 2 * e_prev ** 2

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_monotone_fidelity(self, n):
        result = run_protocol_exact(n)
        fids = [rec.fidelity for rec in result.rounds]
        for f_prev, f_next in zip(fids, fids[1:]):
            if f_prev < 1.0:
                assert f_next > f_prev

    def test_dominance_ordering_preserved(self):
        w = np.abs(initial_coeffs(8)) ** 2
        out = np.abs(spread_coset(one_round(8).output)) ** 2
        order_in = np.argsort(w)
        order_out = np.argsort(out[order_in])
        assert (np.diff(out[order_in]) >= -1e-18).all()
        assert (order_out == np.arange(len(order_out))).all()

    def test_sideband_ratio_squares_exactly(self):
        w = np.abs(initial_coeffs(10)) ** 2
        out = np.abs(spread_coset(one_round(10).output)) ** 2
        N = 1 << 10
        ratio_in = w[N - 3] / w[1]
        ratio_out = out[N - 3] / out[1]
        assert ratio_out == pytest.approx(ratio_in ** 2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [8, 12])
    def test_normalization_preserved(self, n):
        result = run_protocol_exact(n)
        assert float(np.sum(np.abs(output_state(result).amps) ** 2)) == pytest.approx(
            1.0, abs=1e-9)
        sparse = run_protocol_sparse(n)
        sp = sparse.output
        total = sum(sparse_weights(sp).values()) + math.exp(sp.log_tail)
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: DistillationOutcome(1.5, 1.0, 0.0, -math.inf), ValueError,
     "success probability out of range: 1.5"),
    (lambda: ProtocolSchedule(5, ()), ValueError, "schedule needs at least one round"),
    (lambda: sparse_spectrum(3, {}), ValueError, "needs at least one harmonic"),
    (lambda: run_protocol_sparse(1, pad=0), ValueError,
     "1-qubit first round: the approximate initial state needs 2 qubits"),
    (lambda: log_extension_kernel(4, 3, [1], np.arange(1)), ValueError,
     "fine register must be at least as large"),
    (lambda: sparse_extend(sparse_extend(sparse_start(), 4), 3), ValueError,
     "cannot shrink register from 4 to 3"),
    (lambda: rounds_required(0), ValueError, "n must be positive"),
    # NaN compares false with any tolerance, so the mass checks test "within"
    (lambda: StateVector(np.array([math.nan, 0.0])), ValueError,
     r"state not normalized: sum \|amps\|\^2 = nan"),
    (lambda: sparse_spectrum(2, {1: math.nan}), ValueError,
     "sparse spectrum mass must be 1, got nan"),
], ids=["outcome-p", "empty-schedule", "sparse-empty", "initial-n",
        "kernel-shrink", "extend-shrink", "rounds-n", "nan-state", "nan-sparse"])
def test_invalid_input_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()

