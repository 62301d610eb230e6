"""Tests for the distillation step, schedules, and both protocol engines.

Expected values marked "frozen" were computed with an independent dense
oracle (direct amplitude construction, numpy FFT, literal tensor products)
before this module existed.
"""
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierdistill import (
    CapacityError,
    DegenerateInputError,
    FourierAmplitudes,
    FourierSpectrum,
    PrecisionWarning,
    ProtocolSchedule,
    SparseSpectrum,
    StateVector,
    approx_initial_state,
    distill_pair,
    extend_register,
    from_fourier_basis,
    initial_sparse_spectrum,
    initial_state_weight,
    plan_schedule,
    pure_fourier_state,
    rounds_required,
    run_protocol_exact,
    run_protocol_sparse,
    sparse_extend,
    sparse_symmetric_round,
    spectrum_of,
    symmetric_round,
    to_fourier_basis,
)
from fourierdistill.cli import main
from fourierdistill.distill import _signed_index, log_extension_kernel
from oracles import exact_protocol_reference, fidelity, rounds_required_simplified


def kernel_weights(n_coarse, n_fine, j, m):
    """Linear zero-order-hold weights of fine harmonics j + 2**n_coarse * m."""
    return np.exp(log_extension_kernel(n_coarse, n_fine, [j], np.asarray(m)))[0]


def delta_spectrum(n, k):
    w = np.zeros(1 << n)
    w[k % (1 << n)] = 1.0
    return FourierSpectrum(w)


class TestDistillPair:
    def test_two_deltas_at_target(self):
        out = distill_pair(delta_spectrum(4, 3), delta_spectrum(4, 3), target_k=3)
        assert out.p_success == pytest.approx(1.0, abs=1e-12)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.output.weight(3) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_spectra_raise(self):
        with pytest.raises(DegenerateInputError):
            distill_pair(delta_spectrum(3, 1), delta_spectrum(3, 3))

    def test_mismatched_sizes_raise(self):
        with pytest.raises(ValueError):
            distill_pair(delta_spectrum(3, 1), delta_spectrum(4, 1))

    def test_mixed_types_raise(self):
        amps = to_fourier_basis(approx_initial_state(4))
        with pytest.raises(TypeError):
            distill_pair(amps, spectrum_of(approx_initial_state(4)))

    def test_symmetric_success_probability_converges_to_two_thirds(self):
        # Sum over odd m of 1/m^4 = pi^4/96 makes the limit exactly 2/3
        p12 = symmetric_round(spectrum_of(approx_initial_state(12))).p_success
        p16 = symmetric_round(spectrum_of(approx_initial_state(16))).p_success
        assert p12 == pytest.approx(2 / 3, abs=4e-7)
        assert p16 == pytest.approx(2 / 3, abs=2e-9)
        assert abs(p16 - 2 / 3) < abs(p12 - 2 / 3)

    def test_symmetric_fidelity_converges_to_limit(self):
        # |c_1|^4 / (2/3) = 96/pi^4
        limit = 96 / math.pi ** 4
        out = symmetric_round(spectrum_of(approx_initial_state(16)))
        assert out.fidelity == pytest.approx(limit, abs=1e-9)
        assert out.fidelity <= 0.986

    def test_amplitude_route_matches_weight_route(self):
        coeffs = to_fourier_basis(approx_initial_state(6))
        out_amp = distill_pair(coeffs, coeffs)
        out_w = distill_pair(coeffs.spectrum(), coeffs.spectrum())
        assert out_amp.p_success == pytest.approx(out_w.p_success, abs=1e-12)
        np.testing.assert_allclose(out_amp.output.spectrum().weights,
                                   out_w.output.weights, atol=1e-12)

    def test_error_complements_fidelity(self):
        out = symmetric_round(spectrum_of(approx_initial_state(8)))
        assert out.error + out.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_inputs_brute_force(self):
        # different input states, checked against the defining sums
        rng = np.random.default_rng(12)
        n, N = 5, 32
        raw1 = rng.normal(size=N) + 1j * rng.normal(size=N)
        raw2 = rng.normal(size=N) + 1j * rng.normal(size=N)
        a = to_fourier_basis(StateVector(raw1 / np.linalg.norm(raw1)))
        a2 = to_fourier_basis(StateVector(raw2 / np.linalg.norm(raw2)))
        out = distill_pair(a, a2, target_k=1)
        p_brute = sum(abs(a.coeffs[j]) ** 2 * abs(a2.coeffs[j]) ** 2 for j in range(N))
        assert out.p_success == pytest.approx(p_brute, rel=1e-12)
        for j in range(N):
            b_brute = abs(a.coeffs[j]) ** 2 * abs(a2.coeffs[j]) ** 2 / p_brute
            assert abs(out.output.coeffs[j]) ** 2 == pytest.approx(b_brute, abs=1e-12)


def after_rounds(w, r):
    """Spectrum after r symmetric rounds at fixed register size."""
    for _ in range(r):
        w = symmetric_round(w).output
    return w


class TestRepeatedSymmetric:
    def test_single_round_agrees_with_step(self):
        # r rounds raise every weight to the power 2**r, then renormalize
        w = spectrum_of(approx_initial_state(8))
        for r in (1, 2, 3):
            power = w.weights ** (2 ** r)
            np.testing.assert_allclose(after_rounds(w, r).weights, power / power.sum(),
                                       atol=1e-12)

    @pytest.mark.parametrize("r,target", [(1, 1 / 81), (2, 9.0 ** -4), (3, 9.0 ** -8)])
    def test_error_tracks_ninth_power_law(self, r, target):
        w = spectrum_of(approx_initial_state(16))
        out = after_rounds(w, r)
        eps = 1.0 - out.weight(1)
        assert target / 2 < eps < target * 2

    def test_frozen_error_values_n16(self):
        # frozen from the independent dense oracle
        w = spectrum_of(approx_initial_state(16))
        assert 1 - after_rounds(w, 2).weight(1) == pytest.approx(1.551550e-4, rel=1e-5)
        assert 1 - after_rounds(w, 3).weight(1) == pytest.approx(2.323716e-8, rel=1e-5)

    def test_large_round_count_stays_finite(self):
        w = spectrum_of(approx_initial_state(10))
        out = after_rounds(w, 8)
        assert out.weight(1) == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(out.weights).all()


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


class TestExtensionKernel:
    @pytest.mark.parametrize("j", [0, 1, -3, 5, 11])
    def test_matches_dense_extension_spectrum(self, j):
        # acceptance oracle for the kernel: DFT of the literally extended state
        s, n_new = 5, 10
        dense = spectrum_of(extend_register(pure_fourier_state(s, j), n_new))
        Nf = 1 << n_new
        offsets = np.arange(-16, 16)
        for m, kernel in zip(offsets, kernel_weights(s, n_new, j, offsets)):
            jf = j + (1 << s) * int(m)
            assert kernel == pytest.approx(dense.weight(jf % Nf), abs=1e-12)

    def test_class_weights_sum_to_one(self):
        s, n_new = 4, 9
        for j in (0, 1, -3, 7):
            total = sum(kernel_weights(s, n_new, j, np.arange(1 << (n_new - s))))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_index_zero_extends_exactly(self):
        # fine indices 0, 32 and 64 of the class of j = 0
        assert kernel_weights(5, 12, 0, [0, 1, 2]).tolist() == [1.0, 0.0, 0.0]

    def test_dominant_member_is_original_index(self):
        offsets = np.arange(-16, 16)
        members = dict(zip(offsets.tolist(), kernel_weights(5, 10, 1, offsets)))
        assert max(members, key=members.get) == 0
        assert members[0] == pytest.approx(0.996794491447, abs=1e-10)


class TestSparseSpectrum:
    def test_initial_matches_dense_weights(self):
        sp = initial_sparse_spectrum(6)
        dense = spectrum_of(approx_initial_state(6))
        assert len(sp) == 16
        for j, w in sp.weights().items():
            assert w == pytest.approx(dense.weight(j % 64), rel=1e-12)
        assert sp.tail_mass == 0.0

    def test_initial_truncation_tracks_tail(self):
        sp = initial_sparse_spectrum(10, max_harmonics=16)
        assert len(sp) == 16
        assert sp.tail_mass > 0
        total = sum(sp.weights().values()) + sp.tail_mass
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            SparseSpectrum(4, {1: math.log(0.5)})

    def test_mapping_is_stored_in_descending_weight_order(self):
        sp = SparseSpectrum(4, {3: math.log(0.25), 1: math.log(0.5), 18: math.log(0.25)})
        assert sp.indices == (1, 3, 2)
        assert sp.dominant_index() == 1
        assert sp.weight(18) == pytest.approx(0.25, rel=1e-15)
        assert sp.weight(5) == 0.0
        with pytest.raises(ValueError):
            SparseSpectrum(4, {1: math.log(0.5), 17: math.log(0.5)})

    def test_signed_index_canonicalization(self):
        assert _signed_index(29, 32) == -3
        assert _signed_index(16, 32) == 16
        assert _signed_index(17, 32) == -15
        assert _signed_index(3, 32) == 3

    def test_sparse_round_matches_dense(self):
        sp = initial_sparse_spectrum(8)
        out = sparse_symmetric_round(sp)
        dense = symmetric_round(spectrum_of(approx_initial_state(8)))
        assert out.p_success == pytest.approx(dense.p_success, abs=1e-12)
        assert out.fidelity == pytest.approx(dense.fidelity, abs=1e-12)
        for j, w in out.output.weights().items():
            assert w == pytest.approx(dense.output.weight(j % 256), rel=1e-9, abs=1e-15)

    def test_sparse_extend_matches_dense_route(self):
        # per-weight cross-validation at (5 -> 10), the kernel's oracle
        sp = sparse_extend(initial_sparse_spectrum(5), 10)
        dense = spectrum_of(extend_register(approx_initial_state(5), 10))
        for j in range(1 << 10):
            assert sp.weight(j) == pytest.approx(dense.weight(j), abs=1e-6)
        assert sp.tail_mass < 1e-12

    def test_sparse_extend_delta_at_zero(self):
        sp = SparseSpectrum(5, {0: 0.0})
        out = sparse_extend(sp, 9)
        assert out.weight(0) == pytest.approx(1.0, abs=1e-12)
        assert len(out) == 1

    def test_sparse_extend_index_zero_among_incomplete_classes(self):
        # the class of j = 0 stays a single harmonic while the others are truncated
        sp = SparseSpectrum(5, {0: math.log(0.5), 1: math.log(0.5)})
        out = sparse_extend(sp, 15, max_harmonics=8)
        assert out.weight(0) == 0.5
        assert out.indices.count(0) == 1
        assert 0.0 < out.tail_mass < 0.5
        assert sum(out.weights().values()) + out.tail_mass == pytest.approx(1.0, abs=1e-9)

    def test_sparse_extend_delta_at_one(self):
        out = sparse_extend(SparseSpectrum(5, {1: 0.0}), 10)
        assert out.dominant_index() == 1
        assert out.weight(1) == pytest.approx(0.996794491447, abs=1e-9)
        # sidebands appear at 1 +/- 32 m
        assert out.weight(1 - 32) > 0
        assert out.weight(1 + 32) > 0

    def test_sparse_extend_ties_keep_class_then_member_order(self):
        # 1 and -1 mirror each other: every kernel weight of one class ties
        # with a weight of the other, also at the budget cut
        sp = SparseSpectrum(4, {1: math.log(0.5), -1: math.log(0.5)})
        assert sparse_extend(sp, 8, max_harmonics=3).indices == (1, -1, -15)
        wider = sparse_extend(sp, 8, max_harmonics=4)
        assert wider.indices == (1, -1, -15, 15)
        assert wider.weight(15) == wider.weight(-15)

    def test_sparse_extend_budget_prunes_into_tail(self):
        sp = sparse_extend(initial_sparse_spectrum(5), 16, max_harmonics=64)
        assert len(sp) <= 64
        assert sp.tail_mass > 0
        total = sum(sp.weights().values()) + sp.tail_mass
        assert total == pytest.approx(1.0, abs=1e-9)


@st.composite
def sparse_extension_inputs(draw):
    """A complete spectrum on n0 <= 6 qubits, a target size and a budget."""
    n0 = draw(st.integers(1, 6))
    N = 1 << n0
    support = draw(st.lists(st.integers(-(N // 2) + 1, N // 2), min_size=1,
                            max_size=min(N, 16), unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(support), max_size=len(support)))
    total = sum(raw)
    sp = SparseSpectrum(n0, {j: math.log(w / total) for j, w in zip(support, raw)})
    return sp, n0 + draw(st.integers(1, 11)), draw(st.integers(1, 32))


class TestSparseTailBound:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sparse_extension_inputs())
    def test_extension_against_dense_route(self, inputs):
        sp, n_new, budget = inputs
        out = sparse_extend(sp, n_new, max_harmonics=budget)
        N, Nf = sp.dim, 1 << n_new
        coeffs = np.zeros(N)
        for j, w in sp.weights().items():
            coeffs[j % N] = math.sqrt(w)
        dense = spectrum_of(extend_register(from_fourier_basis(FourierAmplitudes(coeffs)),
                                            n_new)).weights
        for j, w in out.weights().items():
            assert w == pytest.approx(dense[j % Nf], rel=1e-9)
        # the mass really missing lies in the input's classes, off the kept
        # set; the class of j = 0 has no mass off index 0
        fine = np.arange(Nf)
        in_class = np.isin(fine % N, [j % N for j in sp.indices]) & ((fine % N != 0) | (fine == 0))
        kept = np.zeros(Nf, dtype=bool)
        kept[[j % Nf for j in out.indices]] = True
        missing = dense[in_class & ~kept].sum()
        assert missing <= out.tail_mass * (1 + 1e-9)
        assert sum(out.weights().values()) + out.tail_mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n0,d,j", [(40, 10, 1), (60, 12, -3), (30, 8, 5)])
    def test_unresolvable_class_remainder_is_bounded(self, n0, d, j):
        # a class whose out-of-span remainder is below float resolution takes
        # the edge-kernel fallback; the truth is summed over the whole class
        out = sparse_extend(SparseSpectrum(n0, {j: 0.0}), n0 + d, max_harmonics=4)
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


class TestRounds:
    def test_reference_targets(self):
        assert rounds_required(10) == 3
        assert rounds_required(100) == 6

    def test_small_targets_flagged_single_round(self):
        assert rounds_required(4) == 1
        assert rounds_required(2) == 1

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

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_schedule(10, s0=1)
        with pytest.raises(ValueError):
            ProtocolSchedule(n_target=10, s0=5, pad=2, sizes=(5, 4))
        with pytest.raises(ValueError):
            ProtocolSchedule(n_target=10, s0=5, pad=2, sizes=(5, 20))


class TestRunProtocolExact:
    def test_n10_frozen_trace(self):
        result = run_protocol_exact(10)
        p = [rec.p_success for rec in result.rounds]
        assert p[0] == pytest.approx(0.671875, abs=1e-12)
        assert p[1] == pytest.approx(0.9626097279, abs=1e-9)
        assert p[2] == pytest.approx(0.9996623916, abs=1e-9)
        errors = [rec.error for rec in result.rounds]
        assert errors[0] == pytest.approx(1.579976e-2, rel=1e-5)
        assert errors[1] == pytest.approx(1.658905e-4, rel=1e-5)
        assert errors[2] == pytest.approx(2.576991e-8, rel=1e-5)
        assert result.meets_threshold
        assert result.final_error <= math.sin(math.pi / 2 ** 10) ** 2

    def test_final_error_is_off_target_weight(self):
        # 1 - fidelity keeps only about 8 digits of a 2.6e-8 error
        result = run_protocol_exact(10)
        weights = np.abs(result.final.output.coeffs) ** 2
        assert result.final_error == pytest.approx(math.fsum(np.delete(weights, 1)),
                                                   rel=1e-12)

    def test_round1_success_probability_anchor(self):
        result = run_protocol_exact(10)
        assert 0.66 <= result.rounds[0].p_success <= 0.68

    def test_n5_single_round_about_five_bits(self):
        result = run_protocol_exact(5)
        assert len(result.rounds) == 1
        assert result.rounds[0].fidelity == pytest.approx(0.984200243598, abs=1e-10)
        # one round misses the strict 5-bit threshold by a factor below 2
        eps = result.final_error
        assert eps == pytest.approx(1 / 81, rel=0.3)
        assert eps <= 2 * result.threshold
        assert not result.meets_threshold

    def test_capacity_error_for_large_targets(self):
        with pytest.raises(CapacityError):
            run_protocol_exact(40)

    def test_output_state_matches_reported_fidelity(self):
        result = run_protocol_exact(8)
        final_size = result.schedule.sizes[-1]
        assert fidelity(result.output_state, final_size, 1) == pytest.approx(
            result.final.fidelity, abs=1e-12)

    # n = 16 repeats its last size (18, 18), so the inverse FFT between the
    # two last rounds must still run
    @pytest.mark.parametrize("n", [6, 10, 12, 16])
    def test_rounds_bit_identical_to_direct_form(self, n):
        result = run_protocol_exact(n)
        rounds = [(r.size, r.p_success, r.fidelity, r.error, r.log_error)
                  for r in result.rounds]
        assert rounds == exact_protocol_reference(n)

    def test_peak_memory_in_final_size_vectors(self):
        tracemalloc.start()
        try:
            result = run_protocol_exact(16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector = 16 << max(result.schedule.sizes)  # bytes of one complex vector
        assert max(result.schedule.sizes) == 18
        assert peak <= 4.5 * vector


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

    def test_n100_log_space_result(self):
        result = run_protocol_sparse(100)
        assert result.meets_threshold
        assert result.final_log_error <= result.log_threshold
        # around 9^(-2^6) by the suppression law, in log2 terms
        log2_err = result.final_log_error / math.log(2)
        assert -210 < log2_err < -195
        assert result.final.output.log_tail < result.final_log_error

    def test_error_squaring_in_log_space(self):
        # each round at most doubles log-error plus one bit of slack
        result = run_protocol_sparse(100)
        logs = [rec.log_error for rec in result.rounds]
        for prev, nxt in zip(logs, logs[1:]):
            assert nxt <= 2 * prev + math.log(2)

    def test_n10_error_within_factor_two_of_suppression_law(self):
        result = run_protocol_sparse(10)
        law = 9.0 ** -(2 ** len(result.rounds))
        assert law / 2 < result.final_error < law * 2

    def test_late_truncation_raises_precision_warning(self):
        # a heavily truncated initial spectrum distilled for a single round
        # leaves a tail bound far above the target error
        with pytest.warns(PrecisionWarning):
            run_protocol_sparse(21, s0=21, max_harmonics=4)

    def test_normal_runs_stay_quiet(self):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error", PrecisionWarning)
            run_protocol_sparse(100)
            run_protocol_sparse(40, max_harmonics=256)

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
        assert result.final_log_error / math.log(2) == pytest.approx(log2_error, rel=1e-10)
        assert [rec.p_success for rec in result.rounds] == pytest.approx(p_success, rel=1e-12)
        assert run_protocol_sparse(n).final.output.indices == result.final.output.indices


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
        w = spectrum_of(approx_initial_state(8))
        out = symmetric_round(w).output
        order_in = np.argsort(w.weights)
        order_out = np.argsort(out.weights[order_in])
        assert (np.diff(out.weights[order_in]) >= -1e-18).all()
        assert (order_out == np.arange(len(order_out))).all()

    def test_sideband_ratio_squares_exactly(self):
        w = spectrum_of(approx_initial_state(10))
        out = symmetric_round(w).output
        N = 1 << 10
        ratio_in = w.weight(N - 3) / w.weight(1)
        ratio_out = out.weight(N - 3) / out.weight(1)
        assert ratio_out == pytest.approx(ratio_in ** 2, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 12])
    def test_normalization_preserved(self, n):
        result = run_protocol_exact(n)
        assert float(np.sum(np.abs(result.output_state.amps) ** 2)) == pytest.approx(
            1.0, abs=1e-9)
        sparse = run_protocol_sparse(n)
        sp = sparse.final.output
        assert sum(sp.weights().values()) + sp.tail_mass == pytest.approx(1.0, abs=1e-9)
