"""Reference oracles for the tests: slow, direct forms of what the package
computes by faster routes, and circuits that witness the figures it states."""
import math
import tracemalloc
from collections.abc import Mapping
from typing import Callable

import mpmath
import numpy as np

from fourierdistill import (
    CapacityError,
    Gate,
    GateCircuit,
    SparseSpectrum,
    StateVector,
    apply_circuit,
    approx_state_circuit,
    build_distillation_circuit,
    default_truncate_bits,
    extract_register,
    plan_schedule,
    to_fourier_basis,
)
from fourierdistill import arbitrary, distill, fourier
from fourierdistill.distill import DEFAULT_MAX_HARMONICS, NEG_INF


def traced_peak(fn):
    """``(fn(), peak bytes tracemalloc saw while fn ran)``."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def from_fourier_basis(coeffs: np.ndarray) -> StateVector:
    """Exact inverse of :func:`fourierdistill.to_fourier_basis`: the state
    sum_j coeffs[j] |fourier_j>, by one inverse FFT."""
    return StateVector(fourier._unitary_fft(np.array(coeffs, dtype=complex),
                                            inverse=True))


def dft_direct(s: StateVector) -> np.ndarray:
    """O(N^2) transform kept as an independent cross-check for the FFT path.

    Capped at n = 10; use :func:`fourierdistill.to_fourier_basis` for real work.
    """
    if s.n > 10:
        raise CapacityError(f"n={s.n} exceeds the direct-transform cap 10")
    N = s.dim
    jy = np.outer(np.arange(N), np.arange(N))
    w = np.exp(-2j * np.pi * jy / N) / math.sqrt(N)
    return w @ s.amps


def fidelity(s: StateVector, n: int, k: int) -> float:
    """Squared overlap of a state with the index-k Fourier state, summed
    directly; the phase k*y/N is reduced mod N in integers, so it stays exact."""
    if s.n != n:
        raise ValueError(f"dimension mismatch: state has n={s.n}, expected {n}")
    N = s.dim
    phase = (k % N) * np.arange(N, dtype=np.int64) % N
    overlap = np.sum(np.exp(-2j * np.pi * phase / N) * s.amps) / math.sqrt(N)
    return float(abs(overlap) ** 2)


def spread_coset(coset: np.ndarray, stride: int = distill.COSET_STRIDE,
                 r: int = 1) -> np.ndarray:
    """Full-length Fourier coefficients of an exact-engine output: the coset
    c[r::stride] in place, zeros elsewhere.  The defaults are
    ``run_protocol_exact``'s coset; ``distill_k``'s is stride 1, r = 0."""
    coeffs = np.zeros(stride * len(coset), dtype=complex)
    coeffs[r::stride] = coset
    return coeffs


def output_state(result) -> StateVector:
    """Final register state of an exact-engine protocol run, rebuilt from the
    last round's Fourier coefficients."""
    return from_fourier_basis(spread_coset(result.output))


def initial_sparse_spectrum(n: int, max_harmonics: int = DEFAULT_MAX_HARMONICS) -> SparseSpectrum:
    """Sparse form of the approximate initial state's exact Fourier weights.

    Harmonics live at signed j = 1 (mod 4); they are kept in order of
    decreasing weight (increasing |j|) up to ``max_harmonics``, remainder in
    the tail.  With max_harmonics >= 2**n / 4 the spectrum is exact.
    """
    if n < 2:
        raise ValueError("initial spectrum needs n >= 2")
    count = min((1 << n) // 4, max_harmonics)
    odd = np.arange(1, 2 * count, 2)  # |j|, so j = 1, -3, 5, -7, ...
    # log of the closed form 8 / (N sin(pi |j| / N))**2, see initial_state_weight
    lw = math.log(8.0) - 2.0 * (n * math.log(2.0) + np.log(np.sin(np.pi * np.ldexp(odd, -n))))
    tail = max(0.0, 1.0 - np.exp(lw).sum()) if count < (1 << n) // 4 else 0.0
    indices = np.where(odd % 4 == 1, odd, -odd).tolist()
    return SparseSpectrum._ordered(n, lw, indices, math.log(tail) if tail > 0 else NEG_INF)


def _signed_index(j: int, N: int) -> int:
    """Canonical signed harmonic index in (-N/2, N/2]."""
    m = j % N
    return m - N if m > N // 2 else m


def sparse_spectrum(n: int, log_weights: Mapping[int, float]) -> SparseSpectrum:
    """Spectrum of an n-qubit register from a mapping ``{index: log_weight}``
    of its whole mass: indices taken mod 2**n, heaviest first, ties in the
    mapping's order."""
    indices = [_signed_index(j, 1 << n) for j in log_weights]
    if len(set(indices)) != len(indices):
        raise ValueError("harmonic indices must be distinct modulo 2**n")
    lw = np.fromiter(log_weights.values(), float, len(indices))
    order = np.argsort(-lw, kind="stable")
    return SparseSpectrum._ordered(n, lw[order], [indices[i] for i in order.tolist()], NEG_INF)


def sparse_weight(sp: SparseSpectrum, j: int) -> float:
    """Weight of harmonic j (taken mod 2**n) in a sparse spectrum; 0 if not kept."""
    try:
        pos = sp.indices.index(_signed_index(j, 1 << sp.n))
    except ValueError:
        return 0.0
    return math.exp(sp.log_weights[pos])


def sparse_weights(sp: SparseSpectrum) -> dict[int, float]:
    """Kept harmonics of a sparse spectrum as ``{signed index: weight}``."""
    return dict(zip(sp.indices, np.exp(sp.log_weights).tolist()))


def apply_permutation(perm: np.ndarray, s: StateVector) -> StateVector:
    """Apply a basis-state permutation to a state."""
    if len(perm) != s.dim:
        raise ValueError("permutation size does not match state dimension")
    out = np.empty_like(s.amps)
    out[perm] = s.amps
    return StateVector(out)


def _amplitude_round(coeffs: np.ndarray, k: int):
    """One symmetric step on raw coefficients: (p, fidelity, error, log_error), output."""
    product = coeffs * coeffs
    weights = np.abs(product) ** 2
    p = float(weights.sum())
    err = float(weights[:k].sum() + weights[k + 1:].sum()) / p
    out = product / math.sqrt(p)
    fid = float(abs(out[k]) ** 2)
    return (p, fid, err, math.log(err) if err > 0 else -math.inf), out


def squared_weights(weights: np.ndarray) -> tuple[float, np.ndarray]:
    """One symmetric step on weights alone: p = sum w**2, output w**2 / p."""
    squares = weights ** 2
    p = float(squares.sum())
    return p, squares / p


def approx_initial_state(n: int) -> StateVector:
    """The approximate initial state in closed form: amplitude i**q / sqrt(N)
    on |y>, q the top two bits of y (n >= 2), the state that
    ``approx_state_circuit(n)`` prepares from |0...0>."""
    N = 1 << n
    return StateVector(np.repeat(np.array([1, 1j, -1, -1j]), N // 4) / math.sqrt(N))


def extend_register(s: StateVector, n_new: int) -> StateVector:
    """Append |+> qubits on the least significant side up to n_new qubits,
    as the literal tensor product with the |+> state."""
    if n_new < s.n:
        raise ValueError(f"cannot shrink register from {s.n} to {n_new}")
    fourier.require_register_size(n_new)
    if n_new == s.n:
        return s
    pad = 1 << (n_new - s.n)
    return StateVector(np.kron(s.amps, np.full(pad, 1.0 / math.sqrt(pad))))


def exact_protocol_reference(n: int, s0: int = 5, pad: int = 2) -> tuple[list[tuple], np.ndarray]:
    """Per-round (size, p_success, fidelity, error, log_error) of the dense
    protocol in its direct form, and the final round's output coefficients:
    full-length vectors, ``np.kron`` extension, an inverse and a forward FFT
    only where the register grows, and ``abs(product) ** 2`` weights."""
    sizes = plan_schedule(n, s0, pad).sizes
    N = 1 << sizes[0]
    amps = approx_initial_state(sizes[0]).amps
    coeffs = np.fft.fft(amps) / math.sqrt(N)
    rounds = []
    for size in sizes:
        pad = (1 << size) // len(coeffs)
        if pad > 1:
            amps = np.fft.ifft(coeffs) * math.sqrt(len(coeffs))
            amps = np.kron(amps, np.full(pad, 1.0 / math.sqrt(pad)))
            coeffs = np.fft.fft(amps) / math.sqrt(len(amps))
        record, coeffs = _amplitude_round(coeffs, 1)
        rounds.append((size, *record))
    return rounds, coeffs


def gate_level_protocol(n: int, s0: int = 5, pad: int = 2) -> tuple[list[tuple], np.ndarray]:
    """Per-round (size, p_success) of the protocol run gate by gate, and the
    final register's Fourier weights.

    The first register is ``approx_state_circuit`` applied to |0...0>.  Before
    each larger round, fresh |0> qubits join on the least significant side
    and each takes an H; each round then takes two copies and the carry
    ancilla through ``build_distillation_circuit`` and postselects with
    ``extract_register``.
    """
    sizes = plan_schedule(n, s0, pad).sizes
    zeros = StateVector(np.eye(1, 1 << sizes[0], dtype=complex)[0])
    state = apply_circuit(approx_state_circuit(sizes[0]), zeros)
    rounds = []
    for size in sizes:
        if size > state.n:
            fresh = np.eye(1, 1 << (size - state.n))[0]
            hadamards = tuple(Gate("H", (q,)) for q in range(state.n, size))
            state = apply_circuit(GateCircuit(size, hadamards),
                                  StateVector(np.kron(state.amps, fresh)))
        circuit, second = build_distillation_circuit(size)
        joint = StateVector(np.kron(np.kron(state.amps, state.amps), [1.0, 0.0]))
        p, state = extract_register(apply_circuit(circuit, joint), second)
        rounds.append((size, p))
    return rounds, np.abs(to_fourier_basis(state)) ** 2


def counted_transforms(monkeypatch) -> list[tuple[int, bool]]:
    """Patch the package's unitary FFT in every module that calls it; each
    transform appends (length, inverse) to the returned list."""
    calls = []
    transform = fourier._unitary_fft

    def counted(buf, inverse=False):
        calls.append((len(buf), inverse))
        return transform(buf, inverse)

    for module in (fourier, distill, arbitrary):
        monkeypatch.setattr(module, "_unitary_fft", counted)
    return calls


def _logsumexp_reference(values: np.ndarray) -> float:
    top = values.max(initial=-math.inf)
    if top == -math.inf:
        return -math.inf
    return float(top + math.log(np.exp(values - top).sum()))


def log_extension_kernel_reference(n_coarse: int, n_fine: int, indices, m) -> np.ndarray:
    """``log_extension_kernel`` with each coarse frequency an exact int
    division j / 2**n_coarse, whole-array temporaries and no ``out``."""
    d = n_fine - n_coarse
    f = np.array([j / (1 << n_coarse) for j in indices], dtype=float)[:, None]
    num = np.log(np.sin(np.pi * np.abs(f)))
    den = np.log(np.abs(np.sin(np.ldexp(np.pi * (f + m), -d))))
    return 2.0 * ((num - d * math.log(2.0)) - den)


def sparse_extend_reference(sp: SparseSpectrum, n_new: int, max_harmonics: int,
                            blocked: bool = True) -> SparseSpectrum:
    """``sparse_extend`` in its direct form: the zero-order-hold kernel and the
    candidates as separate whole arrays, selection over a copy of the
    candidates, and the tail bound as the log-sum-exp of three parts, the
    carried tail, the class remainders and the pruned mass.

    The pruned mass is summed in the engine's grouping: one part per block of
    rows for the candidates below the lower bound on the cut (the
    ``max_harmonics``-th largest of the first ``2 * max_harmonics``), and one
    for the candidates at or above it that are not kept.  With ``blocked``
    false it is one sum over every pruned candidate instead."""
    Ns, Nf = 1 << sp.n, 1 << n_new
    members = 1 << (n_new - sp.n)
    budget = max(16, (4 * max_harmonics) // len(sp))
    span = min(members, budget)
    half = span // 2
    lk = log_extension_kernel_reference(sp.n, n_new, sp.indices, np.arange(-half, span - half))
    log_rem = -math.inf
    if members > budget:
        kernel = np.exp(lk)
        deficit = 1.0 - kernel.sum(axis=1)
        rem = np.where(deficit > 1e-13, deficit, (kernel[:, 0] + kernel[:, -1]) * half)
        has_rem = rem > 0.0
        log_rem = _logsumexp_reference(sp.log_weights[has_rem] + np.log(rem[has_rem]))
    candidates = (sp.log_weights[:, None] + lk).ravel()
    surplus = len(candidates) - max_harmonics
    cut = np.partition(candidates, surplus)[surplus] if surplus > 0 else -math.inf
    chosen = candidates > cut
    chosen[np.flatnonzero(candidates == cut)[:max_harmonics - np.count_nonzero(chosen)]] = True
    kept = np.flatnonzero(chosen)
    kept = kept[np.argsort(-candidates[kept], kind="stable")]
    dropped = np.where(chosen, -math.inf, candidates)
    if not blocked:
        pruned = _logsumexp_reference(dropped)
    else:
        size = min(len(sp), -(-max(2 * max_harmonics, distill._EXTEND_BLOCK) // span)) * span
        head = np.sort(candidates[:2 * max_harmonics])
        lower = head[-max_harmonics] if len(head) >= max_harmonics else -math.inf
        survive = candidates >= lower
        below = np.where(survive, -math.inf, candidates)
        parts = [_logsumexp_reference(below[lo:lo + size])
                 for lo in range(0, len(candidates), size)]
        parts.append(_logsumexp_reference(dropped[survive]))
        pruned = _logsumexp_reference(np.array(parts))
    row, col = np.divmod(kept, span)
    indices = [_signed_index(sp.indices[c] + Ns * (k - half), Nf)
               for c, k in zip(row.tolist(), col.tolist())]
    log_tail = _logsumexp_reference(np.array([sp.log_tail, log_rem, pruned]))
    return SparseSpectrum._ordered(n_new, candidates[kept], indices, log_tail)


def _sparse_extend_mp(spectrum: list, tail, n: int, n_new: int, max_harmonics: int):
    """One ``sparse_extend`` on ``(index, weight)`` pairs in descending weight
    order, with linear mpmath weights: every enumerated member of every class
    is a candidate, the unenumerated class remainder joins the tail, and of
    the candidates (stably sorted, so ties keep class-then-member order) the
    ``max_harmonics`` heaviest are kept and the rest join the tail."""
    Ns, Nf, d = 1 << n, 1 << n_new, n_new - n
    members = 1 << d
    span = min(members, max(16, (4 * max_harmonics) // len(spectrum)))
    half = span // 2
    offsets = range(-half, span - half)
    candidates = []
    for j, w in spectrum:
        f = mpmath.mpf(j) / Ns
        num = mpmath.sin(mpmath.pi * f) ** 2 / mpmath.mpf(4) ** d
        kernel = [num / mpmath.sin(mpmath.ldexp(mpmath.pi * (f + m), -d)) ** 2
                  for m in offsets]
        if members > span:
            # the engine's rule: the deficit where float resolves it, else
            # the 1/m**2 lobe-decay bound
            deficit = 1 - mpmath.fsum(kernel)
            tail += w * (deficit if deficit > 1e-13 else (kernel[0] + kernel[-1]) * half)
        # member m of class j is j + Ns * m, as a signed index of the fine register
        candidates += [(w * k, (j + Ns * m + Nf // 2) % Nf - Nf // 2)
                       for k, m in zip(kernel, offsets)]
    candidates.sort(key=lambda c: -c[0])
    tail += mpmath.fsum(w for w, _ in candidates[max_harmonics:])
    return [(j, w) for w, j in candidates[:max_harmonics]], tail


def sparse_protocol_mp(n: int, max_harmonics: int, dps: int) -> list[tuple]:
    """The sparse engine's protocol in mpmath at ``dps`` digits:
    ``(p_success, log_error, log_tail)`` of each round of ``plan_schedule(n)``,
    as mpf with natural logs, the tail that of the round's output.

    Each round extends as :func:`_sparse_extend_mp` (``sparse_extend``'s
    budget, span, cut and tail) and squares as ``sparse_symmetric_round``
    does: weights and tail squared, p their sum, everything divided by p, and
    the error every weight off index 1 plus the tail.  Weights are linear,
    so nothing cancels at float precision; the truncation is the engine's,
    so this checks the engine's arithmetic, not its truncation.
    """
    with mpmath.workdps(dps):
        spectrum, tail, size = [(1, mpmath.mpf(1))], mpmath.mpf(0), 2
        rounds = []
        for new in plan_schedule(n).sizes:
            if new > size:
                spectrum, tail = _sparse_extend_mp(spectrum, tail, size, new, max_harmonics)
                size = new
            p = mpmath.fsum(w ** 2 for _, w in spectrum) + tail ** 2
            spectrum, tail = [(j, w ** 2 / p) for j, w in spectrum], tail ** 2 / p
            error = mpmath.fsum(w for j, w in spectrum if j != 1) + tail
            rounds.append((p, mpmath.log(error), mpmath.log(tail)))
    return rounds


def qvr_phase(s: StateVector, bit: int, truncate_bits: int) -> StateVector:
    """Apply the quantized diagonal phase exp(2*pi*i * y * 2**bit / N).

    The phase fraction is truncated (floored) to ``truncate_bits`` bits, and
    looked up in a table of its 2**t values, one bit per call: chained over
    the set bits of k from |+>^n, it is the state ``distill_k`` builds in
    one pass (``arbitrary._qvr_coefficients``).
    """
    if not 0 <= bit < s.n:
        raise ValueError(f"bit {bit} out of range for an {s.n}-qubit register")
    if truncate_bits < 1:
        raise ValueError("truncate_bits must be positive")
    if 2 * s.n > 62:
        # y shifted left by up to n - 1 bits must fit in int64
        raise CapacityError("quantized phase arithmetic supports n <= 31")
    t = min(truncate_bits, s.n)  # t >= n is already exact
    table = np.exp(2j * np.pi * np.arange(1 << t) / (1 << t))
    shift = s.n - t - bit
    amps = np.empty(s.dim, dtype=complex)
    for part, q in fourier._index_blocks(s.dim):
        # top t bits of (y * 2**bit) mod N, as one shift and mask in place
        if shift >= 0:
            q >>= shift
        else:
            q <<= -shift
        q &= (1 << t) - 1
        phases = np.take(table, q, mode="wrap", out=amps[part])
        np.multiply(s.amps[part], phases, out=phases)
    return StateVector(amps)


def qvr_state_reference(n: int, k: int, truncate_bits: int) -> np.ndarray:
    """Amplitudes of the QVR-prepared index-k state, each phase evaluated by
    ``np.exp`` per amplitude from |+>^n."""
    N = 1 << n
    t = min(truncate_bits, n)
    y = np.arange(N, dtype=np.int64)
    state = np.exp(2j * np.pi * 0 * y / N) / math.sqrt(N)
    for b in range(n):
        if (k >> b) & 1:
            quantized = ((y << b) % N) << t >> n
            state = state * np.exp(2j * np.pi * quantized / (1 << t))
    return state


def distill_k_reference(n: int, k: int, rounds: int) -> tuple[float, list[tuple]]:
    """Initial fidelity (the weight at k) and per-round (p_success, fidelity,
    error, log_error) of ``distill_k`` from :func:`qvr_state_reference`, with
    each round squaring complex coefficients."""
    N = 1 << n
    coeffs = np.fft.fft(qvr_state_reference(n, k, default_truncate_bits(n))) / math.sqrt(N)
    initial = float((np.abs(coeffs) ** 2)[k])
    trace = []
    for _ in range(rounds):
        record, coeffs = _amplitude_round(coeffs, k)
        trace.append(record)
    return initial, trace


def rounds_required_simplified(n: int) -> int:
    """Constant-folded round count ceil(log2(0.63 n - 1.04)) for n >= 4.

    Agrees with ``rounds_required`` except where the argument lands on a
    power of two (n = 8 in [6, 100]).
    """
    return math.ceil(math.log2(0.63 * n - 1.04))


def predicted_log_error(sizes) -> float:
    """Closed-form natural-log error of a schedule: the j = -3 sideband alone.

    rho(s) = ln(sin^2(pi/2**s) / sin^2(3 pi/2**s)) is the log ratio
    w_-3 / w_1 of the s-qubit initial spectrum.  Extending from s to s'
    re-aliases it by rho(s') - rho(s), and a round doubles it, so with the
    2-qubit start (rho(2) = 0) L_r = 2 (L_(r-1) + rho(s_r) - rho(s_(r-1)))
    and the error after the last round is about exp(L_R).  It is a model,
    not a bound: it leaves out every other sideband.  Since sin 3x =
    sin x (3 - 4 sin^2 x), rho(s) = -2 ln(3 - 4 sin^2(pi/2**s)), which tends
    to -2 ln 3 where the quotient of sines is 0/0 (from s = 1077).
    """
    def rho(s):
        return -2.0 * math.log(3.0 - 4.0 * math.sin(math.ldexp(math.pi, -s)) ** 2)

    log_ratio = previous = 0.0
    for s in sizes:
        current = rho(s)
        log_ratio = 2.0 * (log_ratio + current - previous)
        previous = current
    return log_ratio


def series_coefficient(j: int) -> complex:
    """Fourier-series coefficient of the two-bit staircase phase function.

    Nonzero only for harmonics j = 1 (mod 4), including negative j, where it
    equals (2 - 2i)/(pi*j); its squared magnitude is ``series_weight``.  The
    j = 0 coefficient vanishes.
    """
    if j % 4 != 1:
        return 0j
    return (2 - 2j) / (math.pi * j)


def alias_fold(n: int, series: Callable[[int], complex], j_max: int) -> tuple[np.ndarray, float]:
    """Fold a Fourier series onto the N-point discrete spectrum.

    Discrete sampling aliases harmonic N*x + j onto index j, so the discrete
    coefficient is the sum of the series over the aliasing class, truncated
    to |N*x + j| <= j_max and then renormalized.  Returns the folded
    amplitudes together with the truncated tail mass (series weight outside
    the truncation window, assuming the full series has unit mass).

    Note on conventions: a Fourier series converges to jump midpoints, so
    for a discontinuous phase staircase sampled exactly at its jumps the
    fold reproduces the midpoint-sampled transform.  Against the state's
    right-limit samples (``approx_initial_state``) the folded weights agree
    only to O(1/N); per-harmonic ratios match the closed form
    (2-2i)/N * cot(pi*j/N) to truncation accuracy.
    """
    N = 1 << n
    if j_max < N:
        raise ValueError(f"j_max must be at least N = {N}")
    coeffs = np.zeros(N, dtype=complex)
    kept_mass = 0.0
    for j in range(N):
        x_lo = -((j_max + j) // N)
        x_hi = (j_max - j) // N
        total = 0j
        for x in range(x_lo, x_hi + 1):
            c = complex(series(N * x + j))
            total += c
            kept_mass += abs(c) ** 2
        coeffs[j] = total
    tail = max(0.0, 1.0 - kept_mass)
    norm = math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
    if norm < 1e-150:
        raise ValueError("series is zero on the truncation window")
    return coeffs / norm, tail


def toffoli_closed_form(R: int, s: int) -> int:
    """Total protocol Toffolis, closed form: 2**(R+1)*R*s - 2**(R+2) + 4.

    Its per-round register size is 2**r * s for round r, so it equals
    :func:`toffoli_sum_direct` by construction and exceeds the schedule
    accounting of ``ResourceReport``, which walks the capped sizes.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    if s < 3:
        raise ValueError("s must be at least 3")
    return (1 << (R + 1)) * R * s - (1 << (R + 2)) + 4


def toffoli_sum_direct(R: int, s: int) -> int:
    """Defining sum of ``toffoli_closed_form``: round r holds 2**(R-r) adders
    of 2**(r+1)*s - 4 Toffolis each.

    This uncapped doubling accounting sizes round r at 2**r * s qubits (one
    doubling ahead of the capped schedule, which enters round one at s0
    qubits); the two accountings differ on purpose.
    """
    return sum((1 << (R - r)) * ((1 << (r + 1)) * s - 4) for r in range(1, R + 1))


def epsilon_f_kickback_approx(p: int) -> float:
    """Small-angle form (pi/2**p)/sqrt(8) of ``epsilon_f_kickback``."""
    return math.ldexp(math.pi, -p) / math.sqrt(8.0)


def transform_cost(n: int) -> int:
    """Toffolis to transform between n-qubit Fourier states of odd index:
    sum of (s - 2) for s = 3 .. n-1, i.e. (n-3)(n-2)/2.

    This deterministic transform is the alternative to distilling an odd
    index directly; its circuit comes from prior constructions, so only the
    cost is stated, for comparison against distillation.
    """
    if n < 4:
        raise ValueError("index transform needs n >= 4")
    return (n - 3) * (n - 2) // 2


def circuit_to_text(circuit: GateCircuit) -> str:
    """Stable plain-text gate list: header ``QUBITS n``, one gate per line."""
    lines = [f"QUBITS {circuit.num_qubits}"]
    for g in circuit.gates:
        lines.append(" ".join([g.name] + [str(q) for q in g.qubits]))
    return "\n".join(lines) + "\n"


def build_constant_adder_circuit(n: int, addend: int) -> GateCircuit:
    """Known-addend adder: register += addend mod 2**n, n - 2 Toffolis.

    With one addend classical, half the Toffolis of the in-place adder
    short-circuit into Clifford gates: the carry into position i + 1 is
    majority(addend_i, w_i, carry_i), which needs one Toffoli when the
    addend bit is set or clear plus CNOTs, and position 0 needs none.  This
    is the adder phase kickback uses, so a rotation accurate to p bits costs
    p - 1 Toffolis on a (p + 1)-qubit Fourier register: the witness of the
    kickback columns of ``comparison_table``.

    Layout: register on qubits [0, n), carry ancillas for positions 1..n-1
    on [n, 2n - 1).  Carries are left computed (dirty); uncomputing them is
    a measurement-based Clifford fixup and adds no Toffoli gates.
    """
    if n < 3:
        raise ValueError("constant adder needs n >= 3")
    addend %= 1 << n
    qw = lambda i: n - 1 - i          # register bit i (LSB = 0)
    qc = lambda i: n + i - 1          # carry into position i, for i >= 1
    bit = lambda i: (addend >> i) & 1
    gates: list[Gate] = []
    # forward carry chain from the original register bits
    if bit(0):
        gates.append(Gate("CNOT", (qw(0), qc(1))))
    for i in range(1, n - 1):
        gates.append(Gate("TOFFOLI", (qw(i), qc(i), qc(i + 1))))
        if bit(i):
            gates.append(Gate("CNOT", (qw(i), qc(i + 1))))
            gates.append(Gate("CNOT", (qc(i), qc(i + 1))))
    # sum bits: w_i ^= addend_i ^ carry_i
    for i in range(n):
        if bit(i):
            gates.append(Gate("X", (qw(i),)))
        if i >= 1:
            gates.append(Gate("CNOT", (qc(i), qw(i))))
    return GateCircuit(2 * n - 1, tuple(gates))
