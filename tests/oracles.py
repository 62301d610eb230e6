"""Reference oracles for the tests: slow, direct forms of what the package
computes by faster routes."""
import math

import numpy as np

from fourierdistill import (
    CapacityError,
    FourierAmplitudes,
    StateVector,
    default_truncate_bits,
    plan_schedule,
)


def dft_direct(s: StateVector) -> FourierAmplitudes:
    """O(N^2) transform kept as an independent cross-check for the FFT path.

    Capped at n = 10; use :func:`fourierdistill.to_fourier_basis` for real work.
    """
    if s.n > 10:
        raise CapacityError(f"n={s.n} exceeds the direct-transform cap 10")
    N = s.dim
    jy = np.outer(np.arange(N), np.arange(N))
    w = np.exp(-2j * np.pi * jy / N) / math.sqrt(N)
    return FourierAmplitudes(w @ s.amps)


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


def exact_protocol_reference(n: int) -> list[tuple]:
    """Per-round (size, p_success, fidelity, error, log_error) of the dense
    protocol in its direct form: ``np.kron`` extension, a forward and an
    inverse FFT every round, and ``abs(product) ** 2`` weights."""
    sizes = plan_schedule(n).sizes
    N = 1 << sizes[0]
    amps = np.repeat(np.array([1, 1j, -1, -1j]), N // 4) / math.sqrt(N)
    rounds = []
    for size in sizes:
        pad = (1 << size) // len(amps)
        if pad > 1:
            amps = np.kron(amps, np.full(pad, 1.0 / math.sqrt(pad)))
        record, out = _amplitude_round(np.fft.fft(amps) / math.sqrt(len(amps)), 1)
        rounds.append((size, *record))
        amps = np.fft.ifft(out) * math.sqrt(len(out))
    return rounds


def distill_k_reference(n: int, k: int, rounds: int) -> tuple[float, list[tuple]]:
    """Initial fidelity and per-round (p_success, fidelity, error, log_error)
    of ``distill_k`` with each QVR phase evaluated by ``np.exp`` per amplitude."""
    N = 1 << n
    t = min(default_truncate_bits(n), n)
    y = np.arange(N, dtype=np.int64)
    state = np.exp(2j * np.pi * 0 * y / N) / math.sqrt(N)
    for b in range(n):
        if (k >> b) & 1:
            quantized = ((y << b) % N) << t >> n
            state = state * np.exp(2j * np.pi * quantized / (1 << t))
    initial = float(abs(np.sum(np.exp(-2j * np.pi * k * y / N) * state) / math.sqrt(N)) ** 2)
    weights = np.abs(np.fft.fft(state) / math.sqrt(N)) ** 2
    trace = []
    for _ in range(rounds):
        product = weights * weights
        p = float(product.sum())
        err = float(product[:k].sum() + product[k + 1:].sum()) / p
        weights = product / p
        trace.append((p, float(weights[k]), err, math.log(err) if err > 0 else -math.inf))
    return initial, trace
