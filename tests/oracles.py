"""Reference oracles for the tests: slow, direct forms of what the package
computes by faster routes, and circuits that witness the figures it states."""
import math

import numpy as np

from fourierdistill import (
    CapacityError,
    FourierAmplitudes,
    Gate,
    GateCircuit,
    RegisterLayout,
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


def fidelity(s: StateVector, n: int, k: int) -> float:
    """Squared overlap of a state with the index-k Fourier state, summed
    directly; the phase k*y/N is reduced mod N in integers, so it stays exact."""
    if s.n != n:
        raise ValueError(f"dimension mismatch: state has n={s.n}, expected {n}")
    N = s.dim
    phase = (k % N) * np.arange(N, dtype=np.int64) % N
    overlap = np.sum(np.exp(-2j * np.pi * phase / N) * s.amps) / math.sqrt(N)
    return float(abs(overlap) ** 2)


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
    """Initial fidelity (the weight at k) and per-round (p_success, fidelity,
    error, log_error) of ``distill_k`` with each QVR phase evaluated by
    ``np.exp`` per amplitude."""
    N = 1 << n
    t = min(default_truncate_bits(n), n)
    y = np.arange(N, dtype=np.int64)
    state = np.exp(2j * np.pi * 0 * y / N) / math.sqrt(N)
    for b in range(n):
        if (k >> b) & 1:
            quantized = ((y << b) % N) << t >> n
            state = state * np.exp(2j * np.pi * quantized / (1 << t))
    weights = np.abs(np.fft.fft(state) / math.sqrt(N)) ** 2
    initial = float(weights[k])
    trace = []
    for _ in range(rounds):
        product = weights * weights
        p = float(product.sum())
        err = float(product[:k].sum() + product[k + 1:].sum()) / p
        weights = product / p
        trace.append((p, float(weights[k]), err, math.log(err) if err > 0 else -math.inf))
    return initial, trace


def rounds_required_simplified(n: int) -> int:
    """Constant-folded round count ceil(log2(0.63 n - 1.04)) for n >= 4.

    Agrees with ``rounds_required`` except where the argument lands on a
    power of two (n = 8 in [6, 100]).
    """
    return math.ceil(math.log2(0.63 * n - 1.04))


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


def build_constant_adder_circuit(n: int, addend: int) -> tuple[GateCircuit, RegisterLayout]:
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
    layout = RegisterLayout(range(0, n), range(n, n), range(n, 2 * n - 1))
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
    return GateCircuit(2 * n - 1, tuple(gates)), layout
