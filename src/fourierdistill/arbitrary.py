"""Distillation of Fourier states with arbitrary index k.

Approximate initial states come from quantum-variable rotation (QVR): start
from the index-0 state |+>^n and, for every set bit b of k, apply the
diagonal phase exp(2*pi*i * y * 2**b / N) with the phase angle truncated to
a limited number of bits, modeling kickback against a shortened fundamental
Fourier state.  Truncation to ceil(log2(n)) + 2 bits keeps the aggregate
infidelity well under one half for register sizes of interest.

Distillation then runs the same symmetric postselected rounds as the
fundamental protocol but at full register width every round: appending |+>
qubits preserves only the small-index interpretation of a harmonic, so no
doubling schedule applies and the Toffoli cost is quadratic in n.  The
rounds run on the exact engine's loop over the schedule (n,) * rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distill import ProtocolResult, ProtocolSchedule, _exact_rounds
from .errors import CapacityError, DegenerateInputError
from .fourier import (
    FourierAmplitudes,
    StateVector,
    _adopt,
    _index_blocks,
    _unitary_fft,
    require_register_size,
)

#: Most rounds of one distill_k run: the error reads 0.0 in double precision
#: well before this many squarings.
MAX_ROUNDS = 64


def default_truncate_bits(n: int) -> int:
    """ceil(log2(n)) + 2: per-gate error O(1/n) with margin for n gates."""
    if n < 1:
        raise ValueError("n must be positive")
    return max(1, math.ceil(math.log2(n))) + 2


def qvr_phase(s: StateVector, bit: int, truncate_bits: int) -> StateVector:
    """Apply the quantized diagonal phase exp(2*pi*i * y * 2**bit / N).

    The phase fraction is truncated (floored) to ``truncate_bits`` bits,
    matching kickback against a fundamental Fourier state shortened to that
    many qubits; truncating to at least n bits reproduces the exact phase,
    which shifts every Fourier index by 2**bit.
    """
    if not 0 <= bit < s.n:
        raise ValueError(f"bit {bit} out of range for an {s.n}-qubit register")
    if truncate_bits < 1:
        raise ValueError("truncate_bits must be positive")
    if 2 * s.n > 62:
        # y shifted left by up to n - 1 bits must fit in int64
        raise CapacityError("quantized phase arithmetic supports n <= 31")
    t = min(truncate_bits, s.n)  # t >= n is already exact
    # the phase takes 2**t values: look them up instead of an exp per amplitude
    table = np.exp(2j * np.pi * np.arange(1 << t) / (1 << t))
    shift = s.n - t - bit
    amps = np.empty(s.dim, dtype=complex)
    for part, q in _index_blocks(s.dim):
        # top t bits of (y * 2**bit) mod N, as one shift and mask in place
        if shift >= 0:
            q >>= shift
        else:
            q <<= -shift
        q &= (1 << t) - 1
        phases = np.take(table, q, mode="wrap", out=amps[part])
        np.multiply(s.amps[part], phases, out=phases)
    return _adopt(StateVector, amps)


@dataclass(frozen=True)
class PreparedKState:
    """Fourier coefficients of the QVR-prepared approximation of the index-k state."""

    coefficients: FourierAmplitudes
    k: int
    truncate_bits: int

    @property
    def fidelity(self) -> float:
        """Overlap with the index-k Fourier state: the weight at k."""
        return float(np.abs(self.coefficients.coeffs[self.k]) ** 2)


def prepare_approx_k(n: int, k: int, truncate_bits: int | None = None) -> PreparedKState:
    """Build the approximate index-k state by QVR over the set bits of k."""
    require_register_size(n)
    t = default_truncate_bits(n) if truncate_bits is None else truncate_bits
    if t < 1:
        raise ValueError(f"--truncate-bits {t} is below 1: each QVR phase keeps at least one bit")
    k %= 1 << n
    N = 1 << n
    state = _adopt(StateVector, np.full(N, 1.0 / math.sqrt(N), dtype=complex))  # |+>^n
    for b in range(n):
        if (k >> b) & 1:
            state = qvr_phase(state, b, t)
    amps = state.amps  # the package alone holds it, so it transforms in place
    amps.flags.writeable = True
    return PreparedKState(_adopt(FourierAmplitudes, _unitary_fft(amps)), k, t)


def distill_k(prep: PreparedKState, rounds: int) -> ProtocolResult:
    """Distill a prepared state toward its index k with full-width rounds.

    This is the exact engine's protocol on the schedule (n,) * rounds with
    target k; no round changes the register size, so every round stays in
    the Fourier basis.  Its Toffoli cost is the ``resources.ResourceReport``
    of ``result.schedule``.  The input's dominant Fourier index must already
    be k; otherwise repeated squaring converges to the wrong index and the
    run is refused.
    """
    if rounds < 1:
        raise ValueError(f"--rounds {rounds} is below 1: distillation needs at least one round")
    if rounds > MAX_ROUNDS:
        raise CapacityError(f"--rounds {rounds} exceeds the limit of {MAX_ROUNDS} rounds")
    n = prep.coefficients.n
    dominant = int(np.argmax(np.abs(prep.coefficients.coeffs)))
    if dominant != prep.k:
        raise DegenerateInputError(
            f"dominant Fourier index {dominant} beats the target {prep.k} "
            f"(initial fidelity {prep.fidelity:.4f}); distillation would "
            f"converge to the wrong index: use a larger --truncate-bits "
            f"(default ceil(log2 n) + 2 = {default_truncate_bits(n)})")
    schedule = ProtocolSchedule(n, (n,) * rounds)
    coeffs = np.array(prep.coefficients.coeffs)
    return ProtocolResult(schedule, _exact_rounds(coeffs, len(coeffs), schedule.sizes, prep.k))
