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
    """Build the approximate index-k state by QVR over the set bits of k.

    Set bit b applies the phase exp(2*pi*i * y * 2**b / N), its fraction
    floored to ``truncate_bits`` bits as kickback against a fundamental
    Fourier state of that many qubits (n or more bits are exact), looked up
    in a table of its 2**t values.  One pass over blocks of 2**14 indices
    starts each block at 1/sqrt(N) and multiplies in the set bits' phases
    in bit order; the array is then transformed in place.
    """
    require_register_size(n)
    t = default_truncate_bits(n) if truncate_bits is None else truncate_bits
    if t < 1:
        raise ValueError(f"--truncate-bits {t} is below 1: each QVR phase keeps at least one bit")
    k %= 1 << n
    N = 1 << n
    kept = min(t, n)  # t >= n is already exact
    table = np.exp(2j * np.pi * np.arange(1 << kept) / (1 << kept))
    bits = [b for b in range(n) if (k >> b) & 1]
    amps = np.empty(N, dtype=complex)
    for part, y in _index_blocks(N):
        block = amps[part]
        block.fill(1.0 / math.sqrt(N))  # |+>^n
        q, phases = np.empty_like(y), np.empty_like(block)
        for b in bits:
            # the top t bits of (y * 2**b) mod N index the table
            np.left_shift(y, b, out=q)
            q &= N - 1
            q >>= n - kept
            block *= table.take(q, mode="wrap", out=phases)
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
