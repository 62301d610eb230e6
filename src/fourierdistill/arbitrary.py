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
doubling schedule applies and the Toffoli cost is quadratic in n.
:func:`distill_k` prepares the QVR state in a 2**n buffer and runs the exact
engine's loop over the schedule (n,) * rounds on that same buffer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distill import ProtocolResult, ProtocolSchedule, _exact_rounds
from .errors import CapacityError, DegenerateInputError
from .fourier import _BLOCK, _index_blocks, _unitary_fft, require_register_size

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
    """The QVR-prepared approximation of the index-k state: k (reduced mod
    2**n), the phase truncation in bits, and the overlap with the index-k
    Fourier state, its weight at k."""

    k: int
    truncate_bits: int
    fidelity: float


def _qvr_coefficients(n: int, k: int, t: int) -> np.ndarray:
    """Fourier coefficients of the approximate index-k state, QVR over the
    set bits of k, as a new writable array of 2**n entries.

    Set bit b applies the phase exp(2*pi*i * y * 2**b / N), its fraction
    floored to ``t`` bits as kickback against a fundamental Fourier state of
    that many qubits (n or more bits are exact), looked up in a table of its
    2**t values.  One pass over blocks of 2**14 indices starts each block at
    1/sqrt(N) and multiplies in the set bits' phases in bit order; the array
    is then transformed in place.
    """
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
    return _unitary_fft(amps)


def distill_k(n: int, k: int, rounds: int,
              truncate_bits: int | None = None) -> tuple[PreparedKState, ProtocolResult]:
    """Prepare the approximate index-k state by QVR and distill it toward k
    with full-width rounds.

    n, then ``truncate_bits`` (default :func:`default_truncate_bits`), then
    ``rounds`` are checked before anything is allocated.  The rounds are the
    exact engine's protocol on the schedule (n,) * rounds with target k,
    squaring the prepared coefficients in place; the output is all 2**n of
    them.  The Toffoli cost is the ``resources.ResourceReport`` of
    ``result.schedule``.  The prepared state's dominant Fourier index must
    already be k; otherwise squaring converges to the wrong index and the
    run is refused.
    """
    require_register_size(n)
    t = default_truncate_bits(n) if truncate_bits is None else truncate_bits
    if t < 1:
        raise ValueError(f"--truncate-bits {t} is below 1: each QVR phase keeps at least one bit")
    if rounds < 1:
        raise ValueError(f"--rounds {rounds} is below 1: distillation needs at least one round")
    if rounds > MAX_ROUNDS:
        raise CapacityError(f"--rounds {rounds} exceeds the limit of {MAX_ROUNDS} rounds")
    k %= 1 << n
    coeffs = _qvr_coefficients(n, k, t)
    prep = PreparedKState(k, t, float(np.abs(coeffs[k]) ** 2))
    # the first largest |c_j|, as np.argmax finds it, one block of moduli at a time
    blocks = ((np.abs(coeffs[lo:lo + _BLOCK]), lo) for lo in range(0, len(coeffs), _BLOCK))
    dominant = min((-moduli.max(), lo + int(moduli.argmax())) for moduli, lo in blocks)[1]
    if dominant != k:
        raise DegenerateInputError(
            f"dominant Fourier index {dominant} beats the target {k} "
            f"(initial fidelity {prep.fidelity:.4f}); distillation would "
            f"converge to the wrong index: use a larger --truncate-bits "
            f"(default ceil(log2 n) + 2 = {default_truncate_bits(n)})")
    schedule = ProtocolSchedule(n, (n,) * rounds)
    return prep, ProtocolResult(schedule, *_exact_rounds(coeffs, len(coeffs), schedule.sizes, k))
