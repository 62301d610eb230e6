"""Distillation of Fourier states with arbitrary index k.

Approximate initial states come from quantum-variable rotation (QVR): start
from the index-0 state |+>^n and, for every set bit b of k, apply the
diagonal phase exp(2*pi*i * y * 2**b / N) with the phase angle truncated to
a limited number of bits, modeling kickback against a shortened fundamental
Fourier state.  The truncation is fixed at :func:`default_truncate_bits`,
ceil(log2 n) + 2 bits, which provably leaves the Fourier weight at k above
one half for every n and k, so k is the prepared state's dominant index.

Distillation then runs the same symmetric postselected rounds as the
fundamental protocol but at full register width every round: appending |+>
qubits preserves only the small-index interpretation of a harmonic, so no
doubling schedule applies and the Toffoli cost is quadratic in n.
:func:`distill_k` prepares the QVR state in a 2**n buffer and runs the exact
engine's loop over the schedule (n,) * rounds on that same buffer.
"""
from __future__ import annotations

import math

import numpy as np

from .distill import ProtocolResult, ProtocolSchedule, _exact_rounds
from .errors import CapacityError
from .fourier import _BLOCK, _unitary_fft, require_register_size

#: Most rounds of one distill_k run: the error reads 0.0 in double precision
#: well before this many squarings.
MAX_ROUNDS = 64


def default_truncate_bits(n: int) -> int:
    """ceil(log2(n)) + 2, the phase truncation t of every QVR-prepared state.

    It makes k dominant: 2**t >= 4n, and each of the at most n set bits of k
    floors its phase by less than 2**-t of a turn, so the total phase error
    eps(y) lies in [0, pi/2).  So |<f_k|psi>| = |mean e^(i eps)| >=
    mean cos(eps - pi/4) > cos(pi/4) (or eps = 0 and psi is exact), the
    weight at k is above 1/2, and no other weight can match it.  For t >= n
    the phases are exact.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return max(1, math.ceil(math.log2(n))) + 2


def _qvr_coefficients(n: int, k: int, t: int) -> np.ndarray:
    """Fourier coefficients of the approximate index-k state, QVR over the
    set bits of k, as a new writable array of 2**n entries.

    Set bit b applies the phase exp(2*pi*i * y * 2**b / N), its fraction
    floored to ``t`` bits as kickback against a fundamental Fourier state of
    that many qubits (n or more bits are exact), looked up in a table of its
    2**t values.  One pass over blocks of ``_BLOCK`` indices starts each
    block at 1/sqrt(N) and multiplies in the set bits' phases in bit order,
    through one index block, advanced in place, and one scratch each for the
    table positions and the looked-up phases; these go before the array is
    transformed in place.
    """
    N = 1 << n
    kept = min(t, n)  # t >= n is already exact
    table = np.exp(2j * np.pi * np.arange(1 << kept) / (1 << kept))
    bits = [b for b in range(n) if (k >> b) & 1]
    amps = np.empty(N, dtype=complex)
    y = np.arange(min(N, _BLOCK))
    q, phases = np.empty_like(y), np.empty(len(y), dtype=complex)
    for lo in range(0, N, len(y)):
        block = amps[lo:lo + len(y)]
        block.fill(1.0 / math.sqrt(N))  # |+>^n
        for b in bits:
            # the top t bits of (y * 2**b) mod N index the table
            np.left_shift(y, b, out=q)
            q &= N - 1
            q >>= n - kept
            block *= table.take(q, mode="wrap", out=phases)
        y += len(y)
    del y, q, phases, block
    return _unitary_fft(amps)


def distill_k(n: int, k: int, rounds: int) -> tuple[float, ProtocolResult]:
    """Prepare the approximate index-k state by QVR and distill it toward k
    with full-width rounds.

    n, then ``rounds`` are checked before anything is allocated.  Returns the
    prepared state's weight at k (k taken mod 2**n), its initial fidelity,
    and the exact engine's protocol on the schedule (n,) * rounds with
    target k, run by squaring the prepared coefficients in place; the output
    is all 2**n of them, and the Toffoli cost is the
    ``resources.ResourceReport`` of ``result.schedule``.
    """
    require_register_size(n)
    if rounds < 1:
        raise ValueError(f"--rounds {rounds} is below 1: distillation needs at least one round")
    if rounds > MAX_ROUNDS:
        raise CapacityError(f"--rounds {rounds} exceeds the limit of {MAX_ROUNDS} rounds")
    k %= 1 << n
    coeffs = _qvr_coefficients(n, k, default_truncate_bits(n))
    initial_fidelity = float(np.abs(coeffs[k]) ** 2)
    schedule = ProtocolSchedule(n, (n,) * rounds)
    return initial_fidelity, ProtocolResult(
        schedule, *_exact_rounds(coeffs, len(coeffs), schedule.sizes, k))
