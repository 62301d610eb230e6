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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distill import DistillationOutcome, RoundRecord, symmetric_round
from .errors import CapacityError, DegenerateInputError
from .fourier import (
    FourierSpectrum,
    StateVector,
    _adopt,
    pure_fourier_state,
    require_register_size,
    spectrum_of,
)
from .resources import adder_toffoli_count


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
    # top t bits of (y * 2**bit) mod N, as one shift and mask
    y = np.arange(s.dim, dtype=np.int64)
    shift = s.n - t - bit
    quantized = (y >> shift if shift >= 0 else y << -shift) & ((1 << t) - 1)
    return _adopt(StateVector, s.amps * table[quantized])


@dataclass(frozen=True)
class PreparedKState:
    """QVR-prepared approximation of the index-k Fourier state."""

    state: StateVector
    spectrum: FourierSpectrum
    n: int
    k: int
    truncate_bits: int

    @property
    def fidelity(self) -> float:
        """Overlap with the index-k Fourier state: the spectrum's weight at k."""
        return self.spectrum.weight(self.k)


def prepare_approx_k(n: int, k: int, truncate_bits: int | None = None) -> PreparedKState:
    """Build the approximate index-k state by QVR over the set bits of k."""
    require_register_size(n)
    k %= 1 << n
    t = default_truncate_bits(n) if truncate_bits is None else truncate_bits
    state = pure_fourier_state(n, 0)
    for b in range(n):
        if (k >> b) & 1:
            state = qvr_phase(state, b, t)
    return PreparedKState(state, spectrum_of(state), n, k, t)


@dataclass(frozen=True)
class KDistillationResult:
    """Full-width distillation run toward an arbitrary index."""

    n: int
    k: int
    truncate_bits: int
    rounds: int
    initial_fidelity: float
    trace: tuple[RoundRecord, ...]
    final: DistillationOutcome
    adders: int
    toffoli_cost: int


def distill_k(n: int, k: int, rounds: int,
              truncate_bits: int | None = None) -> KDistillationResult:
    """Distill toward index k with full-width symmetric rounds.

    A depth-d tree of full-width steps uses 2**d - 1 adders of 2n - 4
    Toffolis each.  The input's dominant Fourier index must already be k;
    otherwise repeated squaring converges to the wrong index and the run is
    refused.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    prep = prepare_approx_k(n, k, truncate_bits)
    spectrum = prep.spectrum
    dominant = spectrum.dominant_index()
    if dominant != prep.k:
        raise DegenerateInputError(
            f"dominant Fourier index {dominant} beats the target {prep.k} "
            f"(initial fidelity {prep.fidelity:.4f}); distillation would "
            f"converge to the wrong index")
    trace = []
    outcome = None
    for _ in range(rounds):
        outcome = symmetric_round(spectrum, target_k=prep.k)
        trace.append(RoundRecord(size=n, p_success=outcome.p_success,
                                 fidelity=outcome.fidelity, error=outcome.error,
                                 log_error=outcome.log_error))
        spectrum = outcome.output
    adders = (1 << rounds) - 1
    return KDistillationResult(
        n=n, k=prep.k, truncate_bits=prep.truncate_bits, rounds=rounds,
        initial_fidelity=prep.fidelity, trace=tuple(trace), final=outcome,
        adders=adders, toffoli_cost=adders * adder_toffoli_count(n),
    )

