"""Reference oracles for the tests: slow, direct forms of what the package
computes by faster routes."""
import math

import numpy as np

from fourierdistill import CapacityError, FourierAmplitudes, StateVector


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
