"""Fourier states of qubit registers: construction, basis conversion, spectra.

An n-qubit Fourier state with index k is the register state whose amplitude
on computational basis state |y> is exp(2*pi*i*k*y/N)/sqrt(N), N = 2**n.
Qubit 0 is the most significant bit of y throughout the package, and the
transform sign convention is fixed by that definition (positive exponent in
the state, so the analysis transform carries the negative exponent).

The module also provides the Clifford-reachable approximation of the k=1
state (phase staircase with two bits of phase resolution), the harmonic
weights of its Fourier series, and the closed form of its discrete spectrum.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

#: Default cap on dense amplitude vectors (2**22 complex values, ~64 MB).
AMPLITUDE_CAP_DEFAULT = 22
#: Environment variable overriding the amplitude cap.
AMPLITUDE_CAP_ENV = "FOURIERDISTILL_AMP_CAP"

NORM_TOL = 1e-10


def amplitude_cap() -> int:
    """Current cap on n for dense amplitude vectors."""
    raw = os.environ.get(AMPLITUDE_CAP_ENV)
    if not raw:
        return AMPLITUDE_CAP_DEFAULT
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{AMPLITUDE_CAP_ENV}={raw!r} is not a whole number of qubits") from None


def require_register_size(n: int) -> None:
    """Validate 1 <= n <= amplitude cap for dense-vector use."""
    if n < 1:
        raise ValueError(f"--n {n} is below 1: a register needs at least one qubit")
    limit = amplitude_cap()
    if n > limit:
        raise CapacityError(
            f"n={n} exceeds the amplitude-vector cap {limit}; raise {AMPLITUDE_CAP_ENV}"
        )


def _register_bits(length: int) -> int:
    n = length.bit_length() - 1
    if length != 1 << n or n < 1:
        raise ValueError(f"array length {length} is not 2**n for n >= 1")
    return n


def _adopt(cls, arr: np.ndarray):
    """``cls`` around an array the package has just built and holds alone.

    The array is validated and frozen in place. The public constructors copy
    instead, because their caller may still hold the array.
    """
    obj = object.__new__(cls)
    obj._seal(arr)
    return obj


def _check_unit_norm(arr: np.ndarray, message: str) -> None:
    _register_bits(len(arr))
    norm = float(np.vdot(arr, arr).real)  # sum |arr|^2 without a temporary
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"{message} = {norm!r}")


def _freeze(obj, name: str, arr: np.ndarray) -> None:
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of an n-qubit register."""

    amps: np.ndarray

    def __post_init__(self):
        self._seal(np.array(self.amps, dtype=complex))

    def _seal(self, amps: np.ndarray) -> None:
        _check_unit_norm(amps, "state not normalized: sum |amps|^2")
        _freeze(self, "amps", amps)

    @property
    def n(self) -> int:
        return len(self.amps).bit_length() - 1

    @property
    def dim(self) -> int:
        return len(self.amps)


@dataclass(frozen=True)
class FourierAmplitudes:
    """Complex coefficients of a state expanded over Fourier states j = 0..N-1."""

    coeffs: np.ndarray

    def __post_init__(self):
        self._seal(np.array(self.coeffs, dtype=complex))

    def _seal(self, coeffs: np.ndarray) -> None:
        _check_unit_norm(coeffs, "coefficients not normalized: sum")
        _freeze(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs).bit_length() - 1

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def weights(self) -> np.ndarray:
        """Weights |coeffs|^2 over Fourier indices j = 0..N-1, as a new array."""
        weights = np.abs(self.coeffs)
        weights *= weights
        return weights


def pure_fourier_state(n: int, k: int) -> StateVector:
    """The n-qubit Fourier state with index k (k taken mod 2**n)."""
    require_register_size(n)
    N = 1 << n
    if not 0 <= k < N:
        k %= N
    y = np.arange(N)
    return _adopt(StateVector, np.exp(2j * np.pi * k * y / N) / math.sqrt(N))


def approx_initial_state(n: int) -> StateVector:
    """Clifford-only approximation of the fundamental (k=1) Fourier state.

    Qubit 0 carries a Z rotation, qubit 1 an S rotation, all remaining qubits
    stay in |+>.  Equivalently the amplitudes sample a piecewise-constant
    phase function with four steps: i**q / sqrt(N) with q the top two bits.
    """
    if n < 2:
        raise ValueError("approximate initial state needs n >= 2")
    require_register_size(n)
    N = 1 << n
    quarter_phases = np.array([1, 1j, -1, -1j])
    return _adopt(StateVector, np.repeat(quarter_phases, N // 4) / math.sqrt(N))


def to_fourier_basis(s: StateVector) -> FourierAmplitudes:
    """Expand a state over the orthonormal Fourier-state basis.

    coeffs[j] = <fourier_j | s>, i.e. the forward transform with negative
    exponent, computed by FFT into one new array.
    """
    return _adopt(FourierAmplitudes, _unitary_fft(np.array(s.amps)))


def from_fourier_basis(a: FourierAmplitudes) -> StateVector:
    """Exact inverse of :func:`to_fourier_basis`."""
    return _adopt(StateVector, _unitary_fft(np.array(a.coeffs), inverse=True))


def _unitary_fft(buf: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unitary FFT of a writable complex array, in place; returns ``buf``.

    ``np.fft.fft(a, out=a)`` gives the bits of ``np.fft.fft(a)`` without a
    second vector, and the scaling is the same division (or product) as the
    out-of-place ``fft(a) / sqrt(N)`` and ``ifft(a) * sqrt(N)``.
    """
    if inverse:
        np.fft.ifft(buf, out=buf)
        buf *= math.sqrt(len(buf))
    else:
        np.fft.fft(buf, out=buf)
        buf /= math.sqrt(len(buf))
    return buf


def series_weight(j: int) -> float:
    """Weight of harmonic j in the Fourier series of the two-bit staircase
    phase function: 8/(pi*j)^2 for j = 1 (mod 4), signed j included, and
    zero elsewhere (j = 0 too)."""
    if j % 4 != 1:
        return 0.0
    return 8.0 / (math.pi * j) ** 2


def sin_pi_frac(j: int, N: int) -> float:
    """|sin(pi * j / N)| for integer j, exact under the mod-N fold.

    Reduces j mod N to the half-period first so that huge or negative j
    (arbitrary-precision ints) lose no precision in the float division.
    """
    m = j % N
    m = min(m, N - m)
    return math.sin(math.pi * (m / N))


def initial_state_weight(n: int, j: int) -> float:
    """Exact Fourier weight of the approximate initial state at index j.

    Closed form of the fully aliased series sum: 8 / (N*sin(pi*j/N))**2 for
    j = 1 (mod 4) and zero elsewhere.  Valid for signed j and for any n (N
    never becomes a float); approaches series_weight(j) as n grows.  Weights
    below 2**-1021 come out as 0.
    """
    if n < 2:
        raise ValueError(f"--n {n} is below 2: the approximate initial state needs "
                         f"at least 2 qubits")
    if j % 4 != 1:
        return 0.0
    N = 1 << n
    m = min(j % N, -j % N)
    try:
        # for m / N < 2**-1000 (it may underflow) the sine is its argument
        x = math.pi * m if m < N >> 1000 else math.ldexp(sin_pi_frac(m, N), n)
        return 8.0 / x ** 2
    except OverflowError:  # x = N sin(pi m / N) >= 2**512
        return 0.0


def fidelity_threshold(n: int) -> float:
    """Error target sin^2(pi/2**n) for an n-qubit Fourier-state resource.

    A register meeting this bound leaves rotation errors dominated by the
    n-bit angle truncation rather than by state impurity.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return math.sin(math.ldexp(math.pi, -n)) ** 2


def log_fidelity_threshold(n: int) -> float:
    """Natural log of :func:`fidelity_threshold`, stable for very large n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 50:
        return math.log(fidelity_threshold(n))
    # sin(x) = x to double precision once x < 2**-26
    return 2.0 * (math.log(math.pi) - n * math.log(2.0))
