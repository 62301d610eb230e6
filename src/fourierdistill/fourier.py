"""Fourier states of qubit registers: construction, basis conversion, spectra.

An n-qubit Fourier state with index k is the register state whose amplitude
on computational basis state |y> is exp(2*pi*i*k*y/N)/sqrt(N), N = 2**n.
Qubit 0 is the most significant bit of y throughout the package, and the
transform sign convention is fixed by that definition (positive exponent in
the state, so the analysis transform carries the negative exponent).

The module also gives the spectrum of the Clifford-reachable approximation
of the k=1 state, a phase staircase with two bits of phase resolution that
``circuits.approx_state_circuit`` prepares: the harmonic weights of its
Fourier series, and the closed form of its discrete spectrum.
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

#: Points per block (256 kB of complex values) of the package's blocked loops.
_BLOCK = 1 << 14

#: Points per scratch tile (64 kB of complex values) of the exact path's
#: transform twiddles, transpose and extension, each allocated once per call.
_TILE = 1 << 12

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


def _index_blocks(N: int):
    """``(slice, indices)`` over the basis indices 0..N-1 in blocks of
    ``_BLOCK``, so that a formula evaluated over the indices builds no
    full-length temporary."""
    for lo in range(0, N, _BLOCK):
        hi = min(lo + _BLOCK, N)
        yield slice(lo, hi), np.arange(lo, hi)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of an n-qubit register.

    The constructor adopts the array it is given: ``np.asarray`` leaves a
    complex ndarray uncopied, and the length and norm checks pass before it
    is frozen in place.  A caller who still writes to the array passes a copy.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        N = len(amps)
        if N < 2 or N & (N - 1):
            raise ValueError(f"array length {N} is not 2**n for n >= 1")
        norm = float(np.vdot(amps, amps).real)  # sum |amps|^2 without a temporary
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state not normalized: sum |amps|^2 = {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def n(self) -> int:
        return len(self.amps).bit_length() - 1

    @property
    def dim(self) -> int:
        return len(self.amps)


def pure_fourier_state(n: int, k: int) -> StateVector:
    """The n-qubit Fourier state with index k (k taken mod 2**n)."""
    require_register_size(n)
    N = 1 << n
    k %= N
    amps = np.empty(N, dtype=complex)
    for part, y in _index_blocks(N):
        amps[part] = np.exp(2j * np.pi * k * y / N) / math.sqrt(N)
    return StateVector(amps)


def to_fourier_basis(s: StateVector) -> np.ndarray:
    """Expand a state over the orthonormal Fourier-state basis.

    coeffs[j] = <fourier_j | s>, i.e. the forward transform with negative
    exponent, computed by FFT into one new read-only array: the form of the
    exact engine's output.
    """
    coeffs = _unitary_fft(np.array(s.amps))
    coeffs.flags.writeable = False
    return coeffs


def _unitary_fft(buf: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unitary FFT of a writable complex array, in place; returns ``buf``.

    Up to ``_BLOCK`` points it is one ``np.fft.fft(a, out=a)``, the bits of
    ``np.fft.fft(a)``.  Longer, where pocketfft would hold two more vectors
    of scratch, it is a four-step FFT on ``buf`` as an R x C matrix (R =
    2**(m // 2), C = N / R): one numpy call transforms the columns in place,
    :func:`_twiddle` multiplies in w**(k1 n2), one call transforms the rows
    and :func:`_transpose` ends it, rounding like one pocketfft call.  Scaled
    as ``fft(a) / sqrt(N)`` and ``ifft(a) * sqrt(N)``, it peaks at ``buf``
    plus the twiddle tables and scratch tiles of at most ``_TILE`` points.
    """
    N = len(buf)
    transform = np.fft.ifft if inverse else np.fft.fft
    if N <= _BLOCK:
        transform(buf, out=buf)
    else:
        m = N.bit_length() - 1
        R, C = 1 << (m // 2), 1 << (m - m // 2)
        grid = buf.reshape(R, C)
        transform(grid, axis=0, out=grid)
        _twiddle(grid, inverse)
        transform(grid, axis=1, out=grid)
        _transpose(buf, R, C)
    if inverse:
        buf *= math.sqrt(N)
    else:
        buf /= math.sqrt(N)
    return buf


def _twiddle(grid: np.ndarray, inverse: bool) -> None:
    """Multiply entry (k1, n2) of the R x C ``grid`` (C = R or 2R, both powers
    of two) by w**(k1 n2) in place, w = exp(-2 pi i / (R C)), or its
    conjugate for the inverse transform.

    w**e = coarse[e // C] * fine[e % C] from two tables of R and C factors,
    the exponent e = k1 n2 < R C exact in int64.  The exponents, their
    shifted or masked copy and the gathered factors go through three scratch
    tiles of ``_TILE`` points, allocated once."""
    R, C = grid.shape
    sign = (2j if inverse else -2j) * math.pi / (R * C)
    fine = np.exp(sign * np.arange(C))
    coarse = np.exp(sign * (C * np.arange(R)))
    index = np.arange(C)  # k1 < R <= C
    width = min(C, _TILE)
    e = np.empty((_TILE // width, width), dtype=np.int64)
    part = np.empty_like(e)
    factors = np.empty(e.shape, dtype=complex)
    for lo in range(0, R, len(e)):
        for col in range(0, C, width):
            tile = grid[lo:lo + len(e), col:col + width]
            # row by row: a broadcast operand would make numpy buffer a tile
            for exponents, k1 in zip(e, range(lo, lo + len(e))):
                np.multiply(index[col:col + width], k1, out=exponents)
            np.right_shift(e, C.bit_length() - 1, out=part)
            tile *= coarse.take(part, mode="wrap", out=factors)
            np.bitwise_and(e, C - 1, out=part)
            tile *= fine.take(part, mode="wrap", out=factors)


def _transpose(buf: np.ndarray, R: int, C: int) -> None:
    """Rewrite the R x C row-major matrix in ``buf`` as its transpose, in
    place, for C = R or 2R.  For C = 2R, row half 2 k1 + s moves to s R + k1
    by following cycles with one half held, making two R x R squares; each
    square then swaps its tiles of at most ``_TILE`` points in pairs through
    one scratch tile, which also takes each diagonal tile's transpose (numpy
    would copy a tile assigned its own transpose)."""
    if C != R:
        halves = buf.reshape(2 * R, R)
        row = np.empty(R, dtype=complex)
        done = bytearray(2 * R)
        for start in range(1, 2 * R - 1):
            if done[start]:
                continue
            pos = start
            row[...] = halves[start]
            while not done[pos]:
                done[pos] = 1
                src = 2 * pos if pos < R else 2 * (pos - R) + 1
                halves[pos] = row if src == start else halves[src]
                pos = src
    side = min(R, math.isqrt(_TILE))
    held = np.empty((side, side), dtype=complex)
    for lo in range(0, len(buf), R * R):
        square = buf[lo:lo + R * R].reshape(R, R)
        for i in range(0, R, side):
            diagonal = square[i:i + side, i:i + side]
            held[...] = diagonal.T
            diagonal[...] = held
            for j in range(i + side, R, side):
                upper, lower = square[i:i + side, j:j + side], square[j:j + side, i:i + side]
                held[...] = upper
                upper[...] = lower.T
                lower[...] = held.T


def series_weight(j: int) -> float:
    """Weight of harmonic j in the Fourier series of the two-bit staircase
    phase function: 8/(pi*j)^2 for j = 1 (mod 4), signed j included, and
    zero elsewhere (j = 0 too).  Weights past float range come out as 0."""
    if j % 4 != 1:
        return 0.0
    try:
        return 8.0 / (math.pi * j) ** 2
    except OverflowError:  # pi * |j| >= 2**512, or j itself past float range
        return 0.0


def initial_state_weight(n: int, j: int) -> float:
    """Exact Fourier weight of the approximate initial state at index j.

    Closed form of the fully aliased series sum: 8 / (N*sin(pi*j/N))**2 for
    j = 1 (mod 4) and zero elsewhere.  Valid for signed j and for any n (N
    never becomes a float); approaches series_weight(j) as n grows, and is
    series_weight(j) once |j| < 2**(n-1001), without building N.  Weights
    below 2**-1021 come out as 0.
    """
    if n < 2:
        raise ValueError(f"--n {n} is below 2: the approximate initial state needs "
                         f"at least 2 qubits")
    if j % 4 != 1:
        return 0.0
    if n > abs(j).bit_length() + 1000:  # m = |j| < N >> 1000 below
        return series_weight(j)
    N = 1 << n
    m = min(j % N, -j % N)
    try:
        # for m / N < 2**-1000 (it may underflow) the sine is its argument
        x = math.pi * m if m < N >> 1000 else math.ldexp(math.sin(math.pi * (m / N)), n)
        return 8.0 / x ** 2
    except OverflowError:  # x = N sin(pi m / N) >= 2**512
        return 0.0


def fidelity_threshold(n: int) -> float:
    """Error target sin^2(pi/2**n) for an n-qubit Fourier-state resource.

    It equals 2 cos^2(pi/2**(n+1)) * eps_f(n-1)**2, with eps_f(n-1)**2 the
    infidelity of a kickback angle truncated to n - 1 bits
    (:func:`fourierdistill.resources.epsilon_f_kickback`): at the bound the
    state's impurity can be about twice that truncation's.
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
