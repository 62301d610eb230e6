"""Postselected distillation of Fourier states and the multi-round protocol.

One distillation step adds one register into another and keeps the output
only when the first register verifies as the index-0 Fourier state.  In the
Fourier basis the step multiplies the coefficient spectra of its two inputs
pointwise, so for identical ("symmetric") inputs every weight is squared and
renormalized; sidebands of the dominant harmonic are suppressed
super-exponentially in the round number.

Two engines run the full protocol tree:

* an exact engine on dense amplitude vectors (ground truth, small n), and
* a sparse spectral engine holding log-weights of a truncated harmonic set,
  which reproduces the exact engine at small n and scales past n = 100.

Register growth between rounds appends |+> qubits on the least significant
side.  In the frequency domain this is a zero-order hold: each coarse
harmonic spreads over a fixed aliasing class of the fine register with
weights given by :func:`log_extension_kernel`.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateInputError, PrecisionWarning
from .fourier import (
    FourierAmplitudes,
    FourierSpectrum,
    StateVector,
    _adopt,
    _reclaim,
    _unitary_fft,
    approx_initial_state,
    fidelity_threshold,
    from_fourier_basis,
    log_fidelity_threshold,
    require_register_size,
)

NEG_INF = float("-inf")

#: Default harmonic budget of the sparse engine.
DEFAULT_MAX_HARMONICS = 4096

#: Default starting register size: one round of distillation is accurate to
#: about five bits, so five-qubit inputs make full use of the first round.
DEFAULT_S0 = 5

#: Default padding of the final register beyond the target precision,
#: compensating for truncated intermediate registers.
DEFAULT_PAD = 2

_P_FLOOR = 1e-300


def _logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) of a float array; -inf entries add nothing."""
    top = values.max(initial=NEG_INF)
    if top == NEG_INF:
        return NEG_INF
    return float(top + math.log(np.exp(values - top).sum()))


def _signed_index(j: int, N: int) -> int:
    """Canonical signed harmonic index in (-N/2, N/2]."""
    m = j % N
    return m - N if m > N // 2 else m


@dataclass(frozen=True)
class DistillationOutcome:
    """Result of one postselected distillation step."""

    p_success: float
    output: object  # FourierSpectrum, FourierAmplitudes, or SparseSpectrum
    fidelity: float
    error: float
    log_error: float = NEG_INF  # natural log; resolves errors below float eps

    def __post_init__(self):
        if not 0.0 < self.p_success <= 1.0 + 1e-12:
            raise ValueError(f"success probability out of range: {self.p_success}")


@dataclass(frozen=True)
class ProtocolSchedule:
    """Per-round register sizes for the multi-round distillation tree."""

    n_target: int
    s0: int
    pad: int
    sizes: tuple[int, ...]
    note: str | None = None

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("schedule needs at least one round")
        if any(b < a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("round sizes must be non-decreasing")
        if max(self.sizes) > self.n_target + self.pad:
            raise ValueError("round sizes exceed the padded target")

    @property
    def rounds(self) -> int:
        return len(self.sizes)

    @property
    def width_qubits(self) -> int:
        """Logical circuit width: two registers at the largest round size."""
        return 2 * max(self.sizes)


class SparseSpectrum:
    """Truncated harmonic spectrum in log space, for registers of any size.

    ``log_weights`` is a read-only float array of natural-log weights in
    descending order; ``indices`` holds the matching signed harmonic indices
    as exact (arbitrary-precision) ints.  The constructor takes a mapping
    ``{index: log_weight}``; ties keep the mapping's order.  ``log_tail``
    bounds the total mass of everything truncated away; it is transported
    through every operation and never silently dropped.
    """

    __slots__ = ("n", "log_weights", "indices", "log_tail")

    def __init__(self, n: int, log_weights: Mapping[int, float], log_tail: float = NEG_INF):
        if n < 1:
            raise ValueError("register size must be positive")
        indices = [_signed_index(j, 1 << n) for j in log_weights]
        if len(set(indices)) != len(indices):
            raise ValueError("harmonic indices must be distinct modulo 2**n")
        lw = np.fromiter(log_weights.values(), float, len(indices))
        order = np.argsort(-lw, kind="stable")
        self._fill(n, lw[order], tuple(indices[i] for i in order.tolist()), log_tail)

    @classmethod
    def _ordered(cls, n: int, log_weights: np.ndarray, indices: Sequence[int],
                 log_tail: float) -> SparseSpectrum:
        """Spectrum from arrays already in descending-weight order."""
        sp = cls.__new__(cls)
        sp._fill(n, log_weights, tuple(indices), log_tail)
        return sp

    def _fill(self, n, log_weights, indices, log_tail):
        if not indices:
            raise ValueError("sparse spectrum needs at least one harmonic")
        total = math.exp(_logsumexp(np.append(log_weights, log_tail)))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"sparse spectrum mass must be 1, got {total!r}")
        log_weights.flags.writeable = False
        self.n = n
        self.log_weights = log_weights
        self.indices = indices
        self.log_tail = log_tail

    @property
    def dim(self):
        return 1 << self.n

    @property
    def tail_mass(self) -> float:
        return math.exp(self.log_tail) if self.log_tail != NEG_INF else 0.0

    def weight(self, j: int) -> float:
        try:
            pos = self.indices.index(_signed_index(j, self.dim))
        except ValueError:
            return 0.0
        return math.exp(self.log_weights[pos])

    def weights(self) -> dict[int, float]:
        return dict(zip(self.indices, np.exp(self.log_weights).tolist()))

    def dominant_index(self) -> int:
        return self.indices[0]

    def __len__(self):
        return len(self.indices)

    def __repr__(self):
        return (f"SparseSpectrum(n={self.n}, harmonics={len(self)}, "
                f"tail_mass={self.tail_mass:.3e})")


def initial_sparse_spectrum(n: int, max_harmonics: int = DEFAULT_MAX_HARMONICS) -> SparseSpectrum:
    """Sparse form of the approximate initial state's exact Fourier weights.

    Harmonics live at signed j = 1 (mod 4); they are kept in order of
    decreasing weight (increasing |j|) up to ``max_harmonics``, remainder in
    the tail.  With max_harmonics >= 2**n / 4 the spectrum is exact.
    """
    if n < 2:
        raise ValueError("initial spectrum needs n >= 2")
    count = min((1 << n) // 4, max_harmonics)
    odd = np.arange(1, 2 * count, 2)  # |j|, so j = 1, -3, 5, -7, ...
    # log of the closed form 8 / (N sin(pi |j| / N))**2, see initial_state_weight
    lw = math.log(8.0) - 2.0 * (n * math.log(2.0) + np.log(np.sin(np.pi * np.ldexp(odd, -n))))
    tail = max(0.0, 1.0 - np.exp(lw).sum()) if count < (1 << n) // 4 else 0.0
    indices = np.where(odd % 4 == 1, odd, -odd).tolist()
    return SparseSpectrum._ordered(n, lw, indices, math.log(tail) if tail > 0 else NEG_INF)


def distill_pair(a, a2, target_k: int = 1) -> DistillationOutcome:
    """One distillation step for two input spectra (or coefficient vectors).

    Success probability is the overlap sum of the two weight spectra; the
    output spectrum is their pointwise product renormalized.  Amplitude-level
    inputs keep complex phases (coefficients multiply, scaled by sqrt of the
    success probability).
    """
    if type(a) is not type(a2):
        raise TypeError("inputs must both be spectra or both be amplitude vectors")
    if a.n != a2.n:
        raise ValueError(f"register sizes differ: {a.n} vs {a2.n}")
    k = target_k % a.dim
    amplitudes = isinstance(a, FourierAmplitudes)
    if amplitudes:
        product = a.coeffs * a2.coeffs
        weights = np.abs(product)
        weights *= weights
    elif isinstance(a, FourierSpectrum):
        product = weights = a.weights * a2.weights
    else:
        raise TypeError(f"unsupported input type {type(a).__name__}")
    p = float(weights.sum())
    if p < _P_FLOOR:
        raise DegenerateInputError("input spectra are disjoint: success probability is zero")
    # summed directly: 1 - fidelity cancels once the error nears float epsilon
    err = float(weights[:k].sum() + weights[k + 1:].sum()) / p
    del weights  # frees |product|**2 before the output is built
    if amplitudes:
        product /= math.sqrt(p)
        out = _adopt(FourierAmplitudes, product)
        fid = float(abs(out.coeffs[k]) ** 2)
    else:
        product /= p
        out = _adopt(FourierSpectrum, product)
        fid = float(out.weights[k])
    return DistillationOutcome(p, out, fid, err, math.log(err) if err > 0 else NEG_INF)


def symmetric_round(a, target_k: int = 1) -> DistillationOutcome:
    """Distillation step with two identical inputs."""
    return distill_pair(a, a, target_k)


def extend_register(s: StateVector, n_new: int) -> StateVector:
    """Append |+> qubits on the least significant side up to n_new qubits."""
    if n_new < s.n:
        raise ValueError(f"cannot shrink register from {s.n} to {n_new}")
    require_register_size(n_new)
    if n_new == s.n:
        return s
    pad = 1 << (n_new - s.n)
    amps = np.repeat(s.amps, pad)
    amps *= 1.0 / math.sqrt(pad)
    return _adopt(StateVector, amps)


def log_extension_kernel(n_coarse: int, n_fine: int, indices: Sequence[int],
                         m: np.ndarray) -> np.ndarray:
    """Log weights the |+>-append step sends along each coarse harmonic's class.

    Appending d = n_fine - n_coarse qubits turns coarse harmonic j into a
    staircase signal on the fine register, whose spectrum occupies the
    aliasing class j + 2**n_coarse * m with zero-order-hold weights

        sin^2(pi j / 2**n_coarse) / (4**d * sin^2(pi (j / 2**n_coarse + m) / 2**d)).

    Returns the natural log of these weights (-inf where a weight is zero)
    with one row per coarse index in ``indices`` (signed, |j| <= 2**n_coarse / 2,
    so no sine argument cancels) and one column per member offset in ``m``
    (|m| < 2**d).  Classes of distinct coarse harmonics are disjoint, so
    weights map independently of coefficient phases.
    """
    if n_fine < n_coarse:
        raise ValueError("fine register must be at least as large as the coarse one")
    d = n_fine - n_coarse
    Ns = 1 << n_coarse
    f = np.array([j / Ns for j in indices], dtype=float)[:, None]
    dc = f[:, 0] == 0.0
    out = np.empty((len(f), len(m)))
    # the class of j = 0 keeps all its mass at index 0
    out[dc] = np.where(m == 0, 0.0, NEG_INF)
    f = f[~dc]
    num = np.log(np.sin(np.pi * np.abs(f)))
    den = np.log(np.abs(np.sin(np.ldexp(np.pi * (f + m), -d))))
    # off DC the sine argument is nonzero, so a zero sine is float underflow
    if np.any(den == NEG_INF):
        raise ValueError(
            f"{n_fine}-qubit register is past the sparse engine's size limit: "
            f"2**-{n_fine} underflows below the smallest double (2**-1074) "
            f"in the zero-order-hold kernel")
    out[~dc] = 2.0 * ((num - d * math.log(2.0)) - den)
    return out


def sparse_extend(sp: SparseSpectrum, n_new: int,
                  max_harmonics: int = DEFAULT_MAX_HARMONICS) -> SparseSpectrum:
    """Frequency-domain form of the |+>-append step on a sparse spectrum.

    Each harmonic spreads over its aliasing class with the zero-order-hold
    kernel.  Classes small enough to enumerate completely are mapped exactly;
    otherwise the members nearest the class maximum are kept and the
    remainder is bounded into the tail (kernel lobes decay as 1/m^2).  The
    result is then pruned to the ``max_harmonics`` heaviest entries, pruned
    mass joining the tail; ties keep class-then-member order.
    """
    if n_new < sp.n:
        raise ValueError(f"cannot shrink register from {sp.n} to {n_new}")
    if n_new == sp.n:
        return sp
    Ns, Nf = 1 << sp.n, 1 << n_new
    members = 1 << (n_new - sp.n)
    budget = max(16, (4 * max_harmonics) // len(sp))
    span = min(members, budget)
    half = span // 2
    lk = log_extension_kernel(sp.n, n_new, sp.indices, np.arange(-half, span - half))
    tail_parts = [np.array([sp.log_tail])]
    if members > budget:
        # Unenumerated class remainder: the kernel sums to 1 over the whole
        # class, so the deficit is exact when float-resolvable; below
        # resolution, fall back to the 1/m^2 lobe-decay bound.
        kernel = np.exp(lk)
        deficit = 1.0 - kernel.sum(axis=1)
        rem = np.where(deficit > 1e-13, deficit, (kernel[:, 0] + kernel[:, -1]) * half)
        has_rem = rem > 0.0
        tail_parts.append(sp.log_weights[has_rem] + np.log(rem[has_rem]))
    candidates = (sp.log_weights[:, None] + lk).ravel()
    (live,) = np.nonzero(candidates != NEG_INF)
    vals = candidates[live]
    # the max_harmonics heaviest; ties at the cut go to the earliest enumerated
    surplus = len(vals) - max_harmonics
    cut = np.partition(vals, surplus)[surplus] if surplus > 0 else NEG_INF
    chosen = vals > cut
    chosen[np.flatnonzero(vals == cut)[:max_harmonics - np.count_nonzero(chosen)]] = True
    kept = live[chosen][np.argsort(-vals[chosen], kind="stable")]
    tail_parts.append(vals[~chosen])
    row, col = np.divmod(kept, span)
    indices = [_signed_index(sp.indices[c] + Ns * (k - half), Nf)
               for c, k in zip(row.tolist(), col.tolist())]
    return SparseSpectrum._ordered(n_new, candidates[kept], indices,
                                   _logsumexp(np.concatenate(tail_parts)))


def sparse_symmetric_round(sp: SparseSpectrum, target_k: int = 1) -> DistillationOutcome:
    """Symmetric distillation step on a sparse spectrum, fully in log space.

    The unknown tail squares through the step as well (sum of squares of the
    truncated weights is at most the square of their sum), so the tail bound
    remains valid after postselection.  Squaring keeps the weight order.
    """
    doubled = 2.0 * sp.log_weights
    tail2 = 2.0 * sp.log_tail
    log_p = _logsumexp(np.append(doubled, tail2))
    if log_p == NEG_INF:
        raise DegenerateInputError("spectrum mass vanished; cannot postselect")
    out_lw = doubled - log_p
    out_tail = tail2 - log_p
    k = _signed_index(target_k, sp.dim)
    try:
        pos = sp.indices.index(k)
    except ValueError:
        raise DegenerateInputError(f"target harmonic {k} carries no weight") from None
    log_error = _logsumexp(np.append(np.delete(out_lw, pos), out_tail))
    return DistillationOutcome(
        p_success=math.exp(log_p),
        output=SparseSpectrum._ordered(sp.n, out_lw, sp.indices, out_tail),
        fidelity=math.exp(out_lw[pos]),
        error=math.exp(log_error) if log_error != NEG_INF else 0.0,
        log_error=log_error,
    )


def rounds_required(n: int) -> int:
    """Rounds of symmetric distillation to push error below sin^2(pi/2**n).

    Each round squares the error and the dominant sideband sits a factor of
    9 below the fundamental, giving

        R = ceil(log2((2n - 2*log2(pi)) / log2(9))).

    Below n = 5 the formula loses meaning; one round (about five accurate
    bits) is returned and schedules flag the case.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n < 5:
        return 1
    arg = (2.0 * n - 2.0 * math.log2(math.pi)) / math.log2(9.0)
    return max(1, math.ceil(math.log2(arg)))


def plan_schedule(n: int, s0: int = DEFAULT_S0, pad: int = DEFAULT_PAD) -> ProtocolSchedule:
    """Round sizes for target precision n: doubling capped at n + pad.

    Sizes double from s0 because each round roughly doubles the number of
    accurate bits.  For n <= s0 the first round already reaches target
    precision, so the schedule is a single flagged round.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if s0 < 2:
        raise ValueError("starting size must be at least 2")
    if pad < 0:
        raise ValueError("pad must be non-negative")
    if n <= s0:
        return ProtocolSchedule(
            n_target=n, s0=s0, pad=pad, sizes=(min(s0, n + pad),),
            note="single round: first round is already accurate to about five bits",
        )
    sizes = [s0]
    for _ in range(rounds_required(n) - 1):
        sizes.append(min(2 * sizes[-1], n + pad))
    return ProtocolSchedule(n_target=n, s0=s0, pad=pad, sizes=tuple(sizes))


@dataclass(frozen=True)
class RoundRecord:
    """Per-round trace entry of a protocol run."""

    size: int
    p_success: float
    fidelity: float
    error: float
    log_error: float = NEG_INF


@dataclass(frozen=True)
class ProtocolResult:
    """Full multi-round protocol outcome with per-round trace."""

    n_target: int
    engine: str
    schedule: ProtocolSchedule
    rounds: tuple[RoundRecord, ...]
    final: DistillationOutcome

    @property
    def threshold(self) -> float:
        return fidelity_threshold(self.n_target)

    @property
    def log_threshold(self) -> float:
        return log_fidelity_threshold(self.n_target)

    @property
    def meets_threshold(self) -> bool:
        """Judged in log space, which resolves errors below the smallest double."""
        return self.final.log_error <= self.log_threshold

    @property
    def output_state(self) -> StateVector | None:
        """Final register state of the exact engine, rebuilt from the last
        round's coefficients on each access; None for the sparse engine."""
        if self.engine != "exact":
            return None
        return from_fourier_basis(self.final.output)

    @property
    def final_error(self) -> float:
        return self.final.error

    @property
    def final_log_error(self) -> float:
        return self.final.log_error


def run_protocol_exact(n: int, *, s0: int = DEFAULT_S0,
                       pad: int = DEFAULT_PAD) -> ProtocolResult:
    """Run the full distillation tree on dense amplitude vectors.

    All sibling branches of the tree are identical under analytic
    postselection, so a single path is simulated: initial approximate state,
    then per round a symmetric distillation (coefficients squared, success
    probability recorded) with register extension between rounds.

    Each vector is transformed in its own buffer, and the last round's
    output stays in the Fourier basis (see ``ProtocolResult.output_state``),
    so the peak holds about two and a half vectors of the final size.
    """
    schedule = plan_schedule(n, s0, pad)
    biggest = max(schedule.sizes)
    try:
        require_register_size(biggest)
    except CapacityError:
        raise CapacityError(
            f"schedule for n={n} needs {biggest}-qubit amplitude vectors; "
            f"use run_protocol_sparse"
        ) from None
    state = approx_initial_state(schedule.sizes[0])
    records = []
    last = schedule.rounds - 1  # by index: the last sizes may repeat
    for i, size in enumerate(schedule.sizes):
        state = extend_register(state, size)
        coeffs = _adopt(FourierAmplitudes, _unitary_fft(_reclaim(state.amps)))
        del state
        outcome = symmetric_round(coeffs, target_k=1)
        del coeffs
        records.append(RoundRecord(size, outcome.p_success, outcome.fidelity,
                                   outcome.error, outcome.log_error))
        if i < last:
            state = _adopt(StateVector, _unitary_fft(_reclaim(outcome.output.coeffs),
                                                     inverse=True))
            del outcome
    return ProtocolResult(n, "exact", schedule, tuple(records), outcome)


def run_protocol_sparse(n: int, *, s0: int = DEFAULT_S0, pad: int = DEFAULT_PAD,
                        max_harmonics: int = DEFAULT_MAX_HARMONICS) -> ProtocolResult:
    """Run the protocol on the sparse spectral engine (any n, log-space).

    Matches :func:`run_protocol_exact` wherever both run; scales to n = 100
    and beyond because only the heaviest harmonics are tracked, with the
    truncated mass carried as a tail bound.  A precision warning is raised
    if the final tail bound is not negligible against the error target.
    """
    schedule = plan_schedule(n, s0, pad)
    sp = initial_sparse_spectrum(schedule.sizes[0], max_harmonics)
    records = []
    outcome = None
    for size in schedule.sizes:
        sp = sparse_extend(sp, size, max_harmonics)
        outcome = sparse_symmetric_round(sp, target_k=1)
        records.append(RoundRecord(size, outcome.p_success, outcome.fidelity,
                                   outcome.error, outcome.log_error))
        sp = outcome.output
    if sp.log_tail > log_fidelity_threshold(n) + math.log(1e-3):
        warnings.warn(
            f"truncation tail bound exp({sp.log_tail:.2f}) is not negligible "
            f"against the error target for n={n}; raise max_harmonics",
            PrecisionWarning,
            stacklevel=2,
        )
    return ProtocolResult(n, "sparse", schedule, tuple(records), outcome)

