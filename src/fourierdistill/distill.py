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

Both engines start from the 2-qubit index-1 Fourier state: the approximate
initial state is that state with |+> qubits appended.  Register growth,
before the first round as between rounds, appends |+> qubits on the least
significant side.  In the frequency domain this is a zero-order hold: each
coarse harmonic spreads over a fixed aliasing class of the fine register
with weights given by :func:`log_extension_kernel`.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, PrecisionWarning
from .fourier import (
    _BLOCK,
    _unitary_fft,
    amplitude_cap,
    fidelity_threshold,
    log_fidelity_threshold,
)

NEG_INF = float("-inf")

#: Default harmonic budget of the sparse engine.
DEFAULT_MAX_HARMONICS = 4096

#: Largest harmonic budget: 2**20 harmonics take about 170 MB and 1.8 s at n = 100.
MAX_HARMONICS = 1 << 20

#: Default starting register size; a target n <= s0 leaves a single round.
DEFAULT_S0 = 5

#: Default padding of the final register beyond the target precision,
#: compensating for truncated intermediate registers.
DEFAULT_PAD = 2

#: Fewest candidates in a block of :func:`sparse_extend`: 2**12 doubles (32 KB)
#: make one 512-harmonic extension two blocks, for a lower peak RSS than one.
_EXTEND_BLOCK = 1 << 12

#: Stride of the Fourier-index coset that :func:`run_protocol_exact` runs on:
#: the approximate initial state has weight only at j = 1 (mod 4).
COSET_STRIDE = 4


def _logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) of a float array, which it overwrites; -inf
    entries add nothing."""
    top = values.max(initial=NEG_INF)
    if top == NEG_INF:
        return NEG_INF
    values -= top
    np.exp(values, out=values)
    return float(top + math.log(values.sum()))


def _kth_largest(values: np.ndarray, k: int) -> float:
    """k-th largest entry of a float array, which it reorders; -inf when
    there are fewer than k."""
    if len(values) < k:
        return NEG_INF
    values.partition(len(values) - k)
    return values[len(values) - k]


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays end to end; a single array is returned as it is (copying
    it measured 32 MB more peak RSS at 2**20 harmonics, n = 100)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@dataclass(frozen=True)
class DistillationOutcome:
    """Numbers of one postselected distillation round."""

    p_success: float
    fidelity: float
    error: float
    log_error: float  # natural log; resolves errors below float eps

    def __post_init__(self):
        if not 0.0 < self.p_success <= 1.0 + 1e-12:
            raise ValueError(f"success probability out of range: {self.p_success}")


@dataclass(frozen=True)
class ProtocolSchedule:
    """Per-round register sizes for the multi-round distillation tree; the
    last round reaches the target precision."""

    n_target: int
    sizes: tuple[int, ...]
    note: str | None = None

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("schedule needs at least one round")
        if any(b < a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("round sizes must be non-decreasing")
        if self.sizes[-1] < self.n_target:
            raise ValueError(f"last round size {self.sizes[-1]} is below the target "
                             f"{self.n_target}")

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
    as exact (arbitrary-precision) ints.  ``log_tail`` bounds the total mass
    of everything truncated away; the engine's operations set it, transport
    it and never silently drop it.  Only the engine builds spectra, through
    ``_ordered``, from its 2-qubit start of index 1, so index 1 comes first
    and every index is 1 (mod 4): extension keeps each index's class mod 2**n,
    n >= 2, with the index its heaviest member, and squaring keeps the order.
    """

    __slots__ = ("n", "log_weights", "indices", "log_tail")

    @classmethod
    def _ordered(cls, n: int, log_weights: np.ndarray, indices: Sequence[int],
                 log_tail: float) -> SparseSpectrum:
        """Spectrum from arrays already in descending-weight order."""
        if not indices:
            raise ValueError("sparse spectrum needs at least one harmonic")
        total = math.exp(_logsumexp(np.append(log_weights, log_tail)))
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"sparse spectrum mass must be 1, got {total!r}")
        log_weights.flags.writeable = False
        sp = cls.__new__(cls)
        sp.n = n
        sp.log_weights = log_weights
        sp.indices = tuple(indices)
        sp.log_tail = log_tail
        return sp

    def __len__(self):
        return len(self.indices)


def _postselect(product: np.ndarray, k: int) -> DistillationOutcome:
    """Postselection on the squared coefficients of one normalized state,
    normalized in the product's own buffer.  p = sum |c_j|**4 is at
    least 1/N by Cauchy-Schwarz, so it never vanishes.  The weights are
    built in blocks of 2**14, and p and the off-target sum add the block
    partials exactly (math.fsum): one block gives numpy's own sums."""
    parts = []
    for lo in range(0, len(product), _BLOCK):
        weights = np.abs(product[lo:lo + _BLOCK])
        weights *= weights
        # summed directly (1 - fidelity cancels near float epsilon); with k
        # outside the block, i lies past it and every weight counts
        i = k - lo if k >= lo else _BLOCK
        parts.append((weights.sum(), weights[:i].sum() + weights[i + 1:].sum()))
    p = math.fsum(part for part, _ in parts)
    err = math.fsum(off for _, off in parts) / p
    product /= math.sqrt(p)
    fid = float(abs(product[k]) ** 2)
    return DistillationOutcome(p, fid, err, math.log(err) if err > 0 else NEG_INF)


def log_extension_kernel(n_coarse: int, n_fine: int, indices: Sequence[int],
                         m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Log weights the |+>-append step sends along each coarse harmonic's class.

    Appending d = n_fine - n_coarse qubits turns coarse harmonic j into a
    staircase signal on the fine register, whose spectrum occupies the
    aliasing class j + 2**n_coarse * m with zero-order-hold weights

        sin^2(pi j / 2**n_coarse) / (4**d * sin^2(pi (j / 2**n_coarse + m) / 2**d)).

    Returns the natural log of these weights, all finite, with one row per
    coarse index in ``indices`` (nonzero and signed, |j| <= 2**n_coarse / 2, so
    no sine argument cancels) and one column per member offset in ``m`` (|m| <
    2**d), written into ``out`` when given.  Classes of distinct coarse
    harmonics are disjoint, so weights map independently of coefficient phases.
    """
    if n_fine < n_coarse:
        raise ValueError("fine register must be at least as large as the coarse one")
    d = n_fine - n_coarse
    if n_coarse <= 1022:
        # float(j) is correctly rounded and scaling it by 2**-n_coarse keeps a
        # normal result exact, so this is j / 2**n_coarse bit for bit
        f = np.ldexp(np.array(indices, dtype=float), -n_coarse)[:, None]
    else:  # float(j) may overflow, or the quotient be subnormal
        Ns = 1 << n_coarse
        f = np.fromiter((j / Ns for j in indices), float, len(indices))[:, None]
    # one buffer carries log|sin(pi (f + m) / 2**d)| through the ufunc chain
    den = np.add(f, m, out=out)
    np.multiply(np.pi, den, out=den)
    np.ldexp(den, -d, out=den)
    np.sin(den, out=den)
    np.abs(den, out=den)
    # for nonzero j the sine argument is nonzero, so a zero sine is float underflow
    if den.min(initial=1.0) == 0.0:
        raise ValueError(
            f"{n_fine}-qubit register is past the sparse engine's size limit: "
            f"2**-{n_fine} underflows below the smallest double (2**-1074) "
            f"in the zero-order-hold kernel")
    np.log(den, out=den)
    num = np.log(np.sin(np.pi * np.abs(f)))
    np.subtract(num - d * math.log(2.0), den, out=den)
    np.multiply(2.0, den, out=den)
    return den


def sparse_extend(sp: SparseSpectrum, n_new: int,
                  max_harmonics: int = DEFAULT_MAX_HARMONICS) -> SparseSpectrum:
    """Frequency-domain form of the |+>-append step on a sparse spectrum.

    Each harmonic spreads over its aliasing class with the zero-order-hold
    kernel.  Classes small enough to enumerate completely are mapped exactly;
    otherwise the members nearest the class maximum are kept and the
    remainder is bounded into the tail (kernel lobes decay as 1/m^2).  The
    result is then pruned to the ``max_harmonics`` heaviest entries, pruned
    mass joining the tail; ties keep class-then-member order.

    One block buffer and the survivors carry the step.  The buffer holds a
    block of rows (coarse harmonics) at a time, the kernel's log weights and
    then the candidates'; the first block's first 2 * max_harmonics
    candidates bound the cut from below, and of every block the candidates
    at or above that bound survive, in enumeration order, to take part in
    the cut.  The tail is the log-sum-exp of three parts, the carried tail,
    the class remainders and the pruned mass, which sums one part per block
    (its candidates below the bound) and the survivors not kept.
    """
    if n_new < sp.n:
        raise ValueError(f"cannot shrink register from {sp.n} to {n_new}")
    if n_new == sp.n:
        return sp
    Ns = 1 << sp.n
    members = 1 << (n_new - sp.n)
    budget = max(16, (4 * max_harmonics) // len(sp))
    span = min(members, budget)
    half = span // 2
    # float member offsets: the kernel's first ufunc then casts no int array
    m = np.arange(-half, span - half, dtype=float)
    # rows (coarse harmonics) per block: the first block holds the first
    # 2 * max_harmonics candidates, the heaviest classes', whose
    # max_harmonics-th largest bounds the cut from below
    step = min(len(sp), -(-max(2 * max_harmonics, _EXTEND_BLOCK) // span))
    buf = np.empty((step, span))
    rem = np.empty(len(sp)) if members > budget else None
    values, positions, pruned = [], [], []
    for lo in range(0, len(sp), step):
        block = log_extension_kernel(sp.n, n_new, sp.indices[lo:lo + step], m,
                                     out=buf[:len(sp) - lo])
        if rem is not None:
            # Unenumerated class remainder: the kernel sums to 1 over the whole
            # class, so the deficit is exact when float-resolvable; below
            # resolution, fall back to the 1/m^2 lobe-decay bound.
            kernel = np.exp(block)
            deficit = 1.0 - kernel.sum(axis=1)
            rem[lo:lo + step] = np.where(deficit > 1e-13, deficit,
                                         (kernel[:, 0] + kernel[:, -1]) * half)
            del kernel, deficit
        np.add(sp.log_weights[lo:lo + step, None], block, out=block)
        flat = block.reshape(-1)
        if lo == 0:
            lower = _kth_largest(flat[:2 * max_harmonics].copy(), max_harmonics)
        # survivors in enumeration order; the block's rest is pruned mass
        survive = flat >= lower
        values.append(flat[survive])
        positions.append(np.flatnonzero(survive))
        positions[-1] += lo * span
        flat[survive] = NEG_INF
        pruned.append(_logsumexp(flat))
    del buf, block, flat, survive
    log_rem = NEG_INF
    if rem is not None:
        has_rem = rem > 0.0
        log_rem = _logsumexp(sp.log_weights[has_rem] + np.log(rem[has_rem]))
        del rem, has_rem
    values, positions = _joined(values), _joined(positions)
    # the max_harmonics heaviest; ties at the cut go to the earliest enumerated.
    # The cut is -inf when there are at most max_harmonics.
    cut = _kth_largest(values.copy(), max_harmonics)
    order = np.flatnonzero(values > cut)
    ties = np.flatnonzero(values == cut)[:max_harmonics - len(order)]
    order = np.concatenate((order, ties))
    order = order[np.argsort(-values[order], kind="stable")]
    log_weights = values[order]
    kept = positions[order]
    # what stays finite is the survivors' pruned mass
    values[order] = NEG_INF
    pruned.append(_logsumexp(values))
    log_tail = _logsumexp(np.array([sp.log_tail, log_rem, _logsumexp(np.array(pruned))]))
    del values, positions, order
    rows = kept // span
    cols = np.subtract(kept, rows * span, out=kept)
    used = np.zeros(span)  # float marks bound the kept columns (int min/max pages in code)
    used[cols] = 1.0
    lo, hi = np.flatnonzero(used)[[0, -1]].tolist()
    shifts = [Ns * (c - half) for c in range(lo, hi + 1)]  # member m of class j: j + Ns * m
    if span == members and lo == 0:  # m = -half of a negative j wraps to +half
        cols += len(shifts) * np.fromiter((j < 0 for j in sp.indices), np.int64, len(sp))[rows]
        shifts += [Ns * half] + shifts[1:]
    indices = np.array(sp.indices, dtype=object)[rows]
    del rows
    indices += np.array(shifts, dtype=object)[cols - lo]
    del kept, cols, shifts, used
    indices = indices.tolist()  # the object array goes before the tuple is built
    return SparseSpectrum._ordered(n_new, log_weights, indices, log_tail)


def sparse_symmetric_round(sp: SparseSpectrum) -> tuple[DistillationOutcome, SparseSpectrum]:
    """Symmetric distillation step toward index 1 on a sparse spectrum, fully
    in log space: the round's numbers and its output spectrum.

    The unknown tail squares through the step as well (sum of squares of the
    truncated weights is at most the square of their sum), so the tail bound
    remains valid after postselection.  Squaring keeps the weight order,
    and index 1 is every spectrum's first harmonic (see ``SparseSpectrum``).
    A spectrum's H weights and tail have mass 1, so p = sum w**2 + tail**2
    is at least 1/(H + 1) by Cauchy-Schwarz and never vanishes.
    """
    doubled = 2.0 * sp.log_weights
    tail2 = 2.0 * sp.log_tail
    log_p = _logsumexp(np.append(doubled, tail2))
    out_lw = doubled - log_p
    out_tail = tail2 - log_p
    log_error = _logsumexp(np.append(out_lw[1:], out_tail))
    outcome = DistillationOutcome(
        p_success=math.exp(log_p),
        fidelity=math.exp(out_lw[0]),
        error=math.exp(log_error),
        log_error=log_error,
    )
    return outcome, SparseSpectrum._ordered(sp.n, out_lw, sp.indices, out_tail)


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
    if n > 1 << 1000:  # 2.0 * n overflows from 2**1023; log2(pi) is below rounding here
        return math.ceil(math.log2(n) + 1 - math.log2(math.log2(9.0)))
    arg = (2.0 * n - 2.0 * math.log2(math.pi)) / math.log2(9.0)
    return max(1, math.ceil(math.log2(arg)))


def plan_schedule(n: int, s0: int = DEFAULT_S0, pad: int = DEFAULT_PAD) -> ProtocolSchedule:
    """Round sizes for target precision n: doubling capped at n + pad.

    Sizes double from s0 because each round roughly doubles the number of
    accurate bits, for at least ``rounds_required(n)`` rounds and until the
    last size reaches n.  For n <= s0 the schedule is a single flagged round.
    """
    if n < 1:
        raise ValueError(f"--n {n} is below 1: the target needs at least one bit of precision")
    if s0 < 2:
        raise ValueError(f"--s0 {s0} is below 2: the approximate initial state needs 2 qubits")
    if pad < 0:
        raise ValueError(f"--pad {pad} is negative: the last round must reach the target")
    if n + pad < 2:
        raise ValueError(f"--n {n} with --pad {pad} makes a {n + pad}-qubit first round: "
                         f"the approximate initial state needs 2 qubits")
    if n <= s0:
        return ProtocolSchedule(
            n, (min(s0, n + pad),),
            note="single round: n <= s0 leaves one round",
        )
    sizes = [s0]
    while len(sizes) < rounds_required(n) or sizes[-1] < n:
        sizes.append(min(2 * sizes[-1], n + pad))
    return ProtocolSchedule(n, tuple(sizes))


@dataclass(frozen=True)
class ProtocolResult:
    """Full multi-round protocol outcome: one outcome per round of the
    schedule, and the run's output, the last round's state.  That is a
    ``SparseSpectrum`` from the sparse engine, and from the exact engine the
    read-only Fourier coefficients of one coset, c[k % stride::stride] of
    the last round's register, with stride ``COSET_STRIDE`` and k = 1 for
    :func:`run_protocol_exact`, and stride 1 (every coefficient) for
    ``distill_k``.  Every coefficient off that coset is zero."""

    schedule: ProtocolSchedule
    rounds: tuple[DistillationOutcome, ...]
    output: object  # SparseSpectrum, or the exact engine's np.ndarray coset

    @property
    def final(self) -> DistillationOutcome:
        return self.rounds[-1]

    @property
    def threshold(self) -> float:
        return fidelity_threshold(self.schedule.n_target)

    @property
    def log_threshold(self) -> float:
        return log_fidelity_threshold(self.schedule.n_target)

    @property
    def meets_threshold(self) -> bool:
        """Judged in log space, which resolves errors below the smallest double."""
        return self.final.log_error <= self.log_threshold

    @property
    def final_log_error(self) -> float:
        return self.final.log_error


def _extend_coset(buf: np.ndarray, length: int, size: int, stride: int, r: int) -> np.ndarray:
    """Coset coefficients c[r::stride] after appending |+> qubits up to ``size``.

    By the shift theorem the register state is e^(2 pi i r y / N) h[y mod
    N / stride] / sqrt(stride), with h the unitary inverse transform of the
    coset.  Appending d qubits turns h into h[u] e^(-2 pi i r l / 2**size) /
    sqrt(2**d) at u * 2**d + l, one outer product, and a unitary transform
    of length 2**size / stride gives the new coset.  With r = 0 the twiddle
    row is constant and this is the plain |+> append.  The coset is read
    from ``buf[:length]`` and grown into the longer prefix it returns; the
    outer product is written from the top in blocks that first copy their
    rows of h, each piece of at most 2**14 columns of the twiddle row built
    where it is used, so the peak is one final coset plus blocks of 2**14.
    """
    grow = (1 << size) // (stride * length)
    width = min(grow, _BLOCK)
    h = _unitary_fft(buf[:length], inverse=True)
    grown = buf[:length * grow].reshape(length, grow)
    step = max(1, _BLOCK // grow)
    for lo in reversed(range(0, length, step)):
        rows = h[lo:lo + step].copy()
        for col in range(0, grow, width):
            twiddle = np.arange(col, col + width, dtype=complex)
            twiddle *= -2j * np.pi * r / (1 << size)
            np.exp(twiddle, out=twiddle)
            twiddle /= math.sqrt(grow)
            np.multiply.outer(rows, twiddle, out=grown[lo:lo + step, col:col + width])
    del twiddle  # the transform holds blocks of its own
    return _unitary_fft(buf[:length * grow])


def _exact_rounds(buf: np.ndarray, length: int, sizes: Sequence[int], k: int,
                  stride: int = 1) -> tuple[tuple[DistillationOutcome, ...], np.ndarray]:
    """Symmetric rounds toward index k on dense coefficients, one per size.

    Squaring keeps the Fourier weight on the coset j = k (mod stride), and so
    does appending |+> qubits while stride divides the register's dimension,
    so the rounds run on that coset alone, as a prefix of ``buf``: a buffer
    the loop takes over, with at least the 2**size / stride entries of the
    last round's coset.  ``buf[:length]`` holds the first round's input
    c[k % stride::stride], of a register with stride * length amplitudes.
    Each round squares the coset in place and postselects; only a round
    larger than the one before grows it, by transforms (:func:`_extend_coset`).
    Returns the outcomes and the last round's output: that coset, c[k %
    stride::stride] of its register, frozen in place as the prefix of ``buf``.
    """
    r = k % stride
    coset = buf[:length]
    rounds = []
    for size in sizes:
        if stride * len(coset) < 1 << size:
            coset = _extend_coset(buf, len(coset), size, stride, r)
        coset *= coset
        rounds.append(_postselect(coset, k // stride))
    coset.flags.writeable = False
    return tuple(rounds), coset


def run_protocol_exact(n: int, *, s0: int = DEFAULT_S0,
                       pad: int = DEFAULT_PAD) -> ProtocolResult:
    """Run the full distillation tree on dense amplitude vectors.

    All sibling branches of the tree are identical under analytic
    postselection, so a single path is simulated: initial approximate state,
    then per round a symmetric distillation (coefficients squared, success
    probability recorded) with register extension between rounds.

    The initial state's Fourier weight, and so every round's, lies on the
    indices j = 1 (mod ``COSET_STRIDE``), and the rounds run on that quarter
    of each vector, in one zero-filled buffer of the final coset's length
    whose pages stay untouched until written.  The final output is that
    buffer: c[1::COSET_STRIDE] of the last round's register, 2**(size - 2)
    coefficients; the other three quarters are zero and are not stored.  So
    the peak is one final coset plus blocks of 2**14 points, and the
    amplitude cap counts that coset's coefficients, not the register's.
    """
    schedule = plan_schedule(n, s0, pad)
    biggest = max(schedule.sizes)
    coset, cap = biggest - (COSET_STRIDE.bit_length() - 1), amplitude_cap()
    if coset > cap:
        raise CapacityError(
            f"schedule for n={n} stores 2**{coset} coefficients, one coset of its "
            f"{biggest}-qubit register, above the amplitude-vector cap 2**{cap}; "
            f"use --engine sparse")
    # the initial state is the 2-qubit index-1 Fourier state with |+> qubits
    # appended, so its coset starts as one coefficient on a 2-qubit register
    buf = np.zeros((1 << biggest) // COSET_STRIDE, dtype=complex)
    buf[0] = 1
    return ProtocolResult(schedule, *_exact_rounds(buf, 1, schedule.sizes, 1,
                                                   stride=COSET_STRIDE))


def run_protocol_sparse(n: int, *, s0: int = DEFAULT_S0, pad: int = DEFAULT_PAD,
                        max_harmonics: int = DEFAULT_MAX_HARMONICS,
                        reuse: dict | None = None,
                        advice: str = "raise max_harmonics") -> ProtocolResult:
    """Run the protocol on the sparse spectral engine (any n, log-space).

    Matches :func:`run_protocol_exact` wherever both run; scales to n = 100
    and beyond because only the heaviest harmonics are tracked, with the
    truncated mass carried as a tail bound.  Like the exact engine it starts
    from the 2-qubit index-1 Fourier state, so every round, the first
    included, extends the spectrum to its size and then squares it.  A
    precision warning, ending in ``advice``, is raised if the final tail
    bound is not negligible against the error target; a caller that fixes
    the budget says so there.

    ``reuse`` is a caller-owned store for sweeps over n: a round depends only
    on the harmonic budget and its prefix of round sizes, so a run resumes
    after the deepest prefix stored there, and leaves there only its rounds,
    each as its outcome and output spectrum.
    """
    if max_harmonics < 1:
        raise ValueError(f"--max-harmonics {max_harmonics} is below 1: the sparse "
                         f"engine keeps at least one harmonic")
    if max_harmonics > MAX_HARMONICS:
        raise CapacityError(f"--max-harmonics {max_harmonics} exceeds the sparse "
                            f"engine's limit of {MAX_HARMONICS} harmonics")
    schedule = plan_schedule(n, s0, pad)
    keys = [(max_harmonics, schedule.sizes[:i]) for i in range(1, schedule.rounds + 1)]
    store = {} if reuse is None else reuse
    for key in store.keys() - set(keys):
        del store[key]
    rounds, sp = [], SparseSpectrum._ordered(2, np.zeros(1), (1,), NEG_INF)
    for size, key in zip(schedule.sizes, keys):
        if key in store:
            outcome, sp = store[key]
        else:
            outcome, sp = sparse_symmetric_round(sparse_extend(sp, size, max_harmonics))
            if reuse is not None:
                reuse[key] = outcome, sp
        rounds.append(outcome)
    if sp.log_tail > log_fidelity_threshold(n) + math.log(1e-3):
        warnings.warn(
            f"truncation tail bound exp({sp.log_tail:.2f}) is not negligible "
            f"against the error target for n={n}; {advice}",
            PrecisionWarning,
            stacklevel=2,
        )
    return ProtocolResult(schedule, tuple(rounds), sp)
