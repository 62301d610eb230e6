"""Cost accounting: Toffoli counts, retry overhead, rotation-method comparison.

Only Toffoli gates are counted; Clifford gates, ancilla preparation, and
measurement are treated as cheap.  Each distillation step consumes one adder
whose published cost on s-qubit registers is 2s - 4 Toffoli gates.

The deterministic count walks the actual round sizes of a schedule: the
capped one (s0 doubling, capped at n + pad) for ``resources``, and the
full-width (n,) * R for ``arbitrary-k``.  It is pure schedule arithmetic and
runs no spectral engine.

Retry overhead: a failed step discards its two input states, so its whole
feeding subtree is rebuilt.  The expected cost then follows the recursion
E_r = (2 E_(r-1) + A_r) / p_r, which is exposed analytically and sampled by
a seeded Monte Carlo that draws the attempt count of each round for all
trials at once, inverting uniforms through negative-binomial CDF tables.
Only these two read the per-round success probabilities p_r,
from one sparse-engine run per n; :func:`resource_reports` sweeps n with one
reuse store for those runs, so a round prefix common to several n runs once.
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .distill import (
    DEFAULT_PAD,
    DEFAULT_S0,
    ProtocolSchedule,
    plan_schedule,
    run_protocol_sparse,
)
from .errors import CapacityError

#: Harmonic budget for probability extraction; round probabilities converge
#: far faster than the error itself, so a reduced budget loses nothing.
PROBABILITY_HARMONICS = 512

#: Most Monte Carlo trials per estimate: the sampler holds a few int64 arrays
#: of this length at once (about 230 MB at the limit).
MAX_TRIALS = 1 << 22

#: Most targets of one sweep (about 3 s and 175 MB of schedule arithmetic).
MAX_TARGETS = 1 << 17

#: A table of retry counts in :func:`_retries` holds at most this many cells
#: (8 MB of keys; the engine's probabilities need at most about 31,000 at
#: ``MAX_TRIALS``) and leaves a mass below exp(_TAIL) = 2**-60 past its end.
_TABLE_CELLS, _TAIL = 1 << 20, -60.0 * math.log(2.0)


def adder_toffoli_count(size: int) -> int:
    """Published Toffoli cost 2s - 4 of one in-place adder on s-qubit registers."""
    if size < 3:
        raise ValueError("adder cost formula needs registers of at least 3 qubits")
    return 2 * size - 4


@dataclass(frozen=True)
class ResourceReport:
    """Deterministic and expected Toffoli costs of one schedule's tree."""

    schedule: ProtocolSchedule
    toffoli_expected_mean: float | None = None
    toffoli_expected_std: float | None = None

    @property
    def rounds(self) -> int:
        return self.schedule.rounds

    @property
    def width_qubits(self) -> int:
        return self.schedule.width_qubits

    @property
    def adders(self) -> tuple[int, ...]:
        """Adders per round: 2**(R-r) in round r of R, one per distillation step."""
        R = self.schedule.rounds
        return tuple(1 << (R - 1 - r) for r in range(R))

    @property
    def toffoli_deterministic(self) -> int:
        """Each round's adders at 2*size - 4 Toffolis each."""
        return sum(a * adder_toffoli_count(s) for a, s in zip(self.adders, self.schedule.sizes))


def round_success_probabilities(n: int, s0: int = DEFAULT_S0, pad: int = DEFAULT_PAD,
                                reuse: dict | None = None) -> list[float]:
    """Per-round success probabilities from the sparse engine at
    ``PROBABILITY_HARMONICS`` harmonics, for every n.

    Against the exact engine at n = 5..16 they agree to 1.1e-13 relative at
    the default schedule and to 9.4e-12 at (s0, pad) = (4, 1), (6, 3) and
    (5, 0); tests hold them to that with the exact engine as ground truth.
    :func:`resource_reports` passes one ``reuse`` store to all calls of a
    sweep: shared round prefixes run once and give the same floats.
    """
    result = run_protocol_sparse(
        n, s0=s0, pad=pad, max_harmonics=PROBABILITY_HARMONICS, reuse=reuse,
        advice=f"round probabilities use a fixed {PROBABILITY_HARMONICS}-harmonic budget")
    return [rec.p_success for rec in result.rounds]


def _check_request(s0: int, n: int | None = None, trials: int = 0,
                   seed: int | None = None) -> None:
    """Refuse a cost request before any engine runs, in the CLI's flag order;
    0 trials asks for no Monte Carlo estimate."""
    if trials < 0:
        raise ValueError(f"--trials {trials} is negative: 0 turns the Monte Carlo "
                         f"estimate off")
    if seed is not None and seed < 0:
        raise ValueError(f"--seed {seed} is negative: the random stream takes a seed >= 0")
    if trials and seed is None:
        raise ValueError("--seed is required when --trials > 0")
    if s0 < 3:
        raise ValueError(f"--s0 {s0} is below 3: the adder cost formula "
                         f"needs registers of at least 3 qubits")
    if n is not None and n < 5:
        raise ValueError(f"--n-min {n} is below 5: cost accounting starts at n = 5")
    if trials > MAX_TRIALS:
        raise CapacityError(f"--trials {trials} exceeds the Monte Carlo limit of "
                            f"{MAX_TRIALS} trials per estimate")


def toffoli_capped(n: int, s0: int = DEFAULT_S0, pad: int = DEFAULT_PAD) -> ResourceReport:
    """Deterministic cost of the capped schedule for target n >= 5 from s0 >= 3."""
    _check_request(s0, n)
    return ResourceReport(plan_schedule(n, s0, pad))


def expected_cost_recursion(n: int) -> float:
    """Analytic expected Toffoli count of ``plan_schedule(n)`` under
    retry-the-subtree semantics."""
    probs = round_success_probabilities(n)
    expected = 0.0
    for size, p in zip(plan_schedule(n).sizes, probs):
        expected = (2.0 * expected + adder_toffoli_count(size)) / p
    return expected


def _retries(needed: np.ndarray, p: float, stream: random.Random, r: int) -> np.ndarray:
    """NB(needed, p) failures at 0 < p < 1: per trial, the smallest x with
    u < CDF(x) for a 53-bit uniform u, by one search of the keys row * 2**53
    + u in a table of row * 2**53 + ceil(2**53 CDF_k(x)), one row per k in
    needed, which keeps every bit of u.  NB(k, p) grows with k, and past
    its mode the pmf ratio t = (k + x) q / (x + 1) falls, so the mass past x
    is at most pmf(x) t / (1 - t): the largest k ends every row where that
    is below 2**-60.  The last column is forced to 2**53, so every u lands
    in its row; keys of 2**11 rows would pass 2**64.
    """
    kmin, kmax = int(needed.min()), int(needed.max())
    rows, q = kmax - kmin + 1, 1.0 - p
    log_pmf, x = kmax * math.log(p), 0
    while x * rows < _TABLE_CELLS:
        t = (kmax + x) * q / (x + 1)
        if t < 1.0 and log_pmf + math.log(t / (1.0 - t)) < _TAIL:
            break
        log_pmf, x = log_pmf + math.log(t), x + 1
    if rows * (x + 1) > _TABLE_CELLS or rows >= 1 << 11:
        raise ValueError(f"--trials: round {r} success probability {p} needs a table "
                         f"of retry counts past {_TABLE_CELLS} cells or 2047 rows")
    ks, xs = np.arange(kmin, kmax + 1.0)[:, None], np.arange(float(x))
    cdf = np.empty((rows, x + 1))
    cdf[:, :1] = ks * math.log(p)
    np.cumsum(np.log((ks + xs) * q / (xs + 1)), axis=1, out=cdf[:, 1:])
    cdf[:, 1:] += cdf[:, :1]
    np.cumsum(np.exp(cdf, out=cdf), axis=1, out=cdf)
    table = np.ceil(np.minimum(cdf, 1.0, out=cdf) * 2.0 ** 53).astype(np.uint64)
    table[:, -1] = 1 << 53
    table += np.arange(rows, dtype=np.uint64)[:, None] << 53
    keys = (needed - kmin).view(np.uint64)
    keys <<= 53
    keys |= np.frombuffer(stream.randbytes(8 * len(needed)), "<u8") >> 11
    x = np.searchsorted(table.ravel(), keys, side="right")
    return np.remainder(x, table.shape[1], out=x)


def expected_cost_monte_carlo(n: int, trials: int, seed: int,
                              s0: int = DEFAULT_S0, pad: int = DEFAULT_PAD, *,
                              probabilities: list[float]) -> tuple[float, float]:
    """Sampled (mean, std) of the protocol Toffoli count with retries.

    A failed node rebuilds itself and its whole feeding subtree, so the
    attempts at the top round are Geometric(p_R), and each attempt at round r
    needs two successes from round r-1: N_(r-1) = 2 N_r + NB(2 N_r, p_(r-1)).
    The cost of a trial is sum_r N_r * A_r.  All trials are drawn together,
    level by level, from one ``random.Random(seed)`` stream; the same (n,
    trials, seed, s0, pad, probabilities) always gives the same (mean, std).
    ``probabilities`` are the per-round success probabilities, usually
    :func:`round_success_probabilities`; forcing 1.0 everywhere recovers the
    deterministic count.  A round whose retry table would pass its size
    limit, or whose int64 counts could wrap, is refused.
    """
    _check_request(s0, trials=trials, seed=seed)
    if not trials:
        raise ValueError("the sampled estimate needs at least one trial")
    schedule = plan_schedule(n, s0, pad)
    if len(probabilities) != schedule.rounds:
        raise ValueError(f"need {schedule.rounds} probabilities, got {len(probabilities)}")
    for r, p in enumerate(probabilities, start=1):
        if not 0.0 < p <= 1.0 + 1e-12:
            raise ValueError(f"round {r} success probability {p} is outside (0, 1]")
    stream = random.Random(seed)
    needed = np.ones(trials, dtype=np.int64)
    samples = np.zeros(trials, dtype=np.int64)
    worst = 0
    for r in range(schedule.rounds, 0, -1):
        p, cost = min(probabilities[r - 1], 1.0), adder_toffoli_count(schedule.sizes[r - 1])
        attempts = needed if p == 1.0 else needed + _retries(needed, p, stream, r)
        worst += int(attempts.max()) * cost
        if worst >> 62:
            raise ValueError(f"round {r} success probability {p}: a trial's Toffoli "
                             f"count could pass 2**62")
        samples += attempts * cost
        needed = 2 * attempts
    std = float(samples.std(ddof=1)) if trials > 1 else 0.0
    return float(samples.mean()), std


def resource_reports(n_values, trials: int = 0, seed: int | None = None,
                     s0: int = DEFAULT_S0, pad: int = DEFAULT_PAD) -> list[ResourceReport]:
    """Deterministic report per n, plus Monte Carlo expected cost when trials
    is not 0.  trials, seed, s0, the first n and the sweep's length are
    checked before any engine runs, also for an empty sweep; a later n is
    checked when the sweep reaches it.

    The engine runs of the sweep share one reuse store, so a round prefix
    common to several n runs once; every n gets the floats it gets alone.
    """
    sweep = n_values if isinstance(n_values, range) else list(n_values)
    _check_request(s0, sweep[0] if len(sweep) else None, trials, seed)
    if len(sweep) > MAX_TARGETS:
        raise CapacityError(f"--n-min {sweep[0]} to --n-max {sweep[-1]} spans {len(sweep)} "
                            f"targets, above the limit of {MAX_TARGETS} targets")
    reports, reuse = [], {}
    for n in sweep:
        report = toffoli_capped(n, s0, pad)
        if trials:
            probs = round_success_probabilities(n, s0, pad, reuse)
            mean, std = expected_cost_monte_carlo(n, trials, seed, s0, pad, probabilities=probs)
            report = replace(report, toffoli_expected_mean=mean, toffoli_expected_std=std)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Rotation-gate comparison: phase kickback vs T-gate approximation sequences.
# ---------------------------------------------------------------------------

def epsilon_f_kickback(p: int) -> float:
    """Trace-overlap gate error of a kickback rotation truncated to p bits.

    Equals sqrt(1 - |1 + exp(i*pi/2**p)|/2), evaluated through the
    half-angle identity as sqrt(2)*sin(pi/2**(p+2)) so that large p suffers
    no cancellation.
    """
    if not 1 <= p <= 1022:  # eps_f ~ 2**-p stays a normal double
        raise ValueError(f"p must lie in 1..1022 (eps_f ~ 2**-p in double range), got {p}")
    return math.sqrt(2.0) * math.sin(math.ldexp(math.pi, -(p + 2)))


def t_sequence_cost(eps_f: float) -> float:
    """Average T-gate count 3.21*log2(1/eps_f) - 6.93 of an approximation
    sequence reaching trace-overlap error eps_f.  Clamped at zero (with a
    warning) outside the asymptotic regime."""
    if not 0.0 < eps_f < 1.0:
        raise ValueError("eps_f must lie in (0, 1)")
    cost = 3.21 * math.log2(1.0 / eps_f) - 6.93
    if cost < 0.0:
        warnings.warn(f"T-sequence cost model is out of regime at eps_f={eps_f:g}; "
                      "clamping to 0", stacklevel=2)
        return 0.0
    return cost


def t_sequence_cost_bits(p: int) -> float:
    """Per-bit form of the T-sequence cost: 3.21*p - 6.45.

    Composing :func:`t_sequence_cost` with the kickback error offset
    log2(1/eps_f) = p - 0.15 gives 3.21*p - 7.41 instead; the two published
    forms differ by about one T gate and are both reported side by side.
    """
    if p < 1:
        raise ValueError("p must be positive")
    return 3.21 * p - 6.45


@dataclass(frozen=True)
class ComparisonRow:
    """One precision level of the kickback vs T-sequence comparison."""

    p: int
    eps_f: float
    log2_inv_eps_f: float
    t_gates_bit_form: float
    t_gates_from_eps: float
    kickback_toffolis: int
    kickback_ancillas: int


def comparison_table(p_values) -> list[ComparisonRow]:
    """Comparison rows for each p in p_values, all in 2..1022 and checked
    before any row is built; a range's ends are read, not walked.

    A p-bit kickback rotation adds a known angle into a (p + 1)-qubit Fourier
    register.  The classical addend turns half the adder's Toffolis into
    Cliffords, leaving p - 1, and its p carries make 2p + 1 ancillas in all.
    """
    p_values = p_values if isinstance(p_values, range) else list(p_values)
    ends = (p_values[0], p_values[-1]) if isinstance(p_values, range) and p_values else p_values
    if ends and min(ends) < 2:
        raise ValueError(f"--p-min {min(ends)} is below 2: kickback rotation needs "
                         f"p >= 2 bits, got p={min(ends)}")
    if ends and max(ends) > 1022:
        raise ValueError(f"--p-max {max(ends)} is above 1022: eps_f ~ 2**-p must "
                         f"stay a normal double")
    rows = []
    for p in p_values:
        eps = epsilon_f_kickback(p)
        rows.append(ComparisonRow(
            p=p,
            eps_f=eps,
            log2_inv_eps_f=math.log2(1.0 / eps),
            t_gates_bit_form=t_sequence_cost_bits(p),
            t_gates_from_eps=t_sequence_cost(eps),
            kickback_toffolis=p - 1,
            kickback_ancillas=2 * p + 1,
        ))
    return rows

