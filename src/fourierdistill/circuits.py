"""Gate-level realization: Clifford+Toffoli circuits, adders, verification.

Circuits are flat gate lists over named qubit indices, applied to dense
amplitude vectors (qubit 0 is the most significant index bit, matching the
register convention of :mod:`fourierdistill.fourier`).  The only measurement
primitive is a Z-basis measurement; measuring in the |+>/|-> basis is done
as H followed by measurement.

The modular adder comes in two forms: a basis-state permutation oracle
(ground truth) and a ripple-carry decomposition into CNOT and Toffoli gates
using one carry ancilla.  The decomposition restores the ancilla and matches
the oracle on every basis state; its Toffoli count (2n - 2) is reported as
built and may differ from the 2n - 4 figure the resource model uses for
published adder constructions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .fourier import (
    StateVector,
    pure_fourier_state,
    require_register_size,
    spectrum_of,
)

GATE_ARITY = {
    "X": 1,
    "Z": 1,
    "S": 1,
    "H": 1,
    "CNOT": 2,
    "TOFFOLI": 3,
    "MEASURE_Z": 1,
}

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """One circuit element; qubits are (controls..., target) for CNOT/TOFFOLI."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise ValueError(f"{self.name} takes {GATE_ARITY[self.name]} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct: {self.qubits}")


@dataclass(frozen=True)
class GateCircuit:
    """Ordered gate list on num_qubits qubits."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if any(not 0 <= q < self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {self.num_qubits} qubits")

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.gates:
            out[g.name] = out.get(g.name, 0) + 1
        return out

    @property
    def toffoli_count(self) -> int:
        return self.counts.get("TOFFOLI", 0)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(g.qubits[0] for g in self.gates if g.name == "MEASURE_Z")


@dataclass(frozen=True)
class RegisterLayout:
    """Named qubit spans of a two-register circuit."""

    first: range
    second: range
    ancilla: range

    def __post_init__(self):
        spans = [set(self.first), set(self.second), set(self.ancilla)]
        total = sum(len(s) for s in spans)
        if len(set().union(*spans)) != total:
            raise ValueError("register spans must be disjoint")

    @property
    def num_qubits(self) -> int:
        return len(self.first) + len(self.second) + len(self.ancilla)


@dataclass(frozen=True)
class CircuitRun:
    """Result of applying a circuit: branch probability, state, outcomes."""

    probability: float
    state: StateVector
    outcomes: dict[int, int]


def modular_add_oracle(n: int) -> np.ndarray:
    """Basis permutation of |v>|w> -> |v>|w + v mod 2**n> on 2n qubits.

    Index convention: the joint basis index is v * 2**n + w.  Returned as an
    array perm with perm[y] the image of basis state y.
    """
    if n < 1:
        raise ValueError("n must be positive")
    require_register_size(2 * n)
    N = 1 << n
    v = np.arange(N)[:, None]
    w = np.arange(N)[None, :]
    return (v * N + (v + w) % N).ravel()


def build_adder_circuit(n: int) -> tuple[GateCircuit, RegisterLayout]:
    """In-place ripple-carry adder: second register += first, mod 2**n.

    Layout: first register on qubits [0, n), second on [n, 2n), one carry
    ancilla at 2n (returned to |0>).  Registers are most-significant-first;
    the carry chain runs from the least significant bits.  The top carry is
    never produced, so the most significant position needs only CNOTs.
    """
    if n < 1:
        raise ValueError("n must be positive")
    layout = RegisterLayout(range(0, n), range(n, 2 * n), range(2 * n, 2 * n + 1))
    qv = lambda i: n - 1 - i        # bit i (LSB = 0) of the first register
    qw = lambda i: 2 * n - 1 - i    # bit i of the second register
    anc = 2 * n
    gates: list[Gate] = []
    if n == 1:
        gates.append(Gate("CNOT", (qv(0), qw(0))))
    elif n == 2:
        gates.append(Gate("TOFFOLI", (qv(0), qw(0), qw(1))))
        gates.append(Gate("CNOT", (qv(1), qw(1))))
        gates.append(Gate("CNOT", (qv(0), qw(0))))
    else:
        # forward sweep: leave the carry into position i+1 on first-register bit i
        for i in range(n - 1):
            c = anc if i == 0 else qv(i - 1)
            a, b = qv(i), qw(i)
            gates.append(Gate("CNOT", (a, b)))
            gates.append(Gate("CNOT", (a, c)))
            gates.append(Gate("TOFFOLI", (c, b, a)))
        gates.append(Gate("CNOT", (qv(n - 1), qw(n - 1))))
        gates.append(Gate("CNOT", (qv(n - 2), qw(n - 1))))
        # backward sweep: restore carries and write sum bits
        for i in range(n - 2, -1, -1):
            c = anc if i == 0 else qv(i - 1)
            a, b = qv(i), qw(i)
            gates.append(Gate("TOFFOLI", (c, b, a)))
            gates.append(Gate("CNOT", (a, c)))
            gates.append(Gate("CNOT", (c, b)))
    return GateCircuit(2 * n + 1, tuple(gates)), layout


def build_constant_adder_circuit(n: int, addend: int) -> tuple[GateCircuit, RegisterLayout]:
    """Known-addend adder: register += addend mod 2**n, n - 2 Toffolis.

    With one addend classical, half the Toffolis of the in-place adder
    short-circuit into Clifford gates: the carry into position i + 1 is
    majority(addend_i, w_i, carry_i), which needs one Toffoli when the
    addend bit is set or clear plus CNOTs, and position 0 needs none.  This
    is the adder phase kickback uses, so a rotation accurate to p bits costs
    p - 1 Toffolis on a (p + 1)-qubit Fourier register.

    Layout: register on qubits [0, n), carry ancillas for positions 1..n-1
    on [n, 2n - 1).  Carries are left computed (dirty); uncomputing them is
    a measurement-based Clifford fixup and adds no Toffoli gates.
    """
    if n < 3:
        raise ValueError("constant adder needs n >= 3")
    addend %= 1 << n
    layout = RegisterLayout(range(0, n), range(n, n), range(n, 2 * n - 1))
    qw = lambda i: n - 1 - i          # register bit i (LSB = 0)
    qc = lambda i: n + i - 1          # carry into position i, for i >= 1
    bit = lambda i: (addend >> i) & 1
    gates: list[Gate] = []
    # forward carry chain from the original register bits
    if bit(0):
        gates.append(Gate("CNOT", (qw(0), qc(1))))
    for i in range(1, n - 1):
        gates.append(Gate("TOFFOLI", (qw(i), qc(i), qc(i + 1))))
        if bit(i):
            gates.append(Gate("CNOT", (qw(i), qc(i + 1))))
            gates.append(Gate("CNOT", (qc(i), qc(i + 1))))
    # sum bits: w_i ^= addend_i ^ carry_i
    for i in range(n):
        if bit(i):
            gates.append(Gate("X", (qw(i),)))
        if i >= 1:
            gates.append(Gate("CNOT", (qc(i), qw(i))))
    return GateCircuit(2 * n - 1, tuple(gates)), layout


def build_distillation_circuit(n: int) -> tuple[GateCircuit, RegisterLayout]:
    """Distillation step circuit: adder, then verify the first register.

    The first register is added into the second, then each first-register
    qubit gets H followed by a Z measurement.  All-zero outcomes project the
    first register onto the index-0 Fourier state (postselection succeeds).
    """
    adder, layout = build_adder_circuit(n)
    gates = list(adder.gates)
    for q in layout.first:
        gates.append(Gate("H", (q,)))
    for q in layout.first:
        gates.append(Gate("MEASURE_Z", (q,)))
    return GateCircuit(adder.num_qubits, tuple(gates)), layout


def approx_state_circuit(n: int) -> GateCircuit:
    """Clifford-only preparation of the approximate fundamental Fourier state.

    From |0...0>: H everywhere, Z on qubit 0, S on qubit 1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    gates = [Gate("H", (q,)) for q in range(n)]
    gates.append(Gate("Z", (0,)))
    gates.append(Gate("S", (1,)))
    return GateCircuit(n, tuple(gates))


def _slice(nq: int, assignments: dict[int, int]) -> tuple:
    idx: list = [slice(None)] * nq
    for q, bit in assignments.items():
        idx[q] = bit
    return tuple(idx)


def apply_circuit(circuit: GateCircuit, s: StateVector,
                  postselect: dict[int, int] | None = None,
                  seed: int | None = None) -> CircuitRun:
    """Apply a circuit to a state, tracking measurement branch probability.

    Measured qubits listed in ``postselect`` are projected onto the given
    bit (renormalizing and accumulating the branch probability); other
    measurements are sampled, which requires ``seed``.  The input state is
    not modified.
    """
    if s.n != circuit.num_qubits:
        raise ValueError(f"state has {s.n} qubits, circuit needs {circuit.num_qubits}")
    nq = circuit.num_qubits
    psi = s.amps.astype(complex).copy().reshape((2,) * nq)
    postselect = postselect or {}
    rng = None
    probability = 1.0
    outcomes: dict[int, int] = {}
    for g in circuit.gates:
        name = g.name
        if name == "H":
            q = g.qubits[0]
            lo, hi = _slice(nq, {q: 0}), _slice(nq, {q: 1})
            a = psi[lo].copy()
            b = psi[hi]
            psi[lo] = (a + b) * _SQRT1_2
            psi[hi] = (a - b) * _SQRT1_2
        elif name == "X":
            q = g.qubits[0]
            lo, hi = _slice(nq, {q: 0}), _slice(nq, {q: 1})
            a = psi[lo].copy()
            psi[lo] = psi[hi]
            psi[hi] = a
        elif name == "Z":
            psi[_slice(nq, {g.qubits[0]: 1})] *= -1.0
        elif name == "S":
            psi[_slice(nq, {g.qubits[0]: 1})] *= 1j
        elif name == "CNOT":
            c, t = g.qubits
            lo = _slice(nq, {c: 1, t: 0})
            hi = _slice(nq, {c: 1, t: 1})
            a = psi[lo].copy()
            psi[lo] = psi[hi]
            psi[hi] = a
        elif name == "TOFFOLI":
            c1, c2, t = g.qubits
            lo = _slice(nq, {c1: 1, c2: 1, t: 0})
            hi = _slice(nq, {c1: 1, c2: 1, t: 1})
            a = psi[lo].copy()
            psi[lo] = psi[hi]
            psi[hi] = a
        else:  # MEASURE_Z
            q = g.qubits[0]
            p1 = float(np.sum(np.abs(psi[_slice(nq, {q: 1})]) ** 2))
            p0 = float(np.sum(np.abs(psi[_slice(nq, {q: 0})]) ** 2))
            if q in postselect:
                bit = postselect[q]
                if bit not in (0, 1):
                    raise ValueError(f"postselect bit for qubit {q} must be 0 or 1")
            elif seed is not None:
                if rng is None:
                    rng = np.random.default_rng(seed)
                bit = 1 if rng.random() < p1 / (p0 + p1) else 0
            else:
                raise ValueError("sampling a measurement requires a seed; "
                                 "pass postselect or seed")
            p_branch = (p0, p1)[bit]
            if p_branch < 1e-300:
                raise DegenerateInputError(
                    f"postselected branch {bit} on qubit {q} has zero probability")
            psi[_slice(nq, {q: 1 - bit})] = 0.0
            psi /= math.sqrt(p_branch)
            probability *= p_branch
            outcomes[q] = bit
    return CircuitRun(probability, StateVector(psi.ravel()), outcomes)


def extract_register(run_state: StateVector, layout: RegisterLayout,
                     fixed: dict[int, int]) -> StateVector:
    """Pull out the second-register state once all other qubits are classical.

    ``fixed`` gives the known computational value of every qubit outside the
    second register (measured first register, restored ancilla).
    """
    nq = run_state.n
    view = run_state.amps.reshape((2,) * nq)
    out = view[_slice(nq, fixed)].ravel()
    norm = math.sqrt(float(np.sum(np.abs(out) ** 2)))
    if norm < 1e-150:
        raise DegenerateInputError("register extraction hit a zero branch")
    return StateVector(out / norm)


@dataclass(frozen=True)
class CloneResult:
    """Joint two-register state after cloning, with per-register fidelities."""

    state: StateVector
    k: int
    fidelity_first: float
    fidelity_second: float
    joint_fidelity: float


def clone_fourier_state(n: int, source: StateVector, k: int | None = None) -> CloneResult:
    """Copy a Fourier state with one adder: blank |+>^n, add, negate.

    The blank first register starts as the index-0 Fourier state; adding the
    source into it leaves index -k on the first register, which X on every
    first-register qubit maps back to index k (up to global phase).  For a
    pure Fourier-state source both outputs are exact copies; for approximate
    sources the joint state is entangled and the per-register fidelities are
    reported as measured.
    """
    if source.n != n:
        raise ValueError(f"source has {source.n} qubits, expected {n}")
    require_register_size(2 * n)
    if k is None:
        k = spectrum_of(source).dominant_index()
    N = 1 << n
    blank = np.full(N, 1.0 / math.sqrt(N))
    joint = np.kron(blank, source.amps)
    permuted = np.empty_like(joint)
    permuted[modular_add_oracle(n)] = joint
    matrix = np.flip(permuted.reshape(N, N), axis=0)  # X on every first-register qubit
    gamma = pure_fourier_state(n, k).amps
    fid_first = float(np.sum(np.abs(gamma.conj() @ matrix) ** 2))
    fid_second = float(np.sum(np.abs(matrix @ gamma.conj()) ** 2))
    joint_fid = float(abs(gamma.conj() @ matrix @ gamma.conj()) ** 2)
    return CloneResult(StateVector(matrix.ravel()), k, fid_first, fid_second, joint_fid)


def circuit_to_text(circuit: GateCircuit) -> str:
    """Stable plain-text gate list: header ``QUBITS n``, one gate per line."""
    lines = [f"QUBITS {circuit.num_qubits}"]
    for g in circuit.gates:
        lines.append(" ".join([g.name] + [str(q) for q in g.qubits]))
    return "\n".join(lines) + "\n"
