"""Gate-level realization: Clifford+Toffoli circuits, adders, verification.

Circuits are flat gate lists over named qubit indices, applied to dense
amplitude vectors (qubit 0 is the most significant index bit, matching the
register convention of :mod:`fourierdistill.fourier`).  Every gate is
unitary.  Postselection is a readout, not a gate: :func:`extract_register`
projects every qubit outside the output register onto 0, so verifying the
first register in the |+>/|-> basis is H on each of its qubits followed by
that projection.

X, CNOT and TOFFOLI are one rule, controlled X: flip the target where every
control is 1.  On computational basis states such circuits are permutations,
which :func:`basis_images` evaluates classically on integer indices.

The modular adder comes in two forms: a basis-state permutation oracle
(ground truth) and a ripple-carry decomposition into CNOT and Toffoli gates
using one carry ancilla.  The decomposition restores the ancilla and matches
the oracle on every basis state; its Toffoli count, 2n - 2 for n >= 3 (1 at
n = 2, none at n = 1), is reported as built and may differ from the 2n - 4
figure the resource model uses for published adder constructions.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .fourier import StateVector, _index_blocks, require_register_size

GATE_ARITY = {
    "X": 1,
    "Z": 1,
    "S": 1,
    "H": 1,
    "CNOT": 2,
    "TOFFOLI": 3,
}

#: Gates that flip their last qubit where all earlier qubits are 1.
_CONTROLLED_X = frozenset({"X", "CNOT", "TOFFOLI"})

_PHASES = {"Z": -1.0, "S": 1j}

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
        return dict(Counter(g.name for g in self.gates))

    @property
    def toffoli_count(self) -> int:
        return self.counts.get("TOFFOLI", 0)


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


def build_adder_circuit(n: int) -> tuple[GateCircuit, range]:
    """In-place ripple-carry adder: second register += first, mod 2**n.

    Layout: first register on qubits [0, n), second on [n, 2n), one carry
    ancilla at 2n (returned to |0>).  Registers are most-significant-first;
    the carry chain runs from the least significant bits.  The top carry is
    never produced, so the most significant position needs only CNOTs.
    Returns the circuit and the qubits of the register it writes,
    range(n, 2n), for :func:`extract_register`.
    """
    if n < 1:
        raise ValueError("n must be positive")
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
    return GateCircuit(2 * n + 1, tuple(gates)), range(n, 2 * n)


def build_distillation_circuit(n: int) -> tuple[GateCircuit, range]:
    """Distillation step circuit: the adder, then H on each first-register qubit.

    The first register is added into the second and rotated so that its
    index-0 Fourier state reads as all zeros; :func:`extract_register` then
    postselects that outcome on the returned second register.
    """
    adder, second = build_adder_circuit(n)
    hadamards = tuple(Gate("H", (q,)) for q in range(n))
    return GateCircuit(adder.num_qubits, adder.gates + hadamards), second


def approx_state_circuit(n: int) -> GateCircuit:
    """Clifford-only preparation of the approximate fundamental Fourier state.

    From |0...0>: H everywhere, Z on qubit 0, S on qubit 1.
    """
    if n < 2:
        raise ValueError(f"--n {n} is below 2: the approximate initial state needs "
                         f"at least 2 qubits")
    gates = [Gate("H", (q,)) for q in range(n)]
    gates.append(Gate("Z", (0,)))
    gates.append(Gate("S", (1,)))
    return GateCircuit(n, tuple(gates))


def _slice(nq: int, assignments: dict[int, int]) -> tuple:
    idx: list = [slice(None)] * nq
    for q, bit in assignments.items():
        idx[q] = bit
    return tuple(idx)


def apply_circuit(circuit: GateCircuit, s: StateVector) -> StateVector:
    """Apply a circuit to a state; the input state is not modified."""
    if s.n != circuit.num_qubits:
        raise ValueError(f"state has {s.n} qubits, circuit needs {circuit.num_qubits}")
    nq = circuit.num_qubits
    psi = s.amps.copy().reshape((2,) * nq)
    for g in circuit.gates:
        name = g.name
        if name == "H":
            q = g.qubits[0]
            lo, hi = _slice(nq, {q: 0}), _slice(nq, {q: 1})
            a, b = psi[lo].copy(), psi[hi]
            psi[lo] = (a + b) * _SQRT1_2
            psi[hi] = (a - b) * _SQRT1_2
        elif name in _CONTROLLED_X:
            *controls, t = g.qubits
            on = dict.fromkeys(controls, 1)
            lo, hi = _slice(nq, {**on, t: 0}), _slice(nq, {**on, t: 1})
            psi[lo], psi[hi] = psi[hi], psi[lo].copy()
        else:
            psi[_slice(nq, {g.qubits[0]: 1})] *= _PHASES[name]
    return StateVector(psi.ravel())


def basis_images(circuit: GateCircuit, indices) -> np.ndarray:
    """Images of computational basis states under an X/CNOT/TOFFOLI circuit.

    Every gate applies the controlled-X rule to all ``indices`` at once:
    flip the target bit where every control bit is 1, with qubit 0 the most
    significant bit.  Returns a new uint64 array.
    """
    nq = circuit.num_qubits
    if nq > 64:
        raise CapacityError(f"basis indices of {nq} qubits do not fit in uint64")
    images = np.array(indices, dtype=np.uint64)
    if images.size and int(images.max()) >> nq:
        raise ValueError(f"basis index out of range for {nq} qubits")
    bit = lambda q: np.uint64(1 << (nq - 1 - q))
    for g in circuit.gates:
        if g.name not in _CONTROLLED_X:
            raise ValueError(f"{g.name} does not map basis states to basis states")
        *controls, t = g.qubits
        mask = sum((bit(q) for q in controls), np.uint64(0))
        images ^= np.where((images & mask) == mask, bit(t), np.uint64(0))
    return images


def extract_register(state: StateVector, register: range) -> tuple[float, StateVector]:
    """Postselect every qubit outside ``register`` at 0.

    Returns the branch probability and the normalized register.  On a
    distillation circuit this is the step's postselection: the adder restores
    the ancilla, so the branch is the first register verified as index 0.
    A branch of zero probability has no register and raises ``ValueError``.
    """
    nq = state.n
    view = state.amps.reshape((2,) * nq)
    out = view[_slice(nq, {q: 0 for q in range(nq) if q not in register})].ravel()
    probability = float(np.sum(np.abs(out) ** 2))
    if probability < 1e-300:
        raise ValueError("register extraction hit a zero branch")
    return probability, StateVector(out / math.sqrt(probability))


def clone_fourier_state(source: StateVector, k: int) -> float:
    """Copy a Fourier state with one adder: blank |+>^n, add, negate.

    The blank first register starts as the index-0 Fourier state; adding the
    source into it leaves index -k on the first register, which X on every
    first-register qubit maps back to index k (up to global phase).  So the
    source sum_j c_j |f_j> becomes sum_j c_j exp(2 pi i j / N) |f_j>|f_j>, and
    the first register, the second and the pair each hold index k with
    probability |c_k|^2, the source's Fourier weight at k: 1 for a pure
    Fourier-state source.  That weight is returned; k is taken mod 2**n.
    It is |<f_k|s>|^2, summed in blocks: the phase index k y mod N is exact
    in int64 (a product past 2**63 wraps, which keeps its low n bits).
    """
    N = source.dim
    k %= N
    overlap = 0j
    for part, ky in _index_blocks(N):
        ky *= k
        ky &= N - 1
        phase = ky * (-2j * np.pi / N)
        overlap += np.dot(np.exp(phase, out=phase), source.amps[part])
    return float(abs(overlap) ** 2 / N)
