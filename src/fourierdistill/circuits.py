"""Gate-level realization: Clifford+Toffoli circuits, adders, verification.

Circuits are flat gate lists over named qubit indices, applied to dense
amplitude vectors (qubit 0 is the most significant index bit, matching the
register convention of :mod:`fourierdistill.fourier`).  The only measurement
primitive is a Z-basis measurement; measuring in the |+>/|-> basis is done
as H followed by measurement.

X, CNOT and TOFFOLI are one rule, controlled X: flip the target where every
control is 1.  On computational basis states such circuits are permutations,
which :func:`basis_images` evaluates classically on integer indices.

The modular adder comes in two forms: a basis-state permutation oracle
(ground truth) and a ripple-carry decomposition into CNOT and Toffoli gates
using one carry ancilla.  The decomposition restores the ancilla and matches
the oracle on every basis state; its Toffoli count (2n - 2) is reported as
built and may differ from the 2n - 4 figure the resource model uses for
published adder constructions.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateInputError
from .fourier import StateVector, _adopt, require_register_size, to_fourier_basis

GATE_ARITY = {
    "X": 1,
    "Z": 1,
    "S": 1,
    "H": 1,
    "CNOT": 2,
    "TOFFOLI": 3,
    "MEASURE_Z": 1,
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


@dataclass(frozen=True)
class CircuitRun:
    """Result of applying a circuit: postselected branch probability and state."""

    probability: float
    state: StateVector


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


def apply_circuit(circuit: GateCircuit, s: StateVector,
                  postselect: dict[int, int] | None = None) -> CircuitRun:
    """Apply a circuit to a state, tracking measurement branch probability.

    Every measured qubit must be listed in ``postselect``; it is projected
    onto the given bit, renormalizing and accumulating the branch
    probability.  The input state is not modified.
    """
    if s.n != circuit.num_qubits:
        raise ValueError(f"state has {s.n} qubits, circuit needs {circuit.num_qubits}")
    nq = circuit.num_qubits
    psi = s.amps.astype(complex).reshape((2,) * nq)
    postselect = postselect or {}
    probability = 1.0
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
        elif name in _PHASES:
            psi[_slice(nq, {g.qubits[0]: 1})] *= _PHASES[name]
        else:  # MEASURE_Z
            q = g.qubits[0]
            if q not in postselect:
                raise ValueError(f"measured qubit {q} has no postselected bit")
            bit = postselect[q]
            if bit not in (0, 1):
                raise ValueError(f"postselect bit for qubit {q} must be 0 or 1")
            p_branch = float(np.sum(np.abs(psi[_slice(nq, {q: bit})]) ** 2))
            if p_branch < 1e-300:
                raise DegenerateInputError(
                    f"postselected branch {bit} on qubit {q} has zero probability")
            psi[_slice(nq, {q: 1 - bit})] = 0.0
            psi /= math.sqrt(p_branch)
            probability *= p_branch
    return CircuitRun(probability, _adopt(StateVector, psi.ravel()))


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


def extract_register(run_state: StateVector, layout: RegisterLayout) -> StateVector:
    """Pull out the second-register state with every other qubit at 0.

    Valid once the first register has been measured as all zeros and the
    ancilla restored, as after a successful distillation step.
    """
    nq = run_state.n
    view = run_state.amps.reshape((2,) * nq)
    out = view[_slice(nq, {q: 0 for q in range(nq) if q not in layout.second})].ravel()
    norm = math.sqrt(float(np.sum(np.abs(out) ** 2)))
    if norm < 1e-150:
        raise DegenerateInputError("register extraction hit a zero branch")
    return _adopt(StateVector, out / norm)


@dataclass(frozen=True)
class CloneResult:
    """Cloned index and the fidelity toward it of each register and of the pair."""

    k: int
    fidelity: float


def clone_fourier_state(source: StateVector, k: int | None = None) -> CloneResult:
    """Copy a Fourier state with one adder: blank |+>^n, add, negate.

    The blank first register starts as the index-0 Fourier state; adding the
    source into it leaves index -k on the first register, which X on every
    first-register qubit maps back to index k (up to global phase).  So the
    source sum_j c_j |f_j> becomes sum_j c_j exp(2 pi i j / N) |f_j>|f_j>, and
    the first register, the second and the pair each hold index k with
    probability |c_k|^2, the source's Fourier weight at k: 1 for a pure
    Fourier-state source.  An explicit k is taken mod 2**n; by default k is
    the source's dominant index.
    """
    coeffs = to_fourier_basis(source).coeffs
    k = int(np.argmax(np.abs(coeffs))) if k is None else k % source.dim
    return CloneResult(k, float(np.abs(coeffs[k]) ** 2))
