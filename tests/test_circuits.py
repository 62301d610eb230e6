"""Tests for gate-level circuits: adders, distillation, cloning, application."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierdistill import (
    CapacityError,
    Gate,
    GateCircuit,
    StateVector,
    apply_circuit,
    approx_state_circuit,
    basis_images,
    build_adder_circuit,
    build_distillation_circuit,
    clone_fourier_state,
    comparison_table,
    extract_register,
    modular_add_oracle,
    pure_fourier_state,
    run_protocol_exact,
    to_fourier_basis,
)
from oracles import (
    apply_permutation,
    approx_initial_state,
    build_constant_adder_circuit,
    circuit_to_text,
    fidelity,
    gate_level_protocol,
    spread_coset,
    traced_peak,
)


def basis_state(num_qubits, index):
    amps = np.zeros(1 << num_qubits, complex)
    amps[index] = 1.0
    return StateVector(amps)


def joint_index(n, v, w):
    return v * (1 << n) + w


class TestGateTypes:
    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            Gate("T", (0,))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))

    def test_measurement_is_not_a_gate(self):
        # circuits are unitary; extract_register owns postselection
        with pytest.raises(ValueError, match="unknown gate 'MEASURE_Z'"):
            Gate("MEASURE_Z", (0,))

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError):
            GateCircuit(2, (Gate("CNOT", (0, 2)),))

    def test_counts(self):
        circuit, _ = build_adder_circuit(4)
        counts = circuit.counts
        assert counts["TOFFOLI"] == circuit.toffoli_count == 2 * 4 - 2
        assert sum(counts.values()) == len(circuit.gates)


class TestModularAddOracle:
    def test_small_example(self):
        # (v=3, w=2) -> (3, 1): 2 + 3 mod 4 = 1
        perm = modular_add_oracle(2)
        assert perm[joint_index(2, 3, 2)] == joint_index(2, 3, 1)

    def test_zero_addend_is_identity_row(self):
        perm = modular_add_oracle(3)
        for w in range(8):
            assert perm[joint_index(3, 0, w)] == joint_index(3, 0, w)

    def test_is_permutation(self):
        perm = modular_add_oracle(3)
        assert sorted(perm) == list(range(64))

    def test_fourier_action_all_pairs_n3(self):
        # gamma(k) x gamma(k') -> gamma(k - k') x gamma(k'), all 64 pairs
        perm = modular_add_oracle(3)
        for k in range(8):
            for kp in range(8):
                joint = StateVector(np.kron(pure_fourier_state(3, k).amps,
                                            pure_fourier_state(3, kp).amps))
                moved = apply_permutation(perm, joint)
                expected = np.kron(pure_fourier_state(3, (k - kp) % 8).amps,
                                   pure_fourier_state(3, kp).amps)
                overlap = abs(np.vdot(expected, moved.amps)) ** 2
                assert overlap >= 1 - 1e-10


class TestAdderCircuit:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_basis_equivalence(self, n):
        circuit, _ = build_adder_circuit(n)
        perm = modular_add_oracle(n)
        for v in range(1 << n):
            for w in range(1 << n):
                idx = joint_index(n, v, w)
                amps = apply_circuit(circuit, basis_state(2 * n + 1, idx << 1)).amps
                out = int(np.argmax(np.abs(amps)))
                assert abs(amps[out] - 1.0) < 1e-10
                assert out & 1 == 0  # ancilla restored to |0>
                assert out >> 1 == perm[idx]

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_exhaustive_superposition_equivalence(self, n):
        # random per-basis phases distinguish every permutation, covering all
        # 4**n register inputs in one dense application
        circuit, _ = build_adder_circuit(n)
        perm = modular_add_oracle(n)
        rng = np.random.default_rng(99)
        raw = np.exp(2j * np.pi * rng.random(1 << (2 * n))) / math.sqrt(1 << (2 * n))
        joint = np.kron(raw, np.array([1.0, 0.0]))
        out = apply_circuit(circuit, StateVector(joint))
        expected = np.empty_like(raw)
        expected[perm] = raw
        np.testing.assert_allclose(out.amps,
                                   np.kron(expected, np.array([1.0, 0.0])), atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_basis_images_match_oracle(self, n):
        # every (v, w) input with the carry ancilla (least significant bit) at 0
        circuit, _ = build_adder_circuit(n)
        inputs = np.arange(1 << (2 * n), dtype=np.uint64) << np.uint64(1)
        images = basis_images(circuit, inputs)
        expected = modular_add_oracle(n).astype(np.uint64) << np.uint64(1)
        np.testing.assert_array_equal(images, expected)

    def test_toffoli_count_as_built(self):
        # the MAJ/UMA chain costs 2n-2; the published 2n-4 layout is not
        # reproduced here, and the resource model uses the formula instead
        for n in (3, 5, 8):
            circuit, _ = build_adder_circuit(n)
            assert circuit.toffoli_count == 2 * n - 2

    def test_fourier_action_decomposed_circuit(self):
        # index arithmetic holds for the gate decomposition, not just the oracle
        for n in (3, 4):
            circuit, _ = build_adder_circuit(n)
            N = 1 << n
            for k in range(N):
                for kp in range(N):
                    joint = np.kron(np.kron(pure_fourier_state(n, k).amps,
                                            pure_fourier_state(n, kp).amps),
                                    [1.0, 0.0])
                    out = apply_circuit(circuit, StateVector(joint))
                    expected = np.kron(np.kron(pure_fourier_state(n, (k - kp) % N).amps,
                                               pure_fourier_state(n, kp).amps),
                                       [1.0, 0.0])
                    overlap = abs(np.vdot(expected, out.amps)) ** 2
                    assert overlap >= 1 - 1e-10


def reversible_circuits(max_qubits=6, max_gates=12):
    """Random X/CNOT/TOFFOLI circuits on 1..max_qubits qubits."""
    arity = {"X": 1, "CNOT": 2, "TOFFOLI": 3}

    @st.composite
    def build(draw):
        nq = draw(st.integers(1, max_qubits))
        names = [name for name, k in arity.items() if k <= nq]
        gates = []
        for _ in range(draw(st.integers(0, max_gates))):
            name = draw(st.sampled_from(names))
            qubits = draw(st.permutations(range(nq)))[:arity[name]]
            gates.append(Gate(name, tuple(qubits)))
        return GateCircuit(nq, tuple(gates))

    return build()


class TestBasisImages:
    def test_uncontrolled_x_flips_its_bit(self):
        # qubit 0 is the most significant bit; X has no controls
        circuit = GateCircuit(3, (Gate("X", (0,)),))
        np.testing.assert_array_equal(basis_images(circuit, np.arange(8)),
                                      np.arange(8) ^ 0b100)

    def test_controlled_gates_truth_tables(self):
        indices = np.arange(8)
        cnot = GateCircuit(3, (Gate("CNOT", (2, 0)),))
        np.testing.assert_array_equal(basis_images(cnot, indices),
                                      [0, 5, 2, 7, 4, 1, 6, 3])
        toffoli = GateCircuit(3, (Gate("TOFFOLI", (0, 2, 1)),))
        np.testing.assert_array_equal(basis_images(toffoli, indices),
                                      [0, 1, 2, 3, 4, 7, 6, 5])

    def test_sixty_four_qubits(self):
        circuit = GateCircuit(64, (Gate("X", (0,)), Gate("CNOT", (0, 63))))
        images = basis_images(circuit, [0, 1 << 63])
        assert images.dtype == np.uint64
        assert images.tolist() == [(1 << 63) | 1, 0]

    def test_input_not_modified(self):
        indices = np.arange(4, dtype=np.uint64)
        basis_images(GateCircuit(2, (Gate("X", (1,)),)), indices)
        np.testing.assert_array_equal(indices, np.arange(4))

    @pytest.mark.parametrize("name", ["H", "Z", "S"])
    def test_non_permutation_gates_rejected(self, name):
        circuit = GateCircuit(2, (Gate("X", (0,)), Gate(name, (1,))))
        with pytest.raises(ValueError, match=name):
            basis_images(circuit, [0])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            basis_images(GateCircuit(65, ()), [0])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            basis_images(GateCircuit(2, ()), [4])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(reversible_circuits())
    def test_agrees_with_dense_application(self, circuit):
        # distinct amplitudes identify the permutation from one dense run,
        # which covers every basis state of the circuit
        dim = 1 << circuit.num_qubits
        amps = np.arange(1, dim + 1) / np.linalg.norm(np.arange(1, dim + 1))
        out = apply_circuit(circuit, StateVector(amps))
        expected = np.empty(dim)
        expected[basis_images(circuit, np.arange(dim)).astype(np.intp)] = amps
        np.testing.assert_array_equal(out.amps, expected)


class TestConstantAdderCircuit:
    """The known-addend adder is the witness of ``compare``'s kickback columns:
    a p-bit rotation adds into a (p + 1)-qubit register."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_exhaustive_action_all_addends(self, n):
        N = 1 << n
        w = np.arange(N, dtype=np.uint64)
        for addend in range(N):
            circuit = build_constant_adder_circuit(n, addend)
            # register bits occupy the top n positions; carries start at 0
            images = basis_images(circuit, w << np.uint64(n - 1))
            # carries are left dirty, so only the register bits are compared
            np.testing.assert_array_equal(images >> np.uint64(n - 1), (w + addend) % N)

    def test_short_circuit_toffoli_count(self):
        # half the in-place adder's Toffolis drop when one addend is classical
        for n in (3, 5, 9):
            circuit = build_constant_adder_circuit(n, 3)
            assert circuit.toffoli_count == n - 2

    @pytest.mark.filterwarnings("ignore:T-sequence cost model is out of regime")
    def test_kickback_cost_witness(self):
        for row in comparison_table(range(2, 65)):
            circuit = build_constant_adder_circuit(row.p + 1, row.p)
            assert circuit.toffoli_count == row.kickback_toffolis, row.p
            assert circuit.num_qubits == row.kickback_ancillas, row.p

    def test_validation(self):
        with pytest.raises(ValueError):
            build_constant_adder_circuit(2, 1)


class TestDistillationCircuit:
    def test_structure(self):
        # the adder, then H on each first-register qubit; no measurement gates
        circuit, second = build_distillation_circuit(5)
        adder, written = build_adder_circuit(5)
        assert second == written == range(5, 10)
        assert circuit.num_qubits == adder.num_qubits
        assert circuit.gates == adder.gates + tuple(Gate("H", (q,)) for q in range(5))

    def test_matches_spectral_prediction_n5(self):
        n = 5
        inp = approx_initial_state(n)
        circuit, second = build_distillation_circuit(n)
        joint = StateVector(np.kron(np.kron(inp.amps, inp.amps), [1.0, 0.0]))
        probability, output = extract_register(apply_circuit(circuit, joint), second)
        predicted = run_protocol_exact(n, s0=n, pad=0)
        assert probability == pytest.approx(predicted.final.p_success, abs=1e-9)
        np.testing.assert_allclose(np.abs(to_fourier_basis(output)) ** 2,
                                   np.abs(spread_coset(predicted.output)) ** 2, atol=1e-9)

    def test_pure_inputs_always_postselect(self):
        n = 4
        gamma = pure_fourier_state(n, 1)
        circuit, second = build_distillation_circuit(n)
        joint = StateVector(np.kron(np.kron(gamma.amps, gamma.amps), [1.0, 0.0]))
        probability, output = extract_register(apply_circuit(circuit, joint), second)
        assert probability == pytest.approx(1.0, abs=1e-10)
        assert fidelity(output, n, 1) == pytest.approx(1.0, abs=1e-10)


class TestGateLevelProtocol:
    """Every round at gate level, register extension included, against the
    exact engine."""

    @pytest.mark.parametrize("n, s0, pad", [(6, 5, 2), (7, 5, 2), (6, 3, 0), (7, 4, 1),
                                            (8, 3, 1)])
    def test_matches_the_exact_engine(self, n, s0, pad):
        rounds, weights = gate_level_protocol(n, s0, pad)
        result = run_protocol_exact(n, s0=s0, pad=pad)
        assert [size for size, _ in rounds] == list(result.schedule.sizes)
        for (_, p), outcome in zip(rounds, result.rounds):
            assert p == pytest.approx(outcome.p_success, rel=1e-13, abs=0.0)
        np.testing.assert_allclose(weights[1::4], np.abs(result.output) ** 2, rtol=0, atol=1e-15)
        assert np.delete(weights, np.s_[1::4]).max() <= 1e-15
        # the error as the off-target sum; 1 - fidelity would lose digits
        assert np.delete(weights, 1).sum() == pytest.approx(result.final.error, rel=1e-12,
                                                            abs=0.0)


class TestApplyCircuit:
    def test_double_hadamard_is_identity(self):
        circuit = GateCircuit(1, (Gate("H", (0,)), Gate("H", (0,))))
        np.testing.assert_allclose(apply_circuit(circuit, basis_state(1, 0)).amps,
                                   [1, 0], atol=1e-12)

    def test_toffoli_truth(self):
        circuit = GateCircuit(3, (Gate("TOFFOLI", (0, 1, 2)),))
        out = apply_circuit(circuit, basis_state(3, 0b110))
        assert int(np.argmax(np.abs(out.amps))) == 0b111
        out = apply_circuit(circuit, basis_state(3, 0b100))
        assert int(np.argmax(np.abs(out.amps))) == 0b100

    def test_unitary_part_preserves_norm(self):
        rng = np.random.default_rng(5)
        arity = {"H": 1, "X": 1, "Z": 1, "S": 1, "CNOT": 2, "TOFFOLI": 3}
        names = list(arity)
        for _ in range(25):
            nq = int(rng.integers(3, 7))
            gates = []
            for _ in range(30):
                name = names[rng.integers(len(names))]
                qs = rng.choice(nq, size=arity[name], replace=False)
                gates.append(Gate(name, tuple(int(q) for q in qs)))
            raw = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
            s = StateVector(raw / np.linalg.norm(raw))
            out = apply_circuit(GateCircuit(nq, tuple(gates)), s)
            assert float(np.sum(np.abs(out.amps) ** 2)) == pytest.approx(1.0, abs=1e-10)

    def test_input_state_not_mutated(self):
        s = approx_initial_state(3)
        before = s.amps.copy()
        apply_circuit(GateCircuit(3, (Gate("X", (0,)), Gate("H", (1,)))), s)
        np.testing.assert_array_equal(s.amps, before)

    def test_postselected_entangled_pair(self):
        # extract_register postselects qubit 0 of a Bell pair at 0: the branch
        # has probability 1/2 and leaves qubit 1 in |0>
        bell = apply_circuit(GateCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)))),
                             basis_state(2, 0))
        probability, second = extract_register(bell, range(1, 2))
        assert probability == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(second.amps, [1, 0], atol=1e-12)

    def test_zero_probability_postselection(self):
        # X leaves qubit 0 at 1, so the branch with it at 0 has no weight
        flipped = apply_circuit(GateCircuit(2, (Gate("X", (0,)),)), basis_state(2, 0))
        with pytest.raises(ValueError, match="register extraction hit a zero branch"):
            extract_register(flipped, range(1, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(GateCircuit(2, ()), basis_state(3, 0))


class TestCliffordPreparation:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_circuit_reproduces_initial_state(self, n):
        out = apply_circuit(approx_state_circuit(n), basis_state(n, 0))
        assert np.max(np.abs(out.amps - approx_initial_state(n).amps)) < 1e-12

    def test_only_clifford_gates(self):
        assert set(approx_state_circuit(6).counts) <= {"H", "S", "Z"}


def gate_level_clone_fidelities(source, k):
    """Fidelities toward index k of the first register, the second register
    and the pair, read from the adder circuit run on blank |+>^n (first),
    the source (second) and the ancilla |0>, then X on every first-register
    qubit."""
    n = source.n
    circuit, _ = build_adder_circuit(n)
    blank = pure_fourier_state(n, 0)
    joint = StateVector(np.kron(np.kron(blank.amps, source.amps), [1.0, 0.0]))
    added = apply_circuit(circuit, joint)
    gates = tuple(Gate("X", (q,)) for q in range(n))
    flipped = apply_circuit(GateCircuit(2 * n + 1, gates), added)
    matrix = flipped.amps.reshape(1 << n, 1 << n, 2)[:, :, 0]  # ancilla restored
    gamma = pure_fourier_state(n, k).amps.conj()
    return (float(np.sum(np.abs(gamma @ matrix) ** 2)),
            float(np.sum(np.abs(matrix @ gamma) ** 2)),
            float(abs(gamma @ matrix @ gamma) ** 2))


class TestClone:
    def test_pure_clone_n4_k3(self):
        assert clone_fourier_state(pure_fourier_state(4, 3), 3) >= 1 - 1e-9

    def test_index_zero_trivial(self):
        assert clone_fourier_state(pure_fourier_state(3, 0), 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 7), (5, 12)])
    def test_pure_clone_general(self, n, k):
        assert clone_fourier_state(pure_fourier_state(n, k), k) >= 1 - 1e-9

    def test_approximate_input_reports_joint_overlap(self):
        # cloning cannot purify: every fidelity is the source's weight at k
        source = approx_initial_state(5)
        result = clone_fourier_state(source, k=1)
        assert 0 < result < 1
        # summed directly, not transformed: within 1.2e-15 of the FFT's weight
        # for n = 2..18, here 1 ulp
        assert result == pytest.approx(abs(to_fourier_basis(source)[1]) ** 2, rel=1e-15, abs=0)
        assert result == pytest.approx(fidelity(source, 5, 1), rel=1e-12, abs=0)

    def test_peak_memory_in_joint_vectors(self):
        # no joint vector and no transformed copy: blocks of the index-k row
        source = pure_fourier_state(16, 1)
        _, peak = traced_peak(lambda: clone_fourier_state(source, 1))
        assert peak <= 16 << 16  # one n-qubit vector is 2**16 complex values

    def test_matches_gate_level_route_n3(self):
        n = 3
        for k in range(1 << n):
            source = pure_fourier_state(n, k)
            expected = clone_fourier_state(source, k)
            for measured in gate_level_clone_fidelities(source, k):
                assert measured == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_approximate_source_matches_gate_level_route(self, n):
        source = approx_initial_state(n)
        expected = clone_fourier_state(source, 1)
        assert 0 < expected < 1
        for measured in gate_level_clone_fidelities(source, 1):
            assert measured == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k, index", [(13, 5), (-3, 5), (2, 2)])
    def test_index_reduces_mod_register(self, k, index):
        result = clone_fourier_state(pure_fourier_state(3, 5), k)
        assert result == pytest.approx(1.0 if index == 5 else 0.0, abs=1e-12)


class TestCircuitText:
    def test_golden_format(self):
        circuit = GateCircuit(3, (Gate("H", (0,)), Gate("CNOT", (0, 1)),
                                  Gate("TOFFOLI", (0, 1, 2)), Gate("Z", (0,))))
        assert circuit_to_text(circuit) == (
            "QUBITS 3\n"
            "H 0\n"
            "CNOT 0 1\n"
            "TOFFOLI 0 1 2\n"
            "Z 0\n"
        )


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: modular_add_oracle(0), ValueError, "n must be positive"),
    (lambda: build_adder_circuit(0), ValueError, "n must be positive"),
    # the first register holds 1, so no branch has every other qubit at 0
    (lambda: extract_register(basis_state(3, 0b100), range(1, 2)),
     ValueError, "register extraction hit a zero branch"),
], ids=["oracle-n", "adder-n", "zero-branch"])
def test_invalid_input_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
