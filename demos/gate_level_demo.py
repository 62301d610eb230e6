"""From formulas to gates: the distillation step as an explicit circuit.

The step is one in-place ripple-carry adder (Clifford + Toffoli only)
followed by a verification that needs nothing beyond Hadamards and a
computational-basis readout: the index-0 Fourier state is a product of |+>
states, so checking for it avoids any general Fourier-basis measurement.
The circuit itself is unitary; postselection happens once, when
extract_register reads the second register with every other qubit at 0.
"""
import numpy as np

from fourierdistill import (
    StateVector,
    apply_circuit,
    approx_state_circuit,
    build_distillation_circuit,
    clone_fourier_state,
    extract_register,
    pure_fourier_state,
    run_protocol_exact,
    to_fourier_basis,
)

n = 5
circuit, layout = build_distillation_circuit(n)
print(f"Distillation circuit on two {n}-qubit registers plus one carry ancilla:")
print(f"  gate counts: {circuit.counts}")
print(f"  Toffolis as built: {circuit.toffoli_count} "
      f"(published adder constructions reach {2 * n - 4})")
print()
print(f"First gates of the {circuit.num_qubits}-qubit circuit:")
for g in circuit.gates[:8]:
    print("  " + " ".join([g.name] + [str(q) for q in g.qubits]))
print("  ...")

print()
print("Running it on two approximate initial states, postselecting the")
print("all-|+> verification outcome on the first register:")
zeros = StateVector(np.eye(1, 1 << n, dtype=complex)[0])
inp = apply_circuit(approx_state_circuit(n), zeros)  # H, Z and S from |0...0>
joint = StateVector(np.kron(np.kron(inp.amps, inp.amps), [1.0, 0.0]))
# the first register reads all zeros exactly when it verifies as index 0
p_circuit, output = extract_register(apply_circuit(circuit, joint), layout)
# the exact engine's one round at size n, as `fourierdistill simulate` predicts
predicted = run_protocol_exact(n, s0=n, pad=0).final
print(f"  circuit success probability  {p_circuit:.12f}")
print(f"  spectral prediction          {predicted.p_success:.12f}")

print(f"  output fidelity (circuit)    {abs(to_fourier_basis(output)[1]) ** 2:.12f}")
print(f"  output fidelity (predicted)  {predicted.fidelity:.12f}")

print()
print("Cloning: one adder copies a Fourier state (add into a blank |+>^n,")
print("then X on every first-register qubit fixes the negated index):")
clone = clone_fourier_state(pure_fourier_state(4, 3), 3)
print(f"  n=4, k=3: first register fidelity  {clone:.12f}")
print(f"            second register fidelity {clone:.12f}")
