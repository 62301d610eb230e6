"""From formulas to gates: the distillation step as an explicit circuit.

The step is one in-place ripple-carry adder (Clifford + Toffoli only)
followed by a verification that needs nothing beyond Hadamards and
computational-basis measurements: the index-0 Fourier state is a product of
|+> states, so checking for it avoids any general Fourier-basis measurement.
"""
import numpy as np

from fourierdistill import (
    StateVector,
    apply_circuit,
    approx_initial_state,
    build_distillation_circuit,
    clone_fourier_state,
    distill_pair,
    extract_register,
    pure_fourier_state,
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
inp = approx_initial_state(n)
joint = StateVector(np.kron(np.kron(inp.amps, inp.amps), [1.0, 0.0]))
run = apply_circuit(circuit, joint, postselect={q: 0 for q in layout.first})
coeffs = to_fourier_basis(inp)
predicted = distill_pair(coeffs, coeffs)
print(f"  circuit success probability  {run.probability:.12f}")
print(f"  spectral prediction          {predicted.p_success:.12f}")

output = extract_register(run.state, layout)
print(f"  output fidelity (circuit)    {to_fourier_basis(output).weights()[1]:.12f}")
print(f"  output fidelity (predicted)  {predicted.fidelity:.12f}")

print()
print("Cloning: one adder copies a Fourier state (add into a blank |+>^n,")
print("then X on every first-register qubit fixes the negated index):")
clone = clone_fourier_state(pure_fourier_state(4, 3))
print(f"  n=4, k=3: first register fidelity  {clone.fidelity:.12f}")
print(f"            second register fidelity {clone.fidelity:.12f}")
