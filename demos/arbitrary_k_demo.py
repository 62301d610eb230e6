"""Reaching Fourier states of any index, not just the fundamental one.

Quantum-variable rotation (QVR) builds an approximate index-k state from
|+>^n by applying one truncated phase per set bit of k.  Distillation then
runs at full register width every round (appending |+> qubits would not
preserve a general index), which is why this route costs O(n^2) Toffolis.
"""
from fourierdistill import (
    ResourceReport,
    default_truncate_bits,
    distill_k,
    prepare_approx_k,
)

n, k = 8, 5
t = default_truncate_bits(n)
print(f"Preparing an approximate index-{k} state on {n} qubits")
print(f"  set bits of k: {bin(k)} -> one QVR phase per bit")
print(f"  phase truncation: {t} bits (ceil(log2 n) + 2)")
prep = prepare_approx_k(n, k, t)
print(f"  fidelity with the ideal state: {prep.fidelity:.6f} (needs > 0.5)")

print()
print("Full-width distillation, three rounds:")
result = distill_k(prep, rounds=3)
for i, rec in enumerate(result.rounds, start=1):
    print(f"  round {i}: p_success={rec.p_success:.9f}  "
          f"fidelity={rec.fidelity:.12f}")
print(f"  final error {result.final_error:.2e}")
cost = ResourceReport(result.schedule)
print(f"  cost: {sum(cost.adders)} adders x {2 * n - 4} "
      f"Toffolis = {cost.toffoli_deterministic}")

print()
print("Truncation coarseness trades fidelity for ancilla size:")
for bits in (2, 3, 4, 5, 8):
    prep = prepare_approx_k(n, k, bits)
    print(f"  {bits} bits -> fidelity {prep.fidelity:.6f}")
