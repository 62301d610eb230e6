"""Reaching Fourier states of any index, not just the fundamental one.

Quantum-variable rotation (QVR) builds an approximate index-k state from
|+>^n by applying one truncated phase per set bit of k.  Distillation then
runs at full register width every round (appending |+> qubits would not
preserve a general index), which is why this route costs O(n^2) Toffolis.
"""
import numpy as np

from fourierdistill import ResourceReport, default_truncate_bits, distill_k

n, k = 8, 5
t = default_truncate_bits(n)
print(f"Preparing an approximate index-{k} state on {n} qubits")
print(f"  set bits of k: {bin(k)} -> one QVR phase per bit")
print(f"  phase truncation: {t} bits (ceil(log2 n) + 2)")
# one call prepares the state and distills the buffer it prepared
initial, result = distill_k(n, k, 3)
print(f"  fidelity with the ideal state: {initial:.6f} (needs > 0.5)")

print()
print("Full-width distillation, three rounds:")
for i, rec in enumerate(result.rounds, start=1):
    print(f"  round {i}: p_success={rec.p_success:.9f}  "
          f"fidelity={rec.fidelity:.12f}")
print(f"  final error {result.final.error:.2e}")
cost = ResourceReport(result.schedule)
print(f"  cost: {sum(cost.adders)} adders x {2 * n - 4} "
      f"Toffolis = {cost.toffoli_deterministic}")

print()
print("Truncation coarseness trades fidelity for ancilla size:")
N, y = 1 << n, np.arange(1 << n)
for bits in (2, 3, 4, 5, 8):
    # each set bit's phase fraction (y * 2**b mod N) / N, floored to `bits` bits
    turns = sum(((y << b) % N >> (n - bits)) / (1 << bits) for b in range(n) if k >> b & 1)
    # the overlap of the prepared state with the ideal one, e^(2 pi i k y / N)
    overlap = np.mean(np.exp(2j * np.pi * (turns - k * y / N)))
    print(f"  {bits} bits -> fidelity {abs(overlap) ** 2:.6f}")
