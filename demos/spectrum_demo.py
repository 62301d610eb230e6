"""Where the initial state's quality comes from: its harmonic spectrum.

The Clifford-reachable approximation of the fundamental Fourier state
samples a phase staircase with just four steps.  Walking through this script
shows the staircase's harmonic content, how discrete sampling folds it onto
a register of finite size, and why one number (the 1/9 sideband ratio)
controls everything the distillation protocol can do.
"""
import math

from fourierdistill import (
    alias_fold,
    approx_initial_state,
    initial_state_weight,
    series_coefficient,
    series_weight,
    to_fourier_basis,
)

print("Harmonic weights of the four-step phase staircase")
print("  (nonzero only at j = 1 mod 4, signed; decaying like 1/j^2)")
for j in range(-15, 16):
    w = series_weight(j)
    bar = "#" * int(round(60 * w))
    print(f"  j={j:+3d}  {w:10.6f}  {bar}")

print()
print(f"fundamental weight  8/pi^2   = {8 / math.pi ** 2:.6f}")
print(f"largest sideband    (j = -3) = {series_weight(-3):.6f}")
print(f"ratio, exactly 1/9           = {series_weight(-3) / series_weight(1):.12f}")

print()
print("Folding the series onto an 8-qubit register (aliasing):")
folded, tail = alias_fold(8, series_coefficient, j_max=1 << 16)
direct = to_fourier_basis(approx_initial_state(8)).weights()
print(f"  weight folded onto j=1:   {abs(folded.coeffs[1]) ** 2:.6f}")
print(f"  exact register weight:    {direct[1]:.6f}")
print(f"  closed form:              {initial_state_weight(8, 1):.6f}")
print(f"  series tail beyond fold window: {tail:.2e}")
print("  (fold and register weights differ at O(1/N): the staircase jumps")
print("   exactly on sample points, where a series converges to midpoints)")

print()
print("Fidelity of the approximate state with the ideal Fourier state:")
for n in (4, 6, 8, 12, 16):
    f = to_fourier_basis(approx_initial_state(n)).weights()[1]
    print(f"  n={n:2d}: {f:.9f}")
print(f"  limit 8/pi^2 = {8 / math.pi ** 2:.9f}; never below 0.81")
