"""What the protocol costs, and why phase kickback wins on rotations.

Toffoli gates are the only counted resource.  Deterministic counts follow
the schedule; expected counts include retries (a failed verification
discards the whole feeding subtree).  The comparison table puts kickback
rotations next to T-gate approximation sequences per bit of precision.
"""
from fourierdistill import (
    adder_toffoli_count,
    comparison_table,
    expected_cost_recursion,
    resource_reports,
    toffoli_capped,
)
from fourierdistill.resources import round_success_probabilities

print("Deterministic accounting for a 10-bit target:")
report = toffoli_capped(10)
rounds = zip(report.adders, report.schedule.sizes, round_success_probabilities(10))
for r, (adders, size, p) in enumerate(rounds, start=1):
    print(f"  round {r}: {adders} adders x "
          f"{adder_toffoli_count(size)} Toffolis at size {size} "
          f"(p_success {p:.4f})")
print(f"  total {report.toffoli_deterministic} Toffolis, "
      f"width {report.width_qubits} qubits")

print()
print("Retry overhead: expected cost by recursion and by Monte Carlo")
print(f"  analytic recursion: {expected_cost_recursion(10):.1f}")
mc = resource_reports([10], trials=20000, seed=11)[0]
print(f"  Monte Carlo:        {mc.toffoli_expected_mean:.1f} "
      f"+/- {mc.toffoli_expected_std:.1f} (per-sample spread)")

print()
print("Cost table across targets (deterministic plus expected):")
for r in resource_reports((5, 10, 20, 50, 100), trials=4000, seed=23):
    print(f"  n={r.schedule.n_target:3d}: {r.toffoli_deterministic:5d} Toffolis, expected "
          f"{r.toffoli_expected_mean:8.1f} +/- {r.toffoli_expected_std:6.1f}, "
          f"{r.rounds} rounds, width {r.width_qubits}")

print()
print("Rotation-method comparison per precision p:")
for row in comparison_table([6, 10, 15, 20, 30]):
    print(f"  p={row.p:2d}: eps_f={row.eps_f:.3e}  T gates {row.t_gates_bit_form:6.2f}  "
          f"kickback {row.kickback_toffolis} Toffolis, {row.kickback_ancillas} ancillas")
print()
print("Kickback needs p-1 Toffolis against roughly 3.21p - 6.45 T gates for")
print("sequences; with Toffoli construction costs near a single T gate, the")
print("kickback route is the cheaper way to an arbitrary rotation.")
