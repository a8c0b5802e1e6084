"""Thermal chirality and the field susceptibilities.

The electric field couples to the vector chirality; its thermal average
tracks the pair correlations and collapses near the two-tangle threshold.
Susceptibility maxima (fidelity minima) mark the same crossover.
"""

import numpy as np

from ottochain import (ChainParams, FieldTag, build_chirality_operator,
                       chirality_expectation, density_matrix,
                       diagonalize_params, gibbs, susceptibility,
                       thermal_state_fidelity)

k4 = build_chirality_operator(4)


def chirality(d, t, b=1.0):
    params = ChainParams(4, 1.0, -1.0, b, d)
    rho = density_matrix(gibbs(diagonalize_params(params), t))
    return chirality_expectation(rho, k4)


print("Thermal chirality versus temperature (b=1):")
print(f"{'T':>6} {'d=1':>9} {'d=1.5':>9}")
for t in (1.0, 3.0, 6.0, 10.0, 20.0):
    print(f"{t:>6g} {chirality(1.0, t):>9.5f} {chirality(1.5, t):>9.5f}")

print("\n... and versus magnetic field (d=1, T=20):")
print("  ", {f"b={b:g}": round(chirality(1.0, 20.0, b), 5)
             for b in (0.0, 1.0, 2.0, 4.0)})

print("\nSusceptibility peaks move with the driving field (n=4, b=1):")
ts = np.linspace(2.0, 80.0, 79)
for d in (1.0, 10.0, 20.0):
    params = ChainParams(4, 1.0, -1.0, 1.0, d)
    chi_b = [susceptibility(params, FieldTag.MAGNETIC, t) for t in ts]
    chi_e = [susceptibility(params, FieldTag.ELECTRIC, t) for t in ts]
    print(f"  d = {d:>4g}: chi(B) peak at T = {ts[int(np.argmax(chi_b))]:>5.1f},"
          f"  chi(E) peak at T = {ts[int(np.argmax(chi_e))]:>5.1f}")

print("\nFidelity drop between neighbouring fields, exact vs quadratic form")
params = ChainParams(4, 1.0, -1.0, 1.0, 10.0)
t, dz = 22.0, 1e-2
exact = thermal_state_fidelity(params, FieldTag.ELECTRIC, t, dz)
# leading order in dz: F ~ exp(-beta dz^2 chi / 8)
approx = np.exp(-dz ** 2 * susceptibility(params, FieldTag.ELECTRIC, t) / (8.0 * t))
print(f"  T={t}, dz={dz}: F_exact = {exact:.10f}, F_quadratic = {approx:.10f}")
