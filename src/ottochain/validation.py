"""Differential validation: every closed-form quantity of the four-site
solution checked against the generic numeric path, plus the structural
invariants of the operators and thermodynamics.

Each check reports its worst deviation and tolerance; `run_all` drives the
whole suite and is what the command-line `validate` subcommand executes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic4
from .correlations import (concurrence, chirality_expectation, density_matrix,
                           one_tangle, partial_trace, two_tangle)
from .model import (ChainParams, build_chirality_operator, build_hamiltonian,
                    build_total_sz)
from .response import FieldTag, susceptibility, thermal_state_fidelity
from .spectra import diagonalize_params
from .thermal import entropy, free_energy, gibbs, internal_energy

GRID_J = (0.5, 1.0, 2.0)
GRID_B = (0.0, 1.0, 2.0)
GRID_D = (0.0, 1.0, 5.0)
GRID_T = (1.0, 10.0, 30.0, 100.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_deviation <= self.tolerance)


def _grid_points():
    for j in GRID_J:
        for b in GRID_B:
            for d in GRID_D:
                for t in GRID_T:
                    yield j, b, d, t


def check_spectrum_oracle() -> CheckResult:
    """Numeric eigenvalues against the sixteen closed forms, relative."""
    worst = 0.0
    for j, b, d, t in _grid_points():
        if t != GRID_T[0]:
            continue
        params = ChainParams(4, j, -j, b, d)
        spec = diagonalize_params(params)
        ana = np.sort(analytic4.spectrum4(j, b, d))
        scale = max(1.0, float(np.max(np.abs(ana))))
        worst = max(worst, float(np.max(np.abs(spec.energies - ana))) / scale)
    return CheckResult("spectrum vs closed form", worst, 1e-8)


def check_partition_oracle() -> CheckResult:
    worst = 0.0
    for j, b, d, t in _grid_points():
        params = ChainParams(4, j, -j, b, d)
        g = gibbs(diagonalize_params(params), t)
        der = analytic4.coeffs4(j, b, d, t)
        worst = max(worst, abs(g.z_shifted - der.z) / der.z)
    return CheckResult("partition sum vs closed form", worst, 1e-8)


def check_reduced_coefficients() -> CheckResult:
    """Two-site reduced matrices against the coefficient functions."""
    worst = 0.0
    for j, b, d, t in _grid_points():
        params = ChainParams(4, j, -j, b, d)
        rho = density_matrix(gibbs(diagonalize_params(params), t))
        der = analytic4.coeffs4(j, b, d, t)
        z = der.z
        r1 = partial_trace(rho, [0, 1]).entries
        r2 = partial_trace(rho, [0, 2]).entries
        devs = [
            abs(r1[0, 0] - der.a1 / z), abs(r1[1, 1] - der.b1 / z),
            abs(r1[2, 2] - der.b1 / z), abs(r1[3, 3] - der.d1 / z),
            abs(r1[1, 2] - der.c1 / z),
            abs(r2[0, 0] - der.a2 / z), abs(r2[1, 1] - der.c2 / z),
            abs(r2[3, 3] - der.b2 / z), abs(r2[1, 2] - der.d2 / z),
        ]
        worst = max(worst, float(max(devs)))
    return CheckResult("reduced-matrix coefficients", worst, 1e-8)


def check_entanglement_oracle() -> CheckResult:
    """Concurrences, tangles and chirality against the closed forms; the
    chirality both with the dense K and from the operator pattern."""
    worst = 0.0
    for j, b, d, t in _grid_points():
        params = ChainParams(4, j, -j, b, d)
        spec = diagonalize_params(params)
        rho = density_matrix(gibbs(spec, t))
        der = analytic4.coeffs4(j, b, d, t)
        c12a, c13a = analytic4.concurrences4(der)
        c12 = concurrence(partial_trace(rho, [0, 1]))
        c13 = concurrence(partial_trace(rho, [0, 2]))
        k = build_chirality_operator(4)
        devs = [
            abs(c12 - c12a), abs(c13 - c13a),
            abs(two_tangle(rho, 4) - analytic4.two_tangle4(der)),
            abs(one_tangle(rho) - analytic4.one_tangle4(der)),
            abs(chirality_expectation(rho, k) - analytic4.chirality4(der)),
            abs(chirality_expectation(rho) - analytic4.chirality4(der)),
        ]
        worst = max(worst, float(max(devs)))
    return CheckResult("tangles and chirality", worst, 1e-8)


def check_susceptibility_oracle() -> CheckResult:
    """Kubo susceptibilities against the closed forms.

    Relative, with an absolute floor of 1e-3 on the reference, so that
    exponentially small susceptibilities are compared on an absolute scale.
    """
    worst = 0.0
    for j, b, d, t in _grid_points():
        params = ChainParams(4, j, -j, b, d)
        for tag, closed in ((FieldTag.MAGNETIC, analytic4.chi_b4),
                            (FieldTag.ELECTRIC, analytic4.chi_e4)):
            num = susceptibility(params, tag, t)
            ana = closed(j, b, d, t)
            worst = max(worst, abs(num - ana) / max(1e-3, abs(ana)))
    return CheckResult("susceptibilities vs closed form", worst, 1e-8)


def check_operator_invariants() -> CheckResult:
    """Hermiticity, linearity in the electric field, conservation laws,
    translation invariance, and the production spectrum against the dense
    H: each s^z block of H as V_s diag(E_s) V_s^dagger of its sector, and
    the energies against a dense eigvalsh."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        j1, j2, b, d = rng.uniform(-2, 2, size=4)
        params = ChainParams(n, float(j1), float(j2), float(b), float(d))
        h = build_hamiltonian(params)
        k = build_chirality_operator(n)
        sz = build_total_sz(n)
        worst = max(worst, float(np.max(np.abs(h - h.conj().T))))
        worst = max(worst, float(np.max(np.abs(k - k.conj().T))))
        h0 = build_hamiltonian(params.replace(e_field=0.0))
        worst = max(worst, float(np.max(np.abs(h - (h0 - params.e_field * k)))))
        worst = max(worst, float(np.max(np.abs(h @ sz - sz @ h))))
        worst = max(worst, float(np.max(np.abs(k @ sz - sz @ k))))
        shift = _one_site_shift(n)
        worst = max(worst, float(np.max(np.abs(h @ shift - shift @ h))))
        spec = diagonalize_params(params)
        scale = max(1.0, float(np.max(np.abs(h))))
        for s in spec.sectors:
            recon = (s.vectors * spec.energies[s.levels]) @ s.vectors.conj().T
            worst = max(worst, float(np.max(np.abs(h[np.ix_(s.basis, s.basis)] - recon))) / scale)
        worst = max(worst, float(np.max(np.abs(spec.energies
                                               - np.linalg.eigvalsh(h)))))
    return CheckResult("operator and spectral invariants", worst, 1e-9)


def _one_site_shift(n: int) -> np.ndarray:
    """Permutation matrix of the cyclic shift by one site."""
    dim = 2 ** n
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        rotated = ((idx >> 1) | ((idx & 1) << (n - 1))) & (dim - 1)
        perm[rotated, idx] = 1.0
    return perm


def check_thermal_invariants() -> CheckResult:
    """Gibbs-state sanity, F = U - TS, entropy monotonicity."""
    params = ChainParams(4, 1.0, -1.0, 1.0, 1.0)
    spec = diagonalize_params(params)
    worst = 0.0
    prev_s = -np.inf
    for t in np.geomspace(0.1, 100.0, 25):
        g = gibbs(spec, t)
        worst = max(worst, abs(float(g.populations.sum()) - 1.0))
        worst = max(worst, float(max(0.0, -g.populations.min())))
        s = entropy(spec, t)
        worst = max(worst, max(0.0, prev_s - s))
        prev_s = s
        f = free_energy(spec, t)
        worst = max(worst, abs(f - (internal_energy(g) - t * s)) / max(1.0, abs(f)))
    rho = density_matrix(gibbs(spec, 10.0))
    worst = max(worst, abs(float(np.real(np.trace(rho.entries))) - 1.0))
    worst = max(worst, float(max(0.0, -np.linalg.eigvalsh(rho.entries).min())))
    return CheckResult("thermal-state invariants", worst, 1e-9)


def check_entropy_derivative() -> CheckResult:
    """S against -dF/dT by central differences, relative."""
    params = ChainParams(4, 1.0, -1.0, 1.0, 1.0)
    spec = diagonalize_params(params)
    worst = 0.0
    for t in (1.0, 5.0, 20.0, 80.0):
        s = entropy(spec, t)
        h = 1e-4 * t
        s_fd = -(free_energy(spec, t + h) - free_energy(spec, t - h)) / (2 * h)
        worst = max(worst, abs(s_fd - s) / max(1e-6, abs(s)))
    return CheckResult("entropy vs -dF/dT", worst, 1e-5)


def check_fidelity_invariants() -> CheckResult:
    """The thermal-state fidelity of a state with itself is 1 along both
    fields, and concurrences stay inside [0, 1]."""
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    worst = max(abs(thermal_state_fidelity(params, field, 8.0, 0.0) - 1.0)
                for field in FieldTag)
    rho = density_matrix(gibbs(diagonalize_params(params), 8.0))
    for sites in ([0, 1], [0, 2], [1, 3]):
        c = concurrence(partial_trace(rho, sites))
        worst = max(worst, max(0.0, -c, c - 1.0))
    return CheckResult("fidelity and concurrence bounds", worst, 1e-9)


def check_fidelity_quadratic_order() -> CheckResult:
    """|ln F_exact - ln F_approx| / dz^2 stays bounded as dz shrinks,
    along the commuting magnetic direction, for the leading-order drop
    F_approx = exp(-beta dz^2 chi / 8)."""
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    t = 10.0
    chi = susceptibility(params, FieldTag.MAGNETIC, t)
    worst = 0.0
    for dz in (1e-2, 1e-3):
        f_exact = thermal_state_fidelity(params, FieldTag.MAGNETIC, t, dz)
        f_quad = np.exp(-dz ** 2 * chi / (8.0 * t))
        worst = max(worst, abs(np.log(f_exact) - np.log(f_quad)) / dz ** 2)
    return CheckResult("fidelity quadratic order", worst, 0.1)


ALL_CHECKS = (
    check_spectrum_oracle,
    check_partition_oracle,
    check_reduced_coefficients,
    check_entanglement_oracle,
    check_susceptibility_oracle,
    check_operator_invariants,
    check_thermal_invariants,
    check_entropy_derivative,
    check_fidelity_invariants,
    check_fidelity_quadratic_order,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
