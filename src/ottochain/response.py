"""Mixed-state (Uhlmann) fidelity and field susceptibilities, the
thermal-transition detectors.

Susceptibilities are Kubo sums over the states of one spectrum (Kubo,
J. Phys. Soc. Jpn. 12, 570 (1957)), the exact -d^2F/dzeta^2 of the Gibbs
free energy."""

from __future__ import annotations

import enum

import numpy as np

from .correlations import DensityMatrix, _sqrt_psd, density_matrix
from .model import ChainParams, build_chirality_operator, build_total_sz
from .spectra import diagonalize_params
from .thermal import gibbs


class FieldTag(enum.Enum):
    """Which control field a susceptibility differentiates against."""

    MAGNETIC = "b"
    ELECTRIC = "e_field"


def uhlmann_fidelity(rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """F = tr sqrt(sqrt(rho0) rho1 sqrt(rho0)), in [0, 1]."""
    if rho0.dim != rho1.dim:
        raise ValueError(f"dimension mismatch: {rho0.dim} vs {rho1.dim}")
    s0 = _sqrt_psd(rho0.entries)
    ev = np.linalg.eigvalsh(s0 @ rho1.entries @ s0)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))))


def susceptibility(params: ChainParams, field: FieldTag, t: float) -> float:
    """chi(zeta) = -d^2 F / d zeta^2 at fixed temperature, on one spectrum.

    With O the operator the field couples to (total s^z or K) in the
    eigenbasis, chi = sum_nm |O_nm|^2 w_nm - beta <O>^2, where
    w_nm = (P_n - P_m) / (E_m - E_n), and w_nm = beta P_n for pairs closer
    than 1e-9 max(1, max|E|).
    """
    spec = diagonalize_params(params)
    p = gibbs(spec, t).populations
    op = (build_total_sz if field is FieldTag.MAGNETIC
          else build_chirality_operator)(params.n)
    o = spec.states.conj().T @ op @ spec.states
    beta = 1.0 / t
    e = spec.energies
    gap = e[None, :] - e[:, None]
    close = np.abs(gap) <= 1e-9 * max(1.0, float(np.max(np.abs(e))))
    w = np.where(close, beta * p[:, None],
                 (p[:, None] - p[None, :]) / np.where(close, 1.0, gap))
    mean = float(np.real(np.diagonal(o)) @ p)
    return float(np.sum(np.abs(o) ** 2 * w)) - beta * mean ** 2


def fidelity_quadratic_approx(beta: float, dzeta: float, chi: float) -> float:
    """Leading-order fidelity drop, F ~ exp(-beta dzeta^2 chi / 8)."""
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    return float(np.exp(-beta * dzeta ** 2 * chi / 8.0))


def thermal_state_fidelity(params: ChainParams, field: FieldTag, t: float,
                           dzeta: float) -> float:
    """Uhlmann fidelity between thermal states at zeta and zeta + dzeta."""
    name = field.value
    zeta = getattr(params, name)
    rho0 = density_matrix(gibbs(diagonalize_params(params), t))
    shifted = params.replace(**{name: zeta + dzeta})
    rho1 = density_matrix(gibbs(diagonalize_params(shifted), t))
    return uhlmann_fidelity(rho0, rho1)
