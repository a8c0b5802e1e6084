"""Equilibrium statistical mechanics on a fixed spectrum: Gibbs populations,
internal and free energy, entropy.  Temperatures are in energy units (k_B=1).

All exponential sums are evaluated with the ground-state energy shifted out,
so beta up to ~1e6 stays finite:  Z = exp(-E0/T) * sum_n exp(-(E_n-E0)/T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum


class TemperatureError(ValueError):
    """Temperature must be strictly positive."""


def _check_t(t: float) -> None:
    if not t > 0:
        raise TemperatureError(f"temperature must be > 0, got {t}")


@dataclass(frozen=True)
class GibbsState:
    """Thermal populations over the levels of a Spectrum.

    `z_shifted` is Z * exp(e_ref/T) with e_ref the ground energy; the true
    partition function is exp(log_z) and may overflow floats at low T.
    """

    temperature: float
    populations: np.ndarray
    z_shifted: float
    e_ref: float
    spectrum: Spectrum

    @property
    def log_z(self) -> float:
        return float(np.log(self.z_shifted) - self.e_ref / self.temperature)


def gibbs(spec: Spectrum, t: float) -> GibbsState:
    """P_n = exp(-(E_n - E0)/T) / sum_k exp(-(E_k - E0)/T)."""
    _check_t(t)
    e_ref = spec.ground_energy()
    w = np.exp(-(spec.energies - e_ref) / t)
    z = float(w.sum())
    return GibbsState(t, w / z, z, e_ref, spec)


def internal_energy(g: GibbsState) -> float:
    """U = sum_n E_n P_n = tr(rho H)."""
    return float(g.spectrum.energies @ g.populations)


def free_energy(spec: Spectrum, t: float) -> float:
    """F = -T ln Z, with the overflow-safe shift."""
    return -t * gibbs(spec, t).log_z


def entropy(spec: Spectrum, t: float) -> float:
    """S = (U - F)/T = U/T + ln Z, algebraically identical to -dF/dT for a
    Gibbs state."""
    g = gibbs(spec, t)
    return internal_energy(g) / t + g.log_z
