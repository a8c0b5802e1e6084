"""Second-order canonical perturbation theory in the electric coupling for
the four-site ring, and the cycle efficiency in that limit.

The expansion is around the zero-field spectrum E0_n; the only levels the
coupling touches at second order carry the energies 4*j2 -+ 2*b (one-magnon
pair), 8*j and -12*j (the hybridizing two-magnon pair), giving

    F(T,p) = F0(T) - 16 p^2 (sum of their Boltzmann factors) / (T Z0).

The matching entropy here is the exact temperature derivative -dF/dT of
that expression.  Validity degrades once level spacings are not small
against T; negative entropies flag the breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic4 import spectrum4
from .thermal import TemperatureError, _check_t

SITES = 4


@dataclass(frozen=True)
class ScConfig:
    """Unperturbed four-site input: exchange j (j1 = -j2 = j) and field b."""

    j: float = 1.0
    b: float = 1.0
    e0: np.ndarray = field(init=False, repr=False)
    e_special: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        e0 = spectrum4(self.j, self.b, 0.0)
        # levels 2, 12, 6, 7 in the closed-form ordering (1-indexed)
        special = np.array([e0[1], e0[11], e0[5], e0[6]])
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "e_special", special)


def _shifted_sums(cfg: ScConfig, t: float):
    e_ref = float(cfg.e0.min())
    w = np.exp(-(cfg.e0 - e_ref) / t)
    ws = np.exp(-(cfg.e_special - e_ref) / t)
    return e_ref, float(w.sum()), float(cfg.e0 @ w), float(ws.sum()), float(cfg.e_special @ ws)


def free_energy_sc(t: float, p: float, cfg: ScConfig) -> float:
    """F0(T) - 16 p^2 A / (T Z0) with A the special-level Boltzmann sum."""
    _check_t(t)
    e_ref, z0, _, a, _ = _shifted_sums(cfg, t)
    return float(e_ref - t * np.log(z0) - 16.0 * p ** 2 * a / (t * z0))


def entropy_sc(t: float, p: float, cfg: ScConfig) -> float:
    """S = -dF/dT of the perturbative free energy, in closed form."""
    _check_t(t)
    e_ref, z0, ze, a, ae = _shifted_sums(cfg, t)
    s0 = np.log(z0) - e_ref / t + (ze / z0) / t
    correction = (a / (t ** 2 * z0)
                  - ae / (t ** 3 * z0)
                  + a * ze / (t ** 3 * z0 ** 2))
    return float(s0 - 16.0 * p ** 2 * correction)


def perturbation_valid(t: float, p: float, cfg: ScConfig) -> bool:
    """Second-order correction within 20% of the leading free energy."""
    f0 = free_energy_sc(t, 0.0, cfg)
    df = free_energy_sc(t, p, cfg) - f0
    return abs(df) <= 0.2 * abs(f0) if f0 != 0 else df == 0


def heat_integral_sc(p: float, t_lo: float, t_hi: float, cfg: ScConfig) -> float:
    """integral of T dS over [t_lo, t_hi] at fixed field, which is
    U(t_hi) - U(t_lo) with U = F + T S."""
    _check_t(t_lo)
    _check_t(t_hi)
    if not t_lo < t_hi:
        raise TemperatureError(f"need 0 < t_lo < t_hi, got ({t_lo}, {t_hi})")

    def u(t):
        return free_energy_sc(t, p, cfg) + t * entropy_sc(t, p, cfg)

    return u(t_hi) - u(t_lo)


def efficiency_sc(t_l: float, t_h: float, p: float, p1: float,
                  cfg: ScConfig) -> float:
    """Perturbative Otto efficiency 1 - Q(p_low) / Q(p_high).

    Heat enters at the larger field p and leaves at p1, matching the exact
    cycle bookkeeping; both heats are T dS integrals over [t_l, t_h].
    """
    _check_t(t_l)
    _check_t(t_h)
    if not t_h > t_l:
        raise TemperatureError(f"need t_h > t_l > 0, got ({t_h}, {t_l})")
    denom = heat_integral_sc(p, t_l, t_h, cfg)
    if denom == 0.0:
        raise ZeroDivisionError("heat integral at the driving field vanishes")
    return 1.0 - heat_integral_sc(p1, t_l, t_h, cfg) / denom
