"""The Uhlmann fidelity of neighbouring thermal states (Uhlmann, Rep. Math.
Phys. 9, 273 (1976)) and field susceptibilities, the thermal-transition
detectors.

Susceptibilities are Kubo sums over the states of one spectrum (Kubo,
J. Phys. Soc. Jpn. 12, 570 (1957)), the exact -d^2F/dzeta^2 of the Gibbs
free energy."""

from __future__ import annotations

import enum

import numpy as np

from .model import ChainParams, _pattern
from .spectra import DEGENERATE, Spectrum, _pattern_positions, _stacks, diagonalize_params
from .thermal import gibbs


class FieldTag(enum.Enum):
    """Which control field a susceptibility differentiates against."""

    MAGNETIC = "b"
    ELECTRIC = "e_field"


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """tr sqrt(sqrt(rho0) rho1 sqrt(rho0)) as the sum of the singular values
    of a^dagger b, for any factors rho0 = a a^dagger and rho1 = b b^dagger,
    summed over a stack of such pairs.  Singular values stay accurate where
    eigenvalues of rho0 and rho1 sit at the round-off floor; square roots
    of eigenvalues of the product would not."""
    return float(np.sum(np.linalg.svd(a.conj().swapaxes(-1, -2) @ b, compute_uv=False)))


def _check_field(field) -> None:
    if not isinstance(field, FieldTag):
        raise ValueError(f"field must be a FieldTag, got {field!r}")


def _kubo(spec: Spectrum, field: FieldTag, t: float) -> float:
    """-d^2F/dzeta^2 of the field's operator op, total s^z or K, on one
    spectrum; op is written on the spectrum's layout from its pattern.

    op conserves s^z, so in the eigenbasis it is block-diagonal, with blocks
    O_s = V_s^dagger op[s, s] V_s, and only pairs of levels inside one
    sector enter.  With the mean <op> taken off the diagonal,
    chi = sum_nm |O_nm - <op> delta_nm|^2 w_nm, where
    w_nm = (P_n - P_m) / (E_m - E_n) >= 0, and w_nm = beta P_n for pairs
    closer than DEGENERATE max(1, max|E|).  This equals the usual
    sum |O_nm|^2 w_nm - beta <op>^2 without its cancellation when <op>^2
    is large.  The sums run over the block-size stacks of the layout.
    """
    pat = _pattern(spec.dim.bit_length() - 1)
    op = np.zeros(spec.layout.size, dtype=complex)
    op[_pattern_positions(spec.layout)] = pat.sz if field is FieldTag.MAGNETIC else pat.k
    p = gibbs(spec, t).populations
    # per stack: energies and populations of the rows (m, d, 1), and O (m, d, d)
    stacks = [(spec.energies[levels][:, :, None], p[levels][:, :, None],
               v.conj().swapaxes(1, 2) @ block @ v) for levels, v, block in _stacks(spec, op)]
    mean = sum(np.real(np.diagonal(o, axis1=1, axis2=2)).ravel() @ q.ravel()
               for _, q, o in stacks)
    tol = DEGENERATE * max(1.0, float(np.max(np.abs(spec.energies))))
    chi = 0.0
    for e, q, o in stacks:
        diagonal = np.arange(o.shape[-1])
        o[:, diagonal, diagonal] -= mean
        gap = e.swapaxes(1, 2) - e
        close = np.abs(gap) <= tol
        w = np.where(close, q / t, (q - q.swapaxes(1, 2)) / np.where(close, 1.0, gap))
        chi += np.sum(np.abs(o) ** 2 * w)
    return float(chi)


def susceptibility(params: ChainParams, field: FieldTag, t: float) -> float:
    """chi(zeta) = -d^2 F / d zeta^2 at fixed temperature, as the Kubo sum
    over the levels of one spectrum."""
    _check_field(field)
    return _kubo(diagonalize_params(params), field, t)


def thermal_state_fidelity(params: ChainParams, field: FieldTag, t: float,
                           dzeta: float) -> float:
    """Uhlmann fidelity between thermal states at zeta and zeta + dzeta.

    Both states are block-diagonal in s^z, so F is the sum over sectors of
    the fidelity of the blocks, each factored as rho_s = X_s X_s^dagger with
    X_s = V_s diag(sqrt P_s)."""
    _check_field(field)
    name = field.value
    zeta = getattr(params, name)
    shifted = params.replace(**{name: zeta + dzeta})
    factors = []
    for spec in (diagonalize_params(point) for point in (params, shifted)):
        root = np.sqrt(gibbs(spec, t).populations)
        factors.append([v * root[levels][:, None, :] for levels, v in _stacks(spec)])
    return float(sum(_fidelity(a, b) for a, b in zip(*factors)))
