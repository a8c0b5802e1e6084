"""The Uhlmann fidelity of neighbouring thermal states (Uhlmann, Rep. Math.
Phys. 9, 273 (1976)) and field susceptibilities, the thermal-transition
detectors.

Susceptibilities are Kubo sums over the states of one spectrum (Kubo,
J. Phys. Soc. Jpn. 12, 570 (1957)), the exact -d^2F/dzeta^2 of the Gibbs
free energy."""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

from .model import ChainParams, _pattern
from .spectra import Spectrum, _ring_blocks, diagonalize_params
from .thermal import gibbs


class FieldTag(enum.Enum):
    """Which control field a susceptibility differentiates against."""

    MAGNETIC = "b"
    ELECTRIC = "e_field"


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """tr sqrt(sqrt(rho0) rho1 sqrt(rho0)) as the sum of the singular values
    of a^dagger b, for any factors rho0 = a a^dagger and rho1 = b b^dagger.
    Singular values stay accurate where eigenvalues of rho0 and rho1 sit at
    the round-off floor; square roots of eigenvalues of the product would
    not."""
    return float(np.sum(np.linalg.svd(a.conj().T @ b, compute_uv=False)))


def _field_blocks(field: FieldTag, n: int) -> list[np.ndarray]:
    """The s^z blocks of the operator the field couples to, total s^z or K,
    in the sector order of a ring spectrum."""
    pat = _pattern(n)
    return _ring_blocks(n, pat.sz if field is FieldTag.MAGNETIC else pat.k)


@lru_cache(maxsize=None)
def _block_pairs(sizes: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For square blocks of the given sizes, flattened one after another:
    the row and column of every entry as positions in the concatenation of
    the blocks' levels, and the positions of the diagonal entries."""
    starts = np.cumsum((0,) + sizes[:-1])
    rows = np.concatenate([a + np.repeat(np.arange(d), d) for a, d in zip(starts, sizes)])
    cols = np.concatenate([a + np.tile(np.arange(d), d) for a, d in zip(starts, sizes)])
    return rows, cols, np.flatnonzero(rows == cols)


def _kubo(spec: Spectrum, blocks: list[np.ndarray], t: float) -> float:
    """-d^2F/dzeta^2 of the field coupled to op, on one spectrum, from the
    s^z blocks op[s, s] of op, one per sector of spec.

    op conserves s^z, so in the eigenbasis it is block-diagonal, with blocks
    O_s = V_s^dagger op[s, s] V_s, and only pairs of levels inside one
    sector enter.  With the mean <op> taken off the diagonal,
    chi = sum_nm |O_nm - <op> delta_nm|^2 w_nm, where
    w_nm = (P_n - P_m) / (E_m - E_n) >= 0, and w_nm = beta P_n for pairs
    closer than 1e-9 max(1, max|E|).  This equals the usual
    sum |O_nm|^2 w_nm - beta <op>^2 without its cancellation when <op>^2
    is large.
    """
    levels = np.concatenate([s.levels for s in spec.sectors])
    e = spec.energies[levels]
    p = gibbs(spec, t).populations[levels]
    rows, cols, diagonal = _block_pairs(tuple(s.levels.size for s in spec.sectors))
    o = np.concatenate([(s.vectors.conj().T @ block @ s.vectors).ravel()
                        for s, block in zip(spec.sectors, blocks)])
    o[diagonal] -= np.real(o[diagonal]) @ p
    gap = e[cols] - e[rows]
    close = np.abs(gap) <= 1e-9 * max(1.0, float(np.max(np.abs(e))))
    w = np.where(close, p[rows] / t,
                 (p[rows] - p[cols]) / np.where(close, 1.0, gap))
    return float(np.sum(np.abs(o) ** 2 * w))


def susceptibility(params: ChainParams, field: FieldTag, t: float) -> float:
    """chi(zeta) = -d^2 F / d zeta^2 at fixed temperature, as the Kubo sum
    over the levels of one spectrum."""
    return _kubo(diagonalize_params(params), _field_blocks(field, params.n), t)


def thermal_state_fidelity(params: ChainParams, field: FieldTag, t: float,
                           dzeta: float) -> float:
    """Uhlmann fidelity between thermal states at zeta and zeta + dzeta.

    Both states are block-diagonal in s^z, so F is the sum over sectors of
    the fidelity of the blocks, each factored as rho_s = X_s X_s^dagger with
    X_s = V_s diag(sqrt P_s)."""
    name = field.value
    zeta = getattr(params, name)
    shifted = params.replace(**{name: zeta + dzeta})
    specs = [diagonalize_params(point) for point in (params, shifted)]
    roots = [np.sqrt(gibbs(spec, t).populations) for spec in specs]
    return float(sum(
        _fidelity(a.vectors * roots[0][a.levels], b.vectors * roots[1][b.levels])
        for a, b in zip(specs[0].sectors, specs[1].sectors)))
