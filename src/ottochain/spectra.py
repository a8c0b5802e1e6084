"""Diagonalization with total-s^z sector blocking, and adiabatic level
identification across changes of the electric field.

Within each magnetization sector the Hamiltonian is a dense Hermitian block,
and a Spectrum keeps its eigenvectors as those blocks; levels are tracked
across field values by composing per-step eigenvector overlap matchings,
which never mix sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ChainParams, _pattern, build_hamiltonian

HERMITICITY_TOL = 1e-10
OVERLAP_THRESHOLD = 0.7
MAX_REFINEMENT = 2 ** 10
DEFAULT_STEPS_PER_UNIT = 64


class DiagonalizationError(RuntimeError):
    """Non-Hermitian input or eigensolver failure."""


class ContinuationError(RuntimeError):
    """Level matching stayed ambiguous at the maximum step refinement."""


@dataclass(frozen=True)
class Sector:
    """One total-s^z block of a spectrum: the basis indices with
    magnetization `value`, the positions of its levels in the ascending
    order of the whole spectrum (increasing), and the d x d eigenvector
    block whose column k is level `levels[k]` on `basis`."""

    value: int
    basis: np.ndarray
    levels: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending, the integer total-s^z eigenvalue of
    each level, and the eigenvectors as one block per sector, in ascending
    order of the magnetization."""

    energies: np.ndarray
    sz_sector: np.ndarray
    sectors: tuple[Sector, ...]

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def states(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix of eigenvector columns, assembled from
        the sector blocks."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for s in self.sectors:
            out[np.ix_(s.basis, s.levels)] = s.vectors
        return out

    def ground_energy(self) -> float:
        return float(self.energies[0])


@dataclass(frozen=True)
class LevelMap:
    """Adiabatic identification of levels between two field values.

    permutation[i] is the level index at e_to of the level with index i at
    e_from (indices into the ascending-energy ordering at each field).
    """

    permutation: np.ndarray
    e_from: float
    e_to: float

    def inverse(self) -> "LevelMap":
        inv = np.empty_like(self.permutation)
        inv[self.permutation] = np.arange(self.permutation.size)
        return LevelMap(inv, self.e_to, self.e_from)

    def compose(self, later: "LevelMap") -> "LevelMap":
        """Map equivalent to following self and then `later`."""
        return LevelMap(later.permutation[self.permutation], self.e_from, later.e_to)


def sector_indices(sz_diagonal: np.ndarray):
    """Basis indices grouped by magnetization, keyed by the integer value."""
    values = np.rint(np.real(sz_diagonal)).astype(int)
    return {int(v): np.flatnonzero(values == v) for v in np.unique(values)}


def diagonalize(h: np.ndarray, sz: np.ndarray) -> Spectrum:
    """Full spectrum of a Hermitian h that commutes with the diagonal sz,
    solved block by block, so every eigenvector lies in one sector even
    inside accidental cross-sector degeneracies."""
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(h))):
        raise DiagonalizationError("matrix is not Hermitian")
    return _solve(h, sector_indices(np.diag(sz)))


@lru_cache(maxsize=None)
def _ring_sectors(n: int) -> dict:
    """Sector partition of the ring basis, read from the diagonal of total
    s^z in the operator pattern (its flat indices are sorted, so the
    diagonal entries come in basis order)."""
    pat = _pattern(n)
    return sector_indices(pat.sz[pat.index % (2 ** n + 1) == 0])


def diagonalize_params(params: ChainParams) -> Spectrum:
    """Spectrum of the ring Hamiltonian, which is Hermitian and conserves
    total s^z by construction."""
    return _solve(build_hamiltonian(params), _ring_sectors(params.n))


def _solve(h: np.ndarray, sectors: dict) -> Spectrum:
    dim = h.shape[0]
    energies = np.empty(dim)
    sects = np.empty(dim, dtype=int)
    solved = []
    pos = 0
    for value, idx in sectors.items():
        try:
            ev, vec = np.linalg.eigh(h[np.ix_(idx, idx)])
        except np.linalg.LinAlgError as exc:
            raise DiagonalizationError(str(exc)) from exc
        k = idx.size
        energies[pos:pos + k] = ev
        sects[pos:pos + k] = value
        solved.append((pos, vec))
        pos += k
    order = np.argsort(energies, kind="stable")
    rank = np.empty(dim, dtype=int)
    rank[order] = np.arange(dim)
    blocks = tuple(Sector(value, idx, rank[start:start + idx.size], vec)
                   for (value, idx), (start, vec) in zip(sectors.items(), solved))
    return Spectrum(energies[order], sects[order], blocks)


def _degenerate(energies: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the levels of an ascending array that have another level
    closer than tol (in a sorted array the nearest one is a neighbour)."""
    close = np.diff(energies) < tol
    return np.concatenate([close, [False]]) | np.concatenate([[False], close])


def _match_step(spec_a: Spectrum, spec_b: Spectrum) -> tuple[np.ndarray, float]:
    """Within-sector assignment maximizing total squared overlap.

    Returns (permutation a->b, worst matched |overlap|).  Levels that are
    degenerate on both sides are exempt from the worst-overlap statistic:
    any rotation inside a degenerate cluster is physically irrelevant.
    """
    # deferred: scipy.optimize would otherwise load with every import
    from scipy.optimize import linear_sum_assignment

    perm = np.empty(spec_a.dim, dtype=int)
    worst = 1.0
    tol = 1e-9 * max(1.0, float(np.max(np.abs(spec_a.energies))))
    for sa, sb in zip(spec_a.sectors, spec_b.sectors):
        if sa.value != sb.value or sa.basis.size != sb.basis.size:
            raise ContinuationError("sector dimensions changed between fields")
        ia, ib = sa.levels, sb.levels
        overlap = np.abs(sa.vectors.conj().T @ sb.vectors)
        rows, cols = linear_sum_assignment(-(overlap ** 2))
        perm[ia[rows]] = ib[cols]
        exempt = (_degenerate(spec_a.energies[ia], tol)[rows]
                  & _degenerate(spec_b.energies[ib], tol)[cols])
        if not exempt.all():
            worst = min(worst, float(overlap[rows, cols][~exempt].min()))
    return perm, worst


def continue_levels(params: ChainParams, e_from: float, e_to: float,
                    steps: int | None = None) -> LevelMap:
    """Track every level from e_field=e_from to e_field=e_to.

    Composes per-step maximal-overlap matchings within each s^z sector; a
    step whose worst matched |overlap| falls below 0.7 is bisected, with a
    total refinement budget of 2^10 substeps per original step.
    """
    if steps is None:
        steps = max(1, int(np.ceil(DEFAULT_STEPS_PER_UNIT * abs(e_to - e_from))))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dim = 2 ** params.n
    if e_from == e_to:
        return LevelMap(np.arange(dim), e_from, e_to)

    grid = np.linspace(e_from, e_to, steps + 1)
    spec_prev = diagonalize_params(params.replace(e_field=float(grid[0])))
    perm = np.arange(dim)
    for a, b in zip(grid[:-1], grid[1:]):
        spec_prev, step_perm = _refine_step(params, spec_prev, float(a), float(b), 1)
        perm = step_perm[perm]
    return LevelMap(perm, e_from, e_to)


def _refine_step(params: ChainParams, spec_a: Spectrum, a: float, b: float,
                 factor: int) -> tuple[Spectrum, np.ndarray]:
    spec_b = diagonalize_params(params.replace(e_field=b))
    perm, worst = _match_step(spec_a, spec_b)
    if worst >= OVERLAP_THRESHOLD:
        return spec_b, perm
    if factor >= MAX_REFINEMENT:
        raise ContinuationError(
            f"ambiguous level matching near e_field={b:g} "
            f"(worst overlap {worst:.3f} at maximum refinement)")
    mid = 0.5 * (a + b)
    spec_m, left = _refine_step(params, spec_a, a, mid, factor * 2)
    spec_b, right = _refine_step(params, spec_m, mid, b, factor * 2)
    return spec_b, right[left]
