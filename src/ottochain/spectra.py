"""Diagonalization with total-s^z sector blocking, and adiabatic level
identification across changes of the electric field.

Within each magnetization sector the Hamiltonian is a dense Hermitian block.
The ring's blocks are filled straight from the operator pattern into one
buffer, and the blocks of equal size are solved by one stacked eigensolve;
a Spectrum keeps its eigenvectors as those blocks.  Levels are tracked
across field values by composing per-step eigenvector overlap matchings,
which never mix sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ChainParams, _hamiltonian_values, _pattern

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
    `spectrum`, when known, is the spectrum at e_to.
    """

    permutation: np.ndarray
    e_from: float
    e_to: float
    spectrum: Spectrum | None = field(default=None, repr=False, compare=False)

    def inverse(self) -> "LevelMap":
        inv = np.empty_like(self.permutation)
        inv[self.permutation] = np.arange(self.permutation.size)
        return LevelMap(inv, self.e_to, self.e_from)

    def compose(self, later: "LevelMap") -> "LevelMap":
        """Map equivalent to following self and then `later`."""
        return LevelMap(later.permutation[self.permutation], self.e_from, later.e_to,
                        later.spectrum)


def sector_indices(sz_diagonal: np.ndarray):
    """Basis indices grouped by magnetization, keyed by the integer value."""
    values = np.rint(np.real(sz_diagonal)).astype(int)
    # a set, not np.unique, whose first call imports numpy.ma (1.6 MB)
    return {v: np.flatnonzero(values == v) for v in sorted(set(values.tolist()))}


class _Layout(NamedTuple):
    """Where the s^z blocks of one basis partition sit in a flat buffer.

    `sectors` lists (magnetization, basis indices) in ascending order of the
    magnetization, `starts` the offset of each sector's levels in their
    concatenation and `labels` the magnetization of each concatenated level.
    `groups` lists, for each block size d, the positions in `sectors` of the
    blocks of that size and the buffer offset from which they sit back to
    back as one (m, d, d) stack."""

    sectors: tuple
    starts: np.ndarray
    labels: np.ndarray
    groups: tuple
    size: int


def _layout(sectors: dict) -> _Layout:
    items = tuple(sorted(sectors.items()))
    sizes = np.array([idx.size for _, idx in items])
    groups, start = [], 0
    for d in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == d)
        groups.append((d, members, start))
        start += members.size * d * d
    return _Layout(items, np.cumsum(sizes) - sizes,
                   np.repeat([value for value, _ in items], sizes),
                   tuple(groups), start)


def _stacks(layout: _Layout, buf: np.ndarray):
    """(sector positions, (m, d, d) block stack) of a filled buffer, per
    block size."""
    for d, members, start in layout.groups:
        yield members, buf[start:start + members.size * d * d].reshape(-1, d, d)


@lru_cache(maxsize=None)
def _ring_plan(n: int) -> tuple[_Layout, np.ndarray]:
    """The s^z block layout of the ring basis and, for every nonzero of
    `_pattern(n)`, its position in the layout's buffer.  The sectors are read
    from the diagonal of total s^z in the pattern (its flat indices are
    sorted, so the diagonal entries come in basis order); every nonzero lies
    in one block because the ring operators conserve s^z."""
    pat = _pattern(n)
    dim = 2 ** n
    layout = _layout(sector_indices(pat.sz[pat.index % (dim + 1) == 0]))
    offset = np.empty(dim, dtype=int)   # buffer offset of each state's block
    local = np.empty(dim, dtype=int)    # position of each state in its block
    width = np.empty(dim, dtype=int)    # size of each state's block
    for d, members, start in layout.groups:
        for j, s in enumerate(members):
            basis = layout.sectors[s][1]
            offset[basis] = start + j * d * d
            local[basis] = np.arange(d)
            width[basis] = d
    row, col = np.divmod(pat.index, dim)
    return layout, offset[row] + local[row] * width[row] + local[col]


def _ring_buffer(n: int, values: np.ndarray) -> tuple[_Layout, np.ndarray]:
    """The ring layout and its buffer filled with `values`, given at the
    nonzeros of `_pattern(n)`."""
    layout, target = _ring_plan(n)
    buf = np.zeros(layout.size, dtype=complex)
    buf[target] = values
    return layout, buf


def _ring_blocks(n: int, values: np.ndarray) -> list[np.ndarray]:
    """The s^z blocks of the ring operator with `values` at the nonzeros of
    `_pattern(n)`, in ascending order of the magnetization, like the
    sectors of a ring spectrum."""
    layout, buf = _ring_buffer(n, values)
    out = [None] * len(layout.sectors)
    for members, stack in _stacks(layout, buf):
        for s, block in zip(members, stack):
            out[s] = block
    return out


def diagonalize(h: np.ndarray, sz: np.ndarray) -> Spectrum:
    """Full spectrum of a Hermitian h that commutes with the diagonal sz,
    solved block by block, so every eigenvector lies in one sector even
    inside accidental cross-sector degeneracies."""
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(h))):
        raise DiagonalizationError("matrix is not Hermitian")
    layout = _layout(sector_indices(np.diag(sz)))
    bases = [layout.sectors[s][1] for _, members, _ in layout.groups for s in members]
    return _solve(layout, np.concatenate([h[np.ix_(b, b)].ravel() for b in bases]))


def diagonalize_params(params: ChainParams) -> Spectrum:
    """Spectrum of the ring Hamiltonian, which is Hermitian and conserves
    total s^z by construction; its s^z blocks are filled straight from the
    operator pattern, without a dense matrix."""
    return _solve(*_ring_buffer(params.n, _hamiltonian_values(params)))


def _solve(layout: _Layout, buf: np.ndarray) -> Spectrum:
    """One stacked eigensolve per block size of a filled buffer."""
    values = [None] * len(layout.sectors)
    vectors = [None] * len(layout.sectors)
    for members, stack in _stacks(layout, buf):
        try:
            ev, vec = np.linalg.eigh(stack)
        except np.linalg.LinAlgError as exc:
            raise DiagonalizationError(str(exc)) from exc
        for s, e, v in zip(members, ev, vec):
            values[s], vectors[s] = e, v
    energies = np.concatenate(values)
    order = np.argsort(energies, kind="stable")
    rank = np.empty(energies.size, dtype=int)
    rank[order] = np.arange(energies.size)
    blocks = tuple(Sector(value, basis, rank[a:a + basis.size], v)
                   for (value, basis), a, v in zip(layout.sectors, layout.starts, vectors))
    return Spectrum(energies[order], layout.labels[order], blocks)


def _degenerate(spec: Spectrum, tol: float) -> np.ndarray:
    """Mask of the levels that have another level of their own sector
    closer than tol (a sector's levels ascend, so the nearest one is a
    neighbour)."""
    levels = np.concatenate([s.levels for s in spec.sectors])
    close = ((np.diff(spec.energies[levels]) < tol)
             & (np.diff(spec.sz_sector[levels]) == 0))
    mask = np.empty(spec.dim, dtype=bool)
    mask[levels] = np.concatenate([close, [False]]) | np.concatenate([[False], close])
    return mask


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
    deg_a, deg_b = _degenerate(spec_a, tol), _degenerate(spec_b, tol)
    for sa, sb in zip(spec_a.sectors, spec_b.sectors):
        if sa.value != sb.value or sa.basis.size != sb.basis.size:
            raise ContinuationError("sector dimensions changed between fields")
        ia, ib = sa.levels, sb.levels
        overlap = np.abs(sa.vectors.conj().T @ sb.vectors)
        rows, cols = linear_sum_assignment(-(overlap ** 2))
        perm[ia[rows]] = ib[cols]
        exempt = deg_a[ia[rows]] & deg_b[ib[cols]]
        if not exempt.all():
            worst = min(worst, float(overlap[rows, cols][~exempt].min()))
    return perm, worst


def continue_levels(params: ChainParams, e_from: float, e_to: float,
                    steps: int | None = None,
                    start: Spectrum | None = None) -> LevelMap:
    """Track every level from e_field=e_from to e_field=e_to.

    Composes per-step maximal-overlap matchings within each s^z sector; a
    step whose worst matched |overlap| falls below 0.7 is bisected, with a
    total refinement budget of 2^10 substeps per original step.  `start`,
    if given, must be the spectrum of params at e_from, which is then not
    diagonalized again.  The map carries the spectrum it reached at e_to
    (`start` when the two fields are equal).
    """
    if steps is None:
        steps = max(1, int(np.ceil(DEFAULT_STEPS_PER_UNIT * abs(e_to - e_from))))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dim = 2 ** params.n
    if e_from == e_to:
        return LevelMap(np.arange(dim), e_from, e_to, start)

    grid = np.linspace(e_from, e_to, steps + 1)
    spec_prev = (diagonalize_params(params.replace(e_field=float(grid[0])))
                 if start is None else start)
    perm = np.arange(dim)
    for a, b in zip(grid[:-1], grid[1:]):
        spec_prev, step_perm = _refine_step(params, spec_prev, float(a), float(b), 1)
        perm = step_perm[perm]
    return LevelMap(perm, e_from, e_to, spec_prev)


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
