"""Diagonalization with total-s^z sector blocking, and adiabatic level
identification across changes of the electric field.

Within each magnetization sector the Hamiltonian is a dense Hermitian block.
The ring's blocks are filled straight from the operator pattern into one
buffer, and the blocks of equal size are solved by one stacked eigensolve;
a Spectrum keeps its eigenvectors as those blocks.  Levels are tracked
across field values by composing per-step eigenvector overlap matchings,
which never mix sectors; the continuation solves and matches a chunk of
consecutive fields at a time, with the blocks of all its fields in one
stack per block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ChainParams, _field_free_values, _pattern

OVERLAP_THRESHOLD = 0.7
MAX_REFINEMENT = 2 ** 10
DEFAULT_STEPS_PER_UNIT = 64
# continue_levels solves the fields of its grid in chunks whose block
# buffers fill at most this many bytes (8 fields at n=6, 1 from n=8): this
# bounds its memory and the work a continuation that fails early wastes
CHUNK_BYTES = 2 ** 17


class DiagonalizationError(RuntimeError):
    """Eigensolver failure."""


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

    def compose(self, later: "LevelMap") -> "LevelMap":
        """Map equivalent to following self and then `later`."""
        return LevelMap(later.permutation[self.permutation], self.e_from, later.e_to,
                        later.spectrum)


class _Layout(NamedTuple):
    """Where the s^z blocks of one basis partition sit in a flat buffer.

    `sectors` lists (magnetization, basis indices) in ascending order of the
    magnetization, `starts` the offset of each sector's levels in their
    concatenation and `labels` the magnetization of each concatenated level.
    `groups` lists, for each block size d, the positions in `sectors` of the
    blocks of that size and the buffer offset from which they sit back to
    back as one (m, d, d) stack.  Layouts compare and hash by identity, so
    that plans on a layout can be cached under it."""

    sectors: tuple
    starts: np.ndarray
    labels: np.ndarray
    groups: tuple
    size: int

    __eq__ = object.__eq__
    __hash__ = object.__hash__


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


@lru_cache(maxsize=None)
def _ring_plan(n: int) -> tuple[_Layout, np.ndarray]:
    """The s^z block layout of the ring basis and, for every nonzero of
    `_pattern(n)`, its position in the layout's buffer.  The sectors are read
    from the diagonal of total s^z in the pattern (its flat indices are
    sorted, so the diagonal entries come in basis order); every nonzero lies
    in one block because the ring operators conserve s^z."""
    pat = _pattern(n)
    dim = 2 ** n
    values = np.rint(pat.sz[pat.index % (dim + 1) == 0].real).astype(int)
    # a set, not np.unique, whose first call imports numpy.ma (1.6 MB)
    layout = _layout({v: np.flatnonzero(values == v) for v in set(values.tolist())})
    return layout, _pattern_positions(layout)


@lru_cache(maxsize=None)
def _pattern_positions(layout: _Layout) -> np.ndarray:
    """For every nonzero of `_pattern(n)`, its position in the buffer of
    `layout`, a layout of the n-site basis whose blocks each hold every
    nonzero whose row they hold."""
    dim = layout.labels.size
    _, head, local = _placement(layout)
    row, col = np.divmod(_pattern(dim.bit_length() - 1).index, dim)
    return head[row] + local[col]


def _placement(layout: _Layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every basis state: the buffer offset of its block, the buffer
    position of its row in that block and its position inside the block.
    Entry (x, y) of a block sits at head[x] + local[y]."""
    dim = layout.labels.size
    offset = np.empty(dim, dtype=int)
    head = np.empty(dim, dtype=int)
    local = np.empty(dim, dtype=int)
    for d, members, start in layout.groups:
        for j, s in enumerate(members):
            basis = layout.sectors[s][1]
            offset[basis] = start + j * d * d
            local[basis] = np.arange(d)
            head[basis] = offset[basis] + local[basis] * d
    return offset, head, local


def _ring_blocks(n: int, values: np.ndarray) -> list[np.ndarray]:
    """The s^z blocks of the ring operator with `values` at the nonzeros of
    `_pattern(n)`, in ascending order of the magnetization, like the
    sectors of a ring spectrum."""
    layout, target = _ring_plan(n)
    buf = np.zeros(layout.size, dtype=complex)
    buf[target] = values
    out = [None] * len(layout.sectors)
    for d, members, start in layout.groups:
        for s, block in zip(members, buf[start:start + members.size * d * d].reshape(-1, d, d)):
            out[s] = block
    return out


def _eigh_stacks(layout: _Layout, buf: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of c filled buffers (c, layout.size), solved by one stacked
    eigensolve per block size: per entry of `layout.groups`, eigenvalues
    (c, m, d) and eigenvectors (c, m, d, d)."""
    out = []
    for d, members, start in layout.groups:
        stack = buf[:, start:start + members.size * d * d].reshape(-1, d, d)
        try:
            ev, vec = np.linalg.eigh(stack)
        except np.linalg.LinAlgError as exc:
            raise DiagonalizationError(str(exc)) from exc
        out.append((ev.reshape(buf.shape[0], members.size, d),
                    vec.reshape(buf.shape[0], members.size, d, d)))
    return out


def _solve_fields(params: ChainParams, fields) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ring's s^z blocks solved at every electric field in `fields` (the
    e_field of params is not read), as `_eigh_stacks` returns them.  The
    buffers are filled in one assignment from the field-free values, with
    the terms of `_hamiltonian_values` in its order, so each field's blocks
    are bit for bit those of its own Hamiltonian."""
    layout, target = _ring_plan(params.n)
    fields = np.asarray(fields, dtype=float)
    buf = np.zeros((fields.size, layout.size), dtype=complex)
    buf[:, target] = _field_free_values(params) - fields[:, None] * _pattern(params.n).k
    return _eigh_stacks(layout, buf)


def _spectrum(layout: _Layout, solved, i: int) -> Spectrum:
    """The Spectrum of field i of `solved`, the output of `_eigh_stacks`."""
    values = [None] * len(layout.sectors)
    vectors = [None] * len(layout.sectors)
    for (_, members, _), (ev, vec) in zip(layout.groups, solved):
        for s, e, v in zip(members, ev[i], vec[i]):
            values[s], vectors[s] = e, v
    energies = np.concatenate(values)
    order = np.argsort(energies, kind="stable")
    rank = np.empty(energies.size, dtype=int)
    rank[order] = np.arange(energies.size)
    blocks = tuple(Sector(value, basis, rank[a:a + basis.size], v)
                   for (value, basis), a, v in zip(layout.sectors, layout.starts, vectors))
    return Spectrum(energies[order], layout.labels[order], blocks)


def _stacked(layout: _Layout, specs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Spectra whose sectors follow `layout`, in the form `_eigh_stacks`
    returns, one entry of the leading axis per spectrum."""
    return [(np.array([[spec.energies[spec.sectors[s].levels] for s in members]
                       for spec in specs]),
             np.array([[spec.sectors[s].vectors for s in members] for spec in specs]))
            for _, members, _ in layout.groups]


def _levels(spec: Spectrum) -> np.ndarray:
    """Position in the ascending order of each level, listed sector after
    sector as the layout concatenates them."""
    return np.concatenate([s.levels for s in spec.sectors])


def diagonalize_params(params: ChainParams) -> Spectrum:
    """Spectrum of the ring Hamiltonian, which is Hermitian and conserves
    total s^z by construction; its s^z blocks are filled straight from the
    operator pattern, without a dense matrix."""
    return _spectrum(_ring_plan(params.n)[0], _solve_fields(params, [params.e_field]), 0)


def _match(layout: _Layout, span) -> tuple[np.ndarray, np.ndarray]:
    """Within-sector assignments maximizing the total squared overlap,
    between consecutive fields of `span` (s + 1 fields in the form
    `_eigh_stacks` returns).

    Returns, per step, the position at the later field of every level, as
    positions in the layout's concatenation of the sectors' levels (s, dim),
    and the worst matched |overlap| (s,).  Levels that have a neighbour in
    their sector closer than 1e-9 max(1, max|E|), with E the energies at the
    earlier field, on both sides of the step are exempt from the
    worst-overlap statistic: any rotation inside a degenerate cluster is
    physically irrelevant.

    An overlap block is unitary, so its rows have unit norm; when every
    diagonal |O_kk|^2 exceeds 1/2 (with a 1e-6 margin for round-off), every
    other entry of a row is below its diagonal one, and the identity is the
    unique maximizer, which `linear_sum_assignment` would return.  Only the
    other blocks are passed to it.
    """
    # deferred: scipy.optimize would otherwise load with every import
    from scipy.optimize import linear_sum_assignment

    steps = span[0][0].shape[0] - 1
    scale = np.max([np.abs(ev[:-1]).max(axis=(1, 2)) for ev, _ in span], axis=0)
    tol = 1e-9 * np.maximum(1.0, scale)[:, None, None]
    moves = np.empty((steps, layout.labels.size), dtype=int)
    worst = np.ones(steps)
    for (d, members, _), (ev, vec) in zip(layout.groups, span):
        gap = np.diff(ev, axis=-1)
        degenerate = []
        for close in (gap[:-1] < tol, gap[1:] < tol):
            mask = np.zeros(close.shape[:-1] + (d,), dtype=bool)
            mask[..., 1:] = close
            mask[..., :-1] |= close
            degenerate.append(mask)
        overlap = np.abs(np.matmul(vec[:-1].conj().swapaxes(-1, -2), vec[1:]))
        matched = np.diagonal(overlap, axis1=-2, axis2=-1).copy()
        exempt = degenerate[0] & degenerate[1]
        pos = layout.starts[members][:, None] + np.arange(d)
        moves[:, pos] = pos
        for i, j in zip(*np.nonzero(~np.all(matched ** 2 > 0.5 + 1e-6, axis=-1))):
            cols = linear_sum_assignment(-(overlap[i, j] ** 2))[1]
            matched[i, j] = overlap[i, j, np.arange(d), cols]
            exempt[i, j] = degenerate[0][i, j] & degenerate[1][i, j, cols]
            moves[i, pos[j]] = pos[j, cols]
        worst = np.minimum(worst, np.where(exempt, 1.0, matched).min(axis=(1, 2)))
    return moves, worst


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

    The grid fields are solved and matched in chunks of consecutive fields
    whose block buffers fill at most CHUNK_BYTES, one stacked eigensolve per
    block size each, and the substeps of a bisected step one field at a
    time through the same solve and match; a level is followed by its
    position inside its sector, and only the spectrum at e_to is assembled.
    """
    if steps is None:
        steps = max(1, int(np.ceil(DEFAULT_STEPS_PER_UNIT * abs(e_to - e_from))))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dim = 2 ** params.n
    if e_from == e_to:
        return LevelMap(np.arange(dim), e_from, e_to, start)

    grid = np.linspace(e_from, e_to, steps + 1)
    if start is None:
        start = diagonalize_params(params.replace(e_field=float(grid[0])))
    layout = _ring_plan(params.n)[0]
    chunk = max(1, CHUNK_BYTES // (16 * layout.size))  # complex entries
    prev = _stacked(layout, (start,))
    track = np.arange(dim)
    for first in range(1, steps + 1, chunk):
        fields = grid[first:first + chunk]
        span = _join(prev, _solve_fields(params, fields))
        moves, worst = _match(layout, span)
        for i, b in enumerate(fields):
            step = moves[i]
            if worst[i] < OVERLAP_THRESHOLD:
                solved_a = [(ev[i:i + 1], vec[i:i + 1]) for ev, vec in span]
                step = _bisect(params, layout, solved_a, float(grid[first + i - 1]),
                               float(b), 1)[1]
            track = step[track]
        # copies, so that the spectrum at e_to does not hold the whole chunk
        prev = [(ev[-1:].copy(), vec[-1:].copy()) for ev, vec in span]
    end = _spectrum(layout, prev, 0)
    perm = np.empty(dim, dtype=int)
    perm[_levels(start)] = _levels(end)[track]
    return LevelMap(perm, e_from, e_to, end)


def _join(earlier, later) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two outputs of `_eigh_stacks` as one, the fields of `earlier` first."""
    return [(np.concatenate([ea, eb]), np.concatenate([va, vb]))
            for (ea, va), (eb, vb) in zip(earlier, later)]


def _refine_step(params: ChainParams, layout: _Layout, solved_a, a: float, b: float,
                 factor: int) -> tuple[list, np.ndarray]:
    """The step from the field a, solved as `solved_a` (one field in the form
    `_eigh_stacks` returns), to the field b: the blocks solved at b and the
    position at b of every level, as positions in the layout's concatenation
    of the sectors' levels.  A step whose worst overlap falls below
    OVERLAP_THRESHOLD is bisected."""
    solved_b = _solve_fields(params, [b])
    moves, worst = _match(layout, _join(solved_a, solved_b))
    if worst[0] >= OVERLAP_THRESHOLD:
        return solved_b, moves[0]
    if factor >= MAX_REFINEMENT:
        raise ContinuationError(
            f"ambiguous level matching near e_field={b:g} "
            f"(worst overlap {worst[0]:.3f} at maximum refinement)")
    return _bisect(params, layout, solved_a, a, b, factor)


def _bisect(params: ChainParams, layout: _Layout, solved_a, a: float, b: float,
            factor: int) -> tuple[list, np.ndarray]:
    """The step from a to b as two half steps, each refined again."""
    mid = 0.5 * (a + b)
    solved_m, left = _refine_step(params, layout, solved_a, a, mid, factor * 2)
    solved_b, right = _refine_step(params, layout, solved_m, mid, b, factor * 2)
    return solved_b, right[left]
