"""Diagonalization with total-s^z sector blocking, and adiabatic level maps
across changes of the electric field.

Within each magnetization sector the Hamiltonian is a dense Hermitian block.
The ring's blocks are filled straight from the operator pattern into one
buffer, and the blocks of equal size are solved by one stacked eigensolve,
which overwrites each block with its eigenvectors; a Spectrum keeps that
buffer.

Only sector 0 and the sectors of positive magnetization v are solved.  Let
F flip every spin (F|x> = |~x>) and C conjugate complex amplitudes in the
s^z basis.  F keeps both bond sums and reverses s^z and K (each term
s^x_i s^y_{i+1} - s^y_i s^x_{i+1} changes the sign of its s^y factor); C
keeps the bonds and s^z and, K being purely imaginary, reverses K.  So CF
keeps the bonds and K and reverses total s^z, and H' = (CF) H (CF)^-1 is H
with b -> -b.  An eigenvector psi of the +v block with energy E therefore
gives CF psi in the -v block with energy E + 2 b v (Sandvik,
arXiv:1101.3281 sec. 4).  F maps basis state x to 2^n - 1 - x, which
reverses the ascending basis of a sector, so the -v block's eigenvectors
are conj(V_v[::-1]), in the same order as those of +v.

A level map labels every level by its magnetization and its momentum k.  H,
K and total s^z commute with the one-site translation, so each s^z sector
splits into (s^z, k) blocks (Sandvik, arXiv:1101.3281 sec. 4), whose
operators are built once per ring size.  By the non-crossing rule (von
Neumann & Wigner, Phys. Z. 30, 467 (1929)) the levels of one block do not
cross, so along the field a level keeps its rank inside its block.  The
fields of a map are solved once, one stacked eigensolve per block size, and
a step between two of them is bisected while some in-block overlap
|<k(a)|k(b)>|^2 is not above 1/2, until it is an exact crossing, from a
symmetry the labels miss: the largest overlaps permute the block's levels,
and every pair they swap is degenerate at one end of the step (gap below
1e-9 max(1, |E|)).  There the levels follow their overlaps.  The map's
spectra come from the same solve: each basis state x lies in exactly one
translation orbit, so its row of a level's s^z eigenvector is one row of the
(s^z, k) block's eigenvectors, that of the orbit's smallest state, times
e^{ik j_x}/sqrt(R_x), and the s^z blocks are gathered from the momentum
blocks with no second eigensolve (Sandvik, arXiv:1101.3281 sec. 4).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ChainParams, _Pattern, _field_free_values, _pattern

# relative gap below which two levels of a block count as degenerate
DEGENERATE = 1e-9
# relative gap below which levels of different sectors count as tied, and
# are ordered by magnetization: far above the rounding of any solve, far
# below any gap that a symmetry does not close
TIED = 1e-12
# substeps a level map may cut one step between the caller's fields into:
# enough for the gap of an exact crossing inside a step of 10 to fall below
# DEGENERATE at a substep's end
MAX_REFINEMENT = 2 ** 40
# a level map solves its fields in stacks whose s^z blocks fill at most this
# many bytes (70 fields at n=6, 5 at n=8, one from n=10), so that its memory
# does not grow with the number of fields
STACK_BYTES = 2 ** 20

log = logging.getLogger("ottochain")


class DiagonalizationError(RuntimeError):
    """Eigensolver failure."""


class ContinuationError(RuntimeError):
    """A level map stayed ambiguous at the maximum step refinement."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending and the integer total-s^z eigenvalue of
    each level, with the eigenvectors kept as the s^z blocks of `layout`:
    `vectors` is the layout's flat buffer, in which column j of a sector's
    block is its j-th level on the sector's basis, and `levels` gives the
    index in `energies` of each of those levels, in buffer order (block
    after block as `layout.groups` lists them, column after column)."""

    energies: np.ndarray
    sz_sector: np.ndarray
    layout: _Layout = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.energies.size

    def ground_energy(self) -> float:
        return float(self.energies[0])


@dataclass(frozen=True)
class LevelMap:
    """Adiabatic identification of levels between two field values.

    permutation[i] is the level index in `spectrum`, the spectrum at e_to,
    of the level with index i in `origin`, the spectrum at e_from.  The
    level keeps its (s^z, k) block and its rank inside it, except across an
    exact crossing.  Both spectra come from the map's own solves in (s^z, k)
    blocks.  Their levels are those of `diagonalize_params` at the same
    field: the same s^z label at every index and the same energies up to
    rounding (within 1e-12 relative), so levels degenerate inside one s^z
    sector are interchangeable.
    """

    permutation: np.ndarray
    e_from: float
    e_to: float
    spectrum: Spectrum = field(repr=False, compare=False)
    origin: Spectrum = field(repr=False, compare=False)

    def compose(self, later: "LevelMap") -> "LevelMap":
        """Map equivalent to following self and then `later`."""
        return LevelMap(later.permutation[self.permutation], self.e_from, later.e_to,
                        later.spectrum, self.origin)


class _Layout(NamedTuple):
    """Where the s^z blocks of one basis partition sit in a flat buffer.

    `sectors` lists (magnetization, basis indices) in ascending order of the
    magnetization.  `groups` lists, for each block size d, the positions in
    `sectors` of the blocks of that size and the buffer offset from which
    they sit back to back as one (m, d, d) stack.  `labels` gives the
    magnetization of each level of the blocks, in buffer order (block after
    block as `groups` lists them, d levels each).  Layouts compare and hash
    by identity, so that plans on a layout can be cached under it."""

    sectors: tuple
    labels: np.ndarray
    groups: tuple
    size: int

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _layout(sectors: dict) -> _Layout:
    items = tuple(sorted(sectors.items()))
    sizes = np.array([idx.size for _, idx in items])
    values = np.array([value for value, _ in items])
    groups, start = [], 0
    for d in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == d)
        groups.append((d, members, start))
        start += members.size * d * d
    labels = np.concatenate([np.repeat(values[members], d) for d, members, _ in groups])
    return _Layout(items, labels, tuple(groups), start)


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
    # sectors v and -v hold C(n, (n - v) / 2) states each, a number that
    # rises strictly as |v| falls, so each block size holds sector 0 alone or
    # the pair (-v, v), in that order: the pairing `_solve_fields` mirrors
    for _, members, _ in layout.groups:
        mags = [layout.sectors[s][0] for s in members]
        assert mags in ([0], [-abs(mags[-1]), abs(mags[-1])]), mags
    return layout, _pattern_positions(layout)


@lru_cache(maxsize=None)
def _solved_pattern(n: int) -> tuple[_Pattern, np.ndarray]:
    """The nonzeros of `_pattern(n)` in the blocks that `_solve_fields`
    solves, sector 0 and the +v sectors, and their positions in the buffer
    of `_ring_plan(n)`: the ring operators conserve s^z, so these are the
    nonzeros in the rows of the states with s^z >= 0."""
    pat = _pattern(n)
    dim = 2 ** n
    sz = pat.sz[pat.index % (dim + 1) == 0].real
    keep = sz[pat.index // dim] >= 0
    return _Pattern(*(a[keep] for a in pat)), _ring_plan(n)[1][keep]


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


def _blocks(layout: _Layout, buffer: np.ndarray):
    """(position in `layout.sectors`, basis states, d x d view) of every
    block of `buffer`."""
    for d, members, start in layout.groups:
        for s, block in zip(members, buffer[start:start + members.size * d * d].reshape(-1, d, d)):
            yield s, layout.sectors[s][1], block


def _stacks(spec: Spectrum, *buffers):
    """Per block size d of the spectrum's layout, which holds m blocks of
    that size: the index in `spec.energies` of each of their levels
    (m, d), their eigenvectors (m, d, d), and the same blocks of each of
    `buffers`, flat buffers on that layout, as (m, d, d) views."""
    first = 0
    for d, members, start in spec.layout.groups:
        stop = start + members.size * d * d
        yield (spec.levels[first:first + members.size * d].reshape(-1, d),
               *(b[start:stop].reshape(-1, d, d) for b in (spec.vectors, *buffers)))
        first += members.size * d


def _spectral_sum(spec: Spectrum, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_n weights[n] |n><n| over the levels of spec, for real weights, as
    a buffer on its layout, written into `out` when given: V_s (V_s W_s)^dagger
    = V_s W_s V_s^dagger in the block of each sector, W_s = diag(weights_s),
    one stacked product per block size and one temporary stack."""
    buf = np.empty(spec.layout.size, dtype=complex) if out is None else out
    for levels, v, block in _stacks(spec, buf):
        vw = v * weights[levels][:, None, :]
        np.matmul(v, np.conjugate(vw, out=vw).swapaxes(1, 2), out=block)
        del vw      # before the next stack's temporary exists
    return buf


def _eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a stack, its failure raised as DiagonalizationError."""
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(str(exc)) from exc


def _eigh_stacks(layout: _Layout, buf: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of c filled buffers (c, layout.size), solved by one stacked
    eigensolve per block size, each block overwritten by its eigenvectors:
    per entry of `layout.groups`, eigenvalues (c, m, d) and eigenvectors
    (c, m, d, d), a view of buf."""
    out = []
    for d, members, start in layout.groups:
        stack = buf[:, start:start + members.size * d * d].reshape(-1, members.size, d, d)
        ev, stack[...] = _eigh(stack)
        out.append((ev, stack))
    return out


def _solve_fields(params: ChainParams, fields) -> tuple[np.ndarray, np.ndarray]:
    """The ring's s^z blocks solved at every electric field in `fields` (the
    e_field of params is not read): per field, the eigenvalues in buffer
    order and the buffer of eigenvector blocks on the ring layout.  The
    buffers are filled in one assignment from the field-free values, with
    the terms of `_hamiltonian_values` in its order, so each field's blocks
    are bit for bit those of its own Hamiltonian.  Only sector 0 and the +v
    sectors are filled and solved, one stacked eigensolve per block size;
    each -v block is the mirror of its +v block (see the module docstring)."""
    layout = _ring_plan(params.n)[0]
    pat, target = _solved_pattern(params.n)
    fields = np.asarray(fields, dtype=float)
    buf = np.zeros((fields.size, layout.size), dtype=complex)
    buf[:, target] = _field_free_values(params, pat) - fields[:, None] * pat.k
    energies = []
    for d, members, start in layout.groups:
        # the group is sector 0 alone or the pair (-v, v): solve its last block
        stop = start + members.size * d * d
        top = buf[:, stop - d * d:stop].reshape(-1, d, d)
        if d == 1:
            # the fully polarized sector: its one entry is its eigenvalue
            ev, top[...] = top.real[:, 0].copy(), 1.0
        else:
            ev, top[...] = _eigh(top)
        if members.size == 2:
            np.conjugate(top[:, ::-1], out=buf[:, start:start + d * d].reshape(-1, d, d))
            energies.append(ev + 2.0 * params.b * layout.sectors[members[1]][0])
        energies.append(ev)
    return np.concatenate(energies, axis=1), buf


def _spectrum(layout: _Layout, energies: np.ndarray, vectors: np.ndarray) -> Spectrum:
    """The Spectrum of the eigenvalues `energies` and the eigenvector blocks
    `vectors` of one solve on `layout`, both in buffer order.  Its levels
    are sorted by energy, except inside runs of levels each closer than
    TIED max(1, max|E|) to the next, which are sorted by magnetization and
    then by buffer order: by rank in an s^z block, by block and then rank
    among the (s^z, k) blocks of a sector.  So levels degenerate up to
    rounding take the same places whichever solve, BLAS or platform rounds
    them."""
    order = np.lexsort((layout.labels, energies))
    e = energies[order]
    # max|E| is -e[0] or e[-1]; count_nonzero is the cheapest test here
    close = e[1:] - e[:-1] < TIED * max(1.0, -e[0], e[-1])
    if np.count_nonzero(close):
        key = layout.labels[order] * order.size + order     # magnetization, then buffer
        if np.count_nonzero(close & (key[1:] < key[:-1])):
            run = np.zeros(order.size, dtype=int)
            np.cumsum(~close, out=run[1:])
            order = order[np.lexsort((key, run))]
            e = energies[order]
    levels = np.empty(order.size, dtype=int)
    levels[order] = np.arange(order.size)
    return Spectrum(e, layout.labels[order], layout, vectors, levels)


def diagonalize_params(params: ChainParams) -> Spectrum:
    """Spectrum of the ring Hamiltonian, which is Hermitian and conserves
    total s^z by construction; its s^z blocks are filled straight from the
    operator pattern, without a dense matrix."""
    energies, vectors = _solve_fields(params, [params.e_field])
    return _spectrum(_ring_plan(params.n)[0], energies[0], vectors[0])


def _momentum_blocks(n: int) -> tuple[tuple, list, _Layout]:
    """The translation orbits and the (s^z, k) blocks of the n-site ring.
    The translation T moves every spin one site on; per basis state x, the
    orbits give the smallest state r of its orbit, the j_x with T^{j_x} x = r
    and the orbit's length R.  The blocks are listed as (s^z sector, m,
    smallest states), k = 2 pi m / n, sector after sector in the order of
    the groups of `_ring_plan(n)`, with their layout, keyed by block number."""
    x = np.arange(2 ** n)
    images = np.array([((x >> j) | (x << (n - j))) & (x.size - 1) for j in range(n)])
    rep, shift = images.min(axis=0), images.argmin(axis=0)
    period = np.argmax(np.vstack([images[1:], images[:1]]) == x, axis=0) + 1
    ring = _ring_plan(n)[0]
    blocks = []
    for s in (s for _, members, _ in ring.groups for s in members):
        basis = ring.sectors[s][1]
        for m in range(n):
            reps = basis[(m * period[basis] % n == 0) & (rep[basis] == basis)]
            if reps.size:
                blocks.append((s, m, reps))
    layout = _layout({b: np.arange(reps.size) for b, (_, _, reps) in enumerate(blocks)})
    return (rep, shift, period), blocks, layout


@lru_cache(maxsize=None)
def _momentum_plan(n: int) -> tuple[_Layout, np.ndarray, np.ndarray]:
    """The (s^z, k) blocks of the n-site ring: their layout, keyed by block
    number; bond1, bond2, total s^z and K of `_pattern(n)` in that layout's
    buffer, one row each; and the s^z sector (position in the sectors of
    `_ring_plan(n)`) of each level of the layout, in buffer order, which is
    the order in which `_eigh_stacks` lists the eigenvalues.  An orbit of
    length R with smallest state r carries |r, k> = R^-1/2 sum_j e^{-ikj}
    T^j |r> for each k = 2 pi m / n with m R = 0 mod n, whose amplitude on x
    is e^{ik j_x} / sqrt(R), with T^{j_x} x = r.  An operator O that
    commutes with T has <a, k|O|b, k> = sqrt(R_a / R_b) sum_{y in b}
    O[r_a, y] e^{ik j_y}, so the blocks are summed from the pattern's
    nonzeros in the rows of the smallest states, with no dense s^z block."""
    (rep, shift, period), blocks, layout = _momentum_blocks(n)
    dim = rep.size
    pat = _pattern(n)
    row, col = np.divmod(pat.index, dim)
    on_rep = rep[row] == row
    row, col = row[on_rep], col[on_rep]
    values = (np.array([pat.bond1, pat.bond2, pat.sz, pat.k])[:, on_rep]
              * np.sqrt(period[row] / period[col]))
    offset = np.empty(len(blocks), dtype=int)
    for d, members, start in layout.groups:
        offset[members] = start + d * d * np.arange(members.size)
    pos, amps = [], []
    for m in range(n):
        # per smallest state: the buffer position of its row and its
        # position in its block of momentum m, -1 where m is not allowed
        head, local = np.full(dim, -1), np.full(dim, -1)
        for b, (_, mb, reps) in enumerate(blocks):
            if mb == m:
                local[reps] = np.arange(reps.size)
                head[reps] = offset[b] + local[reps] * reps.size
        cols = rep[col]
        on = (head[row] >= 0) & (local[cols] >= 0)
        pos.append(head[row[on]] + local[cols[on]])
        amps.append(values[:, on] * np.exp(2j * np.pi * m * shift[col[on]] / n))
    slots = (layout.size * np.arange(4)[:, None] + np.concatenate(pos)).ravel()
    ops = np.bincount(np.stack([2 * slots, 2 * slots + 1], axis=1).ravel(),
                      np.concatenate(amps, axis=1).ravel().view(float), minlength=8 * layout.size)
    return (layout, ops.view(complex).reshape(4, -1),
            np.array([s for s, _, _ in blocks])[layout.labels])


@lru_cache(maxsize=None)
def _gather_plan(n: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """How the eigenvectors of the (s^z, k) blocks of `_momentum_plan(n)`
    fill the s^z blocks of `_ring_plan(n)`.  Each sector lists its levels
    block after block, in the order of `_momentum_blocks`.  Every basis
    state x lies in one orbit, so in a level of the block (v, k) its
    amplitude is e^{ik j_x} / sqrt(R_x) times the amplitude on the orbit's
    smallest state, and none where k does not fit the orbit.  Returns the
    stack position in the momentum layout (the order in which
    `_eigh_stacks` lists the eigenvalues) of each level of the ring layout,
    in buffer order; its inverse; and, per group of the momentum layout and
    for every pair of a state x and a block of the group whose k fits x's
    orbit: the row of the group's (m d, d) stack of eigenvectors that holds
    the orbit's smallest state, that factor, and the buffer position of x's
    row in the ring layout at the block's first level.  These are
    O(n 2^n) numbers; the ring buffer itself is O(4^n / sqrt(n))."""
    (rep, shift, period), blocks, layout = _momentum_blocks(n)
    ring = _ring_plan(n)[0]
    # the blocks come sector after sector in the ring's order, so a stable
    # sort of the momentum levels by block gives the ring's level order
    order = np.argsort(layout.labels, kind="stable")
    column, filled = [], {}         # each block's first column in its sector
    for s, _, reps in blocks:
        column.append(filled.get(s, 0))
        filled[s] = column[-1] + reps.size
    head = _placement(ring)[1]
    groups = []
    for d, members, _ in layout.groups:
        rows, factors, heads = [], [], []
        for j, b in enumerate(members):
            s, m, reps = blocks[b]
            basis = ring.sectors[s][1]
            x = basis[m * period[basis] % n == 0]
            rows.append(j * d + np.searchsorted(reps, rep[x]))
            factors.append(np.exp(2j * np.pi * m * shift[x] / n) / np.sqrt(period[x]))
            heads.append(head[x] + column[b])
        groups.append((np.concatenate(rows), np.concatenate(factors), np.concatenate(heads)))
    return order, np.argsort(order), tuple(groups)


def _momentum_spectra(n: int, solved) -> list[tuple[Spectrum, np.ndarray]]:
    """Per field of `solved`, the (s^z, k) blocks of the n-site ring as
    `_eigh_stacks` returns them: its Spectrum on the ring layout, and the
    index in it of the level at every stack position of the momentum
    layout.  The eigenvectors of all fields are gathered in one pass per
    group of the momentum layout (see `_gather_plan`)."""
    ring = _ring_plan(n)[0]
    order, place, groups = _gather_plan(n)
    c = solved[0][0].shape[0]
    energies = np.concatenate([ev.reshape(c, -1) for ev, _ in solved], axis=1)[:, order]
    vectors = np.zeros((c, ring.size), dtype=complex)
    for (_, vec), (rows, factors, heads) in zip(solved, groups):
        d = vec.shape[-1]
        amps = np.take(vec.reshape(c, -1, d), rows, axis=1)
        amps *= factors[:, None]
        vectors[:, (heads[:, None] + np.arange(d)).ravel()] = amps.reshape(c, -1)
    out = []
    for e, v in zip(energies, vectors):
        spec = _spectrum(ring, e, v)
        out.append((spec, spec.levels[place]))
    return out


class LevelMapCounts:
    """Work of level maps: fields solved, steps bisected, exact crossings
    followed, and the worst in-block overlap |<k(a)|k(b)>| of a step taken
    (levels degenerate at both ends left out)."""

    def __init__(self):
        self.fields = self.bisections = self.crossings = 0
        self.worst_overlap = 1.0

    def add(self, other: "LevelMapCounts") -> None:
        self.fields += other.fields
        self.bisections += other.bisections
        self.crossings += other.crossings
        self.worst_overlap = min(self.worst_overlap, other.worst_overlap)


COUNTS = LevelMapCounts()   # every level map of this process


def _degenerate(ev: np.ndarray) -> np.ndarray:
    """The levels (eigenvalues ascending on the last axis) with a neighbour
    closer than DEGENERATE max(1, |E|)."""
    close = np.diff(ev, axis=-1) < DEGENERATE * np.maximum(1.0, np.abs(ev[..., 1:]))
    mask = np.zeros(ev.shape, dtype=bool)
    mask[..., 1:] = close
    mask[..., :-1] |= close
    return mask


def _kept(sa, sb) -> list[np.ndarray]:
    """Per block size, the in-block overlap |<k(a)|k(b)>| of every level
    from the solves `sa` to those of `sb` (outputs of `_eigh_stacks`, one
    step per entry of the leading axis), 1 for levels degenerate at both
    ends: any rotation inside a degenerate cluster is irrelevant."""
    return [np.where(_degenerate(ea) & _degenerate(eb), 1.0,
                     np.abs(np.einsum("...ji,...ji->...i", va.conj(), vb)))
            for (ea, va), (eb, vb) in zip(sa, sb)]


class _Walk:
    """The solves, steps and counts of one level map of the ring of
    `params`.  A step gives the stack position at its end of every stack
    position at its start, or None where every level keeps its rank."""

    def __init__(self, params: ChainParams):
        self.params, self.plan, self.counts = params, _momentum_plan(params.n), LevelMapCounts()

    def solve(self, fields) -> list:
        """The momentum blocks at every field, as `_eigh_stacks` returns them."""
        fields = np.asarray(fields, dtype=float)
        p, (layout, ops, _) = self.params, self.plan
        buf = np.array([-p.j1, -p.j2, -p.b]) @ ops[:3] - fields[:, None] * ops[3]
        self.counts.fields += fields.size
        return _eigh_stacks(layout, buf)

    def step(self, a: float, sa, b: float, sb, factor: int = 1) -> np.ndarray | None:
        """The step from field a to field b, solved as `sa` and `sb`,
        bisected until each of its parts can be taken."""
        taken, moves = self.take(sa, sb)
        if taken:
            return moves
        if factor >= MAX_REFINEMENT:
            raise ContinuationError(f"ambiguous level matching near e_field={b:g} "
                                    "at maximum refinement")
        self.counts.bisections += 1
        mid = 0.5 * (a + b)
        sm = self.solve([mid])
        left, right = self.step(a, sa, mid, sm, 2 * factor), self.step(mid, sm, b, sb, 2 * factor)
        return left if right is None else right if left is None else right[left]

    def take(self, sa, sb) -> tuple[bool, np.ndarray | None]:
        """Whether a step can be taken, and its moves.  Rank holds in a
        block when every in-block overlap |<k(a)|k(b)>|^2 is above 1/2.
        Elsewhere the step must cross exactly: the largest overlaps pick a
        permutation of the block's levels, every pair of levels that it
        swaps is degenerate at one end of the step, and the levels follow
        the overlaps."""
        moves, crossed, first, worst = None, 0, 0, 1.0
        for (ea, va), (eb, vb), kept in zip(sa, sb, _kept(sa, sb)):
            count, d = ea.shape[1:]
            for j in np.flatnonzero(np.any(kept[0] ** 2 <= 0.5, axis=-1)):
                e0, e1 = ea[0, j], eb[0, j]
                overlap = np.abs(va[0, j].conj().T @ vb[0, j])
                # levels degenerate at both ends, kept at exactly 1, keep their rank
                follow = np.where(kept[0, j] == 1.0, np.arange(d), overlap.argmax(axis=1))
                pairs = [(x, y) for x in range(d) for y in range(x + 1, d) if follow[x] > follow[y]]
                if not pairs or len(set(follow.tolist())) < d or any(
                        min(e0[y] - e0[x], e1[follow[x]] - e1[follow[y]])
                        >= DEGENERATE * max(1.0, abs(e0[y]), abs(e1[follow[x]]))
                        for x, y in pairs):
                    return False, None
                moves = np.arange(self.plan[0].labels.size) if moves is None else moves
                pos = first + j * d + np.arange(d)
                moves[pos] = pos[follow]
                kept[0, j] = overlap[np.arange(d), follow]
                crossed += 1
            first += count * d
            worst = min(worst, kept.min(initial=1.0))
        self.counts.crossings += crossed
        self.counts.worst_overlap = min(self.counts.worst_overlap, worst)
        return True, moves


def _per_stack(layout) -> int:
    """The complex buffers on `layout` that fit in STACK_BYTES, at least one."""
    return max(1, STACK_BYTES // (16 * layout.size))


def _level_maps(params: ChainParams, fields):
    """The level maps from fields[0] to each of `fields`, in order, each
    with the spectra at fields[0] and at its field.  The distinct fields are
    walked in the given order and solved a stack of at most STACK_BYTES at a
    time, in (s^z, k) blocks, which give both the walk and the spectra; a
    field equal to the one before it is not solved again.  When the walk
    runs to its end, fails or is closed, its counts are added to COUNTS and
    logged at DEBUG level."""
    fields = np.asarray(fields, dtype=float)
    new = np.flatnonzero(np.r_[True, np.diff(fields) != 0])
    repeats, distinct = np.diff(np.r_[new, fields.size]), fields[new]
    per_stack = _per_stack(_ring_plan(params.n)[0])
    walk = _Walk(params)
    try:
        last = None         # the field before a stack and its momentum blocks
        for first in range(0, distinct.size, per_stack):
            chunk = distinct[first:first + per_stack]
            solved = walk.solve(chunk)
            specs = _momentum_spectra(params.n, solved)
            kept = _kept([(ev[:-1], vec[:-1]) for ev, vec in solved],
                         [(ev[1:], vec[1:]) for ev, vec in solved])
            worst = np.min([k.min(axis=(1, 2)) for k in kept], axis=0, initial=1.0)
            for i, (e, (spec, index)) in enumerate(zip(chunk, specs)):
                at = [(ev[i:i + 1], vec[i:i + 1]) for ev, vec in solved]
                if i > 0 and worst[i - 1] ** 2 > 0.5:
                    walk.counts.worst_overlap = min(walk.counts.worst_overlap, float(worst[i - 1]))
                elif last is not None:
                    move = walk.step(*last, e, at)
                    track = track if move is None else move[track]
                if last is None:
                    origin, start, track = spec, index, np.arange(index.size)
                perm = np.empty(index.size, dtype=int)
                perm[start] = index[track]
                for _ in range(repeats[first + i]):
                    yield LevelMap(perm, float(fields[0]), float(e), spec, origin)
                last = e, at
            last = e, [(ev.copy(), vec.copy()) for ev, vec in at]
    finally:
        c = walk.counts
        COUNTS.add(c)
        log.debug("level map from e_field=%g over %d fields: %d fields solved, %d bisections, "
                  "%d exact crossings, worst in-block overlap %.6f", fields[0], fields.size,
                  c.fields, c.bisections, c.crossings, c.worst_overlap)


def continue_levels(params: ChainParams, e_from: float, e_to: float) -> LevelMap:
    """The level map from e_field=e_from to e_field=e_to, which carries the
    spectra at both fields; see the module docstring."""
    if not (np.isfinite(e_from) and np.isfinite(e_to)):
        raise ValueError(f"fields must be finite, got {e_from} and {e_to}")
    return list(_level_maps(params, [e_from, e_to]))[-1]
