"""The overlap-following level continuation that `spectra.continue_levels`
replaced, kept as the tests' oracle.

Levels are tracked across field values by composing per-step eigenvector
overlap matchings inside each s^z sector, over a fixed grid of
DEFAULT_STEPS_PER_UNIT steps per unit field, solved and matched a chunk of
consecutive fields at a time; a step whose worst matched overlap falls
below OVERLAP_THRESHOLD is bisected, down to MAX_REFINEMENT substeps.  The
fields are solved through `spectra._solve_fields`, looked up on the module
at every call, so a test can count them.
"""

from __future__ import annotations

import numpy as np

from ottochain import spectra
from ottochain.model import ChainParams
from ottochain.spectra import (ContinuationError, LevelMap, Spectrum, _Layout,
                               _ring_plan, _spectrum, diagonalize_params)

OVERLAP_THRESHOLD = 0.7
MAX_REFINEMENT = 2 ** 10
DEFAULT_STEPS_PER_UNIT = 64
# continue_levels solves the fields of its grid in chunks whose block
# buffers fill at most this many bytes (8 fields at n=6, 1 from n=8): this
# bounds its memory and the work a continuation that fails early wastes
CHUNK_BYTES = 2 ** 17


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
    """
    if steps is None:
        steps = max(1, int(np.ceil(DEFAULT_STEPS_PER_UNIT * abs(e_to - e_from))))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dim = 2 ** params.n
    if start is None:
        start = diagonalize_params(params.replace(e_field=float(e_from)))
    if e_from == e_to:
        return LevelMap(np.arange(dim), e_from, e_to, start)

    grid = np.linspace(e_from, e_to, steps + 1)
    layout = _ring_plan(params.n)[0]
    chunk = max(1, CHUNK_BYTES // (16 * layout.size))  # complex entries
    prev = _stacked(layout, (start,))
    track = np.arange(dim)
    for first in range(1, steps + 1, chunk):
        fields = grid[first:first + chunk]
        span = _join(prev, spectra._solve_fields(params, fields))
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
    """The step from the field a, solved as `solved_a`, to the field b: the
    blocks solved at b and the position at b of every level.  A step whose
    worst overlap falls below OVERLAP_THRESHOLD is bisected."""
    solved_b = spectra._solve_fields(params, [b])
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
