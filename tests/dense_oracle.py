"""Dense forms of the sector-blocked results, for the tests' oracles."""

import numpy as np

from ottochain.model import _pattern
from ottochain.spectra import _blocks, _layout, _ring_plan, _stacks


def sector_blocks(spec):
    """(basis states, level indices, eigenvector block) of every s^z sector
    of a Spectrum; column j of the block is level levels[j] on the basis."""
    for (_, members, _), (levels, vectors) in zip(spec.layout.groups, _stacks(spec)):
        for s, lv, v in zip(members, levels, vectors):
            yield spec.layout.sectors[s][1], lv, v


def dense_states(spec) -> np.ndarray:
    """The 2^n x 2^n matrix of the eigenvector columns of a Spectrum,
    assembled from its sector blocks."""
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for basis, levels, vectors in sector_blocks(spec):
        out[np.ix_(basis, levels)] = vectors
    return out


def dense_momentum_plan(n):
    """`spectra._momentum_plan(n)` built from the dense s^z blocks of the
    ring operators, each rotated by the dense momentum basis
    u[x, r] = e^{ik j_x} / sqrt(R) of every (s^z, k) block: u^dagger O u."""
    x = np.arange(2 ** n)
    images = np.array([((x >> j) | (x << (n - j))) & (x.size - 1) for j in range(n)])
    rep, shift = images.min(axis=0), images.argmin(axis=0)
    period = np.argmax(np.vstack([images[1:], images[:1]]) == x, axis=0) + 1
    pat = _pattern(n)
    ring, target = _ring_plan(n)
    ops = np.zeros((4, ring.size), dtype=complex)
    ops[:, target] = pat.bond1, pat.bond2, pat.sz, pat.k
    blocks = []
    for per_op in zip(*(_blocks(ring, op) for op in ops)):
        s, basis, _ = per_op[0]
        for m in range(n):
            reps = basis[(m * period[basis] % n == 0) & (rep[basis] == basis)]
            u = (rep[basis][:, None] == reps) * (np.exp(2j * np.pi * m * shift[basis] / n)
                                                  / np.sqrt(period[basis]))[:, None]
            if reps.size:
                blocks.append((s, [u.conj().T @ op @ u for _, _, op in per_op]))
    layout = _layout({b: np.arange(len(block[0])) for b, (_, block) in enumerate(blocks)})
    buf = np.concatenate([np.stack([blocks[b][1] for b in members], axis=1).reshape(4, -1)
                          for _, members, _ in layout.groups], axis=1)
    return layout, buf, np.array([s for s, _ in blocks])[layout.labels]
