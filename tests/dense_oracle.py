"""Dense forms of the sector-blocked results, for the tests' oracles."""

import numpy as np

from ottochain.spectra import _stacks


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
