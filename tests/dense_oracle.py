"""Dense forms of the sector-blocked results, for the tests' oracles."""

import numpy as np


def dense_states(spec) -> np.ndarray:
    """The 2^n x 2^n matrix of the eigenvector columns of a Spectrum,
    assembled from its sector blocks."""
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for s in spec.sectors:
        out[np.ix_(s.basis, s.levels)] = s.vectors
    return out
