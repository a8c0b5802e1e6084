"""The one-state partial trace, Wootters concurrence and tangles that the
stacked `correlations` helpers replaced, kept as the tests' oracle."""

import numpy as np

from ottochain.correlations import _ring_distance_pairs, _trace_plan

# s^y (x) s^y, the spin flip of the Wootters tilde
YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


def partial_trace(rho, keep) -> np.ndarray:
    """The reduced matrix on `keep` of a DensityMatrix, one gather from its
    buffer and one bincount."""
    pos, slots = _trace_plan(rho.layout, tuple(keep))
    d = 2 ** len(keep)
    reduced = np.bincount(slots, rho.buffer[pos].view(float), minlength=2 * d * d)
    return reduced.view(complex).reshape(d, d)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    ev, vec = np.linalg.eigh(m)
    ev = np.clip(ev, 0.0, None)
    return (vec * np.sqrt(ev)) @ vec.conj().T


def concurrence(r: np.ndarray) -> float:
    """Wootters concurrence of a 4 x 4 two-qubit matrix: the singular
    values of sqrt(rho) sqrt(rho~), two eigensolves and one SVD."""
    r_tilde = YY @ r.conj() @ YY
    lam = np.sort(np.linalg.svd(sqrt_psd(r) @ sqrt_psd(r_tilde), compute_uv=False))
    return float(max(0.0, 2 * lam[-1] - lam.sum()))


def two_tangle(rho, n: int) -> float:
    total = 0.0
    for r, mult in _ring_distance_pairs(n):
        c = concurrence(partial_trace(rho, [0, r]))
        total += mult * c * c
    return total


def one_tangle(rho) -> float:
    return float(4.0 * np.real(np.linalg.det(partial_trace(rho, [0]))))
