"""Thermal density matrices, partial traces, Wootters concurrence, one- and
two-tangle, chirality expectation, and the threshold-temperature search.

The two-tangle aggregates squared pair concurrences of one site with every
other site of the ring; on four sites this is 2*C(r=1)^2 + C(r=2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ChainParams, _pattern
from .spectra import diagonalize_params
from .thermal import GibbsState, gibbs

TAU2_ZERO = 1e-12

# s^y (x) s^y, the spin flip of the Wootters tilde
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
               dtype=complex)


class DensityMatrixError(ValueError):
    """Wrong dimension or an invalid site selection."""


class NoThresholdError(RuntimeError):
    """The bracketing precondition of the threshold search failed."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over the listed chain sites."""

    entries: np.ndarray
    site_labels: tuple = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.site_labels)


def density_matrix(g: GibbsState) -> DensityMatrix:
    """rho = sum_n P_n |psi_n><psi_n| from the Gibbs populations.  Every
    level lies in one s^z sector, so rho is filled block by block,
    rho[s, s] = V_s diag(P_s) V_s^dagger."""
    dim = g.spectrum.dim
    rho = np.zeros((dim, dim), dtype=complex)
    for s in g.spectrum.sectors:
        v = s.vectors
        rho[np.ix_(s.basis, s.basis)] = (v * g.populations[s.levels]) @ v.conj().T
    return DensityMatrix(rho, tuple(range(dim.bit_length() - 1)))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on `keep`, tracing out the remaining sites."""
    keep = list(keep)
    n = rho.n_sites
    if not keep:
        raise DensityMatrixError("keep list must be nonempty")
    if len(set(keep)) != len(keep):
        raise DensityMatrixError(f"duplicate sites in keep list {keep}")
    if any(not 0 <= s < n for s in keep):
        raise DensityMatrixError(f"sites {keep} out of range for {n} sites")
    dims = [2] * n
    tensor = rho.entries.reshape(dims + dims)
    idx = list(range(2 * n))
    for site in range(n):
        if site not in keep:
            idx[n + site] = idx[site]
    out_idx = [idx[s] for s in keep] + [idx[n + s] for s in keep]
    reduced = np.einsum(tensor, idx, out_idx)
    d = 2 ** len(keep)
    return DensityMatrix(reduced.reshape(d, d),
                         tuple(rho.site_labels[s] for s in keep))


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    ev, vec = np.linalg.eigh(m)
    ev = np.clip(ev, 0.0, None)
    return (vec * np.sqrt(ev)) @ vec.conj().T


def concurrence(rho_pair: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state.

    C = max(0, sqrt(r1) - sqrt(r2) - sqrt(r3) - sqrt(r4)) with r_k the
    eigenvalues of rho (sy x sy) rho* (sy x sy).  The sqrt(r_k) are taken
    through the Hermitian equivalent sqrt(rho) rho~ sqrt(rho): they are the
    singular values of sqrt(rho) sqrt(rho~), which stays accurate when
    eigenvalues sit at the round-off floor.
    """
    if rho_pair.dim != 4:
        raise DensityMatrixError("concurrence needs a 4x4 two-site matrix")
    r = rho_pair.entries
    r_tilde = _YY @ r.conj() @ _YY
    lam = np.sort(np.linalg.svd(_sqrt_psd(r) @ _sqrt_psd(r_tilde),
                                compute_uv=False))
    return float(max(0.0, 2 * lam[-1] - lam.sum()))


def _ring_distance_pairs(n: int):
    """(distance, multiplicity) of the pairs of one site with every other."""
    out = []
    for r in range(1, n // 2 + 1):
        mult = 1 if (n % 2 == 0 and r == n // 2) else 2
        out.append((r, mult))
    return out


def two_tangle(rho: DensityMatrix, n: int) -> float:
    """tau_2 = sum_r m_r C(r)^2 over ring distances r of site 0.

    m_r = 2 except for the antipodal distance of an even ring; translation
    invariance of the thermal state makes C(r) site-independent.
    """
    total = 0.0
    for r, mult in _ring_distance_pairs(n):
        c = concurrence(partial_trace(rho, [0, r]))
        total += mult * c * c
    return total


def one_tangle(rho: DensityMatrix) -> float:
    """tau_1 = 4 det rho_1 for the single-site reduced matrix of site 0."""
    r1 = partial_trace(rho, [0])
    return float(4.0 * np.real(np.linalg.det(r1.entries)))


def chirality_expectation(rho: DensityMatrix, k: np.ndarray | None = None) -> float:
    """tr(rho K) = sum_ij conj(K_ij) rho_ij for Hermitian K, the thermal
    z-component of the vector chirality, without forming the matrix
    product.  Without k, the sum runs over the nonzeros of the ring's K in
    its operator pattern, with no dense K."""
    if k is None:
        pat = _pattern(rho.dim.bit_length() - 1)
        return float(np.real(np.vdot(pat.k, rho.entries.reshape(-1)[pat.index])))
    return float(np.real(np.vdot(k, rho.entries)))


def threshold_temperature(params: ChainParams, t_lo: float, t_hi: float) -> float:
    """Bisection root of tau_2(T) -> 0+ between t_lo and t_hi, to 1e-3 in T,
    on one spectrum of the ring.

    Requires tau_2(t_lo) > 0 and tau_2(t_hi) = 0 (tau_2 < 1e-12 counts as
    zero); raises NoThresholdError otherwise.
    """
    lo, hi = float(t_lo), float(t_hi)
    if not lo < hi:
        raise NoThresholdError(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    spec = diagonalize_params(params)

    def entangled(t):
        return two_tangle(density_matrix(gibbs(spec, t)), params.n) > TAU2_ZERO

    if not entangled(lo):
        raise NoThresholdError(f"tau_2 already vanishes at t_lo={t_lo}")
    if entangled(hi):
        raise NoThresholdError(f"tau_2 still positive at t_hi={t_hi}")
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if entangled(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
