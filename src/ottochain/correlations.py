"""Thermal density matrices, kept as s^z blocks, partial traces, Wootters
concurrence, one- and two-tangle, chirality expectation, and the
threshold-temperature search.

The two-tangle aggregates squared pair concurrences of one site with every
other site of the ring; on four sites this is 2*C(r=1)^2 + C(r=2)^2.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import ChainParams, _pattern
from .spectra import (_Layout, _blocks, _layout, _pattern_positions, _placement,
                      _spectral_sum, diagonalize_params)
from .thermal import GibbsState, gibbs

TAU2_ZERO = 1e-12

# s^y (x) s^y, the spin flip of the Wootters tilde
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
               dtype=complex)


class DensityMatrixError(ValueError):
    """Wrong dimension or an invalid site selection."""


class NoThresholdError(RuntimeError):
    """The bracketing precondition of the threshold search failed."""


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over the listed chain sites.

    It is kept as square blocks on disjoint sets of basis states, back to
    back in the flat `buffer` of its `spectra._Layout`, and is zero outside
    its blocks.  A thermal ring state has one block per s^z sector, on the
    layout of its spectrum; a matrix given densely, as
    `DensityMatrix(entries, site_labels)`, is one block over the whole
    basis.  `entries` assembles the dense matrix on demand.
    """

    __slots__ = ("buffer", "layout", "site_labels")

    def __init__(self, entries, site_labels):
        entries = np.asarray(entries, dtype=complex)
        labels = tuple(site_labels)
        dim = 2 ** len(labels)
        if entries.shape != (dim, dim):
            raise DensityMatrixError(f"a matrix over {len(labels)} sites must be "
                                     f"{dim} x {dim}, got shape {entries.shape}")
        self.buffer = entries.reshape(-1)
        self.layout = _single_block(len(labels))
        self.site_labels = labels

    @classmethod
    def _of_blocks(cls, buffer: np.ndarray, layout: _Layout, site_labels) -> "DensityMatrix":
        rho = cls.__new__(cls)
        rho.buffer, rho.layout, rho.site_labels = buffer, layout, tuple(site_labels)
        return rho

    def __repr__(self) -> str:
        return (f"DensityMatrix(<{len(self.layout.sectors)} blocks, {self.buffer.size} "
                f"entries>, site_labels={self.site_labels})")

    @property
    def dim(self) -> int:
        return 2 ** self.n_sites

    @property
    def n_sites(self) -> int:
        return len(self.site_labels)

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, assembled from the blocks."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for _, basis, block in _blocks(self.layout, self.buffer):
            out[basis[:, None], basis] = block
        return out


@lru_cache(maxsize=None)
def _single_block(n: int) -> _Layout:
    return _layout({0: np.arange(2 ** n)})


def density_matrix(g: GibbsState) -> DensityMatrix:
    """rho = sum_n P_n |psi_n><psi_n| from the Gibbs populations.  Every
    level lies in one s^z sector, so rho is written on the spectrum's
    layout, rho[s, s] = V_s diag(P_s) V_s^dagger."""
    spec = g.spectrum
    return DensityMatrix._of_blocks(_spectral_sum(spec, g.populations), spec.layout,
                                    range(spec.dim.bit_length() - 1))


@lru_cache(maxsize=32)
def _trace_plan(layout: _Layout, keep: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The partial trace onto `keep` of a matrix on `layout`: the buffer
    positions whose two states agree outside `keep`, and the slots of the
    real and imaginary part of each position's entry in the flat reduced
    matrix viewed as floats.  Built from each state's 2^m partners,
    m = len(keep), so its size grows as 2^m."""
    offset, head, local = _placement(layout)
    n = layout.labels.size.bit_length() - 1
    m = len(keep)
    shifts = n - 1 - np.array(keep)         # site 0 is the most significant bit
    weights = 1 << np.arange(m - 1, -1, -1)
    x = np.arange(2 ** n)
    reduced = ((x[:, None] >> shifts) & 1) @ weights
    v = np.arange(2 ** m)
    partner = (x[:, None] & ~np.sum(1 << shifts)) | (((v[:, None] // weights) & 1) @ (1 << shifts))
    xs, vs = np.nonzero(offset[partner] == offset[:, None])
    slot = reduced[xs] * 2 ** m + vs
    return head[xs] + local[partner[xs, vs]], np.stack([2 * slot, 2 * slot + 1], axis=1).ravel()


def _reduced(buffers: np.ndarray, layout: _Layout, keep: tuple) -> np.ndarray:
    """The reduced matrices on `keep` of F matrices on `layout`, given as
    their buffers (F, layout.size): (F, d, d) with d = 2^len(keep), from
    one gather and one bincount.  One buffer (layout.size,) gives one
    (d, d) matrix."""
    pos, slots = _trace_plan(layout, keep)
    d = 2 ** len(keep)
    shape = buffers.shape[:-1] + (d, d)
    if buffers.ndim == 2:
        first = np.arange(len(buffers))[:, None]
        pos = (pos + layout.size * first).ravel()
        slots = (slots + 2 * d * d * first).ravel()
        buffers = buffers.reshape(-1)
    # the last slot, the imaginary part of the last diagonal entry, is in the plan
    return np.bincount(slots, buffers[pos].view(float)).view(complex).reshape(shape)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on `keep`, tracing out the remaining sites:
    one gather from the buffer and one bincount.  Keeping every site in
    order returns rho itself."""
    keep = tuple(keep)
    n = rho.n_sites
    if not keep:
        raise DensityMatrixError("keep list must be nonempty")
    if len(set(keep)) != len(keep):
        raise DensityMatrixError(f"duplicate sites in keep list {list(keep)}")
    if any(not 0 <= s < n for s in keep):
        raise DensityMatrixError(f"sites {list(keep)} out of range for {n} sites")
    if keep == tuple(range(n)):
        return rho
    return DensityMatrix._of_blocks(_reduced(rho.buffer, rho.layout, keep).reshape(-1),
                                    _single_block(len(keep)),
                                    (rho.site_labels[s] for s in keep))


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """The PSD square root of a Hermitian matrix or of each of a stack."""
    ev, vec = np.linalg.eigh(m)
    ev = np.clip(ev, 0.0, None)
    return (vec * np.sqrt(ev)[..., None, :]) @ np.swapaxes(vec.conj(), -1, -2)


def _concurrences(r: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each two-qubit state of an (m, 4, 4) stack:
    one eigensolve over the 2m matrices rho and rho~, one SVD over the m
    products of their square roots."""
    m = len(r)
    roots = _sqrt_psd(np.concatenate([r, _YY @ r.conj() @ _YY]))
    lam = np.sort(np.linalg.svd(roots[:m] @ roots[m:], compute_uv=False), axis=1)
    c = 2 * lam[:, -1] - lam.sum(axis=1)
    return np.where(c > 0.0, c, 0.0)


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
    return float(_concurrences(rho_pair.entries[None])[0])


def _ring_distance_pairs(n: int):
    """(distance, multiplicity) of the pairs of one site with every other."""
    out = []
    for r in range(1, n // 2 + 1):
        mult = 1 if (n % 2 == 0 and r == n // 2) else 2
        out.append((r, mult))
    return out


def _pair_concurrences(buffers: np.ndarray, layout: _Layout, n: int) -> np.ndarray:
    """C(0, r) of the n-site matrices of `buffers` on `layout` (as in
    `_reduced`) at every ring distance r of `_ring_distance_pairs(n)`, on a
    last axis over the distances, from one stacked Wootters pass."""
    pairs = [_reduced(buffers, layout, (0, r)) for r, _ in _ring_distance_pairs(n)]
    shape = (*buffers.shape[:-1], len(pairs))
    if not pairs:
        return np.zeros(shape)
    return _concurrences(np.stack(pairs, axis=-3).reshape(-1, 4, 4)).reshape(shape)


def _two_tangles(cs: np.ndarray, n: int) -> np.ndarray:
    """tau_2 = sum_r m_r C(r)^2 of each row of `_pair_concurrences`."""
    total = np.zeros(cs.shape[:-1])
    for j, (_, mult) in enumerate(_ring_distance_pairs(n)):
        total += mult * cs[..., j] * cs[..., j]
    return total


def _one_tangles(buffers: np.ndarray, layout: _Layout) -> np.ndarray:
    """tau_1 = 4 det rho_1 of the matrices of `buffers` on `layout` (as in
    `_reduced`), rho_1 the reduced matrix of site 0."""
    return 4.0 * np.real(np.linalg.det(_reduced(buffers, layout, (0,))))


def two_tangle(rho: DensityMatrix, n: int) -> float:
    """tau_2 = sum_r m_r C(r)^2 over ring distances r of site 0.

    m_r = 2 except for the antipodal distance of an even ring; translation
    invariance of the thermal state makes C(r) site-independent.  `n` must
    be the number of sites of rho.
    """
    if n != rho.n_sites:
        raise DensityMatrixError(
            f"two_tangle got n={n} for a matrix over {rho.n_sites} sites")
    return float(_two_tangles(_pair_concurrences(rho.buffer, rho.layout, n), n))


def one_tangle(rho: DensityMatrix) -> float:
    """tau_1 = 4 det rho_1 for the single-site reduced matrix of site 0."""
    return float(_one_tangles(rho.buffer, rho.layout))


def chirality_expectation(rho: DensityMatrix, k: np.ndarray | None = None) -> float:
    """tr(rho K) = sum_ij conj(K_ij) rho_ij for Hermitian K, the thermal
    z-component of the vector chirality, without forming the matrix
    product.  Without k, the sum runs over the nonzeros of the ring's K in
    its operator pattern, with no dense K.  A dense k is read only inside
    rho's blocks, outside which rho vanishes."""
    if k is None:
        return float(np.real(np.vdot(_pattern(rho.n_sites).k,
                                     rho.buffer[_pattern_positions(rho.layout)])))
    k = np.asarray(k)
    return float(np.real(sum(np.vdot(k[basis[:, None], basis], block)
                             for _, basis, block in _blocks(rho.layout, rho.buffer))))


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
