"""Dense operators for a periodic frustrated spin-1/2 ring in a magnetic and
an electric field.

Spins are Pauli matrices (eigenvalues +-1), not S=1/2 operators.  The ring
Hamiltonian is

    H = -j1 * sum_i s_i.s_{i+1} - j2 * sum_i s_i.s_{i+2}
        - b * sum_i s^z_i - e_field * K,

with K = sum_i (s_i x s_{i+1})^z the z component of the vector chirality.
All couplings are dimensionless (energies in units of the exchange constant,
k_B = 1).  Site 0 is the most significant bit of the basis index and bit
value 0 means spin up (s^z = +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

N_MIN = 2
N_MAX = 12  # n=12 peaks at 2.2 GB; n=13 needs 4.3 GB for its cached operators


class ParameterError(ValueError):
    """Invalid chain configuration (site count or couplings)."""


@dataclass(frozen=True)
class ChainParams:
    """Physical configuration of the ring.

    j1 > 0 is the ferromagnetic nearest-neighbour exchange, j2 < 0 the
    antiferromagnetic next-nearest one; the default convention is
    j1 = -j2 = 1.  `b` is the magnetic field and `e_field` the electric
    coupling (field amplitude times the magnetoelectric constant), both in
    units of the exchange.  Boundaries are periodic.
    """

    n: int
    j1: float = 1.0
    j2: float = -1.0
    b: float = 0.0
    e_field: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ParameterError(f"site count must be an integer, got {self.n!r}")
        if not N_MIN <= self.n <= N_MAX:
            raise ParameterError(f"site count {self.n} outside [{N_MIN}, {N_MAX}]")
        for name in ("j1", "j2", "b", "e_field"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ParameterError(f"coupling {name}={v} is not finite")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def replace(self, **kwargs) -> "ChainParams":
        fields = {k: getattr(self, k) for k in ("n", "j1", "j2", "b", "e_field")}
        fields.update(kwargs)
        return ChainParams(**fields)


def _check_n(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not N_MIN <= n <= N_MAX:
        raise ParameterError(f"site count {n!r} outside [{N_MIN}, {N_MAX}]")


def _kron_chain(ops) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def two_site_operator(op_a: np.ndarray, site_a: int, op_b: np.ndarray,
                      site_b: int, n: int) -> np.ndarray:
    """op_a at site_a and op_b at site_b, identity elsewhere."""
    ops = [IDENTITY_2] * n
    ops[site_a] = op_a
    ops[site_b] = op_b
    return _kron_chain(ops)


def single_site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    ops = [IDENTITY_2] * n
    ops[site] = op
    return _kron_chain(ops)


@lru_cache(maxsize=32)
def _exchange_bond_sum(n: int, offset: int) -> np.ndarray:
    """sum_i s_i.s_{i+offset} over the periodic ring (literal sum, so the
    n=2 ring double-counts its bond and n=offset couples a site to itself)."""
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        j = (i + offset) % n
        for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            if i == j:
                out += single_site_operator(s @ s, i, n)
            else:
                out += two_site_operator(s, i, s, j, n)
    return out


@lru_cache(maxsize=32)
def _total_sz_cached(n: int) -> np.ndarray:
    dim = 2 ** n
    diag = np.zeros(dim)
    for i in range(n):
        bit = 1 << (n - 1 - i)
        for idx in range(dim):
            diag[idx] += 1.0 if not idx & bit else -1.0
    return np.diag(diag.astype(complex))


@lru_cache(maxsize=32)
def _chirality_cached(n: int) -> np.ndarray:
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        j = (i + 1) % n
        out += two_site_operator(SIGMA_X, i, SIGMA_Y, j, n)
        out -= two_site_operator(SIGMA_Y, i, SIGMA_X, j, n)
    return out


def build_total_sz(n: int) -> np.ndarray:
    """Diagonal matrix of total-s^z eigenvalues; conserved by H and K."""
    _check_n(n)
    return _total_sz_cached(n).copy()


def build_chirality_operator(n: int) -> np.ndarray:
    """K = sum_i (s^x_i s^y_{i+1} - s^y_i s^x_{i+1}), periodic.

    Hermitian, traceless and purely imaginary in the computational basis.
    """
    _check_n(n)
    return _chirality_cached(n).copy()


def build_hamiltonian(params: ChainParams) -> np.ndarray:
    """Dense ring Hamiltonian; satisfies H(e) = H(e=0) - e*K exactly."""
    h = -params.j1 * _exchange_bond_sum(params.n, 1)
    h = h - params.j2 * _exchange_bond_sum(params.n, 2)
    h = h - params.b * _total_sz_cached(params.n)
    if params.e_field != 0.0:
        h = h - params.e_field * _chirality_cached(params.n)
    return h
