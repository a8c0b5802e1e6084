"""Operators of a periodic frustrated spin-1/2 ring in a magnetic and an
electric field, from bit operations on the basis index; only each ring
size's O(n 2^n) nonzero pattern is cached.  The spectra assemble their
s^z blocks straight from that pattern; the dense `build_*` functions here
serve the validation suite and the tests.

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

import dataclasses
from functools import lru_cache
from typing import NamedTuple

import numpy as np

N_MIN = 2
# n=12, in a fresh process (2-vCPU guest, one BLAS thread): a spectrum
# takes 1.9-2.1 s and peaks at 132 MB, one chi_E at 205 MB, neither with a
# dense operator; `ottochain tangles --n 12 --t 10`, whose density matrix
# is kept as s^z blocks, peaks at 150 MB (376 MB with the dense one it
# replaced).  One dense 2^n x 2^n complex array is 268 MB there and 4x that
# at n=13, which was not run
N_MAX = 12


class ParameterError(ValueError):
    """Invalid chain configuration (site count or couplings)."""


@dataclasses.dataclass(frozen=True)
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
        return dataclasses.replace(self, **kwargs)


class _Pattern(NamedTuple):
    """Every nonzero of the ring operators of one size, O(n 2^n) numbers."""

    index: np.ndarray   # flat indices row * 2^n + col, diagonal included
    bond1: np.ndarray   # sum_i s_i.s_{i+1} at `index`
    bond2: np.ndarray   # sum_i s_i.s_{i+2} at `index`
    sz: np.ndarray      # total s^z at `index`
    k: np.ndarray       # K at `index`


@lru_cache(maxsize=None)
def _pattern(n: int) -> _Pattern:
    """Bit operations on the basis index: s_i.s_j is +-1 on the diagonal and
    flips an antiparallel pair with amplitude 2; K flips the pair (i, i+1)
    with +2i if site i was down and -2i if it was up.  The bond sums stay
    literal, so a bond that wraps onto its own site adds s.s = 3."""
    dim = 2 ** n
    down = (np.arange(dim)[:, None] >> (n - 1 - np.arange(n))) & 1
    spin = 1 - 2 * down
    diag = np.zeros((dim, 4))       # columns: bond1, bond2, sz, K / i
    diag[:, 2] = spin.sum(axis=1)
    flats, amps = [], []
    for col, offset in enumerate((1, 2)):
        for i in range(n):
            j = (i + offset) % n
            if i == j:
                diag[:, col] += 3.0
                continue
            diag[:, col] += spin[:, i] * spin[:, j]
            src = np.flatnonzero(down[:, i] != down[:, j])
            dst = src ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
            amp = np.zeros((src.size, 4))
            amp[:, col] = 2.0
            if offset == 1:
                amp[:, 3] = np.where(down[src, i], 2.0, -2.0)
            flats.append(dst * dim + src)
            amps.append(amp)
    flats.append(np.arange(dim) * (dim + 1))
    amps.append(diag)
    index, where = np.unique(np.concatenate(flats), return_inverse=True)
    amp = np.zeros((index.size, 4))
    np.add.at(amp, where, np.concatenate(amps))
    bond1, bond2, sz, k_over_i = amp.T.copy()
    return _Pattern(index, bond1, bond2, sz, 1j * k_over_i)


def _dense(n: int, values: np.ndarray) -> np.ndarray:
    """The 2^n x 2^n matrix with `values` at the pattern's nonzeros."""
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    out.reshape(-1)[_pattern(n).index] = values
    return out


def build_total_sz(n: int) -> np.ndarray:
    """Diagonal matrix of total-s^z eigenvalues; conserved by H and K."""
    ChainParams(n)  # checks the site count
    return _dense(n, _pattern(n).sz)


def build_chirality_operator(n: int) -> np.ndarray:
    """K = sum_i (s^x_i s^y_{i+1} - s^y_i s^x_{i+1}), periodic.

    Hermitian, traceless and purely imaginary in the computational basis.
    """
    ChainParams(n)  # checks the site count
    return _dense(n, _pattern(n).k)


def _field_free_values(params: ChainParams, pat: _Pattern) -> np.ndarray:
    """The ring Hamiltonian at e_field = 0 at the nonzeros of `pat`, the
    pattern of the ring or a part of it, real."""
    return -params.j1 * pat.bond1 - params.j2 * pat.bond2 - params.b * pat.sz


def _hamiltonian_values(params: ChainParams) -> np.ndarray:
    """The ring Hamiltonian at the pattern's nonzeros."""
    pat = _pattern(params.n)
    return _field_free_values(params, pat) - params.e_field * pat.k


def build_hamiltonian(params: ChainParams) -> np.ndarray:
    """Dense ring Hamiltonian; satisfies H(e) = H(e=0) - e*K exactly."""
    return _dense(params.n, _hamiltonian_values(params))
