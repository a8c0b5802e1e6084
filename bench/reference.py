"""Exact-diagonalization reference for the benchmark's output checks.

It imports nothing from `ottochain`: the operators are built here from bit
operations on the computational basis, so a fault in the program's operator
build, eigensolver plumbing or observables cannot hide in the reference.

Conventions follow the program's physics: Pauli spins (eigenvalues +-1),
site 0 is the most significant bit and bit value 0 means spin up, periodic
boundaries with literal bond sums (a bond that wraps onto itself counts
s.s = 3), and

    H = -j1 sum_i s_i.s_{i+1} - j2 sum_i s_i.s_{i+2} - b M - p K,
    M = sum_i s^z_i,   K = sum_i (s^x_i s^y_{i+1} - s^y_i s^x_{i+1}).

On an antiparallel pair the flip-flop part of s_i.s_j has amplitude 2, and
K moves a down spin at i and an up spin at i+1 to up/down with amplitude
+2i (the reverse move carries -2i).  M commutes with H and K, so every
eigenproblem is solved per magnetization block.
"""

from __future__ import annotations

import numpy as np

N_MAX = 10
DEGENERATE = 1e-9


def _operators(n: int, j1: float, j2: float):
    """Dense (exchange part of H, K, M diagonal) for the n-site ring."""
    dim = 2 ** n
    states = np.arange(dim)
    bits = (states[:, None] >> (n - 1 - np.arange(n))) & 1
    spin = 1 - 2 * bits
    exchange = np.zeros((dim, dim), dtype=complex)
    chirality = np.zeros((dim, dim), dtype=complex)
    for offset, j in ((1, j1), (2, j2)):
        for i in range(n):
            k = (i + offset) % n
            if i == k:
                exchange[states, states] += -j * 3.0
                continue
            exchange[states, states] += -j * spin[:, i] * spin[:, k]
            flip = bits[:, i] != bits[:, k]
            src = states[flip]
            dst = src ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - k)))
            exchange[dst, src] += -j * 2.0
            if offset == 1:
                # down at i (bit 1) and up at i+1: amplitude +2i, else -2i
                chirality[dst, src] += np.where(bits[src, i] == 1, 2j, -2j)
    return exchange, chirality, spin.sum(axis=1)


class Ring:
    """Spectrum of one ring, and its exact thermal observables."""

    def __init__(self, n: int, j1: float, j2: float, b: float, p: float):
        if not 2 <= n <= N_MAX:
            raise ValueError(f"reference ring size {n} outside [2, {N_MAX}]")
        exchange, chirality, magnetization = _operators(n, j1, j2)
        h = exchange - b * np.diag(magnetization) - p * chirality
        blocks, mags = [], []
        for m in np.unique(magnetization):
            idx = np.flatnonzero(magnetization == m)
            ev, vec = np.linalg.eigh(h[np.ix_(idx, idx)])
            blocks.append((ev, vec.conj().T @ chirality[np.ix_(idx, idx)] @ vec))
            mags.append(np.full(idx.size, float(m)))
        self.energies = np.concatenate([ev for ev, _ in blocks])
        self.magnetization = np.concatenate(mags)
        self.k_diag = np.concatenate([np.real(np.diag(k)) for _, k in blocks])
        self._blocks = blocks
        self.e0 = float(self.energies.min())

    def sorted_energies(self) -> np.ndarray:
        return np.sort(self.energies)

    def _weights(self, energies: np.ndarray, t: float) -> np.ndarray:
        w = np.exp(-(energies - self.e0) / t)
        return w / np.exp(-(self.energies - self.e0) / t).sum()

    def populations(self, t: float) -> np.ndarray:
        return self._weights(self.energies, t)

    def chirality(self, t: float) -> float:
        """<K> = sum_n P_n K_nn."""
        return float(self.populations(t) @ self.k_diag)

    def chi_b(self, t: float) -> float:
        """beta Var(M), exact because M commutes with H."""
        p = self.populations(t)
        mean = p @ self.magnetization
        return float((p @ self.magnetization ** 2 - mean ** 2) / t)

    def chi_e(self, t: float) -> float:
        """Kubo sum over states: sum_nm |K_nm|^2 w_nm - beta <K>^2, with
        w_nm = (P_n - P_m)/(E_m - E_n) and w_nm = beta P_n when E_n = E_m."""
        total = 0.0
        scale = max(1.0, float(np.abs(self.energies).max()))
        for ev, k in self._blocks:
            p = self._weights(ev, t)
            gap = ev[None, :] - ev[:, None]
            same = np.abs(gap) < DEGENERATE * scale
            w = np.where(same, p[:, None] / t,
                         (p[:, None] - p[None, :]) / np.where(same, 1.0, gap))
            total += float(np.sum(np.abs(k) ** 2 * w))
        return total - self.chirality(t) ** 2 / t

    def heat_between_baths(self, t_hot: float, t_cold: float) -> float:
        """Heat of one thermodynamic isochore at this field,
        sum_n E_n [P_n(T_hot) - P_n(T_cold)]."""
        return float(self.energies @ (self.populations(t_hot)
                                      - self.populations(t_cold)))


def thermo_cycle_heats(n: int, j1: float, j2: float, b: float, p_high: float,
                       p_low: float, t_hot: float, t_cold: float):
    """(Q_in, Q_out) of the thermodynamic-adiabatic Otto cycle: heat enters
    at the high field and leaves at the low field."""
    q_in = Ring(n, j1, j2, b, p_high).heat_between_baths(t_hot, t_cold)
    q_out = Ring(n, j1, j2, b, p_low).heat_between_baths(t_hot, t_cold)
    return q_in, q_out
