import gc
import tracemalloc

import numpy as np
import pytest

from ottochain.analytic4 import spectrum4
from ottochain.model import (ChainParams, ParameterError,
                             build_chirality_operator, build_hamiltonian,
                             build_total_sz)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_operator(ops: dict, n: int) -> np.ndarray:
    """The Kronecker product over the ring of ops[site], identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for site in range(n):
        out = np.kron(out, ops.get(site, np.eye(2, dtype=complex)))
    return out


def kron_bond_sum(n: int, offset: int) -> np.ndarray:
    """Literal sum_i s_i.s_{i+offset}: the n=2 ring counts its bond twice and
    a bond that wraps onto its own site adds s.s = 3."""
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        j = (i + offset) % n
        for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            out += kron_operator({i: s @ s} if i == j else {i: s, j: s}, n)
    return out


def kron_total_sz(n: int) -> np.ndarray:
    return sum(kron_operator({i: SIGMA_Z}, n) for i in range(n))


def kron_chirality(n: int) -> np.ndarray:
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        j = (i + 1) % n
        out += kron_operator({i: SIGMA_X, j: SIGMA_Y}, n)
        out -= kron_operator({i: SIGMA_Y, j: SIGMA_X}, n)
    return out


def kron_hamiltonian(params: ChainParams) -> np.ndarray:
    """The Kronecker-product oracle, summed in the library's order."""
    h = -params.j1 * kron_bond_sum(params.n, 1)
    h = h - params.j2 * kron_bond_sum(params.n, 2)
    h = h - params.b * kron_total_sz(params.n)
    if params.e_field != 0.0:
        h = h - params.e_field * kron_chirality(params.n)
    return h


def test_polarized_diagonal_element():
    # <up,up,up,up| H |up,up,up,up> = -4 j1 - 4 j2 - 4 b
    h = build_hamiltonian(ChainParams(4, 1.0, -1.0, 1.0, 0.7))
    assert h[0, 0] == pytest.approx(-4.0, abs=1e-14)


def test_zero_couplings_zero_matrix():
    h = build_hamiltonian(ChainParams(4, 0.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(h)) == 0.0


def test_full_spectrum_matches_closed_form():
    h = build_hamiltonian(ChainParams(4, 1.0, -1.0, 1.0, 1.0))
    assert np.linalg.eigvalsh(h) == pytest.approx(
        np.sort(spectrum4(1.0, 1.0, 1.0)), abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_chirality_traceless_and_polarized_free(n):
    k = build_chirality_operator(n)
    assert abs(np.trace(k)) == 0.0
    assert k[0, 0] == 0.0          # all spins up
    assert k[-1, -1] == 0.0        # all spins down


def test_chirality_spectrum_symmetric():
    # brute-force eigenvalues of K pair up as +-kappa
    ev = np.linalg.eigvalsh(build_chirality_operator(4))
    assert ev == pytest.approx(-ev[::-1], abs=1e-12)


def test_chirality_purely_imaginary():
    k = build_chirality_operator(4)
    assert np.max(np.abs(k.real)) == 0.0


def test_total_sz_two_sites():
    assert np.diag(build_total_sz(2)).real == pytest.approx([2, 0, 0, -2])


@pytest.mark.parametrize("seed", range(4))
def test_conservation_and_hermiticity_random_params(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    params = ChainParams(n, *[float(x) for x in rng.uniform(-2, 2, 4)])
    h = build_hamiltonian(params)
    sz = build_total_sz(n)
    k = build_chirality_operator(n)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    assert np.max(np.abs(h @ sz - sz @ h)) <= 1e-12
    assert np.max(np.abs(k @ sz - sz @ k)) <= 1e-12


def test_field_linearity_exact():
    params = ChainParams(5, 1.3, -0.4, 0.9, 2.7)
    h = build_hamiltonian(params)
    h0 = build_hamiltonian(params.replace(e_field=0.0))
    k = build_chirality_operator(5)
    assert np.max(np.abs(h - (h0 - 2.7 * k))) <= 1e-14


def test_translation_invariance():
    n = 5
    h = build_hamiltonian(ChainParams(n, 1.0, -1.0, 0.5, 1.5))
    dim = 2 ** n
    shift = np.zeros((dim, dim))
    for idx in range(dim):
        rotated = ((idx >> 1) | ((idx & 1) << (n - 1))) & (dim - 1)
        shift[rotated, idx] = 1.0
    assert np.max(np.abs(h @ shift - shift @ h)) <= 1e-12


def test_two_site_ring_double_counts_consistently():
    # literal periodic sums: each bond twice, and the j2 term couples a
    # site to itself (a constant 3 per site)
    h = build_hamiltonian(ChainParams(2, 1.0, -1.0, 0.0, 0.0))
    bond = sum(np.kron(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    expected = -2.0 * bond + 2.0 * 3.0 * np.eye(4)
    assert np.max(np.abs(h - expected)) <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_bit_operations_equal_kronecker_oracle(n):
    rng = np.random.default_rng(100 + n)
    couplings = [(0.0, 0.0, 0.0, 0.0), (1.0, -1.0, 0.0, 0.0),
                 tuple(rng.uniform(-2, 2, 4)),
                 (*rng.uniform(-2, 2, 3), 0.0)]
    for c in couplings:
        params = ChainParams(n, *[float(x) for x in c])
        assert np.array_equal(build_hamiltonian(params), kron_hamiltonian(params))
    assert np.array_equal(build_chirality_operator(n), kron_chirality(n))
    assert np.array_equal(build_total_sz(n), kron_total_sz(n))


def test_operator_build_holds_no_dense_cache():
    # only the O(n 2^n) nonzero pattern may outlive a build; one dense
    # 2^10 x 2^10 complex operator alone is 16 MB
    params = ChainParams(10, 1.0, -1.0, 0.5, 2.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ops = (build_hamiltonian(params), build_chirality_operator(10),
               build_total_sz(10))
        del ops
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 * 2 ** 20


@pytest.mark.parametrize("n", [0, 1, 13, 14, 15, 30])
def test_site_count_bounds(n):
    with pytest.raises(ParameterError):
        ChainParams(n)
    with pytest.raises(ParameterError):
        build_chirality_operator(n)


def test_nonfinite_coupling_rejected():
    with pytest.raises(ParameterError):
        ChainParams(4, j1=float("nan"))
    with pytest.raises(ParameterError):
        ChainParams(4, b=float("inf"))
