import numpy as np
import pytest

from ottochain.analytic4 import spectrum4
from ottochain.model import ChainParams, build_hamiltonian, build_total_sz
from ottochain.spectra import (DiagonalizationError, _match_step,
                               continue_levels, diagonalize,
                               diagonalize_params)


def match_step_loop(spec_a, spec_b):
    """`_match_step` with the degeneracy exemption tested pair by pair."""
    from scipy.optimize import linear_sum_assignment

    perm = np.empty(spec_a.dim, dtype=int)
    worst = 1.0
    scale = max(1.0, float(np.max(np.abs(spec_a.energies))))
    for value in np.unique(spec_a.sz_sector):
        ia = np.flatnonzero(spec_a.sz_sector == value)
        ib = np.flatnonzero(spec_b.sz_sector == value)
        overlap = np.abs(spec_a.states[:, ia].conj().T @ spec_b.states[:, ib])
        rows, cols = linear_sum_assignment(-(overlap ** 2))
        perm[ia[rows]] = ib[cols]
        for r, c in zip(rows, cols):
            deg_a = np.sum(np.abs(spec_a.energies[ia] - spec_a.energies[ia[r]])
                           < 1e-9 * scale) > 1
            deg_b = np.sum(np.abs(spec_b.energies[ib] - spec_b.energies[ib[c]])
                           < 1e-9 * scale) > 1
            if not (deg_a and deg_b):
                worst = min(worst, overlap[r, c])
    return perm, worst


def test_ground_energy_matches_closed_form():
    spec = diagonalize_params(ChainParams(4, 1.0, -1.0, 1.0, 1.0))
    assert spec.ground_energy() == pytest.approx(
        float(np.min(spectrum4(1.0, 1.0, 1.0))), abs=1e-12)


def test_hybridized_level_present():
    # 2 j1 + 4 j2 + 2 sqrt(j1^2 + 16 j2^2 - 8 j1 j2 + 8 d^2) at j=d=1
    spec = diagonalize_params(ChainParams(4, 1.0, -1.0, 1.0, 1.0))
    target = -2.0 + 2.0 * np.sqrt(33.0)
    assert np.min(np.abs(spec.energies - target)) <= 1e-10


def test_zero_matrix_all_zero_energies():
    spec = diagonalize(np.zeros((16, 16), dtype=complex), build_total_sz(4))
    assert np.max(np.abs(spec.energies)) == 0.0
    overlaps = spec.states.conj().T @ spec.states
    assert np.max(np.abs(overlaps - np.eye(16))) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_spectrum_invariants(n):
    params = ChainParams(n, 1.0, -1.0, 0.7, 1.3)
    h = build_hamiltonian(params)
    sz = build_total_sz(n)
    spec = diagonalize(h, sz)
    scale = max(1.0, np.max(np.abs(h)))
    # eigenpair residuals and orthonormality
    residual = h @ spec.states - spec.states * spec.energies
    assert np.max(np.abs(residual)) <= 1e-10 * scale
    gram = spec.states.conj().T @ spec.states
    assert np.max(np.abs(gram - np.eye(2 ** n))) <= 1e-10
    # every eigenvector lives in one magnetization sector
    szd = np.real(np.diag(sz))
    for idx in range(2 ** n):
        v = spec.states[:, idx]
        mean = float(np.real(v.conj() @ (szd * v)))
        var = float(np.real(v.conj() @ (szd ** 2 * v))) - mean ** 2
        assert var <= 1e-10
        assert abs(mean - spec.sz_sector[idx]) <= 1e-9
    # ascending energies
    assert np.all(np.diff(spec.energies) >= -1e-12)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sector_blocking_equals_dense(n):
    params = ChainParams(n, 1.0, -1.0, 0.4, 2.2)
    h = build_hamiltonian(params)
    sz = build_total_sz(n)
    blocked = diagonalize(h, sz)
    assert blocked.energies == pytest.approx(np.linalg.eigvalsh(h), abs=1e-10)


def test_reconstruction():
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.8)
    h = build_hamiltonian(params)
    spec = diagonalize(h, build_total_sz(6))
    recon = (spec.states * spec.energies) @ spec.states.conj().T
    assert np.max(np.abs(h - recon)) <= 1e-9 * max(1.0, np.max(np.abs(h)))


def test_eigenvectors_independent_of_field_b():
    # projectors onto degenerate clusters agree between two b values,
    # sector by sector (the field couples to a conserved quantity)
    base = ChainParams(4, 1.0, -1.0, 0.0, 1.7)
    spec_a = diagonalize_params(base.replace(b=0.3))
    spec_b = diagonalize_params(base.replace(b=1.9))
    for sector in np.unique(spec_a.sz_sector):
        ia = np.flatnonzero(spec_a.sz_sector == sector)
        ib = np.flatnonzero(spec_b.sz_sector == sector)
        # remove the field shift (-b*m per level) to cluster by the
        # field-free energies
        ea = spec_a.energies[ia] + 0.3 * sector
        eb = spec_b.energies[ib] + 1.9 * sector
        assert np.sort(ea) == pytest.approx(np.sort(eb), abs=1e-10)
        for energy in np.unique(np.round(ea, 9)):
            sel_a = ia[np.abs(ea - energy) < 1e-8]
            sel_b = ib[np.abs(eb - energy) < 1e-8]
            pa = spec_a.states[:, sel_a]
            pb = spec_b.states[:, sel_b]
            proj_a = pa @ pa.conj().T
            proj_b = pb @ pb.conj().T
            assert np.max(np.abs(proj_a - proj_b)) <= 1e-9


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DiagonalizationError):
        diagonalize(np.kron(bad, np.eye(2)), build_total_sz(2))


def test_continuation_identity_when_fields_equal():
    m = continue_levels(ChainParams(4, 1.0, -1.0, 1.0, 0.0), 2.0, 2.0)
    assert np.array_equal(m.permutation, np.arange(16))


def test_continuation_reversible():
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    fwd = continue_levels(params, 1.0, 6.0)
    back = continue_levels(params, 6.0, 1.0)
    combined = fwd.compose(back)
    assert np.array_equal(combined.permutation, np.arange(16))
    assert np.array_equal(back.permutation, fwd.inverse().permutation)


def test_continuation_ground_to_ground():
    # no ground-state crossing between d=3.5 and d=10
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    m = continue_levels(params, 3.5, 10.0)
    assert m.permutation[0] == 0


def test_continuation_preserves_sectors():
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    m = continue_levels(params, 0.5, 8.0)
    s_from = diagonalize_params(params.replace(e_field=0.5)).sz_sector
    s_to = diagonalize_params(params.replace(e_field=8.0)).sz_sector
    assert np.array_equal(s_from, s_to[m.permutation])


def test_continuation_through_symmetry_protected_crossing():
    # the rising hybridized level passes a field-independent level of the
    # same magnetization sector near d = 1.73; the two stay orthogonal, so
    # even a single coarse step identifies them across the crossing and
    # their sorted positions swap
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    m = continue_levels(params, 1.5, 2.0, steps=1)
    spec_a = diagonalize_params(params.replace(e_field=1.5))
    spec_b = diagonalize_params(params.replace(e_field=2.0))
    rising = -2.0 + 2.0 * np.sqrt(25.0 + 8.0 * 1.5 ** 2)
    flat = 12.0
    i_rising = int(np.argmin(np.abs(spec_a.energies - rising)))
    i_flat = int(np.argmin(np.abs(spec_a.energies - flat)))
    assert i_rising < i_flat
    assert m.permutation[i_rising] > m.permutation[i_flat]
    assert spec_b.energies[m.permutation[i_flat]] == pytest.approx(flat, abs=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("b", [0.0, 1.0, 1.7])
@pytest.mark.parametrize("path", [(3.5, 14.0), (1.0, 2.0), (0.5, 8.0)])
def test_match_step_equals_pairwise_loop(n, b, path):
    # 16 steps per path; in 417 of the 576 matchings the exemption of
    # doubly degenerate pairs changes the worst overlap
    params = ChainParams(n, 1.0, -1.0, b, 0.0)
    grid = np.linspace(path[0], path[1], 17)
    specs = [diagonalize_params(params.replace(e_field=float(p))) for p in grid]
    for spec_a, spec_b in zip(specs[:-1], specs[1:]):
        perm, worst = _match_step(spec_a, spec_b)
        perm_loop, worst_loop = match_step_loop(spec_a, spec_b)
        assert np.array_equal(perm, perm_loop)
        assert worst == worst_loop


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("b", [0.0, 1.0])
def test_pattern_blocks_equal_dense_oracle(n, b):
    # the production solve fills its s^z blocks straight from the operator
    # pattern; the oracle slices them out of the dense Hamiltonian
    sz = build_total_sz(n)
    for p in (0.0, 1.0, 10.0):
        for j1, j2 in ((1.0, -1.0), (0.0, 0.0), (0.7, 0.3)):
            params = ChainParams(n, j1, j2, b, p)
            h = build_hamiltonian(params)
            oracle = diagonalize(h, sz)
            spec = diagonalize_params(params)
            scale = max(1.0, float(np.max(np.abs(oracle.energies))))
            assert np.max(np.abs(spec.energies - oracle.energies)) <= 1e-12 * scale
            assert np.array_equal(spec.sz_sector, oracle.sz_sector)
            for s in spec.sectors:
                assert np.all(np.diff(s.levels) > 0)
                residual = h[:, s.basis] @ s.vectors
                residual[s.basis] -= s.vectors * spec.energies[s.levels]
                assert np.max(np.abs(residual)) <= 1e-12 * scale
