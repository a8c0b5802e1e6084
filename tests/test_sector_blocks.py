"""The sector-blocked density matrix, its partial traces and chirality,
Kubo susceptibilities and thermal fidelity against the dense 2^n x 2^n
formulas they replaced, which stay here as the oracles."""

import dataclasses

import numpy as np
import pytest

from dense_oracle import dense_states
from ottochain.correlations import (DensityMatrix, DensityMatrixError, _sqrt_psd,
                                    chirality_expectation, density_matrix,
                                    partial_trace)
from ottochain.model import ChainParams, build_chirality_operator, build_total_sz
from ottochain.response import (FieldTag, susceptibility,
                                thermal_state_fidelity)
from ottochain.spectra import _ring_plan, diagonalize_params
from ottochain.thermal import gibbs

OPERATORS = {FieldTag.MAGNETIC: build_total_sz,
             FieldTag.ELECTRIC: build_chirality_operator}
FIDELITY_STEP = 0.1


def dense_density_matrix(g):
    """rho = V diag(P) V^dagger over the whole basis."""
    v = dense_states(g.spectrum)
    return (v * g.populations) @ v.conj().T


def dense_partial_trace(rho, keep):
    """Reduced matrix on `keep` of a dense 2^n x 2^n rho, by one einsum over
    its 2n-index tensor with the traced sites' row and column indices tied."""
    n = rho.shape[0].bit_length() - 1
    idx = list(range(2 * n))
    for site in range(n):
        if site not in keep:
            idx[n + site] = idx[site]
    out_idx = [idx[s] for s in keep] + [idx[n + s] for s in keep]
    d = 2 ** len(keep)
    return np.einsum(rho.reshape([2] * (2 * n)), idx, out_idx).reshape(d, d)


def oracle_keeps(n):
    """Every single site; (0, r), (r, 0) and (1, 1 + r) for every distance
    r; one three-site keep, out of site order; and every site."""
    keeps = [(s,) for s in range(n)]
    for r in range(1, n):
        keeps += [(0, r), (r, 0), (1, (1 + r) % n)]
    if n >= 3:
        keeps.append((2, 0, 1))
    return keeps + [tuple(range(n))]


def assert_blocks_match_dense(rho, dense, k):
    n = rho.n_sites
    for keep in oracle_keeps(n):
        got = partial_trace(rho, keep).entries
        assert np.max(np.abs(got - dense_partial_trace(dense, keep))) <= 1e-14, keep
    want = float(np.real(np.vdot(k, dense)))
    assert abs(chirality_expectation(rho) - want) <= 1e-14
    assert abs(chirality_expectation(rho, k) - want) <= 1e-14


def dense_kubo(spec, o, t):
    """Kubo sum over every pair of levels, with o = V^dagger O V the full
    operator in the eigenbasis and its thermal mean taken off the diagonal."""
    p = gibbs(spec, t).populations
    beta = 1.0 / t
    e = spec.energies
    gap = e[None, :] - e[:, None]
    close = np.abs(gap) <= 1e-9 * max(1.0, float(np.max(np.abs(e))))
    w = np.where(close, beta * p[:, None],
                 (p[:, None] - p[None, :]) / np.where(close, 1.0, gap))
    centered = o - float(np.real(np.diagonal(o)) @ p) * np.eye(spec.dim)
    return float(np.sum(np.abs(centered) ** 2 * w))


def dense_fidelity(rho0, rho1):
    """tr sqrt(sqrt(rho0) rho1 sqrt(rho0)) from the eigenvalues of the
    dense product."""
    s0 = _sqrt_psd(rho0)
    ev = np.linalg.eigvalsh(s0 @ rho1 @ s0)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("b", [0.0, 1.0])
@pytest.mark.parametrize("p", [0.0, 10.0])
def test_blocks_equal_dense_oracles(n, b, p):
    params = ChainParams(n, 1.0, -1.0, b, p)
    spec = diagonalize_params(params)
    shifted = diagonalize_params(params.replace(e_field=p + FIDELITY_STEP))
    v = dense_states(spec)
    eigenbasis = {field: v.conj().T @ build(n) @ v
                  for field, build in OPERATORS.items()}
    for t in (2.0, 10.0, 40.0):
        g = gibbs(spec, t)
        rho = dense_density_matrix(g)
        assert np.max(np.abs(density_matrix(g).entries - rho)) <= 1e-14
        for field, o in eigenbasis.items():
            want = dense_kubo(spec, o, t)
            assert (abs(susceptibility(params, field, t) - want)
                    <= 1e-12 * max(1e-3, abs(want)))
            assert thermal_state_fidelity(params, field, t, 0.0) == pytest.approx(
                1.0, abs=1e-12)
        want = dense_fidelity(rho, dense_density_matrix(gibbs(shifted, t)))
        got = thermal_state_fidelity(params, FieldTag.ELECTRIC, t, FIDELITY_STEP)
        assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("b", [0.0, 1.0])
@pytest.mark.parametrize("p", [0.0, 10.0])
def test_block_traces_and_chirality_equal_dense_oracles(n, b, p):
    spec = diagonalize_params(ChainParams(n, 1.0, -1.0, b, p))
    k = build_chirality_operator(n)
    for t in (0.5, 10.0, 40.0):
        g = gibbs(spec, t)
        assert_blocks_match_dense(density_matrix(g), dense_density_matrix(g), k)


@pytest.mark.parametrize("n", range(2, 9))
def test_single_block_traces_and_chirality_equal_dense_oracles(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    dense = a @ a.conj().T
    dense /= np.trace(dense)
    rho = DensityMatrix(dense, range(n))
    assert_blocks_match_dense(rho, dense, build_chirality_operator(n))


def test_thermal_state_buffer_holds_only_the_blocks():
    layout = _ring_plan(8)[0]
    rho = density_matrix(gibbs(diagonalize_params(ChainParams(8, b=1.0)), 5.0))
    assert rho.buffer.size == layout.size == sum(
        basis.size ** 2 for _, basis in layout.sectors)


def test_production_paths_build_no_dense_density_matrix(monkeypatch, tmp_path):
    from ottochain.cli import main
    from ottochain.correlations import threshold_temperature
    from ottochain.otto import CycleMode, CycleSpec, efficiency_sweep

    assemble = DensityMatrix.entries.fget

    def entries(self):
        if self.dim > 4:
            raise AssertionError("a production path assembled a dense "
                                 f"{self.dim} x {self.dim} DensityMatrix")
        return assemble(self)

    monkeypatch.setattr(DensityMatrix, "entries", property(entries))
    for sweep in ("t:2:20:3", "e-field:1:5:3"):
        assert main(["tangles", "--n", "8", "--sweep", sweep,
                     "--out", str(tmp_path / "tangles.csv")]) == 0
    efficiency_sweep(CycleSpec(ChainParams(6, b=1.0), 30.0, 10.0, 6.0, 3.5,
                               CycleMode.QUANTUM), [4.0, 6.0])
    assert threshold_temperature(ChainParams(8, b=1.0, e_field=10.0),
                                 2.0, 80.0) == pytest.approx(19.27, abs=2e-3)


def test_production_paths_build_no_dense_operator(monkeypatch, tmp_path):
    from ottochain import model
    from ottochain.cli import main
    from ottochain.correlations import chirality_expectation
    from ottochain.otto import CycleMode, CycleSpec, efficiency_sweep

    def dense(n, values):
        raise AssertionError("a production path built a dense operator")

    monkeypatch.setattr(model, "_dense", dense)
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    spec = diagonalize_params(params)
    chirality_expectation(density_matrix(gibbs(spec, 5.0)))
    for field in FieldTag:
        susceptibility(params, field, 5.0)
        thermal_state_fidelity(params, field, 5.0, FIDELITY_STEP)
    efficiency_sweep(CycleSpec(params, 30.0, 10.0, 6.0, 3.5, CycleMode.QUANTUM),
                     [4.0, 6.0])
    for command in ("susceptibility", "tangles"):
        assert main([command, "--n", "4", "--sweep", "t:2:20:3",
                     "--out", str(tmp_path / f"{command}.csv")]) == 0


def test_density_matrix_rejects_sectors_out_of_layout_order():
    spec = diagonalize_params(ChainParams(4, b=1.0, e_field=2.0))
    shuffled = dataclasses.replace(spec, sectors=spec.sectors[::-1])
    with pytest.raises(DensityMatrixError, match="4-site ring layout"):
        density_matrix(gibbs(shuffled, 5.0))
