"""The sector-blocked density matrix, Kubo susceptibilities and thermal
fidelity against the dense 2^n x 2^n formulas they replaced, which stay here
as the oracles."""

import numpy as np
import pytest

from ottochain.correlations import _sqrt_psd, density_matrix
from ottochain.model import ChainParams, build_chirality_operator, build_total_sz
from ottochain.response import (FieldTag, susceptibility,
                                thermal_state_fidelity)
from ottochain.spectra import Spectrum, continue_levels, diagonalize_params
from ottochain.thermal import gibbs

OPERATORS = {FieldTag.MAGNETIC: build_total_sz,
             FieldTag.ELECTRIC: build_chirality_operator}
FIDELITY_STEP = 0.1


def dense_density_matrix(g):
    """rho = V diag(P) V^dagger over the whole basis."""
    v = g.spectrum.states
    return (v * g.populations) @ v.conj().T


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
    v = spec.states
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


def test_production_paths_never_read_dense_states(monkeypatch):
    def dense_states(self):
        raise AssertionError("a production path assembled Spectrum.states")

    monkeypatch.setattr(Spectrum, "states", property(dense_states))
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    density_matrix(gibbs(diagonalize_params(params), 5.0))
    for field in FieldTag:
        susceptibility(params, field, 5.0)
        thermal_state_fidelity(params, field, 5.0, FIDELITY_STEP)
    continue_levels(params, 0.5, 3.0)


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
