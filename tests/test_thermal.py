import dataclasses

import numpy as np
import pytest

from ottochain.analytic4 import spectrum4
from ottochain.model import ChainParams
from ottochain.spectra import diagonalize_params
from ottochain.thermal import (TemperatureError, entropy, free_energy, gibbs,
                               internal_energy)

PARAMS = ChainParams(4, 1.0, -1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def spec():
    return diagonalize_params(PARAMS)


def test_infinite_temperature_uniform(spec):
    g = gibbs(spec, 1e12)
    assert g.populations == pytest.approx(np.full(16, 1 / 16), abs=1e-10)


def test_zero_temperature_ground_multiplet():
    # at j=1, b=3, d=0 the polarized level -4b crosses the singlet-pair
    # level -12 exactly: a two-fold degenerate ground state
    spec = diagonalize_params(ChainParams(4, 1.0, -1.0, 3.0, 0.0))
    g = gibbs(spec, 1e-6)
    gap = spec.energies - spec.energies[0]
    ground = gap < 1e-9
    assert g.populations[ground] == pytest.approx(
        np.full(int(ground.sum()), 1.0 / ground.sum()), abs=1e-12)
    assert g.populations[~ground] == pytest.approx(0.0, abs=1e-12)


def test_partition_sum_against_direct_summation(spec):
    # independent oracle: 16-term sum over the closed-form energies
    energies = spectrum4(1.0, 1.0, 1.0)
    t = 10.0
    direct = float(np.sum(np.exp(-(energies - energies.min()) / t)))
    g = gibbs(spec, t)
    assert g.z_shifted == pytest.approx(direct, rel=1e-12)


def test_populations_sorted_and_normalized(spec):
    g = gibbs(spec, 7.3)
    assert float(g.populations.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(g.populations) <= 1e-15)


def test_internal_energy_limits(spec):
    hot = internal_energy(gibbs(spec, 1e12))
    assert hot == pytest.approx(float(np.mean(spec.energies)), abs=1e-9)
    cold = internal_energy(gibbs(spec, 1e-6))
    assert cold == pytest.approx(spec.ground_energy(), abs=1e-12)


def test_positive_heat_capacity(spec):
    # dU/dT >= 0 by central differences on a temperature grid
    for t in np.geomspace(0.2, 80.0, 12):
        h = 1e-4 * t
        du = (internal_energy(gibbs(spec, t + h))
              - internal_energy(gibbs(spec, t - h)))
        assert du >= -1e-12


def test_free_energy_degenerate_hamiltonian(spec):
    c = 2.5
    flat = dataclasses.replace(spec, energies=np.full(16, c))
    t = 3.0
    assert free_energy(flat, t) == pytest.approx(c - t * 4 * np.log(2.0), rel=1e-12)


def test_free_energy_below_internal_energy(spec):
    for t in (0.5, 5.0, 50.0):
        assert free_energy(spec, t) <= internal_energy(gibbs(spec, t)) + 1e-12


def test_entropy_limits(spec):
    assert entropy(spec, 1e12) == pytest.approx(4 * np.log(2.0), abs=1e-9)
    # unique ground state at these couplings
    assert entropy(spec, 1e-2) == pytest.approx(0.0, abs=1e-10)


def test_entropy_matches_derivative(spec):
    t = 20.0
    h = 1e-4 * t
    fd = -(free_energy(spec, t + h) - free_energy(spec, t - h)) / (2 * h)
    assert entropy(spec, t) == pytest.approx(fd, rel=1e-6)


def test_entropy_monotone(spec):
    values = [entropy(spec, t) for t in np.geomspace(0.1, 100.0, 30)]
    assert np.all(np.diff(values) >= -1e-12)


def test_thermodynamic_identity(spec):
    for t in (0.7, 8.0, 60.0):
        f = free_energy(spec, t)
        u = internal_energy(gibbs(spec, t))
        s = entropy(spec, t)
        assert f == pytest.approx(u - t * s, abs=1e-10 * max(1.0, abs(f)))


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_temperature_must_be_positive(spec, t):
    with pytest.raises(TemperatureError):
        gibbs(spec, t)
    with pytest.raises(TemperatureError):
        free_energy(spec, t)
    with pytest.raises(TemperatureError):
        entropy(spec, t)
