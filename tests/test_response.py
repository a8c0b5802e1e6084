import numpy as np
import pytest

from ottochain.correlations import DensityMatrix, _sqrt_psd, density_matrix
from ottochain.model import ChainParams
from ottochain.response import (FieldTag, _fidelity, susceptibility,
                                thermal_state_fidelity)
from ottochain.spectra import diagonalize_params
from ottochain.thermal import TemperatureError, gibbs


def thermal_rho(params, t):
    return density_matrix(gibbs(diagonalize_params(params), t))


def uhlmann_fidelity(rho0, rho1):
    """Oracle: F = tr sqrt(sqrt(rho0) rho1 sqrt(rho0)) of two dense density
    matrices, from their square roots."""
    if rho0.dim != rho1.dim:
        raise ValueError(f"dimension mismatch: {rho0.dim} vs {rho1.dim}")
    return _fidelity(_sqrt_psd(rho0.entries), _sqrt_psd(rho1.entries))


def second_derivative(f, x: float, h: float) -> float:
    """Central second difference with one Richardson extrapolation level."""
    def d2(step):
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / step ** 2
    coarse = d2(h)
    fine = d2(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def fd_susceptibility(params, field, t):
    """Oracle: -d^2F/dzeta^2 by finite differences on five spectra.

    Step 1e-3 * max(1, |zeta|); all stencil points share one energy
    reference so the cancellation in the second difference happens on O(T)
    numbers instead of O(|F|) ones: F = e_ref - T ln sum exp(-(E - e_ref)/T).
    """
    name = field.value
    zeta = getattr(params, name)
    e_ref = diagonalize_params(params).ground_energy()

    def f(value):
        e = diagonalize_params(params.replace(**{name: value})).energies
        return e_ref - t * np.log(np.sum(np.exp(-(e - e_ref) / t)))

    return -second_derivative(f, zeta, 1e-3 * max(1.0, abs(zeta)))


def test_fidelity_identical_states():
    rho = thermal_rho(ChainParams(4, 1.0, -1.0, 1.0, 1.0), 5.0)
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_orthogonal_pure_states():
    v0 = np.zeros(4); v0[0] = 1.0
    v1 = np.zeros(4); v1[3] = 1.0
    rho0 = DensityMatrix(np.outer(v0, v0).astype(complex), (0, 1))
    rho1 = DensityMatrix(np.outer(v1, v1).astype(complex), (0, 1))
    assert uhlmann_fidelity(rho0, rho1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_symmetric():
    rho0 = thermal_rho(ChainParams(4, 1.0, -1.0, 1.0, 1.0), 5.0)
    rho1 = thermal_rho(ChainParams(4, 1.0, -1.0, 1.0, 2.0), 5.0)
    f01 = uhlmann_fidelity(rho0, rho1)
    f10 = uhlmann_fidelity(rho1, rho0)
    assert f01 == pytest.approx(f10, abs=1e-9)
    assert 0.0 <= f01 <= 1.0 + 1e-9


def test_fidelity_commuting_states_classical():
    # magnetic-field neighbours commute: F reduces to sum sqrt(p q) over
    # the common eigenbasis, computable from the two spectra directly
    t = 8.0
    pa = ChainParams(4, 1.0, -1.0, 1.0, 1.5)
    pb = pa.replace(b=1.2)
    spec_a = diagonalize_params(pa)
    spec_b = diagonalize_params(pb)
    # common eigenbasis: order level energies within each sector
    f_classical = 0.0
    ga, gb = gibbs(spec_a, t), gibbs(spec_b, t)
    for sector in np.unique(spec_a.sz_sector):
        ia = np.flatnonzero(spec_a.sz_sector == sector)
        ib = np.flatnonzero(spec_b.sz_sector == sector)
        pa_s = ga.populations[ia[np.argsort(spec_a.energies[ia])]]
        pb_s = gb.populations[ib[np.argsort(spec_b.energies[ib])]]
        f_classical += float(np.sum(np.sqrt(pa_s * pb_s)))
    f_uhlmann = uhlmann_fidelity(thermal_rho(pa, t), thermal_rho(pb, t))
    assert f_uhlmann == pytest.approx(f_classical, abs=1e-9)


def test_fidelity_dimension_mismatch():
    rho4 = thermal_rho(ChainParams(4, 1.0, -1.0, 1.0, 1.0), 5.0)
    rho3 = thermal_rho(ChainParams(3, 1.0, -1.0, 1.0, 1.0), 5.0)
    with pytest.raises(ValueError):
        uhlmann_fidelity(rho4, rho3)


def test_second_derivative_flat_function_zero():
    # a field-independent free-energy slice has zero susceptibility
    assert second_derivative(lambda _: -12.345, 1.0, 1e-3) == pytest.approx(
        0.0, abs=1e-9)


def test_second_derivative_quadratic_exact():
    assert second_derivative(lambda x: 3.0 * x ** 2, 0.7, 1e-3) == pytest.approx(
        6.0, rel=1e-9)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_kubo_susceptibility_matches_finite_differences(n):
    # b = p = 0 is the SU(2) point, where degenerate pairs take beta P_n
    worst = 0.0
    for b in (0.0, 1.0):
        for p in (0.0, 10.0):
            params = ChainParams(n, 1.0, -1.0, b, p)
            for t in (2.0, 10.0, 40.0):
                for field in FieldTag:
                    fd = fd_susceptibility(params, field, t)
                    kubo = susceptibility(params, field, t)
                    worst = max(worst, abs(kubo - fd) / max(1e-3, abs(fd)))
    assert worst <= 1e-4


def test_magnetic_susceptibility_peak_shifts_with_field():
    ts = np.linspace(2.0, 70.0, 69)
    peaks = []
    for d in (1.0, 10.0, 20.0):
        params = ChainParams(4, 1.0, -1.0, 1.0, d)
        values = [susceptibility(params, FieldTag.MAGNETIC, t) for t in ts]
        peaks.append(ts[int(np.argmax(values))])
    assert peaks[0] < peaks[1] < peaks[2]


def test_magnetic_peak_moves_down_with_ring_size():
    # the n=8 ring peaks at a lower temperature and higher value than n=4
    ts = np.linspace(8.0, 24.0, 33)
    peaks = {}
    for n in (4, 8):
        params = ChainParams(n, 1.0, -1.0, 1.0, 10.0)
        vals = [susceptibility(params, FieldTag.MAGNETIC, float(t)) for t in ts]
        peaks[n] = (float(ts[int(np.argmax(vals))]), max(vals))
    assert peaks[8][0] < peaks[4][0]
    assert peaks[8][1] > peaks[4][1]


def test_thermal_state_fidelity_basics():
    # 1 at dz = 0 along both fields, falling with |dz| inside [0, 1], and
    # no fidelity at T = 0
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    for field in FieldTag:
        assert thermal_state_fidelity(params, field, 10.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        values = [thermal_state_fidelity(params, field, 10.0, dz)
                  for dz in (0.0, 0.1, 0.5, 2.0)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] >= 0.0
    with pytest.raises(TemperatureError):
        thermal_state_fidelity(params, FieldTag.MAGNETIC, 0.0, 0.1)


def test_quadratic_approx_order():
    # |ln F_exact - ln F_quad| / dz^2 stays bounded as dz shrinks
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    t = 10.0
    chi = susceptibility(params, FieldTag.MAGNETIC, t)
    ratios = []
    for dz in (1e-2, 1e-3):
        f_exact = thermal_state_fidelity(params, FieldTag.MAGNETIC, t, dz)
        f_quad = np.exp(-dz ** 2 * chi / (8.0 * t))
        ratios.append(abs(np.log(f_exact) - np.log(f_quad)) / dz ** 2)
    assert max(ratios) < 0.1


@pytest.mark.parametrize("field", ["b", "e_field", None, 0])
def test_susceptibility_takes_only_a_field_tag(field):
    # "b" and None gave 1.0684, chi_E, where chi_B is 0.4245
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    assert susceptibility(params, FieldTag.MAGNETIC, 5.0) == pytest.approx(0.4245, abs=1e-4)
    assert susceptibility(params, FieldTag.ELECTRIC, 5.0) == pytest.approx(1.0684, abs=1e-4)
    with pytest.raises(ValueError, match="FieldTag"):
        susceptibility(params, field, 5.0)


@pytest.mark.parametrize("field", ["b", "e_field", None])
def test_thermal_state_fidelity_takes_only_a_field_tag(field):
    # "b" raised an AttributeError
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="FieldTag"):
        thermal_state_fidelity(params, field, 5.0, 1e-3)
