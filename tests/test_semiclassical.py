import numpy as np
import pytest
from scipy.integrate import quad

from dense_oracle import dense_states
from ottochain.model import ChainParams
from ottochain.otto import CycleMode, CycleSpec, run_cycle
from ottochain.semiclassical import (ScConfig, efficiency_sc, entropy_sc,
                                     free_energy_sc, heat_integral_sc,
                                     perturbation_valid)
from ottochain.spectra import diagonalize_params
from ottochain.thermal import TemperatureError, free_energy

CFG = ScConfig(1.0, 1.0)


def exact_free_energy(p, t, j=1.0, b=1.0):
    return free_energy(diagonalize_params(ChainParams(4, j, -j, b, p)), t)


def test_special_levels():
    # 4 j2 -+ 2 b, 4 j1 - 4 j2, 12 j2 at j1 = -j2 = 1, b = 1
    assert CFG.e_special == pytest.approx([-6.0, -2.0, 8.0, -12.0])


def test_zero_field_reduces_to_exact():
    for t in (2.0, 20.0, 200.0):
        assert free_energy_sc(t, 0.0, CFG) == pytest.approx(
            exact_free_energy(0.0, t), abs=1e-10)


def test_correction_strictly_negative():
    for p in (0.1, 1.0, 3.0):
        for t in (5.0, 50.0):
            assert free_energy_sc(t, p, CFG) < free_energy_sc(t, 0.0, CFG)


def test_residual_shrinks_with_field():
    """|F_sc - F_exact| ratio between p=0.1 and p=0.05 would be 16 for an
    O(p^4) residual; the second-order form without energy denominators
    leaves an O(p^2) mismatch, so the observed ratio is 4."""
    t = 20.0
    e1 = abs(free_energy_sc(t, 0.10, CFG) - exact_free_energy(0.10, t))
    e2 = abs(free_energy_sc(t, 0.05, CFG) - exact_free_energy(0.05, t))
    assert e1 / e2 == pytest.approx(4.0, abs=0.2)
    assert e1 < 1e-4


def test_high_temperature_entropy_limit():
    assert entropy_sc(1e9, 0.0, CFG) == pytest.approx(np.log(16.0), abs=1e-6)


def test_entropy_field_dependence_exactly_quadratic():
    t = 40.0
    base = entropy_sc(t, 0.0, CFG)
    ratios = [(entropy_sc(t, p, CFG) - base) / p ** 2 for p in (0.1, 0.2)]
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)


def test_entropy_matches_free_energy_derivative():
    for t, p in ((10.0, 0.5), (40.0, 1.5), (150.0, 3.0)):
        h = 1e-3 * t
        fd = -(free_energy_sc(t + h, p, CFG)
               - free_energy_sc(t - h, p, CFG)) / (2 * h)
        assert entropy_sc(t, p, CFG) == pytest.approx(fd, rel=1e-5)


def test_negative_entropy_flags_breakdown():
    # far outside the perturbative window the entropy goes negative
    assert entropy_sc(1.0, 5.0, CFG) < 0.0
    assert not perturbation_valid(1.0, 5.0, CFG)
    assert perturbation_valid(50.0, 0.5, CFG)


def test_second_order_support_levels():
    # the coupling's second-order weights in the zero-field eigenbasis live
    # exactly on the four special energies, 32 per energy value
    from ottochain.model import build_chirality_operator

    spec = diagonalize_params(ChainParams(4, 1.0, -1.0, 1.0, 0.0))
    k = build_chirality_operator(4)
    v = dense_states(spec)
    km = v.conj().T @ k @ v
    weights = np.sum(np.abs(km) ** 2, axis=1)  # diagonal + off-diagonal
    support = spec.energies[weights > 1e-9]
    special_values = np.unique(np.round(CFG.e_special, 9))
    assert np.all(np.isin(np.round(support, 9), special_values))
    for e in special_values:
        sel = np.abs(spec.energies - e) < 1e-9
        assert np.sum(weights[sel]) == pytest.approx(32.0, abs=1e-9)


def test_idle_cycle_zero_efficiency():
    assert efficiency_sc(10.0, 30.0, 2.0, 2.0, CFG) == 0.0


def heat_by_parts(p, t_lo, t_hi):
    """Oracle: [T S] - integral of S dT by quadrature."""
    boundary = t_hi * entropy_sc(t_hi, p, CFG) - t_lo * entropy_sc(t_lo, p, CFG)
    integral, _ = quad(lambda t: entropy_sc(t, p, CFG), t_lo, t_hi,
                       epsabs=1e-8, limit=200)
    return boundary - integral


@pytest.mark.parametrize("t_lo,t_hi", [(1.0, 2.0), (10.0, 30.0), (100.0, 120.0)])
@pytest.mark.parametrize("p", [0.0, 0.5, 2.0, 5.0])
def test_heat_integral_matches_quadrature(p, t_lo, t_hi):
    assert heat_integral_sc(p, t_lo, t_hi, CFG) == pytest.approx(
        heat_by_parts(p, t_lo, t_hi), rel=1e-9)


def test_heat_integral_positive_and_monotone_window():
    q = heat_integral_sc(1.0, 100.0, 120.0, CFG)
    assert q > 0.0


def test_cross_check_against_exact_cycle():
    # high-temperature, small-field corner: the perturbative efficiency
    # tracks the exact cycle within 20%
    eta_sc = efficiency_sc(100.0, 120.0, 1.0, 0.5, CFG)
    exact = run_cycle(CycleSpec(ChainParams(4, 1.0, -1.0, 1.0, 0.0),
                                120.0, 100.0, 1.0, 0.5, CycleMode.THERMO))
    assert exact.efficiency != 0.0
    assert abs(eta_sc - exact.efficiency) / abs(exact.efficiency) < 0.2


def test_field_sensitivity_dominates_temperature_sensitivity():
    # over the (p, dT) window at T_low = 100, the efficiency moves far more
    # with the field than with the bath gap
    ps = np.linspace(0.5, 3.0, 5)
    dts = np.linspace(5.0, 40.0, 5)
    over_p = [efficiency_sc(100.0, 120.0, p, 0.5, CFG) for p in ps]
    over_dt = [efficiency_sc(100.0, 100.0 + dt, 2.0, 0.5, CFG) for dt in dts]
    assert (max(over_p) - min(over_p)) > 10 * (max(over_dt) - min(over_dt))


def test_temperature_guards():
    with pytest.raises(TemperatureError):
        free_energy_sc(0.0, 1.0, CFG)
    with pytest.raises(TemperatureError):
        entropy_sc(-1.0, 1.0, CFG)
    with pytest.raises(TemperatureError):
        efficiency_sc(30.0, 10.0, 1.0, 0.5, CFG)
