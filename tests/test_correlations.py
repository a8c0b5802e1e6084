import numpy as np
import pytest

import scalar_oracle
from ottochain import analytic4, correlations
from ottochain.correlations import (DensityMatrix, DensityMatrixError,
                                    NoThresholdError, chirality_expectation,
                                    concurrence, density_matrix, one_tangle,
                                    partial_trace, threshold_temperature,
                                    two_tangle)
from ottochain.model import ChainParams, build_chirality_operator, build_hamiltonian
from ottochain.spectra import diagonalize_params
from ottochain.thermal import gibbs, internal_energy


def thermal_state(n=4, j=1.0, b=1.0, d=1.0, t=10.0):
    params = ChainParams(n, j, -j, b, d)
    spec = diagonalize_params(params)
    return density_matrix(gibbs(spec, t)), spec, params


def test_density_matrix_infinite_temperature():
    params = ChainParams(4, 1.0, -1.0, 1.0, 1.0)
    rho = density_matrix(gibbs(diagonalize_params(params), 1e12))
    assert np.max(np.abs(rho.entries - np.eye(16) / 16)) <= 1e-12


def test_density_matrix_commutes_with_hamiltonian():
    rho, _, params = thermal_state()
    h = build_hamiltonian(params)
    comm = rho.entries @ h - h @ rho.entries
    assert np.max(np.abs(comm)) <= 1e-10


def test_energy_expectation_consistent():
    params = ChainParams(4, 1.0, -1.0, 1.0, 1.0)
    g = gibbs(diagonalize_params(params), 10.0)
    rho = density_matrix(g)
    h = build_hamiltonian(params)
    assert np.real(np.trace(rho.entries @ h)) == pytest.approx(
        internal_energy(g), abs=1e-10)


def test_partial_trace_product_state():
    rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    rho_b = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    prod = DensityMatrix(np.kron(rho_a, rho_b), (0, 1))
    assert np.max(np.abs(partial_trace(prod, [0]).entries - rho_a)) <= 1e-14
    assert np.max(np.abs(partial_trace(prod, [1]).entries - rho_b)) <= 1e-14


def test_partial_trace_preserves_trace_and_identity():
    rho, _, _ = thermal_state()
    reduced = partial_trace(rho, [0, 2])
    assert np.real(np.trace(reduced.entries)) == pytest.approx(1.0, abs=1e-12)
    kept_all = partial_trace(rho, [0, 1, 2, 3])
    assert np.max(np.abs(kept_all.entries - rho.entries)) <= 1e-14


@pytest.mark.parametrize("keep", [[], [0, 0], [0, 7]])
def test_partial_trace_site_errors(keep):
    rho, _, _ = thermal_state()
    with pytest.raises(DensityMatrixError):
        partial_trace(rho, keep)


def test_reduced_matrix_matches_coefficient_pattern():
    # a1/b1/c1/d1 on the bond pair and a2/c2/d2/b2 on the crossing pair
    rho, _, _ = thermal_state(t=10.0)
    der = analytic4.coeffs4(1.0, 1.0, 1.0, 10.0)
    z = der.z
    r12 = partial_trace(rho, [0, 1]).entries
    assert r12[0, 0] == pytest.approx(der.a1 / z, abs=1e-12)
    assert r12[1, 1] == pytest.approx(der.b1 / z, abs=1e-12)
    assert r12[2, 2] == pytest.approx(der.b1 / z, abs=1e-12)
    assert r12[3, 3] == pytest.approx(der.d1 / z, abs=1e-12)
    assert r12[1, 2] == pytest.approx(der.c1 / z, abs=1e-12)
    r13 = partial_trace(rho, [0, 2]).entries
    assert r13[0, 0] == pytest.approx(der.a2 / z, abs=1e-12)
    assert r13[1, 1] == pytest.approx(der.c2 / z, abs=1e-12)
    assert r13[1, 2] == pytest.approx(der.d2 / z, abs=1e-12)
    assert r13[3, 3] == pytest.approx(der.b2 / z, abs=1e-12)


def test_concurrence_singlet():
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = DensityMatrix(np.outer(v, v).astype(complex), (0, 1))
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    rho_a = np.array([[0.8, 0.0], [0.0, 0.2]], dtype=complex)
    rho_b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = DensityMatrix(np.kron(rho_a, rho_b), (0, 1))
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_against_closed_form():
    rho, _, _ = thermal_state(b=1.0, d=20.0, t=10.0)
    der = analytic4.coeffs4(1.0, 1.0, 20.0, 10.0)
    c12_ref, c13_ref = analytic4.concurrences4(der)
    assert concurrence(partial_trace(rho, [0, 1])) == pytest.approx(c12_ref, abs=1e-10)
    assert concurrence(partial_trace(rho, [0, 2])) == pytest.approx(c13_ref, abs=1e-10)


def test_concurrence_dimension_error():
    rho, _, _ = thermal_state()
    with pytest.raises(DensityMatrixError):
        concurrence(rho)


def test_pair_symmetry_distance_one():
    # C(0,1) = C(0,3): the two bond neighbours of site 0 are equivalent
    rho, _, _ = thermal_state(b=1.0, d=20.0, t=10.0)
    c01 = concurrence(partial_trace(rho, [0, 1]))
    c03 = concurrence(partial_trace(rho, [0, 3]))
    assert c01 == pytest.approx(c03, abs=1e-10)


def test_pair_concurrence_translation_invariant():
    # the thermal state inherits the ring's translation symmetry, so the
    # pair concurrence depends only on the distance
    rho, _, _ = thermal_state(b=1.0, d=20.0, t=10.0)
    bonds = [concurrence(partial_trace(rho, [i, (i + 1) % 4]))
             for i in range(4)]
    crossings = [concurrence(partial_trace(rho, [0, 2])),
                 concurrence(partial_trace(rho, [1, 3]))]
    assert max(bonds) - min(bonds) <= 1e-10
    assert crossings[0] == pytest.approx(crossings[1], abs=1e-10)


def test_two_tangle_above_threshold_vanishes():
    rho, _, _ = thermal_state(b=1.0, d=1.0, t=10.0)
    assert two_tangle(rho, 4) == 0.0


def test_two_tangle_infinite_temperature():
    rho, _, _ = thermal_state(t=1e12)
    assert two_tangle(rho, 4) == pytest.approx(0.0, abs=1e-12)


def test_two_tangle_against_closed_form():
    rho, _, _ = thermal_state(b=1.0, d=20.0, t=10.0)
    der = analytic4.coeffs4(1.0, 1.0, 20.0, 10.0)
    assert two_tangle(rho, 4) == pytest.approx(analytic4.two_tangle4(der), abs=1e-10)


def test_one_tangle_high_temperature_saturates():
    rho, _, _ = thermal_state(b=1.0, d=1.0, t=1e4)
    assert one_tangle(rho) == pytest.approx(1.0, abs=1e-3)


def test_one_tangle_polarized_state_zero():
    v = np.zeros(16)
    v[0] = 1.0
    rho = DensityMatrix(np.outer(v, v).astype(complex), (0, 1, 2, 3))
    assert one_tangle(rho) == pytest.approx(0.0, abs=1e-14)


def test_one_tangle_against_closed_form():
    rho, _, _ = thermal_state(b=1.0, d=5.0, t=20.0)
    der = analytic4.coeffs4(1.0, 1.0, 5.0, 20.0)
    assert one_tangle(rho) == pytest.approx(analytic4.one_tangle4(der), abs=1e-10)


def test_chirality_vanishes_without_field():
    rho, _, _ = thermal_state(d=0.0, t=5.0)
    k = build_chirality_operator(4)
    assert chirality_expectation(rho, k) == pytest.approx(0.0, abs=1e-12)


def test_chirality_odd_in_field():
    k = build_chirality_operator(4)
    plus, _, _ = thermal_state(d=1.5, t=5.0)
    minus, _, _ = thermal_state(d=-1.5, t=5.0)
    assert chirality_expectation(plus, k) == pytest.approx(
        -chirality_expectation(minus, k), abs=1e-10)


def test_chirality_against_closed_form():
    rho, _, _ = thermal_state(b=1.0, d=1.0, t=5.0)
    k = build_chirality_operator(4)
    der = analytic4.coeffs4(1.0, 1.0, 1.0, 5.0)
    assert chirality_expectation(rho, k) == pytest.approx(
        analytic4.chirality4(der), abs=1e-10)


def test_chirality_expectation_equals_trace_of_product():
    rho, _, _ = thermal_state(n=6, b=0.7, d=2.3, t=3.0)
    k = build_chirality_operator(6)
    expected = float(np.real(np.trace(rho.entries @ k)))
    assert abs(expected) > 0.1
    assert chirality_expectation(rho, k) == pytest.approx(expected, abs=1e-12)


def test_two_tangle_decreases_with_field_b():
    # stronger magnetic field suppresses the pair entanglement
    values = []
    for b in (0.0, 1.0, 2.0, 3.0):
        rho, _, _ = thermal_state(b=b, d=20.0, t=10.0)
        values.append(two_tangle(rho, 4))
    assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
    assert values[0] > values[-1]


@pytest.mark.parametrize("d,t_ref", [(10.0, 22.3035), (20.0, 44.4435)])
def test_threshold_temperatures_strong_field(d, t_ref):
    params = ChainParams(4, 1.0, -1.0, 1.0, d)
    tc = threshold_temperature(params, 5.0, 80.0)
    assert tc == pytest.approx(t_ref, abs=2e-3)


def test_threshold_temperature_weak_field():
    # corrected-model value for d=1, b=1 (bisected to 1e-3)
    params = ChainParams(4, 1.0, -1.0, 1.0, 1.0)
    tc = threshold_temperature(params, 2.0, 20.0)
    assert tc == pytest.approx(6.9609, abs=2e-3)


def test_threshold_temperature_weak_field_against_closed_form():
    # at d=1, b=1 the distance-1 concurrence is already zero, so the
    # threshold is the zero of the closed-form distance-2 concurrence C13
    def c13(t):
        return analytic4.concurrences4(analytic4.coeffs4(1.0, 1.0, 1.0, t))

    assert c13(2.0)[0] == 0.0
    lo, hi = 2.0, 80.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if c13(mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    tc = threshold_temperature(ChainParams(4, 1.0, -1.0, 1.0, 1.0), 2.0, 80.0)
    assert tc == pytest.approx(0.5 * (lo + hi), abs=2e-3)


def test_threshold_temperature_diagonalizes_once(monkeypatch):
    calls = []

    def counting(params, *args, **kwargs):
        calls.append(params)
        return diagonalize_params(params, *args, **kwargs)

    monkeypatch.setattr(correlations, "diagonalize_params", counting)
    tc = threshold_temperature(ChainParams(4, 1.0, -1.0, 1.0, 1.0), 2.0, 80.0)
    assert tc == pytest.approx(6.961, abs=2e-3)
    assert len(calls) == 1


def test_threshold_requires_bracket():
    params = ChainParams(4, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(NoThresholdError):
        threshold_temperature(params, 20.0, 50.0)   # already zero at t_lo
    with pytest.raises(NoThresholdError):
        threshold_temperature(params, 2.0, 5.0)     # still positive at t_hi


@pytest.mark.parametrize("n", [3, 5, 6])
def test_two_tangle_other_ring_sizes(n):
    # odd rings have no antipodal pair; every distance counts twice
    rho, _, _ = thermal_state(n=n, d=10.0, t=5.0)
    tau2 = two_tangle(rho, n)
    assert tau2 >= 0.0
    from ottochain.correlations import _ring_distance_pairs
    assert sum(m for _, m in _ring_distance_pairs(n)) == n - 1


def test_tangle_ratio_smaller_for_larger_ring():
    # n=8 stores relatively less entanglement in pair correlations
    t = 7.37
    for d in (5.0, 20.0):
        rho4, _, _ = thermal_state(n=4, d=d, t=t)
        rho8, _, _ = thermal_state(n=8, d=d, t=t)
        r4 = two_tangle(rho4, 4) / one_tangle(rho4)
        r8 = two_tangle(rho8, 8) / one_tangle(rho8)
        assert r8 < r4


def test_two_tangle_rejects_a_wrong_site_count():
    rho, _, _ = thermal_state(n=6, b=1.0, d=2.0, t=1.0)
    assert two_tangle(rho, 6) == pytest.approx(0.13869, abs=1e-5)
    for n in (4, 12):
        with pytest.raises(DensityMatrixError, match=f"n={n} for a matrix over 6 sites"):
            two_tangle(rho, n)


@pytest.mark.parametrize("entries,labels", [(np.eye(3), (0, 1)),
                                            (np.eye(4), (0, 1, 2)),
                                            (np.ones(4), (0, 1))])
def test_density_matrix_shape_must_match_sites(entries, labels):
    with pytest.raises(DensityMatrixError):
        DensityMatrix(entries, labels)


def random_states(rng, rank, count):
    """Seeded random two-qubit density matrices of the given rank."""
    a = rng.normal(size=(count, 4, rank)) + 1j * rng.normal(size=(count, 4, rank))
    r = a @ a.conj().swapaxes(1, 2)
    return r / np.trace(r, axis1=1, axis2=2).real[:, None, None]


def x_states(rng, count):
    """X-states: diagonal populations and the coherences rho_14 and rho_23,
    set to zero in every other state, within the PSD bounds."""
    p = rng.dirichlet(np.ones(4), size=count)
    r = np.zeros((count, 4, 4), dtype=complex)
    r[:, np.arange(4), np.arange(4)] = p
    phase = np.exp(2j * np.pi * rng.random((count, 2)))
    size = rng.random((count, 2)) * np.sqrt([p[:, 0] * p[:, 3], p[:, 1] * p[:, 2]]).T
    size[::2] = 0.0
    r[:, 0, 3], r[:, 1, 2] = (size * phase).T
    r[:, 3, 0], r[:, 2, 1] = r[:, 0, 3].conj(), r[:, 1, 2].conj()
    return r


@pytest.mark.parametrize("kind", ["rank 4", "rank 1", "rank 2", "X"])
def test_stacked_concurrences_equal_the_scalar_oracle(kind):
    rng = np.random.default_rng(21)
    states = x_states(rng, 40) if kind == "X" else random_states(rng, int(kind[-1]), 40)
    got = correlations._concurrences(states)
    want = [scalar_oracle.concurrence(r) for r in states]
    assert got.shape == (40,)
    assert np.max(np.abs(got - want)) <= 1e-12
    # one state alone is the same number as in the stack
    assert correlations._concurrences(states[3:4])[0] == got[3]
    if kind == "X":
        # both branches of max(0, ...): half the states have no coherence
        assert np.any(got > 0.0) and np.all(got[::2] == 0.0)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_stacked_pair_concurrences_equal_the_scalar_oracle(n):
    # every distance of the thermal states at three temperatures, stacked
    # and one at a time, and the reduced matrices they come from
    spec = diagonalize_params(ChainParams(n, 1.0, -1.0, 1.0, 10.0))
    states = [density_matrix(gibbs(spec, t)) for t in (0.5, 3.0, 30.0)]
    stack = np.array([rho.buffer for rho in states])
    layout = states[0].layout
    cs = correlations._pair_concurrences(stack, layout, n)
    assert cs.shape == (3, n // 2)
    assert np.any(cs > 0.0)
    for rho, row in zip(states, cs):
        want = [scalar_oracle.concurrence(scalar_oracle.partial_trace(rho, (0, r)))
                for r in range(1, n // 2 + 1)]
        assert np.max(np.abs(row - want)) <= 1e-12
        assert np.array_equal(correlations._pair_concurrences(rho.buffer, layout, n), row)
        assert two_tangle(rho, n) == pytest.approx(scalar_oracle.two_tangle(rho, n), abs=1e-12)
        assert one_tangle(rho) == pytest.approx(scalar_oracle.one_tangle(rho), abs=1e-12)
    for keep in [(0,), (0, n // 2), (n - 1, 1), (2, 0, 1)]:
        reduced = correlations._reduced(stack, layout, keep)
        assert reduced.shape == (3, 2 ** len(keep), 2 ** len(keep))
        for rho, r in zip(states, reduced):
            want = scalar_oracle.partial_trace(rho, keep)
            assert np.max(np.abs(r - want)) <= 1e-12
            assert np.array_equal(correlations._reduced(rho.buffer, layout, keep), r)
