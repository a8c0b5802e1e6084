from dataclasses import astuple

import numpy as np
import pytest
from scipy.stats import spearmanr

import continuation_oracle as oracle
import cycle_oracle
from ottochain import correlations, otto, spectra
from ottochain.correlations import density_matrix, one_tangle, two_tangle
from ottochain.model import ChainParams
from ottochain.otto import (CycleMode, CycleSpec, efficiency_sweep, run_cycle,
                            size_scaling)
from ottochain.spectra import continue_levels, diagonalize_params
from ottochain.thermal import gibbs

RING = ChainParams(4, 1.0, -1.0, 1.0, 0.0)


def cycle(p_high, p_low=3.5, mode=CycleMode.THERMO, t_hot=30.0, t_cold=10.0,
          params=RING):
    return run_cycle(CycleSpec(params, t_hot, t_cold, p_high, p_low, mode))


@pytest.mark.parametrize("mode", [CycleMode.THERMO, CycleMode.QUANTUM])
def test_equal_fields_idle_cycle(mode):
    res = cycle(3.5, 3.5, mode)
    assert res.q_in == pytest.approx(res.q_out, abs=1e-12)
    assert res.efficiency == pytest.approx(0.0, abs=1e-12)


def test_carnot_reference():
    assert cycle(10.0).carnot == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_work_bookkeeping():
    res = cycle(10.0)
    assert res.work == res.q_in - res.q_out


def test_efficiency_invariant_under_energy_shift():
    # adding c*I to H shifts every level but not populations; each heat is
    # a population-difference sum, so Q and eta are unchanged
    res = cycle(8.0)
    shifted = run_cycle(CycleSpec(RING.replace(j1=1.0), 30.0, 10.0, 8.0, 3.5,
                                  CycleMode.THERMO))
    assert shifted.efficiency == pytest.approx(res.efficiency, abs=1e-12)
    # explicit shift through the spectrum identity: Q = sum E dP with
    # sum dP = 0, verified numerically via two offset evaluations
    from ottochain.spectra import diagonalize_params
    from ottochain.thermal import gibbs
    spec = diagonalize_params(RING.replace(e_field=8.0))
    dp = gibbs(spec, 30.0).populations - gibbs(spec, 10.0).populations
    assert float(dp.sum()) == pytest.approx(0.0, abs=1e-12)
    assert float((spec.energies + 5.0) @ dp) == pytest.approx(
        float(spec.energies @ dp), abs=1e-9)


def test_thermo_heats_are_internal_energy_differences():
    from ottochain.spectra import diagonalize_params
    from ottochain.thermal import gibbs, internal_energy
    res = cycle(10.0)
    spec_hi = diagonalize_params(RING.replace(e_field=10.0))
    spec_lo = diagonalize_params(RING.replace(e_field=3.5))
    q_in = (internal_energy(gibbs(spec_hi, 30.0))
            - internal_energy(gibbs(spec_hi, 10.0)))
    q_out = (internal_energy(gibbs(spec_lo, 30.0))
             - internal_energy(gibbs(spec_lo, 10.0)))
    assert res.q_in == pytest.approx(q_in, abs=1e-10)
    assert res.q_out == pytest.approx(q_out, abs=1e-10)


def test_quantum_uses_shared_level_map():
    m = continue_levels(RING, 3.5, 9.0)
    with_map = run_cycle(
        CycleSpec(RING, 30.0, 10.0, 9.0, 3.5, CycleMode.QUANTUM), level_map=m)
    without = run_cycle(CycleSpec(RING, 30.0, 10.0, 9.0, 3.5, CycleMode.QUANTUM))
    assert with_map.efficiency == pytest.approx(without.efficiency, abs=1e-12)


def test_quantum_below_thermo_in_engine_window():
    for p in (5.0, 7.0, 9.0, 11.0):
        thermo = cycle(p, mode=CycleMode.THERMO)
        quantum = cycle(p, mode=CycleMode.QUANTUM)
        assert thermo.is_engine and quantum.is_engine
        assert quantum.efficiency <= thermo.efficiency + 1e-12


def test_non_engine_regime_flagged():
    # far above the engine window the carried-over cold populations are
    # hotter than the hot bath: q_in < 0 and the flag trips
    res = cycle(30.0, mode=CycleMode.QUANTUM)
    assert res.q_in < 0.0
    assert not res.is_engine


def test_sweep_single_point_idle_row():
    spec = CycleSpec(RING, 30.0, 10.0, 3.5, 3.5, CycleMode.THERMO)
    rows = efficiency_sweep(spec, [3.5])
    assert len(rows) == 1
    assert rows[0].eta_thermo == pytest.approx(0.0, abs=1e-12)
    assert rows[0].eta_quantum == pytest.approx(0.0, abs=1e-12)
    assert rows[0].ratio == pytest.approx(1.0)


def test_sweep_grid_errors():
    spec = CycleSpec(RING, 30.0, 10.0, 3.5, 3.5, CycleMode.THERMO)
    with pytest.raises(ValueError):
        efficiency_sweep(spec, [])
    with pytest.raises(ValueError):
        efficiency_sweep(spec, [-1.0, 2.0])
    # a non-finite field would reach the eigensolver, which raises
    # "Eigenvalues did not converge"
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            efficiency_sweep(spec, [4.0, bad])


def test_sweep_matches_individual_cycles():
    spec = CycleSpec(RING, 30.0, 10.0, 12.0, 3.5, CycleMode.THERMO)
    grid = [4.0, 6.5, 9.0, 12.0]
    rows = efficiency_sweep(spec, grid)
    for p, row in zip(grid, rows):
        assert row.eta_thermo == pytest.approx(
            cycle(p).efficiency, abs=1e-12)
        assert row.eta_quantum == pytest.approx(
            cycle(p, mode=CycleMode.QUANTUM).efficiency, abs=1e-9)


def count_solves(monkeypatch):
    """The fields solved from now on, one entry per field of every stack:
    in s^z blocks by `spectra._solve_fields`, which solves every
    `diagonalize_params`, and in (s^z, k) blocks by the level maps'
    `spectra._Walk.solve`."""
    calls = []
    solve, walk_solve = spectra._solve_fields, spectra._Walk.solve

    def counting(params, fields):
        calls.extend(float(f) for f in fields)
        return solve(params, fields)

    def walk_counting(walk, fields):
        calls.extend(float(f) for f in fields)
        return walk_solve(walk, fields)

    monkeypatch.setattr(spectra, "_solve_fields", counting)
    monkeypatch.setattr(spectra._Walk, "solve", walk_counting)
    return calls


def check_readme_sweep(monkeypatch, t_hot, entangled):
    """The README's e-field sweep at n=6 with T_hot = t_hot and T_cold =
    t_hot / 3, its solves counted: each row against the cycles of its own
    field and the one-state tangles of its hot state, and `entangled` rows
    with tau_2 > 0."""
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.0)
    grid = np.linspace(3.5, 14.0, 22)
    t_cold = t_hot / 3
    calls = count_solves(monkeypatch)
    rows = efficiency_sweep(CycleSpec(params, t_hot, t_cold, 14.0, 3.5), grid)
    assert calls == 2 * grid.tolist()
    monkeypatch.undo()
    assert sum(row.tau2_hot > 0.0 for row in rows) == entangled

    level_map, anchor = None, 3.5
    for p, row in zip(grid, rows):
        p = float(p)
        segment = continue_levels(params, anchor, p)
        level_map = segment if level_map is None else level_map.compose(segment)
        anchor = p
        thermo = run_cycle(CycleSpec(params, t_hot, t_cold, p, 3.5, CycleMode.THERMO))
        quantum = run_cycle(CycleSpec(params, t_hot, t_cold, p, 3.5, CycleMode.QUANTUM),
                            level_map=level_map)
        hot = density_matrix(gibbs(diagonalize_params(params.replace(e_field=p)), t_hot))
        assert row.p_high == p
        assert row.eta_thermo == pytest.approx(thermo.efficiency, abs=1e-12)
        assert row.eta_quantum == pytest.approx(quantum.efficiency, abs=1e-12)
        assert row.thermo_is_engine == thermo.is_engine
        assert row.quantum_is_engine == quantum.is_engine
        assert row.tau2_hot == pytest.approx(two_tangle(hot, 6), abs=1e-12)
        assert row.tau1_hot == pytest.approx(one_tangle(hot), abs=1e-12)


def test_readme_sweep_diagonalizes_each_field_once(monkeypatch):
    # the README's e-field sweep: p_low, which is also the first node, and
    # the 21 other nodes, each solved once by the level map, in one stack of
    # (s^z, k) blocks for the walk and one of s^z blocks for the spectra,
    # which serve both cycles and the tangles; no step is bisected.  The
    # overlap-following continuation solved 673 fields, 803 before the reuse.
    # tau_2 of the hot state vanishes on every field at T_hot=30
    check_readme_sweep(monkeypatch, 30.0, 0)


@pytest.mark.parametrize("t_hot,entangled", [(5.0, 22), (10.0, 17), (20.0, 6)])
def test_readme_sweep_entangled_hot_states(monkeypatch, t_hot, entangled):
    # the same sweep where the hot state's tau_2 is positive on 22, 17 and 6
    # of the 22 fields: every row's tau_2 and tau_1 are the one-state tangles
    check_readme_sweep(monkeypatch, t_hot, entangled)


def bitwise_equal(a, b):
    """The fields of two CycleResults or SweepRows are the same bits, NaN
    equal to NaN."""
    return all(x == y or (x != x and y != y) for x, y in zip(astuple(a), astuple(b)))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_one_heat_formula_equals_the_two_it_replaced(n):
    # every row of a 9-field sweep over [3.5, 14] and both modes of
    # run_cycle at p_high in {0, 3.5, 10}, on every magnetic field, bath
    # pair and p_low, are the bits of the two heat formulas the one formula
    # replaced, each of which evaluated its own Gibbs states
    grid = np.linspace(3.5, 14.0, 9)
    for b in (0.0, 0.7, 1.0, -1.3, 1.9):
        params = ChainParams(n, 1.0, -1.0, b, 0.0)
        for t_hot, t_cold in ((30.0, 10.0), (5.0, 2.0), (20.0, 1.0)):
            for p_low in (0.0, 3.5):
                spec = CycleSpec(params, t_hot, t_cold, 14.0, p_low)
                rows = efficiency_sweep(spec, grid)
                want = cycle_oracle.efficiency_sweep(spec, grid)
                assert all(map(bitwise_equal, rows, want)), (b, t_hot, p_low)
                for mode in CycleMode:
                    for p_high in (0.0, 3.5, 10.0):
                        spec = CycleSpec(params, t_hot, t_cold, p_high, p_low, mode)
                        assert bitwise_equal(run_cycle(spec), cycle_oracle.run_cycle(spec)), \
                            (b, t_hot, p_low, mode, p_high)


def count_gibbs(monkeypatch):
    """The temperatures of the Gibbs states `otto` evaluates from now on."""
    calls = []
    gibbs = otto.gibbs

    def counting(spec, t):
        calls.append(t)
        return gibbs(spec, t)

    monkeypatch.setattr(otto, "gibbs", counting)
    return calls


def test_readme_sweep_evaluates_each_gibbs_state_once(monkeypatch):
    # both states at p_low and both at each of the 22 nodes: 2F + 2 = 46,
    # where each row's two cycles and its hot state evaluated 7F = 154
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.0)
    calls = count_gibbs(monkeypatch)
    efficiency_sweep(CycleSpec(params, 30.0, 10.0, 14.0, 3.5), np.linspace(3.5, 14.0, 22))
    assert sorted(calls) == [10.0] * 23 + [30.0] * 23


@pytest.mark.parametrize("mode,count", [(CycleMode.THERMO, 4), (CycleMode.QUANTUM, 2)])
def test_run_cycle_gibbs_states(monkeypatch, mode, count):
    # the thermodynamic cycle needs both baths at both fields, the quantum
    # one only the hot state at p_high and the cold one at p_low
    calls = count_gibbs(monkeypatch)
    cycle(9.0, mode=mode)
    assert len(calls) == count


@pytest.mark.parametrize("n,stacks", [(4, [22]), (6, [22]), (8, [5, 5, 5, 5, 2])])
def test_sweep_tangles_take_one_stacked_wootters_pass_per_stack(monkeypatch, n, stacks):
    # the hot states of the README sweep are stacked up to STACK_BYTES:
    # every field up to n=6, five at n=8.  Each stack's concurrences at
    # every distance come from one call on all its pairs, and its rows are
    # the one-state tangles of each field
    params = ChainParams(n, 1.0, -1.0, 1.0, 0.0)
    grid = np.linspace(3.5, 14.0, 22)
    calls = []
    stacked = correlations._concurrences

    def counting(r):
        calls.append(len(r))
        return stacked(r)

    monkeypatch.setattr(correlations, "_concurrences", counting)
    rows = efficiency_sweep(CycleSpec(params, 5.0, 2.0, 14.0, 3.5), grid)
    assert calls == [f * (n // 2) for f in stacks]
    monkeypatch.undo()
    for p, row in zip(grid, rows):
        hot = density_matrix(gibbs(diagonalize_params(params.replace(e_field=float(p))), 5.0))
        assert row.tau2_hot == two_tangle(hot, n)
        assert row.tau1_hot == one_tangle(hot)


def test_sweep_rows_and_cycle_results_have_slots():
    # the rows a sweep returns carry no per-instance dict
    rows = efficiency_sweep(CycleSpec(RING, 30.0, 10.0, 9.0, 3.5), [4.0, 9.0])
    for obj in (rows[0], cycle(9.0)):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.carnot = 0.0


def test_quantum_cycle_reuses_the_continuation_spectrum(monkeypatch):
    # p_low and p_high, solved by the level map in (s^z, k) blocks and in
    # s^z blocks, whose spectra at both fields serve the cycle
    calls = count_solves(monkeypatch)
    cycle(4.5, mode=CycleMode.QUANTUM)
    assert calls == [3.5, 4.5, 3.5, 4.5]


@pytest.mark.parametrize("mode", [CycleMode.THERMO, CycleMode.QUANTUM])
def test_mapped_cycle_reuses_the_map_spectrum(monkeypatch, mode):
    # a map that reaches p_high carries its spectrum there: only p_low is
    # solved, and the cycle is the one computed without the map
    level_map = continue_levels(RING, 3.5, 9.0)
    spec = CycleSpec(RING, 30.0, 10.0, 9.0, 3.5, mode)
    calls = count_solves(monkeypatch)
    with_map = run_cycle(spec, level_map=level_map)
    assert calls == [3.5]
    monkeypatch.undo()
    assert with_map == run_cycle(spec)


@pytest.mark.parametrize("mode", [CycleMode.THERMO, CycleMode.QUANTUM])
def test_run_cycle_rejects_a_map_between_other_fields(mode):
    # at n=6, b=1 the quantum cycle 3.5 -> 10 gives eta 0.472447 with its
    # own map; with the maps 3.5 -> 8, 1 -> 10 and 10 -> 3.5 it gave
    # 0.477651, -6.720629 and 0.479145 and raised nothing
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.0)
    spec = CycleSpec(params, 30.0, 10.0, 10.0, 3.5, mode)
    own = run_cycle(spec, level_map=continue_levels(params, 3.5, 10.0))
    if mode is CycleMode.QUANTUM:
        assert own.efficiency == pytest.approx(0.472447, abs=1e-6)
    for e_from, e_to in ((3.5, 8.0), (1.0, 10.0), (10.0, 3.5)):
        with pytest.raises(ValueError, match="level map"):
            run_cycle(spec, level_map=continue_levels(params, e_from, e_to))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_readme_sweep_rows_equal_the_oracle(n):
    # the README grid at four magnetic fields: the labelled map's quantum
    # efficiencies against the overlap-following oracle composed node to
    # node on its default grid of 64 steps per unit field.  At n=6, b=1.3,
    # p=11.5 the cycle is no engine, Q_in = -0.0064 and eta = 128.7, so the
    # tolerance is relative there
    grid = np.linspace(3.5, 14.0, 22)
    for b in (0.7, 1.0, 1.3, 1.9):
        params = ChainParams(n, 1.0, -1.0, b, 0.0)
        rows = efficiency_sweep(CycleSpec(params, 30.0, 10.0, 14.0, 3.5), grid)
        level_map, anchor = None, 3.5
        for p, row in zip(grid, rows):
            segment = oracle.continue_levels(params, anchor, float(p))
            level_map = segment if level_map is None else level_map.compose(segment)
            anchor = float(p)
            quantum = run_cycle(CycleSpec(params, 30.0, 10.0, float(p), 3.5,
                                          CycleMode.QUANTUM), level_map=level_map)
            assert row.eta_quantum == pytest.approx(
                quantum.efficiency, abs=1e-9 * max(1.0, abs(quantum.efficiency)))


@pytest.mark.parametrize("b", [1.0, 1.9])
def test_sweep_rows_do_not_depend_on_the_grid(b):
    # the README sweep at n=8 on grids of 1, 4 and 16 points per unit field:
    # the rows at the fields they share are the same
    params = ChainParams(8, 1.0, -1.0, b, 0.0)
    tables = []
    for per_unit in (1, 4, 16):
        grid = 3.5 + np.arange(10 * per_unit + 1) / per_unit
        rows = efficiency_sweep(CycleSpec(params, 30.0, 10.0, 13.5, 3.5), grid)
        tables.append([r for r in rows if float(r.p_high).is_integer() or r.p_high % 1 == 0.5])
    coarse = {r.p_high: r for r in tables[0]}
    for table in tables[1:]:
        for r in table:
            if r.p_high in coarse:
                want = coarse[r.p_high]
                assert r.eta_quantum == pytest.approx(want.eta_quantum, abs=1e-12)
                assert r.eta_thermo == pytest.approx(want.eta_thermo, abs=1e-12)
                assert r.quantum_is_engine == want.quantum_is_engine


@pytest.mark.parametrize("n,clausius", [(3, -0.6153), (6, -0.6338)])
def test_zero_field_quantum_cycles_complete(n, clausius):
    # the two zero-field cycles of the otto-quantum benchmark (p 0 -> 10,
    # b=1), which the overlap-following continuation could not map
    # (ContinuationError near p=1.5e-5 at n=6); at n=6 the map follows four
    # exact crossings, among them the one at p=2.0 in (s^z=0, k=+-2pi/3)
    params = ChainParams(n, 1.0, -1.0, 1.0, 0.0)
    res = run_cycle(CycleSpec(params, 30.0, 10.0, 10.0, 0.0, CycleMode.QUANTUM))
    value = res.q_in / 30.0 - res.q_out / 10.0
    assert value <= 0.0
    assert value == pytest.approx(clausius, abs=1e-4)


def test_entanglement_efficiency_association():
    """Spearman(eta, tau2) > 0 over the swept table.

    Known to fail for this cycle bookkeeping: the hot-state two-tangle
    turns on only at fields beyond the efficiency maximum, where eta is
    already declining, so the rank correlation is negative (-0.56).
    """
    spec = CycleSpec(RING, 30.0, 10.0, 35.0, 3.5, CycleMode.THERMO)
    rows = efficiency_sweep(spec, np.linspace(3.5, 35.0, 30))
    eta = [r.eta_thermo for r in rows]
    tau2 = [r.tau2_hot for r in rows]
    rho, _ = spearmanr(eta, tau2)
    assert rho > 0.0


def test_size_scaling_small_ring_jump():
    for p in (4.0, 5.0, 10.0):
        spec = CycleSpec(RING, 30.0, 10.0, p, 3.5, CycleMode.THERMO)
        table = dict(size_scaling(spec, [3, 4]))
        assert table[3] > table[4]


def test_size_scaling_saturation_pairs():
    """|eta(n) - eta(n+2)| < 0.05 for n in {6, 8} at p_high = 10.

    Known to fail at the (6, 8) pair: the literal heat bookkeeping keeps an
    even/odd frustration oscillation of 0.067 between those sizes.
    """
    spec = CycleSpec(RING, 30.0, 10.0, 10.0, 3.5, CycleMode.THERMO)
    table = dict(size_scaling(spec, [6, 8, 10]))
    assert abs(table[8] - table[10]) < 0.05
    assert abs(table[6] - table[8]) < 0.05


def test_size_scaling_two_site_smoke():
    spec = CycleSpec(RING, 30.0, 10.0, 10.0, 3.5, CycleMode.THERMO)
    (n, eta), = size_scaling(spec, [2])
    assert n == 2
    # the two-site ring has no chirality: the field does nothing and the
    # cycle is idle
    assert eta == pytest.approx(0.0, abs=1e-12)


def test_size_scaling_regression_values():
    # frozen from the first verified run (thermo mode, b=1, 30/10, 3.5)
    spec = CycleSpec(RING, 30.0, 10.0, 10.0, 3.5, CycleMode.THERMO)
    table = dict(size_scaling(spec, [3, 4, 5, 6, 7, 8]))
    expected = {3: 0.7074, 4: 0.6058, 5: 0.6420, 6: 0.6084, 7: 0.6465,
                8: 0.6751}
    for n, ref in expected.items():
        assert table[n] == pytest.approx(ref, abs=5e-4)


def test_size_scaling_bounds():
    spec = CycleSpec(RING, 30.0, 10.0, 10.0, 3.5, CycleMode.THERMO)
    with pytest.raises(ValueError):
        size_scaling(spec, [12])
    # this ran n = 4
    with pytest.raises(ValueError, match="integer"):
        size_scaling(spec, [4.7])


def test_cycle_spec_validation():
    with pytest.raises(ValueError):
        CycleSpec(RING, 10.0, 30.0, 5.0, 3.5)
    with pytest.raises(ValueError):
        CycleSpec(RING, 30.0, 10.0, -5.0, 3.5)
    for bad in (np.nan, np.inf):
        for p_high, p_low in ((bad, 3.5), (9.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                CycleSpec(RING, 30.0, 10.0, p_high, p_low, CycleMode.QUANTUM)


def test_efficiency_invariant_under_uniform_rescaling():
    # scaling every coupling and both temperatures by the same factor
    # leaves all population differences, heat ratios and eta unchanged
    base = run_cycle(CycleSpec(RING, 30.0, 10.0, 9.0, 3.5, CycleMode.THERMO))
    s = 2.5
    scaled_ring = ChainParams(4, s * 1.0, -s * 1.0, s * 1.0, 0.0)
    scaled = run_cycle(CycleSpec(scaled_ring, s * 30.0, s * 10.0,
                                 s * 9.0, s * 3.5, CycleMode.THERMO))
    assert scaled.efficiency == pytest.approx(base.efficiency, rel=1e-10)
    assert scaled.q_in == pytest.approx(s * base.q_in, rel=1e-10)


def test_quantum_cycle_larger_ring():
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.0)
    quantum = run_cycle(CycleSpec(params, 30.0, 10.0, 2.0, 1.0,
                                  CycleMode.QUANTUM))
    thermo = run_cycle(CycleSpec(params, 30.0, 10.0, 2.0, 1.0,
                                 CycleMode.THERMO))
    assert quantum.is_engine and thermo.is_engine
    assert 0.0 < quantum.efficiency <= thermo.efficiency + 1e-12


def test_size_scaling_quantum_mode():
    spec = CycleSpec(RING, 30.0, 10.0, 5.0, 3.5, CycleMode.QUANTUM)
    table = dict(size_scaling(spec, [3, 4, 5]))
    for eta in table.values():
        assert np.isfinite(eta)
    assert table[3] > table[4]
