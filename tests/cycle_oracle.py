"""The two heat formulas that `otto._cycle` replaced, kept as the tests'
oracle: the thermodynamic cycle's heats between the two baths at each
field, and the quantum cycle's heats from the populations carried along
the level map, each cycle computing its own Gibbs states (seven per row of
a sweep, where `otto` evaluates two)."""

import numpy as np

from ottochain.correlations import density_matrix, one_tangle, two_tangle
from ottochain.otto import CycleMode, CycleResult, SweepRow
from ottochain.spectra import _level_maps, diagonalize_params
from ottochain.thermal import gibbs


def _result(q_in, q_out, t_hot, t_cold):
    work = q_in - q_out
    eff = work / q_in if q_in != 0.0 else float("nan")
    return CycleResult(q_in, q_out, work, eff, 1.0 - t_cold / t_hot,
                       is_engine=(q_in > 0.0 and work >= 0.0))


def heat_between_baths(spec_field, t_hot, t_cold):
    p_hot = gibbs(spec_field, t_hot).populations
    p_cold = gibbs(spec_field, t_cold).populations
    return float(spec_field.energies @ (p_hot - p_cold))


def cycle(hi, lo, t_hot, t_cold, perm=None):
    """The cycle between the spectra at the high and the low field: the
    thermodynamic one, or with `perm`, the adiabatic level map from the low
    to the high field, the quantum one."""
    if perm is None:
        q_in = heat_between_baths(hi, t_hot, t_cold)
        q_out = heat_between_baths(lo, t_hot, t_cold)
        return _result(q_in, q_out, t_hot, t_cold)

    pop_cold_lo = gibbs(lo, t_cold).populations
    pop_hot_hi = gibbs(hi, t_hot).populations
    carried_up = np.empty_like(pop_cold_lo)
    carried_up[perm] = pop_cold_lo
    carried_down = pop_hot_hi[perm]
    q_in = float(hi.energies @ (pop_hot_hi - carried_up))
    q_out = float(lo.energies @ (carried_down - pop_cold_lo))
    return _result(q_in, q_out, t_hot, t_cold)


def run_cycle(spec):
    """`otto.run_cycle` without a precomputed level map, through `cycle`."""
    params = spec.params
    if spec.mode is CycleMode.QUANTUM:
        start, level_map = _level_maps(params, [spec.p_low, spec.p_high])
        return cycle(level_map.spectrum, start.spectrum, spec.t_hot, spec.t_cold,
                     level_map.permutation)
    return cycle(diagonalize_params(params.replace(e_field=spec.p_high)),
                 diagonalize_params(params.replace(e_field=spec.p_low)),
                 spec.t_hot, spec.t_cold)


def efficiency_sweep(spec, p_grid):
    """`otto.efficiency_sweep` one row at a time: both cycles through
    `cycle` on the walk's spectra, and the one-state tangles of each hot
    state."""
    p_grid = [float(p) for p in p_grid]
    order = np.argsort(p_grid)
    maps = _level_maps(spec.params, [spec.p_low] + [p_grid[k] for k in order])
    lo = next(maps).spectrum
    rows = [None] * len(p_grid)
    for level_map, k in zip(maps, order):
        p, hi = p_grid[k], level_map.spectrum
        thermo = cycle(hi, lo, spec.t_hot, spec.t_cold)
        quantum = cycle(hi, lo, spec.t_hot, spec.t_cold, level_map.permutation)
        hot = density_matrix(gibbs(hi, spec.t_hot))
        rows[k] = SweepRow(p, p / spec.p_low if spec.p_low != 0 else float("inf"),
                           quantum.efficiency, thermo.efficiency,
                           two_tangle(hot, spec.params.n), one_tangle(hot),
                           quantum.is_engine, thermo.is_engine, thermo.carnot)
    return rows
