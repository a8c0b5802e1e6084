"""Quantum Otto cycle on the ring, in two flavours.

Both cycles exchange heat with a hot bath at the high electric field and a
cold bath at the low field; the adiabatic strokes only change the field.

* thermodynamic-adiabatic: each isochore connects the two bath temperatures
  at its own field, Q_in = sum_n E_n(p_high) [P_n(T_hot) - P_n(T_cold)] and
  the same at p_low for Q_out.
* quantum-adiabatic: level populations are frozen along the adiabats and
  transported between fields with the adiabatic LevelMap, which keeps each
  level's (s^z, k) block and its rank inside it, so the isochores start
  from the carried-over populations.

Efficiency is (Q_in - Q_out)/Q_in; rows with Q_in <= 0 or negative work are
flagged as non-engine regimes rather than silently reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .correlations import density_matrix, one_tangle, two_tangle
from .model import ChainParams
from .spectra import LevelMap, Spectrum, _level_maps, diagonalize_params
from .thermal import _check_t, gibbs


class CycleMode(enum.Enum):
    QUANTUM = "quantum"
    THERMO = "thermo"


@dataclass(frozen=True)
class CycleSpec:
    """One Otto cycle: bath temperatures, the two field values, and which
    kind of adiabatic stroke to use.  The e_field inside params is ignored.
    """

    params: ChainParams
    t_hot: float
    t_cold: float
    p_high: float
    p_low: float
    mode: CycleMode = CycleMode.THERMO

    def __post_init__(self):
        _check_t(self.t_hot)
        _check_t(self.t_cold)
        if not self.t_hot > self.t_cold:
            raise ValueError(
                f"need t_hot > t_cold > 0, got ({self.t_hot}, {self.t_cold})")
        if not all(np.isfinite(p) and p >= 0 for p in (self.p_high, self.p_low)):
            raise ValueError("field amplitudes must be finite and >= 0, got "
                             f"({self.p_high}, {self.p_low})")


@dataclass(frozen=True)
class CycleResult:
    q_in: float
    q_out: float
    work: float
    efficiency: float
    carnot: float
    is_engine: bool


def _result(q_in: float, q_out: float, t_hot: float, t_cold: float) -> CycleResult:
    work = q_in - q_out
    eff = work / q_in if q_in != 0.0 else float("nan")
    return CycleResult(q_in, q_out, work, eff, 1.0 - t_cold / t_hot,
                       is_engine=(q_in > 0.0 and work >= 0.0))


def _heat_between_baths(spec_field: Spectrum, t_hot: float, t_cold: float) -> float:
    p_hot = gibbs(spec_field, t_hot).populations
    p_cold = gibbs(spec_field, t_cold).populations
    return float(spec_field.energies @ (p_hot - p_cold))


def _cycle(hi: Spectrum, lo: Spectrum, t_hot: float, t_cold: float,
           perm: np.ndarray | None = None) -> CycleResult:
    """The cycle between the spectra at the high and the low field: the
    thermodynamic one, or with `perm`, the adiabatic level map from the low
    to the high field, the quantum one."""
    if perm is None:
        q_in = _heat_between_baths(hi, t_hot, t_cold)
        q_out = _heat_between_baths(lo, t_hot, t_cold)
        return _result(q_in, q_out, t_hot, t_cold)

    pop_cold_lo = gibbs(lo, t_cold).populations
    pop_hot_hi = gibbs(hi, t_hot).populations
    carried_up = np.empty_like(pop_cold_lo)
    carried_up[perm] = pop_cold_lo          # cold populations on the high-field levels
    carried_down = pop_hot_hi[perm]         # hot populations back on the low-field levels
    q_in = float(hi.energies @ (pop_hot_hi - carried_up))
    q_out = float(lo.energies @ (carried_down - pop_cold_lo))
    return _result(q_in, q_out, t_hot, t_cold)


def run_cycle(spec: CycleSpec, level_map: LevelMap | None = None) -> CycleResult:
    """Evaluate one cycle.  A precomputed LevelMap from p_low to p_high may
    be passed to calls that share it; the spectrum at p_high that the map
    carries serves the cycle.  Without one, a quantum cycle walks its own
    level map, whose spectra at both fields serve it."""
    params = spec.params
    if level_map is not None and (level_map.e_from, level_map.e_to) != (spec.p_low, spec.p_high):
        raise ValueError(f"level map from {level_map.e_from} to {level_map.e_to} does not "
                         f"join the cycle's fields {spec.p_low} and {spec.p_high}")
    if spec.mode is CycleMode.QUANTUM and level_map is None:
        start, level_map = _level_maps(params, [spec.p_low, spec.p_high])
        lo = start.spectrum
    else:
        lo = diagonalize_params(params.replace(e_field=spec.p_low))
    hi = (diagonalize_params(params.replace(e_field=spec.p_high)) if level_map is None
          else level_map.spectrum)
    perm = level_map.permutation if spec.mode is CycleMode.QUANTUM else None
    return _cycle(hi, lo, spec.t_hot, spec.t_cold, perm)


@dataclass(frozen=True)
class SweepRow:
    p_high: float
    ratio: float
    eta_quantum: float
    eta_thermo: float
    tau2_hot: float
    tau1_hot: float
    quantum_is_engine: bool
    thermo_is_engine: bool
    carnot: float


def efficiency_sweep(spec: CycleSpec, p_grid) -> list[SweepRow]:
    """One row per swept high field: both cycle efficiencies plus the
    tangles of the hot-bath equilibrium state at that field.  `spec.mode`
    is not read; every row carries the quantum and the thermodynamic cycle.

    One level map walks from p_low through the grid in ascending order:
    p_low and each node are solved once, and the walk's spectrum at each
    node serves both cycles and the tangles of its row.  These spectra are
    those of `diagonalize_params`, so every row is the cycle `run_cycle`
    gives with the same map.
    """
    p_grid = [float(p) for p in p_grid]
    if not p_grid or not all(np.isfinite(p) and p > 0 for p in p_grid):
        raise ValueError("field grid must be nonempty, finite and positive")

    order = np.argsort(p_grid)
    maps = _level_maps(spec.params, [spec.p_low] + [p_grid[k] for k in order])
    lo = next(maps).spectrum
    rows: list = [None] * len(p_grid)
    # maps first, so that the walk runs to its end and logs its counts
    for level_map, k in zip(maps, order):
        p, hi = p_grid[k], level_map.spectrum
        thermo = _cycle(hi, lo, spec.t_hot, spec.t_cold)
        quantum = _cycle(hi, lo, spec.t_hot, spec.t_cold, level_map.permutation)
        hot_state = density_matrix(gibbs(hi, spec.t_hot))
        rows[k] = SweepRow(
            p_high=p,
            ratio=p / spec.p_low if spec.p_low != 0 else float("inf"),
            eta_quantum=quantum.efficiency,
            eta_thermo=thermo.efficiency,
            tau2_hot=two_tangle(hot_state, spec.params.n),
            tau1_hot=one_tangle(hot_state),
            quantum_is_engine=quantum.is_engine,
            thermo_is_engine=thermo.is_engine,
            carnot=thermo.carnot,
        )
    return rows


def size_scaling(spec: CycleSpec, n_list) -> list[tuple[int, float]]:
    """Cycle efficiency versus ring size at fixed fields and temperatures."""
    out = []
    for n in n_list:
        if not (float(n).is_integer() and 2 <= n <= 10):
            raise ValueError(f"size scaling supports integer n in [2, 10], got {n}")
        params = spec.params.replace(n=int(n))
        res = run_cycle(CycleSpec(params, spec.t_hot, spec.t_cold,
                                  spec.p_high, spec.p_low, spec.mode))
        out.append((int(n), res.efficiency))
    return out
