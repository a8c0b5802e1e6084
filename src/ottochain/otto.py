"""Quantum Otto cycle on the ring, in two flavours.

Both cycles exchange heat with a hot bath at the high electric field and a
cold bath at the low field; the adiabatic strokes only change the field.
Each isochore ends in its bath's Gibbs state at its own field, and both
cycles' heats are the one formula Q_in = E_hi . (P_hot,hi - P_start,hi) and
Q_out = E_lo . (P_start,lo - P_cold,lo) (Kieu, PRL 93, 140403 (2004); Quan
et al., PRE 76, 031105 (2007)).  The flavours differ only in the state each
isochore starts from:

* thermodynamic-adiabatic: the other bath's Gibbs state at the isochore's
  own field.
* quantum-adiabatic: level populations are frozen along the adiabats and
  transported between fields with the adiabatic LevelMap, which keeps each
  level's (s^z, k) block and its rank inside it, so each isochore starts
  from the other's end state carried over.

Efficiency is (Q_in - Q_out)/Q_in; rows with Q_in <= 0 or negative work are
flagged as non-engine regimes rather than silently reported.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .correlations import _one_tangles, _pair_concurrences, _two_tangles
from .model import ChainParams
from .spectra import (LevelMap, Spectrum, _level_maps, _per_stack, _spectral_sum,
                      diagonalize_params)
from .thermal import _check_t, gibbs

log = logging.getLogger("ottochain")


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


@dataclass(frozen=True, slots=True)
class CycleResult:
    q_in: float
    q_out: float
    work: float
    efficiency: float
    carnot: float
    is_engine: bool


def _cycle(hi: Spectrum, lo: Spectrum, t_hot: float, t_cold: float, hot_hi: np.ndarray,
           cold_lo: np.ndarray, start_hi: np.ndarray, start_lo: np.ndarray) -> CycleResult:
    """The cycle whose isochores take the populations from `start_hi` to the
    hot Gibbs state `hot_hi` at the high field, and from `start_lo` to the
    cold one `cold_lo` at the low field."""
    q_in = float(hi.energies @ (hot_hi - start_hi))
    q_out = float(lo.energies @ (start_lo - cold_lo))
    work = q_in - q_out
    eff = work / q_in if q_in != 0.0 else float("nan")
    return CycleResult(q_in, q_out, work, eff, 1.0 - t_cold / t_hot,
                       is_engine=(q_in > 0.0 and work >= 0.0))


def _carried(perm: np.ndarray, cold_lo: np.ndarray, hot_hi: np.ndarray):
    """The quantum isochores' start states: the cold populations carried up
    the level map `perm` to the high-field levels, the hot ones back down."""
    up = np.empty_like(cold_lo)
    up[perm] = cold_lo
    return up, hot_hi[perm]


def run_cycle(spec: CycleSpec, level_map: LevelMap | None = None) -> CycleResult:
    """Evaluate one cycle.  A precomputed LevelMap from p_low to p_high may
    be passed to calls that share it; the spectra at both fields that the
    map carries serve the cycle.  Without one, a quantum cycle walks its own
    level map, and a thermodynamic one diagonalizes both fields."""
    params = spec.params
    if level_map is not None and (level_map.e_from, level_map.e_to) != (spec.p_low, spec.p_high):
        raise ValueError(f"level map from {level_map.e_from} to {level_map.e_to} does not "
                         f"join the cycle's fields {spec.p_low} and {spec.p_high}")
    if spec.mode is CycleMode.QUANTUM and level_map is None:
        _, level_map = _level_maps(params, [spec.p_low, spec.p_high])
    if level_map is None:
        lo = diagonalize_params(params.replace(e_field=spec.p_low))
        hi = diagonalize_params(params.replace(e_field=spec.p_high))
    else:
        lo, hi = level_map.origin, level_map.spectrum
    hot_hi, cold_lo = gibbs(hi, spec.t_hot).populations, gibbs(lo, spec.t_cold).populations
    starts = (_carried(level_map.permutation, cold_lo, hot_hi) if spec.mode is CycleMode.QUANTUM
              else (gibbs(hi, spec.t_cold).populations, gibbs(lo, spec.t_hot).populations))
    return _cycle(hi, lo, spec.t_hot, spec.t_cold, hot_hi, cold_lo, *starts)


@dataclass(frozen=True, slots=True)
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
    p_low and each node are solved once, in (s^z, k) blocks, and the walk's
    spectrum at each node serves both cycles and the hot state of its row.
    These spectra agree with `diagonalize_params` to rounding (1e-12
    relative), and every row is, bit for bit, the cycle `run_cycle` gives
    with the same map, which carries the same spectra at p_low and at the
    node.  Each Gibbs state is evaluated once; the hot one at a node also
    gives its row's hot state, and every row shares one Carnot float.  The
    hot states are written a stack of at most STACK_BYTES at a time (70
    fields at n=6, 5 at n=8, one from n=10 up), and the tangles of a stack
    come from one stacked Wootters pass, the same numbers as `two_tangle`
    and `one_tangle` give for each state.  The counts of hot states and of
    stacked passes are logged at DEBUG level.
    """
    p_grid = [float(p) for p in p_grid]
    if not p_grid or not all(np.isfinite(p) and p > 0 for p in p_grid):
        raise ValueError("field grid must be nonempty, finite and positive")

    order = np.argsort(p_grid)
    maps = _level_maps(spec.params, [spec.p_low] + [p_grid[k] for k in order])
    lo = next(maps).spectrum
    hot_lo, cold_lo = gibbs(lo, spec.t_hot).populations, gibbs(lo, spec.t_cold).populations
    n, layout = spec.params.n, lo.layout
    hot = np.empty((min(len(p_grid), _per_stack(layout)), layout.size), dtype=complex)
    pairs = zip(maps, order)
    rows: list = [None] * len(p_grid)
    carnot = 1.0 - spec.t_cold / spec.t_hot     # one float that every row shares
    passes = 0
    while chunk := list(islice(pairs, len(hot))):
        states = hot[:len(chunk)]
        hot_pops = [gibbs(level_map.spectrum, spec.t_hot).populations for level_map, _ in chunk]
        for (level_map, _), hot_hi, state in zip(chunk, hot_pops, states):
            _spectral_sum(level_map.spectrum, hot_hi, out=state)
        tau2 = _two_tangles(_pair_concurrences(states, layout, n), n)
        tau1 = _one_tangles(states, layout)
        passes += 1
        for (level_map, k), hot_hi, t2, t1 in zip(chunk, hot_pops, tau2, tau1):
            p, hi = p_grid[k], level_map.spectrum
            common = (hi, lo, spec.t_hot, spec.t_cold, hot_hi, cold_lo)
            thermo = _cycle(*common, gibbs(hi, spec.t_cold).populations, hot_lo)
            quantum = _cycle(*common, *_carried(level_map.permutation, cold_lo, hot_hi))
            rows[k] = SweepRow(
                p_high=p,
                ratio=p / spec.p_low if spec.p_low != 0 else float("inf"),
                eta_quantum=quantum.efficiency,
                eta_thermo=thermo.efficiency,
                tau2_hot=float(t2),
                tau1_hot=float(t1),
                quantum_is_engine=quantum.is_engine,
                thermo_is_engine=thermo.is_engine,
                carnot=carnot,
            )
    log.debug("efficiency sweep over %d fields: %d hot states in %d stacked tangle passes",
              len(p_grid), len(p_grid), passes)
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
