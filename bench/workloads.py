"""The benchmark's four workloads; run as a script, one workload in this process.

    python3 bench/workloads.py WORKLOAD SEED SECONDS TRACE

Each workload repeats whole rounds of the same operations until SECONDS have
passed (the timed phase), then checks every output outside the timed phase
and prints one JSON line: correct, attempted, failed, the error messages
and the metrics.  The seed makes the inputs; the library only sees them.
With TRACE=1 the library's public functions are wrapped (see `tracing.py`)
and the per-layer metrics are reported instead of the end-to-end ones.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from reference import Ring, thermo_cycle_heats
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

T_ZERO_SIDE = 1e-3      # probe distance on each side of a threshold
CHI_TOL, CHI_FLOOR = 1e-4, 1e-3   # `validation`'s susceptibility tolerance
ORACLE_TOL = 1e-8


def import_library():
    """`ottochain` from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ottochain
    import ottochain.cli
    if not Path(ottochain.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ottochain imported from {ottochain.__file__}, not {SRC}")
    return ottochain


def jittered_grid(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One value in each of `count` equal cells of [lo, hi], ascending."""
    return lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count


def ring_tangle(cs, n: int) -> float:
    """tau_2 from the concurrences at distances 1..n//2, as `ottochain tangles`
    forms it."""
    return sum((1 if n % 2 == 0 and r == n // 2 else 2) * c * c
               for r, c in enumerate(cs, start=1))


class Run:
    """What the timed phase records: point wall times and operation counts."""

    def __init__(self):
        self.point_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def point(self, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.point_s.append(time.perf_counter() - start)
        self.attempted += 1
        return out

    def operation(self, fn, *args, expected=()):
        """An operation that is not a point; one that raises one of
        `expected` counts as failed and gives None."""
        self.attempted += 1
        try:
            return fn(*args)
        except expected:
            self.failed += 1
            return None


class Errors(list):
    """Failed checks, one message each."""

    def close(self, what: str, got, want, tol: float) -> None:
        dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        if not dev <= tol:
            self.append(f"{what}: deviation {dev:.3e} above {tol:.0e}")

    def holds(self, what: str, ok: bool) -> None:
        if not ok:
            self.append(what)


class Workload:
    """Inputs from the seed, one round of timed operations, and the checks
    of every round's outputs."""

    name = ""
    header: list[str] = []

    def __init__(self, oc, rng):
        self.oc = oc
        self.rng = rng
        self.outputs: list = []

    def emit(self, rows) -> None:
        """Write the round's rows as `ottochain` writes its tables."""
        meta = {"command": "bench", "workload": self.name}
        self.oc.cli.write_table(meta, self.header, rows, "csv",
                                str(OUT / f"{self.name}.csv"))


class TSweepN8(Workload):
    """Temperature sweep at n=8: thermal entanglement, chirality,
    susceptibilities and fidelity per point, and two threshold searches."""

    name = "tsweep-n8"
    N, POINTS, T_RANGE = 8, 40, (2.0, 80.0)
    THRESHOLD_FIELDS = (10.0, 20.0)
    FIDELITY_STEP = 0.1
    header = (["t", "tau1", "tau2"] + [f"c_r{r}" for r in range(1, N // 2 + 1)]
              + ["chirality", "chi_b", "chi_e", "fidelity_e"])

    def __init__(self, oc, rng):
        super().__init__(oc, rng)
        self.params = oc.ChainParams(self.N, 1.0, -1.0, 1.0, 10.0)

    def point(self, t, k_op):
        oc, n = self.oc, self.N
        spec = oc.diagonalize_params(self.params)
        rho = oc.density_matrix(oc.gibbs(spec, t))
        cs = [oc.concurrence(oc.partial_trace(rho, [0, r])) for r in range(1, n // 2 + 1)]
        electric = oc.FieldTag.ELECTRIC
        return {
            "energies": spec.energies, "c": cs, "tau1": oc.one_tangle(rho),
            "tau2": ring_tangle(cs, n),
            "k": oc.chirality_expectation(rho, k_op),
            "chi_b": oc.susceptibility(self.params, oc.FieldTag.MAGNETIC, t),
            "chi_e": oc.susceptibility(self.params, electric, t),
            "fidelity": oc.thermal_state_fidelity(self.params, electric, t,
                                                  self.FIDELITY_STEP),
        }

    def round(self, run: Run) -> None:
        oc = self.oc
        temps = jittered_grid(self.rng, *self.T_RANGE, self.POINTS)
        k_op = oc.build_chirality_operator(self.N)
        points = [run.point(self.point, float(t), k_op) for t in temps]
        thresholds = [run.operation(oc.threshold_temperature,
                                    self.params.replace(e_field=p), *self.T_RANGE)
                      for p in self.THRESHOLD_FIELDS]
        self.emit([[t, o["tau1"], o["tau2"], *o["c"], o["k"], o["chi_b"],
                    o["chi_e"], o["fidelity"]] for t, o in zip(temps, points)])
        self.outputs.append((temps, points, thresholds))

    def check(self) -> Errors:
        oc, err = self.oc, Errors()
        ref = Ring(self.N, 1.0, -1.0, 1.0, 10.0)
        for temps, points, thresholds in self.outputs:
            for t, o in zip(temps, points):
                err.close(f"energies at T={t:.4g}", o["energies"], ref.sorted_energies(), 1e-9)
                err.close(f"<K> at T={t:.4g}", o["k"], ref.chirality(t), 1e-9)
                for key, want in (("chi_b", ref.chi_b(t)), ("chi_e", ref.chi_e(t))):
                    err.close(f"{key} at T={t:.4g}", o[key], want,
                              CHI_TOL * max(CHI_FLOOR, abs(want)))
                err.holds(f"concurrences {o['c']} outside [0, 1] at T={t:.4g}",
                          all(0.0 <= c <= 1.0 for c in o["c"]))
                err.holds(f"fidelity {o['fidelity']} outside [0, 1] at T={t:.4g}",
                          0.0 <= o["fidelity"] <= 1.0 + 1e-12)
            err.holds(f"thresholds {thresholds} differ between rounds",
                      thresholds == self.outputs[0][2])
        zero = oc.correlations.TAU2_ZERO
        for p, t_th in zip(self.THRESHOLD_FIELDS, self.outputs[0][2]):
            params = self.params.replace(e_field=p)
            below, above = (oc.two_tangle(oc.density_matrix(oc.gibbs(
                oc.diagonalize_params(params), t)), self.N)
                for t in (t_th - T_ZERO_SIDE, t_th + T_ZERO_SIDE))
            err.holds(f"tau2 {below:.3e} not above zero just below T_th={t_th} (p={p})",
                      below > zero)
            err.holds(f"tau2 {above:.3e} above zero just above T_th={t_th} (p={p})",
                      above <= zero)
        return err


class OttoQuantum(Workload):
    """The README's e-field Otto sweep at n=6, one full `efficiency_sweep` per
    point at a seeded magnetic field, plus the two zero-field quantum cycles."""

    name = "otto-quantum"
    N, T_HOT, T_COLD, P_LOW = 6, 30.0, 10.0, 3.5
    GRID = tuple(float(p) for p in np.linspace(3.5, 14.0, 22))
    POINTS = 2
    ZERO_FIELD = ((3, 10.0), (6, 10.0))    # (n, p_high) from p_low = 0, b = 1
    header = ["e_field", "ratio", "eta_quantum", "eta_thermo", "tau2_hot",
              "tau1_hot", "quantum_is_engine", "thermo_is_engine", "carnot"]

    def __init__(self, oc, rng):
        super().__init__(oc, rng)
        self.fields = tuple(float(b) for b in rng.uniform(0.5, 2.0, self.POINTS))

    def spec(self, n, b, p_high, p_low, mode):
        oc = self.oc
        return oc.CycleSpec(oc.ChainParams(n, 1.0, -1.0, b, 0.0), self.T_HOT,
                            self.T_COLD, p_high, p_low, mode)

    def sweep(self, b):
        spec = self.spec(self.N, b, self.GRID[-1], self.P_LOW, self.oc.CycleMode.QUANTUM)
        return self.oc.efficiency_sweep(spec, self.GRID)

    def round(self, run: Run) -> None:
        oc = self.oc
        zero_field = [run.operation(oc.run_cycle,
                                    self.spec(n, 1.0, p, 0.0, oc.CycleMode.QUANTUM),
                                    expected=oc.ContinuationError)
                      for n, p in self.ZERO_FIELD]
        sweeps = []
        for b in self.fields:
            rows = run.point(self.sweep, b)
            self.emit([dataclasses.astuple(r) for r in rows])
            sweeps.append(rows)
        self.outputs.append((zero_field, sweeps))

    def clausius(self, err: Errors, what: str, result) -> None:
        value = result.q_in / self.T_HOT - result.q_out / self.T_COLD
        err.holds(f"Clausius violated for {what}: Q_in/T_hot - Q_out/T_cold = {value:.3e}",
                  value <= 0.0)

    def check(self) -> Errors:
        err = Errors()
        first_zero, first_sweeps = self.outputs[0]
        for zero_field, sweeps in self.outputs[1:]:
            same = all(np.array_equal([dataclasses.astuple(r) for r in a],
                                      [dataclasses.astuple(r) for r in b], equal_nan=True)
                       for a, b in zip(sweeps, first_sweeps))
            err.holds("sweep rows differ between rounds", same)
        for (n, p), result in zip(self.ZERO_FIELD, first_zero):
            if result is not None:
                self.clausius(err, f"zero-field cycle n={n} p_high={p}", result)
        for b, rows in zip(self.fields, first_sweeps):
            self.check_sweep(err, b, rows)
        return err

    def check_sweep(self, err: Errors, b: float, rows) -> None:
        oc = self.oc
        params = oc.ChainParams(self.N, 1.0, -1.0, b, 0.0)
        level_map, anchor = None, self.P_LOW
        for p, row in zip(self.GRID, rows):
            q_in, q_out = thermo_cycle_heats(self.N, 1.0, -1.0, b, p, self.P_LOW,
                                             self.T_HOT, self.T_COLD)
            thermo = oc.run_cycle(self.spec(self.N, b, p, self.P_LOW, oc.CycleMode.THERMO))
            err.close(f"thermo heats at b={b:.4g} p={p:.4g}", [thermo.q_in, thermo.q_out],
                      [q_in, q_out], 1e-9 * max(1.0, abs(q_in), abs(q_out)))
            err.close(f"eta_thermo at b={b:.4g} p={p:.4g}", row.eta_thermo,
                      1.0 - q_out / q_in, 1e-8 * max(1.0, abs(1.0 - q_out / q_in)))
            segment = oc.continue_levels(params, anchor, p)
            level_map = segment if level_map is None else level_map.compose(segment)
            anchor = p
            quantum = oc.run_cycle(self.spec(self.N, b, p, self.P_LOW, oc.CycleMode.QUANTUM),
                                   level_map=level_map)
            self.clausius(err, f"b={b:.4g} p={p:.4g}", quantum)
            err.close(f"eta_quantum at b={b:.4g} p={p:.4g}", row.eta_quantum,
                      quantum.efficiency, 1e-12)
            if row.quantum_is_engine:
                err.holds(f"eta_quantum {row.eta_quantum} above Carnot at b={b:.4g} p={p:.4g}",
                          row.eta_quantum <= row.carnot + 1e-12)


class RingN10(Workload):
    """Thermal entanglement of the ten-site ring: dense operators and the
    2^n x 2^n density matrix."""

    name = "ring-n10"
    N, POINTS, T_RANGE = 10, 10, (2.0, 60.0)
    header = (["t", "tau1", "tau2"] + [f"c_r{r}" for r in range(1, N // 2 + 1)]
              + ["chirality"])

    def __init__(self, oc, rng):
        super().__init__(oc, rng)
        self.params = oc.ChainParams(self.N, 1.0, -1.0, 1.0, 10.0)

    def point(self, t, k_op):
        oc, n = self.oc, self.N
        spec = oc.diagonalize_params(self.params)
        rho = oc.density_matrix(oc.gibbs(spec, t))
        cs = [oc.concurrence(oc.partial_trace(rho, [0, r])) for r in range(1, n // 2 + 1)]
        return {"energies": spec.energies, "c": cs, "tau1": oc.one_tangle(rho),
                "tau2": ring_tangle(cs, n), "k": oc.chirality_expectation(rho, k_op)}

    def round(self, run: Run) -> None:
        temps = jittered_grid(self.rng, *self.T_RANGE, self.POINTS)
        k_op = self.oc.build_chirality_operator(self.N)
        points = [run.point(self.point, float(t), k_op) for t in temps]
        self.emit([[t, o["tau1"], o["tau2"], *o["c"], o["k"]]
                   for t, o in zip(temps, points)])
        self.outputs.append((temps, points))

    def check(self) -> Errors:
        oc, err, n = self.oc, Errors(), self.N
        ref = Ring(n, 1.0, -1.0, 1.0, 10.0)
        for temps, points in self.outputs:
            for t, o in zip(temps, points):
                err.close(f"energies at T={t:.4g}", o["energies"], ref.sorted_energies(), 1e-9)
                err.close(f"<K> at T={t:.4g}", o["k"], ref.chirality(t), 1e-9)
        spec = oc.diagonalize_params(self.params)
        temps, points = self.outputs[0]
        for t, o in zip(temps, points):
            rho = oc.density_matrix(oc.gibbs(spec, float(t)))
            err.close(f"tr rho at T={t:.4g}", np.trace(rho.entries), 1.0, 1e-12)
            shifted = [oc.concurrence(oc.partial_trace(rho, [1, 1 + r]))
                       for r in range(1, n // 2 + 1)]
            err.close(f"C(1,1+r) against C(0,r) at T={t:.4g}", shifted, o["c"], 1e-9)
        return err


class OracleN4(Workload):
    """Several hundred seeded four-site points in the validation grid's
    ranges, against the closed forms."""

    name = "oracle-n4"
    POINTS = 300
    header = ["j", "b", "e_field", "t", "z", "c12", "c13", "tau1", "tau2",
              "chirality", "chi_b", "chi_e", "f_sc", "s_sc", "heat_sc"]

    def point(self, j, b, d, t, k_op):
        oc = self.oc
        params = oc.ChainParams(4, j, -j, b, d)
        spec = oc.diagonalize_params(params)
        g = oc.gibbs(spec, t)
        rho = oc.density_matrix(g)
        cs = [oc.concurrence(oc.partial_trace(rho, [0, r])) for r in (1, 2)]
        cfg = oc.ScConfig(j, b)
        return {
            "energies": spec.energies, "z": g.z_shifted, "c": cs,
            "tau1": oc.one_tangle(rho), "tau2": ring_tangle(cs, 4),
            "k": oc.chirality_expectation(rho, k_op),
            "chi_b": oc.susceptibility(params, oc.FieldTag.MAGNETIC, t),
            "chi_e": oc.susceptibility(params, oc.FieldTag.ELECTRIC, t),
            "f_sc": oc.free_energy_sc(t, d, cfg), "s_sc": oc.entropy_sc(t, d, cfg),
            "heat_sc": oc.heat_integral_sc(d, t, 2.0 * t, cfg),
        }

    def round(self, run: Run) -> None:
        rng, n = self.rng, self.POINTS
        inputs = np.column_stack([rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 2.0, n),
                                  rng.uniform(0.0, 5.0, n),
                                  np.exp(rng.uniform(0.0, np.log(100.0), n))])
        k_op = self.oc.build_chirality_operator(4)
        points = [run.point(self.point, *map(float, x), k_op) for x in inputs]
        self.emit([[*x, o["z"], *o["c"], o["tau1"], o["tau2"], o["k"], o["chi_b"],
                    o["chi_e"], o["f_sc"], o["s_sc"], o["heat_sc"]]
                   for x, o in zip(inputs, points)])
        self.outputs.append((inputs, points))

    def check(self) -> Errors:
        oc, err = self.oc, Errors()
        a4 = oc.analytic4
        for inputs, points in self.outputs:
            for (j, b, d, t), o in zip(inputs, points):
                at = f"(j, b, p, T) = ({j:.4g}, {b:.4g}, {d:.4g}, {t:.4g})"
                closed = np.sort(a4.spectrum4(j, b, d))
                err.close(f"energies at {at}", o["energies"], closed,
                          ORACLE_TOL * max(1.0, float(np.abs(closed).max())))
                der = a4.coeffs4(j, b, d, t)
                err.close(f"Z at {at}", o["z"] / der.z, 1.0, ORACLE_TOL)
                err.close(f"concurrences at {at}", o["c"], a4.concurrences4(der), ORACLE_TOL)
                err.close(f"tau1 at {at}", o["tau1"], a4.one_tangle4(der), ORACLE_TOL)
                err.close(f"tau2 at {at}", o["tau2"], a4.two_tangle4(der), ORACLE_TOL)
                err.close(f"<K> at {at}", o["k"], a4.chirality4(der), ORACLE_TOL)
                for key, want in (("chi_b", a4.chi_b4(j, b, d, t)),
                                  ("chi_e", a4.chi_e4(j, b, d, t))):
                    err.close(f"{key} at {at}", o[key], want,
                              CHI_TOL * max(CHI_FLOOR, abs(want)))
                cfg = oc.ScConfig(j, b)
                u_lo = o["f_sc"] + t * o["s_sc"]
                u_hi = oc.free_energy_sc(2 * t, d, cfg) + 2 * t * oc.entropy_sc(2 * t, d, cfg)
                err.close(f"heat_integral_sc against U(2T) - U(T) at {at}",
                          o["heat_sc"], u_hi - u_lo, 1e-7 * max(1.0, abs(u_hi - u_lo)))
        return err


WORKLOADS = {w.name: w for w in (TSweepN8, OttoQuantum, RingN10, OracleN4)}


def main(argv) -> int:
    name, seed, seconds, traced = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    oc = import_library()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](oc, np.random.default_rng(seed))
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    run = Run()
    start = time.perf_counter()
    while run.rounds == 0 or time.perf_counter() - start < seconds:
        if tracer:
            tracer.round = run.rounds
        workload.round(run)
        run.rounds += 1
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    errors = workload.check()
    points_per_s = len(run.point_s) / elapsed
    if tracer:
        metrics = tracer.layer_metrics(run.rounds)
        metrics["trace.points_per_s"] = points_per_s
        tracer.write(OUT / f"{name}-spans.tsv.gz")
    else:
        metrics = {"points_per_s": points_per_s,
                   "point_p50_ms": 1e3 * float(np.median(run.point_s)),
                   "peak_rss_mb": peak_rss_mb}
    print(json.dumps({"correct": not errors, "attempted": run.attempted,
                      "failed": run.failed, "rounds": run.rounds,
                      "errors": errors[:20], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
