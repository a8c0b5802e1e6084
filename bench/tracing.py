"""Span tracing around the library's public functions, for the traced run.

`Tracer.install` replaces each traced function at every name it is bound
under in the imported `ottochain` modules (for example `diagonalize_params`
inside `spectra`, `correlations`, `response` and `otto`), so calls made from
inside the library, such as the diagonalizations of `continue_levels` and
`susceptibility`, are seen.  Spans stay in memory, each with its parent and
the benchmark round it began in; `write` saves them when the run ends and
`layer_metrics` turns them into the per-layer metrics.  Nothing under
`src/` changes.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

import numpy as np

# layer (module of `ottochain`) -> the public functions traced in it
LAYERS = {
    "model": ("build_hamiltonian", "build_chirality_operator", "build_total_sz"),
    "spectra": ("diagonalize", "diagonalize_params", "continue_levels"),
    "thermal": ("gibbs",),
    "correlations": ("density_matrix", "partial_trace", "concurrence",
                     "chirality_expectation", "threshold_temperature"),
    "response": ("susceptibility", "thermal_state_fidelity", "uhlmann_fidelity"),
    "otto": ("efficiency_sweep", "run_cycle"),
    "semiclassical": ("heat_integral_sc",),
    "cli": ("write_table",),
}

BUILDS = tuple(f"model.{f}" for f in LAYERS["model"])
DIAG, DIAG_PARAMS = "spectra.diagonalize", "spectra.diagonalize_params"
CONTINUE = "spectra.continue_levels"
CHI = "response.susceptibility"
THRESHOLD = "correlations.threshold_temperature"

# (name, parent, start, end, round, info, failed)
NAME, PARENT, START, END, ROUND, INFO, FAILED = range(7)


def _block_dim_max(spectrum) -> int:
    sectors = np.asarray(spectrum.sz_sector)
    return int(np.bincount(sectors - sectors.min()).max())


def _unrefined_grid(steps_per_unit: int):
    """Diagonalizations `continue_levels` makes when no step is bisected."""
    def info(args, kwargs, _result):
        e_from = kwargs.get("e_from", args[1] if len(args) > 1 else None)
        e_to = kwargs.get("e_to", args[2] if len(args) > 2 else None)
        steps = kwargs.get("steps", args[3] if len(args) > 3 else None)
        if e_from == e_to:
            return 0
        if steps is None:
            steps = max(1, int(np.ceil(steps_per_unit * abs(e_to - e_from))))
        return steps + 1
    return info


def _site_count(args, kwargs, _result):
    arg = args[0] if args else next(iter(kwargs.values()))
    return int(getattr(arg, "n", arg))


class Tracer:
    """Spans of one process, recorded while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.round = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "ottochain" or name.startswith("ottochain.")]
        spectra = sys.modules["ottochain.spectra"]
        infos = {
            DIAG: lambda args, kwargs, result: _block_dim_max(result),
            DIAG_PARAMS: lambda args, kwargs, result: args[0] if args else kwargs["params"],
            CONTINUE: _unrefined_grid(getattr(spectra, "DEFAULT_STEPS_PER_UNIT", 64)),
        }
        infos.update({name: _site_count for name in BUILDS})
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"ottochain.{layer}")
            for function in functions:
                original = getattr(home, function, None)
                if original is None:
                    continue
                name = f"{layer}.{function}"
                wrapper = self._wrap(name, original, infos.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, function, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.round,
                    None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            except Exception:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result
        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines: id, parent (-1 for
        none), round, name, start and end in seconds, failed (0/1)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tround\tname\tstart\tend\tfailed\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[ROUND]}\t{s[NAME]}\t{s[START]:.7f}"
                         f"\t{s[END]:.7f}\t{int(s[FAILED])}\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer counts and self times, as means per round; the cold
        build is once per process."""
        spans = self.spans
        self_time = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                self_time[s[PARENT]] -= s[END] - s[START]

        def count(names):
            return sum(1 for s in spans if s[NAME] in names)

        def self_s(names):
            return sum(t for s, t in zip(spans, self_time) if s[NAME] in names)

        # one eigensolve per diagonalization, however it was reached
        diags = [i for i, s in enumerate(spans) if s[NAME] == DIAG_PARAMS or (
            s[NAME] == DIAG and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != DIAG_PARAMS))]
        under = {CONTINUE: {}, CHI: {}, THRESHOLD: {}}  # nearest caller -> its diags
        for i in diags:
            found = set()
            for a in _ancestors(spans, i):
                name = spans[a][NAME]
                if name in under and name not in found:
                    found.add(name)
                    under[name][a] = under[name].get(a, 0) + 1
        refine_extra = sum(n - spans[a][INFO] for a, n in under[CONTINUE].items()
                           if not spans[a][FAILED])

        seen, cold = set(), 0.0
        for s, t in zip(spans, self_time):
            if s[NAME] in BUILDS and (s[NAME], s[INFO]) not in seen:
                seen.add((s[NAME], s[INFO]))
                cold += t

        keys_by_round: dict[int, list] = {}
        for s in spans:
            if s[NAME] == DIAG_PARAMS and s[INFO] is not None:
                keys_by_round.setdefault(s[ROUND], []).append(s[INFO])
        distinct = sum(len(set(keys)) for keys in keys_by_round.values())
        calls = sum(len(keys) for keys in keys_by_round.values())
        blocks = [s[INFO] for s in spans if s[NAME] == DIAG and s[INFO] is not None]

        per_round = {
            "model.build_calls": count(BUILDS),
            "model.build_self_s": self_s(BUILDS),
            "spectra.diag_calls": len(diags),
            "spectra.diag_self_s": self_s((DIAG, DIAG_PARAMS)),
            "spectra.continue_calls": count((CONTINUE,)),
            "spectra.continue_self_s": self_s((CONTINUE,)),
            "spectra.continue_diag_calls": sum(under[CONTINUE].values()),
            "spectra.refine_extra_diags": refine_extra,
            "thermal.gibbs_calls": count(("thermal.gibbs",)),
            "thermal.gibbs_self_s": self_s(("thermal.gibbs",)),
            "correlations.rho_calls": count(("correlations.density_matrix",)),
            "correlations.rho_self_s": self_s(("correlations.density_matrix",)),
            "correlations.pair_self_s": self_s(("correlations.partial_trace",
                                                "correlations.concurrence")),
            "correlations.chirality_self_s": self_s(("correlations.chirality_expectation",)),
            "correlations.threshold_self_s": self_s((THRESHOLD,)),
            "correlations.threshold_diag_calls": sum(under[THRESHOLD].values()),
            "response.chi_calls": count((CHI,)),
            "response.chi_self_s": self_s((CHI,)),
            "response.chi_diag_calls": sum(under[CHI].values()),
            "response.fidelity_self_s": self_s(("response.thermal_state_fidelity",
                                                "response.uhlmann_fidelity")),
            "otto.sweep_calls": count(("otto.efficiency_sweep",)),
            "otto.sweep_self_s": self_s(("otto.efficiency_sweep",)),
            "otto.cycle_calls": count(("otto.run_cycle",)),
            "semiclassical.heat_calls": count(("semiclassical.heat_integral_sc",)),
            "semiclassical.heat_self_s": self_s(("semiclassical.heat_integral_sc",)),
            "cli.emit_self_s": self_s(("cli.write_table",)),
        }
        out = {k: v / rounds for k, v in per_round.items()}
        out["model.cold_build_s"] = cold
        out["spectra.diag_distinct_ratio"] = distinct / calls if calls else 0.0
        out["spectra.block_dim_max"] = max(blocks, default=0)
        return out


def _ancestors(spans, i):
    parent = spans[i][PARENT]
    while parent >= 0:
        yield parent
        parent = spans[parent][PARENT]
