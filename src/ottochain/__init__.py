"""Exact-diagonalization thermodynamics of a frustrated spin-1/2 ring whose
chirality couples to an electric field, and quantum Otto cycles driven by
that field."""

from .analytic4 import (Analytic4Derived, chi_b4, chi_e4, chirality4,
                        coeffs4, concurrences4, one_tangle4, spectrum4,
                        two_tangle4)
from .correlations import (DensityMatrix, NoThresholdError, chirality_expectation,
                           concurrence, density_matrix, one_tangle,
                           partial_trace, threshold_temperature, two_tangle)
from .model import (ChainParams, ParameterError, build_chirality_operator,
                    build_hamiltonian, build_total_sz)
from .otto import (CycleMode, CycleResult, CycleSpec, SweepRow,
                   efficiency_sweep, run_cycle, size_scaling)
from .response import FieldTag, susceptibility, thermal_state_fidelity
from .semiclassical import (ScConfig, efficiency_sc, entropy_sc,
                            free_energy_sc, heat_integral_sc,
                            perturbation_valid)
from .spectra import (ContinuationError, DiagonalizationError, LevelMap,
                      Spectrum, continue_levels, diagonalize_params)
from .thermal import (GibbsState, TemperatureError, entropy, free_energy,
                      gibbs, internal_energy)

__version__ = "0.1.0"

__all__ = [
    "Analytic4Derived", "ChainParams", "ContinuationError", "CycleMode",
    "CycleResult", "CycleSpec", "DensityMatrix", "DiagonalizationError",
    "FieldTag", "GibbsState", "LevelMap", "NoThresholdError",
    "ParameterError", "ScConfig", "Spectrum", "SweepRow", "TemperatureError",
    "build_chirality_operator", "build_hamiltonian", "build_total_sz",
    "chi_b4", "chi_e4", "chirality4", "chirality_expectation", "coeffs4",
    "concurrence", "concurrences4", "continue_levels", "density_matrix",
    "diagonalize_params", "efficiency_sc", "efficiency_sweep",
    "entropy", "entropy_sc", "free_energy",
    "free_energy_sc", "gibbs", "heat_integral_sc", "internal_energy",
    "one_tangle", "one_tangle4", "partial_trace", "perturbation_valid",
    "run_cycle", "size_scaling", "spectrum4", "susceptibility",
    "thermal_state_fidelity", "threshold_temperature", "two_tangle",
    "two_tangle4",
]
