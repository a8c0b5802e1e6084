import ottochain

PUBLIC = [
    "Analytic4Derived", "ChainParams", "ContinuationError", "CycleMode",
    "CycleResult", "CycleSpec", "DensityMatrix", "DiagonalizationError",
    "FieldTag", "GibbsState", "LevelMap", "NoThresholdError",
    "ParameterError", "ScConfig", "Spectrum", "SweepRow", "TemperatureError",
    "build_chirality_operator", "build_hamiltonian", "build_total_sz",
    "chi_b4", "chi_e4", "chirality4", "chirality_expectation", "coeffs4",
    "concurrence", "concurrences4", "continue_levels", "density_matrix",
    "diagonalize_params", "efficiency_sc", "efficiency_sweep", "entropy",
    "entropy_sc", "free_energy", "free_energy_sc", "gibbs",
    "heat_integral_sc", "internal_energy", "one_tangle", "one_tangle4",
    "partial_trace", "perturbation_valid", "run_cycle", "size_scaling",
    "spectrum4", "susceptibility", "thermal_state_fidelity",
    "threshold_temperature", "two_tangle", "two_tangle4",
]


def test_public_surface_is_pinned():
    # an added or removed public name shows up here as a diff
    assert sorted(ottochain.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(ottochain, name) is not None
