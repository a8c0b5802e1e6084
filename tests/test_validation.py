import dataclasses

import numpy as np

from ottochain import validation


def test_suite_passes_clean():
    results = validation.run_all()
    failing = [r.name for r in results if not r.passed]
    assert failing == []


def test_suite_reports_deviations():
    for r in validation.run_all():
        assert r.max_deviation >= 0.0
        assert r.tolerance > 0.0
        assert r.name


def test_energy_perturbation_negative_control(monkeypatch):
    # a 1e-3 energy perturbation of the numeric spectra must trip the
    # oracle comparisons
    solve = validation.diagonalize_params

    def perturbed(params):
        spec = solve(params)
        return dataclasses.replace(spec, energies=spec.energies + 1e-3 * np.arange(spec.dim))

    monkeypatch.setattr(validation, "diagonalize_params", perturbed)
    results = validation.run_all()
    failing = {r.name for r in results if not r.passed}
    assert "spectrum vs closed form" in failing
    assert "partition sum vs closed form" in failing
    assert "reduced-matrix coefficients" in failing
