"""The benchmark's reference against the closed-form four-site solution.

Run with `python3 -m pytest bench/test_reference.py` from the repository
root.  The reference itself imports nothing from `ottochain`; only this test
does, to reach the `analytic4` closed forms.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ottochain import analytic4  # noqa: E402

from reference import Ring, thermo_cycle_heats  # noqa: E402

GRID = list(itertools.product((0.5, 1.0, 2.0), (0.0, 1.0, 2.0),
                              (0.0, 1.0, 5.0)))
TEMPERATURES = (1.0, 10.0, 30.0, 100.0)


@pytest.mark.parametrize("j,b,d", GRID)
def test_against_closed_forms(j, b, d):
    ring = Ring(4, j, -j, b, d)
    closed = np.sort(analytic4.spectrum4(j, b, d))
    assert np.max(np.abs(ring.sorted_energies() - closed)) < 1e-10 * max(1.0, np.abs(closed).max())
    for t in TEMPERATURES:
        der = analytic4.coeffs4(j, b, d, t)
        assert abs(ring.chirality(t) - analytic4.chirality4(der)) < 1e-10
        for ours, closed_form in ((ring.chi_b(t), analytic4.chi_b4(j, b, d, t)),
                                  (ring.chi_e(t), analytic4.chi_e4(j, b, d, t))):
            assert abs(ours - closed_form) < 1e-9 * max(1.0, abs(closed_form))


@pytest.mark.parametrize("j,b", [(1.0, 0.0), (1.0, 1.0), (0.5, 2.0)])
def test_cycle_heats_against_closed_form_spectrum(j, b):
    def heat(p, t_hot, t_cold):
        e = analytic4.spectrum4(j, b, p)
        w_hot = np.exp(-(e - e.min()) / t_hot)
        w_cold = np.exp(-(e - e.min()) / t_cold)
        return e @ (w_hot / w_hot.sum() - w_cold / w_cold.sum())

    for p_high, p_low in ((10.0, 3.5), (35.0, 0.0)):
        q_in, q_out = thermo_cycle_heats(4, j, -j, b, p_high, p_low, 30.0, 10.0)
        assert abs(q_in - heat(p_high, 30.0, 10.0)) < 1e-9
        assert abs(q_out - heat(p_low, 30.0, 10.0)) < 1e-9


def test_rejects_sizes_beyond_dense_reach():
    with pytest.raises(ValueError):
        Ring(11, 1.0, -1.0, 0.0, 0.0)
