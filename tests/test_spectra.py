import numpy as np
import pytest

from ottochain.analytic4 import spectrum4
from ottochain.model import ChainParams, build_hamiltonian, build_total_sz
from ottochain import spectra
from ottochain.spectra import (ContinuationError, DiagonalizationError,
                               _eigh_stacks, _layout, _levels, _match,
                               _ring_plan, _spectrum, _stacked,
                               continue_levels, diagonalize_params)

HERMITICITY_TOL = 1e-10


def diagonalize(h, sz):
    """Dense oracle: the spectrum of a Hermitian h that commutes with the
    diagonal sz, from the s^z blocks sliced out of the dense matrix."""
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(h))):
        raise DiagonalizationError("matrix is not Hermitian")
    values = np.rint(np.real(np.diag(sz))).astype(int)
    layout = _layout({v: np.flatnonzero(values == v) for v in np.unique(values)})
    bases = [layout.sectors[s][1] for _, members, _ in layout.groups for s in members]
    buf = np.concatenate([h[np.ix_(b, b)].ravel() for b in bases])
    return _spectrum(layout, _eigh_stacks(layout, buf[None]), 0)


def match_step(spec_a, spec_b):
    """`_match` for one step between two ring spectra: (permutation a->b of
    the level indices, worst matched |overlap|)."""
    layout = _ring_plan(int(spec_a.dim).bit_length() - 1)[0]
    moves, worst = _match(layout, _stacked(layout, (spec_a, spec_b)))
    perm = np.empty(spec_a.dim, dtype=int)
    perm[_levels(spec_a)] = _levels(spec_b)[moves[0]]
    return perm, float(worst[0])


def match_step_loop(spec_a, spec_b):
    """`match_step` with the degeneracy exemption tested pair by pair."""
    from scipy.optimize import linear_sum_assignment

    perm = np.empty(spec_a.dim, dtype=int)
    worst = 1.0
    scale = max(1.0, float(np.max(np.abs(spec_a.energies))))
    states_a, states_b = spec_a.states, spec_b.states
    for value in np.unique(spec_a.sz_sector):
        ia = np.flatnonzero(spec_a.sz_sector == value)
        ib = np.flatnonzero(spec_b.sz_sector == value)
        overlap = np.abs(states_a[:, ia].conj().T @ states_b[:, ib])
        rows, cols = linear_sum_assignment(-(overlap ** 2))
        perm[ia[rows]] = ib[cols]
        for r, c in zip(rows, cols):
            deg_a = np.sum(np.abs(spec_a.energies[ia] - spec_a.energies[ia[r]])
                           < 1e-9 * scale) > 1
            deg_b = np.sum(np.abs(spec_b.energies[ib] - spec_b.energies[ib[c]])
                           < 1e-9 * scale) > 1
            if not (deg_a and deg_b):
                worst = min(worst, overlap[r, c])
    return perm, worst


def continue_levels_loop(params, e_from, e_to, steps=None):
    """The per-step continuation: one `diagonalize_params` and one
    `match_step_loop` per grid step, bisecting a step whose worst overlap
    falls below 0.7 down to 2^10 substeps.  Returns the permutation and the
    spectrum at e_to."""
    if steps is None:
        steps = max(1, int(np.ceil(64 * abs(e_to - e_from))))
    grid = np.linspace(e_from, e_to, steps + 1)
    spec = diagonalize_params(params.replace(e_field=float(grid[0])))
    perm = np.arange(spec.dim)
    for a, b in zip(grid[:-1], grid[1:]):
        spec, step = refine_step_loop(params, spec, float(a), float(b), 1)
        perm = step[perm]
    return perm, spec


def refine_step_loop(params, spec_a, a, b, factor):
    spec_b = diagonalize_params(params.replace(e_field=b))
    perm, worst = match_step_loop(spec_a, spec_b)
    if worst >= 0.7:
        return spec_b, perm
    if factor >= 2 ** 10:
        raise ContinuationError(
            f"ambiguous level matching near e_field={b:g} "
            f"(worst overlap {worst:.3f} at maximum refinement)")
    mid = 0.5 * (a + b)
    spec_m, left = refine_step_loop(params, spec_a, a, mid, factor * 2)
    spec_b, right = refine_step_loop(params, spec_m, mid, b, factor * 2)
    return spec_b, right[left]


def test_ground_energy_matches_closed_form():
    spec = diagonalize_params(ChainParams(4, 1.0, -1.0, 1.0, 1.0))
    assert spec.ground_energy() == pytest.approx(
        float(np.min(spectrum4(1.0, 1.0, 1.0))), abs=1e-12)


def test_hybridized_level_present():
    # 2 j1 + 4 j2 + 2 sqrt(j1^2 + 16 j2^2 - 8 j1 j2 + 8 d^2) at j=d=1
    spec = diagonalize_params(ChainParams(4, 1.0, -1.0, 1.0, 1.0))
    target = -2.0 + 2.0 * np.sqrt(33.0)
    assert np.min(np.abs(spec.energies - target)) <= 1e-10


def test_zero_matrix_all_zero_energies():
    params = ChainParams(4, 0.0, 0.0, 0.0, 0.0)
    assert not np.any(build_hamiltonian(params))
    spec = diagonalize_params(params)
    assert np.max(np.abs(spec.energies)) == 0.0
    overlaps = spec.states.conj().T @ spec.states
    assert np.max(np.abs(overlaps - np.eye(16))) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_spectrum_invariants(n):
    params = ChainParams(n, 1.0, -1.0, 0.7, 1.3)
    h = build_hamiltonian(params)
    sz = build_total_sz(n)
    spec = diagonalize_params(params)
    scale = max(1.0, np.max(np.abs(h)))
    # eigenpair residuals and orthonormality
    residual = h @ spec.states - spec.states * spec.energies
    assert np.max(np.abs(residual)) <= 1e-10 * scale
    gram = spec.states.conj().T @ spec.states
    assert np.max(np.abs(gram - np.eye(2 ** n))) <= 1e-10
    # every eigenvector lives in one magnetization sector
    szd = np.real(np.diag(sz))
    for idx in range(2 ** n):
        v = spec.states[:, idx]
        mean = float(np.real(v.conj() @ (szd * v)))
        var = float(np.real(v.conj() @ (szd ** 2 * v))) - mean ** 2
        assert var <= 1e-10
        assert abs(mean - spec.sz_sector[idx]) <= 1e-9
    # ascending energies
    assert np.all(np.diff(spec.energies) >= -1e-12)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sector_blocking_equals_dense(n):
    params = ChainParams(n, 1.0, -1.0, 0.4, 2.2)
    h = build_hamiltonian(params)
    blocked = diagonalize_params(params)
    assert blocked.energies == pytest.approx(np.linalg.eigvalsh(h), abs=1e-10)


def test_reconstruction():
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.8)
    h = build_hamiltonian(params)
    spec = diagonalize_params(params)
    recon = (spec.states * spec.energies) @ spec.states.conj().T
    assert np.max(np.abs(h - recon)) <= 1e-9 * max(1.0, np.max(np.abs(h)))


def test_eigenvectors_independent_of_field_b():
    # projectors onto degenerate clusters agree between two b values,
    # sector by sector (the field couples to a conserved quantity)
    base = ChainParams(4, 1.0, -1.0, 0.0, 1.7)
    spec_a = diagonalize_params(base.replace(b=0.3))
    spec_b = diagonalize_params(base.replace(b=1.9))
    for sector in np.unique(spec_a.sz_sector):
        ia = np.flatnonzero(spec_a.sz_sector == sector)
        ib = np.flatnonzero(spec_b.sz_sector == sector)
        # remove the field shift (-b*m per level) to cluster by the
        # field-free energies
        ea = spec_a.energies[ia] + 0.3 * sector
        eb = spec_b.energies[ib] + 1.9 * sector
        assert np.sort(ea) == pytest.approx(np.sort(eb), abs=1e-10)
        for energy in np.unique(np.round(ea, 9)):
            sel_a = ia[np.abs(ea - energy) < 1e-8]
            sel_b = ib[np.abs(eb - energy) < 1e-8]
            pa = spec_a.states[:, sel_a]
            pb = spec_b.states[:, sel_b]
            proj_a = pa @ pa.conj().T
            proj_b = pb @ pb.conj().T
            assert np.max(np.abs(proj_a - proj_b)) <= 1e-9


def test_continuation_identity_when_fields_equal():
    m = continue_levels(ChainParams(4, 1.0, -1.0, 1.0, 0.0), 2.0, 2.0)
    assert np.array_equal(m.permutation, np.arange(16))


def test_continuation_reversible():
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    fwd = continue_levels(params, 1.0, 6.0)
    back = continue_levels(params, 6.0, 1.0)
    combined = fwd.compose(back)
    assert np.array_equal(combined.permutation, np.arange(16))
    inverse = np.empty(16, dtype=int)
    inverse[fwd.permutation] = np.arange(16)
    assert np.array_equal(back.permutation, inverse)


def test_continuation_ground_to_ground():
    # no ground-state crossing between d=3.5 and d=10
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    m = continue_levels(params, 3.5, 10.0)
    assert m.permutation[0] == 0


def test_continuation_preserves_sectors():
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    m = continue_levels(params, 0.5, 8.0)
    s_from = diagonalize_params(params.replace(e_field=0.5)).sz_sector
    s_to = diagonalize_params(params.replace(e_field=8.0)).sz_sector
    assert np.array_equal(s_from, s_to[m.permutation])


def test_continuation_through_symmetry_protected_crossing():
    # the rising hybridized level passes a field-independent level of the
    # same magnetization sector near d = 1.73; the two stay orthogonal, so
    # even a single coarse step identifies them across the crossing and
    # their sorted positions swap
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    m = continue_levels(params, 1.5, 2.0, steps=1)
    spec_a = diagonalize_params(params.replace(e_field=1.5))
    spec_b = diagonalize_params(params.replace(e_field=2.0))
    rising = -2.0 + 2.0 * np.sqrt(25.0 + 8.0 * 1.5 ** 2)
    flat = 12.0
    i_rising = int(np.argmin(np.abs(spec_a.energies - rising)))
    i_flat = int(np.argmin(np.abs(spec_a.energies - flat)))
    assert i_rising < i_flat
    assert m.permutation[i_rising] > m.permutation[i_flat]
    assert spec_b.energies[m.permutation[i_flat]] == pytest.approx(flat, abs=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("b", [0.0, 1.0, 1.7])
@pytest.mark.parametrize("path", [(3.5, 14.0), (1.0, 2.0), (0.5, 8.0)])
def test_match_step_equals_pairwise_loop(n, b, path):
    # 16 steps per path; in 417 of the 576 matchings the exemption of
    # doubly degenerate pairs changes the worst overlap
    params = ChainParams(n, 1.0, -1.0, b, 0.0)
    grid = np.linspace(path[0], path[1], 17)
    specs = [diagonalize_params(params.replace(e_field=float(p))) for p in grid]
    for spec_a, spec_b in zip(specs[:-1], specs[1:]):
        perm, worst = match_step(spec_a, spec_b)
        perm_loop, worst_loop = match_step_loop(spec_a, spec_b)
        assert np.array_equal(perm, perm_loop)
        assert worst == worst_loop


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("b", [0.0, 1.0])
def test_pattern_blocks_equal_dense_oracle(n, b):
    # the production solve fills its s^z blocks straight from the operator
    # pattern; the oracle slices them out of the dense Hamiltonian
    sz = build_total_sz(n)
    for p in (0.0, 1.0, 10.0):
        for j1, j2 in ((1.0, -1.0), (0.0, 0.0), (0.7, 0.3)):
            params = ChainParams(n, j1, j2, b, p)
            h = build_hamiltonian(params)
            oracle = diagonalize(h, sz)
            spec = diagonalize_params(params)
            scale = max(1.0, float(np.max(np.abs(oracle.energies))))
            assert np.max(np.abs(spec.energies - oracle.energies)) <= 1e-12 * scale
            assert np.array_equal(spec.sz_sector, oracle.sz_sector)
            for s in spec.sectors:
                assert np.all(np.diff(s.levels) > 0)
                residual = h[:, s.basis] @ s.vectors
                residual[s.basis] -= s.vectors * spec.energies[s.levels]
                assert np.max(np.abs(residual)) <= 1e-12 * scale


# (path, steps): 16 steps, a single coarse step, and the default 64 per unit
# over rising and falling fields, some of which raise ContinuationError; the
# single step from 0.5 to 8.0 is bisected several levels deep at n=6 and n=8
# and succeeds
CONTINUATION_PATHS = [((3.5, 14.0), None), ((1.0, 2.0), None), ((0.5, 8.0), 16),
                      ((6.0, 1.0), None), ((1.5, 2.0), 1), ((0.0, 0.3), None),
                      ((0.5, 8.0), 1)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
@pytest.mark.parametrize("b", [0.0, 1.0, 1.7])
def test_continuation_equals_per_step_loop(n, b):
    # the chunked continuation against the per-step loop it replaced: the
    # same permutation and end energies, or the same error, in 99 cases; at
    # n=8 the two longest paths (992 steps) would take the pairwise oracle
    # about 10 s per field b
    params = ChainParams(n, 1.0, -1.0, b, 0.0)
    paths = CONTINUATION_PATHS if n < 8 else CONTINUATION_PATHS[1:3] + CONTINUATION_PATHS[4:]
    for (e_from, e_to), steps in paths:
        try:
            want = continue_levels_loop(params, e_from, e_to, steps)
        except ContinuationError as exc:
            with pytest.raises(ContinuationError) as got:
                continue_levels(params, e_from, e_to, steps)
            assert str(got.value) == str(exc)
            continue
        got = continue_levels(params, e_from, e_to, steps)
        assert np.array_equal(got.permutation, want[0])
        assert np.array_equal(got.spectrum.energies, want[1].energies)


def test_identity_fast_path_equals_assignment(monkeypatch):
    # a seeded unitary near the identity, every |U_kk|^2 above 1/2: the
    # matcher keeps the identity without calling linear_sum_assignment, and
    # that is the assignment linear_sum_assignment finds
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(1)
    d = 12
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    angles, basis = np.linalg.eigh(0.08 * (g + g.conj().T))
    u = (basis * np.exp(1j * angles)) @ basis.conj().T
    overlap = np.abs(u)
    assert np.all(np.diagonal(overlap) ** 2 > 0.5 + 1e-6)
    assert np.max(overlap - np.diag(np.diagonal(overlap))) > 0.3
    rows, cols = linear_sum_assignment(-(overlap ** 2))
    assert np.array_equal(cols, np.arange(d))

    def refuse(_cost):
        raise AssertionError("identity blocks need no assignment")

    monkeypatch.setattr("scipy.optimize.linear_sum_assignment", refuse)
    energies = np.arange(d, dtype=float)[None, None].repeat(2, axis=0)
    vectors = np.stack([np.eye(d, dtype=complex), u])[:, None]
    moves, worst = _match(_layout({0: np.arange(d)}), [(energies, vectors)])
    assert np.array_equal(moves[0], np.arange(d))
    assert worst[0] == np.min(np.diagonal(overlap))


def test_failed_continuation_stops_one_chunk_past_the_failure(monkeypatch):
    # n=6 from zero field fails inside its first step (near p=1.5e-5): the
    # continuation solves the first chunk of the grid and the bisection of
    # that step, and nothing further
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.0)
    chunk = spectra.CHUNK_BYTES // (16 * spectra._ring_plan(6)[0].size)
    assert chunk == 8
    grid = np.linspace(0.0, 10.0, 641)
    calls = []
    solve = spectra._solve_fields

    def counting(params, fields):
        calls.extend(float(f) for f in fields)
        return solve(params, fields)

    monkeypatch.setattr(spectra, "_solve_fields", counting)
    with pytest.raises(ContinuationError, match="near e_field=1.5"):
        continue_levels(params, 0.0, 10.0)
    past = [f for f in calls if f > grid[1]]
    assert 0 < len(past) <= chunk
    assert max(calls) <= grid[1 + chunk]
