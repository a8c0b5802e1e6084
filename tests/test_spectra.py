import copy
import logging

import numpy as np
import pytest

import continuation_oracle as oracle
from continuation_oracle import _match, _stacked
from dense_oracle import dense_states, sector_blocks
from ottochain.analytic4 import spectrum4
from ottochain.model import ChainParams, build_hamiltonian, build_total_sz
from ottochain import spectra
from ottochain.otto import CycleMode, CycleSpec, run_cycle
from ottochain.spectra import (ContinuationError, DiagonalizationError,
                               _eigh_stacks, _layout, _ring_plan, _spectrum,
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
    buf = np.concatenate([h[np.ix_(b, b)].ravel() for b in bases])[None]
    energies = np.concatenate([ev.ravel() for ev, _ in _eigh_stacks(layout, buf)])
    return _spectrum(layout, energies, buf[0])


def walk_grid(params, e_from, e_to, steps):
    """The level map from e_from to e_to walked over the steps + 1 fields of
    an even grid between them, or over the two fields for steps None."""
    if steps is None:
        return continue_levels(params, e_from, e_to)
    for level_map in spectra._level_maps(params, np.linspace(e_from, e_to, steps + 1)):
        pass
    return level_map


def match_step(spec_a, spec_b):
    """The oracle's `_match` for one step between two ring spectra: (permutation a->b of
    the level indices, worst matched |overlap|)."""
    layout = _ring_plan(int(spec_a.dim).bit_length() - 1)[0]
    moves, worst = _match(layout, _stacked((spec_a, spec_b)))
    perm = np.empty(spec_a.dim, dtype=int)
    perm[spec_a.levels] = spec_b.levels[moves[0]]
    return perm, float(worst[0])


def match_step_loop(spec_a, spec_b):
    """`match_step` with the degeneracy exemption tested pair by pair."""
    from scipy.optimize import linear_sum_assignment

    perm = np.empty(spec_a.dim, dtype=int)
    worst = 1.0
    scale = max(1.0, float(np.max(np.abs(spec_a.energies))))
    states_a, states_b = dense_states(spec_a), dense_states(spec_b)
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
    v = dense_states(spec)
    overlaps = v.conj().T @ v
    assert np.max(np.abs(overlaps - np.eye(16))) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_spectrum_invariants(n):
    params = ChainParams(n, 1.0, -1.0, 0.7, 1.3)
    h = build_hamiltonian(params)
    sz = build_total_sz(n)
    spec = diagonalize_params(params)
    scale = max(1.0, np.max(np.abs(h)))
    # eigenpair residuals and orthonormality
    states = dense_states(spec)
    residual = h @ states - states * spec.energies
    assert np.max(np.abs(residual)) <= 1e-10 * scale
    gram = states.conj().T @ states
    assert np.max(np.abs(gram - np.eye(2 ** n))) <= 1e-10
    # every eigenvector lives in one magnetization sector
    szd = np.real(np.diag(sz))
    for idx in range(2 ** n):
        v = states[:, idx]
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
    states = dense_states(spec)
    recon = (states * spec.energies) @ states.conj().T
    assert np.max(np.abs(h - recon)) <= 1e-9 * max(1.0, np.max(np.abs(h)))


def test_eigenvectors_independent_of_field_b():
    # projectors onto degenerate clusters agree between two b values,
    # sector by sector (the field couples to a conserved quantity)
    base = ChainParams(4, 1.0, -1.0, 0.0, 1.7)
    spec_a = diagonalize_params(base.replace(b=0.3))
    spec_b = diagonalize_params(base.replace(b=1.9))
    states_a, states_b = dense_states(spec_a), dense_states(spec_b)
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
            pa = states_a[:, sel_a]
            pb = states_b[:, sel_b]
            proj_a = pa @ pa.conj().T
            proj_b = pb @ pb.conj().T
            assert np.max(np.abs(proj_a - proj_b)) <= 1e-9


def test_continuation_identity_when_fields_equal():
    m = continue_levels(ChainParams(4, 1.0, -1.0, 1.0, 0.0), 2.0, 2.0)
    assert np.array_equal(m.permutation, np.arange(16))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_continuation_rejects_non_finite_fields(bad):
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    for e_from, e_to in ((bad, 2.0), (2.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            continue_levels(params, e_from, e_to)


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
    m = continue_levels(params, 1.5, 2.0)
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
@pytest.mark.parametrize("b", [0.0, 1.0, -1.3])
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
            # exact energy ties are ordered by magnetization
            ties = np.diff(spec.energies) == 0
            assert np.all(np.diff(spec.sz_sector)[ties] >= 0)
            # the oracle solves each -v block itself, so levels degenerate
            # across sectors can come out in either order: compare the
            # labels of every level, with each run of levels that lie
            # within the tolerance on both sides sorted by magnetization
            apart = ((np.diff(spec.energies) > 1e-12 * scale)
                     & (np.diff(oracle.energies) > 1e-12 * scale))
            run = np.concatenate(([0], np.cumsum(apart)))
            assert np.array_equal(spec.sz_sector[np.lexsort((spec.sz_sector, run))],
                                  oracle.sz_sector[np.lexsort((oracle.sz_sector, run))])
            for basis, levels, vectors in sector_blocks(spec):
                assert np.all(np.diff(levels) > 0)
                residual = h[:, basis] @ vectors
                residual[basis] -= vectors * spec.energies[levels]
                assert np.max(np.abs(residual)) <= 1e-12 * scale


@pytest.mark.parametrize("n", range(2, 11))
def test_spin_flip_mirrors_sector_pairs(n):
    # each -v block is the +v block with its basis reversed and conjugated,
    # at energies E_v + 2 b v; at b = 0 the pair is degenerate
    for b in (0.0, 0.8, -1.3):
        spec = diagonalize_params(ChainParams(n, 0.6, -1.1, b, 2.5))
        blocks = {int(spec.sz_sector[levels[0]]): (levels, vectors)
                  for _, levels, vectors in sector_blocks(spec)}
        pairs = [v for v in blocks if v > 0]
        assert sorted(blocks) == sorted([-v for v in pairs] + [0] * (n % 2 == 0) + pairs)
        for v in pairs:
            (up, vec_up), (down, vec_down) = blocks[v], blocks[-v]
            assert np.array_equal(vec_down, vec_up[::-1].conj())
            shifted = spec.energies[up] + 2 * b * v
            scale = np.maximum(1.0, np.abs(shifted))
            assert np.all(np.abs(spec.energies[down] - shifted) <= 1e-12 * scale)
            if b == 0.0:
                assert np.array_equal(spec.energies[down], spec.energies[up])


# (path, steps): the two fields alone, 16 steps and a single step, over
# rising and falling fields
CONTINUATION_PATHS = [((3.5, 14.0), None), ((1.0, 2.0), None), ((0.5, 8.0), 16),
                      ((6.0, 1.0), None), ((1.5, 2.0), 1), ((0.0, 0.3), None),
                      ((0.5, 8.0), 1)]


def cycle_efficiency(params, level_map):
    """The quantum cycle between the map's two fields, hot at its end."""
    spec = CycleSpec(params, 30.0, 10.0, level_map.e_to, level_map.e_from,
                     CycleMode.QUANTUM)
    return run_cycle(spec, level_map=level_map).efficiency


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
@pytest.mark.parametrize("b", [0.0, 1.0, 1.7])
def test_continuation_equals_per_step_loop(n, b):
    # the labelled level map on each path's grid against the oracle on its
    # default grid of 64 steps per unit field, wherever the oracle succeeds
    # there (on coarser grids the oracle misses narrow avoided crossings;
    # see test_level_map_does_not_depend_on_the_grid): every level that is
    # not degenerate at e_from reaches a level of the same energy at e_to,
    # and the quantum cycle between the two fields agrees to 1e-9; at n=8
    # the oracle would take about 1 s on each of the two longest paths
    params = ChainParams(n, 1.0, -1.0, b, 0.0)
    paths = CONTINUATION_PATHS if n < 8 else CONTINUATION_PATHS[1:3] + CONTINUATION_PATHS[4:]
    oracles = {}
    for (e_from, e_to), steps in paths:
        if (e_from, e_to) not in oracles:
            try:
                oracles[e_from, e_to] = oracle.continue_levels(params, e_from, e_to)
            except ContinuationError:
                oracles[e_from, e_to] = None
        want = oracles[e_from, e_to]
        if want is None:
            continue
        got = walk_grid(params, e_from, e_to, steps)
        start = diagonalize_params(params.replace(e_field=e_from)).energies
        apart = np.diff(start) > 1e-9 * max(1.0, float(np.abs(start).max()))
        alone = np.r_[True, apart] & np.r_[apart, True]
        scale = max(1.0, float(np.abs(want.spectrum.energies).max()))
        assert np.max(np.abs(got.spectrum.energies - want.spectrum.energies)) <= 1e-12 * scale
        reached = got.spectrum.energies[got.permutation] - want.spectrum.energies[want.permutation]
        assert np.max(np.abs(reached[alone]), initial=0.0) <= 1e-9 * scale
        assert cycle_efficiency(params, got) == pytest.approx(
            cycle_efficiency(params, want), abs=1e-9)


def test_identity_fast_path_equals_assignment(monkeypatch):
    # a seeded unitary near the identity, every |U_kk|^2 above 1/2: the
    # oracle's matcher keeps the identity without calling linear_sum_assignment, and
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
    # n=6 from zero field fails inside the oracle's first step (near
    # p=1.5e-5): the oracle solves the first chunk of the grid and the bisection of
    # that step, and nothing further
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.0)
    chunk = oracle.CHUNK_BYTES // (16 * spectra._ring_plan(6)[0].size)
    assert chunk == 8
    grid = np.linspace(0.0, 10.0, 641)
    calls = []
    solve = spectra._solve_fields

    def counting(params, fields):
        calls.extend(float(f) for f in fields)
        return solve(params, fields)

    monkeypatch.setattr(spectra, "_solve_fields", counting)
    with pytest.raises(ContinuationError, match="near e_field=1.5"):
        oracle.continue_levels(params, 0.0, 10.0)
    past = [f for f in calls if f > grid[1]]
    assert 0 < len(past) <= chunk
    assert max(calls) <= grid[1 + chunk]


def walk_counts(f):
    """f() and the (fields solved, bisections, exact crossings) it adds to
    the level-map counts."""
    before = copy.copy(spectra.COUNTS)
    out = f()
    after = spectra.COUNTS
    return out, (after.fields - before.fields, after.bisections - before.bisections,
                 after.crossings - before.crossings)


def test_level_map_does_not_depend_on_the_grid():
    # from 3.5 to 14 at n=8, b=1.9 the oracle maps 14 levels differently on
    # 21 steps than on its default 672 and raises nothing: its cycles give
    # eta 0.871712 on 11 steps, 0.866084 on 21 and 0.864082 on 672.  The
    # labelled map is the same on every grid
    params = ChainParams(8, 1.0, -1.0, 1.9, 0.0)
    spec = CycleSpec(params, 30.0, 10.0, 14.0, 3.5, CycleMode.QUANTUM)
    coarse = oracle.continue_levels(params, 3.5, 14.0, 21)
    assert run_cycle(spec, level_map=coarse).efficiency == pytest.approx(0.866084, abs=1e-6)
    maps = [walk_grid(params, 3.5, 14.0, steps) for steps in (11, 21, None)]
    for m in maps:
        assert np.array_equal(m.permutation, maps[0].permutation)
        assert run_cycle(spec, level_map=m).efficiency == pytest.approx(0.864082, abs=1e-6)


def test_level_map_memory_does_not_grow_with_the_grid():
    # a level map solves one stack of at most STACK_BYTES of s^z blocks at a
    # time (five fields at n=8) and keeps only the last field's solve across
    # stacks: ten times the fields trace the same peak
    import tracemalloc

    params = ChainParams(8, 1.0, -1.0, 1.0, 0.0)
    assert spectra.STACK_BYTES // (16 * _ring_plan(8)[0].size) == 5
    walk_grid(params, 3.5, 5.5, 2)
    peaks = []
    for steps in (20, 200):
        tracemalloc.start()
        walk_grid(params, 3.5, 14.0, steps)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


def test_exact_crossing_in_two_momentum_blocks():
    # n=6, b=1: in (s^z=0, k=+-2pi/3), three states each, ranks 1 and 2
    # cross exactly at p=2.0 (gap 3e-15 there).  Rank fails across it, and
    # the step is bisected until the gap of the swapped pair falls below
    # 1e-9 at a substep's end, where the levels follow their overlaps: one
    # exact crossing per block.  p=2.0 is a field of the walk (steps=2), the
    # first midpoint (1.5 to 2.5) or no dyadic point (1.3 to 2.5).  The
    # oracle, which follows overlaps inside s^z sectors, reaches the same
    # levels
    params = ChainParams(6, 1.0, -1.0, 1.0, 0.0)
    for (e_from, e_to), steps, bisected in (((1.5, 2.5), 2, 0), ((1.5, 2.5), None, 1),
                                            ((1.3, 2.5), None, 20)):
        want = oracle.continue_levels(params, e_from, e_to)
        start = diagonalize_params(params.replace(e_field=e_from)).energies
        apart = np.diff(start) > 1e-9 * max(1.0, float(np.abs(start).max()))
        alone = np.r_[True, apart] & np.r_[apart, True]
        got, (_, bisections, crossings) = walk_counts(
            lambda: walk_grid(params, e_from, e_to, steps))
        assert crossings == 2
        assert bisections >= bisected
        reached = got.spectrum.energies[got.permutation] - want.spectrum.energies[want.permutation]
        assert np.max(np.abs(reached[alone])) <= 1e-9


def test_exact_crossing_at_n8():
    # n=8, b=1: in (s^z=-4, k index 6) two levels cross exactly at p=1.0,
    # which is not a field of the walk.  The level at E=1.857 at p=0.5 must
    # rise to 6.722 at p=2.01; its rank in the block would send it to -0.026
    params = ChainParams(8, 1.0, -1.0, 1.0, 0.0)
    (start, end), (_, _, crossings) = walk_counts(
        lambda: list(spectra._level_maps(params, [0.5, 2.01])))
    level, = np.flatnonzero(np.abs(start.spectrum.energies - 1.857) < 1e-3)
    assert start.spectrum.sz_sector[level] == -4
    assert end.spectrum.energies[end.permutation[level]] == pytest.approx(6.722, abs=1e-3)
    assert crossings >= 1


def test_level_map_counts_are_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="ottochain")
    params = ChainParams(4, 1.0, -1.0, 1.0, 0.0)
    _, (fields, bisections, crossings) = walk_counts(
        lambda: continue_levels(params, 3.5, 9.0))
    message, = [r.getMessage() for r in caplog.records if r.name == "ottochain"]
    assert message.startswith(
        f"level map from e_field=3.5 over 2 fields: {fields} fields solved, "
        f"{bisections} bisections, {crossings} exact crossings, worst in-block overlap ")
