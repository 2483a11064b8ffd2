import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akpz import lattice
from akpz.ctmc import check_stationarity, jump_rate, simulate
from akpz.lattice import (STENCIL, ParameterError, ParticleConfig,
                          StateSpaceError, TorusParams, canonicalize,
                          config_from_text, config_to_text, crystalline,
                          enumerate_configs, fourier_modes, gap_columns, label_table,
                          neighbor_distances, neighbor_index, sector, validate)


def configs(torus):
    """Every enumerated state of torus as a ParticleConfig."""
    return [ParticleConfig(torus, dict(zip(torus.labels(), xs)))
            for xs in enumerate_configs(torus).tolist()]


def orbit(p, m, m2, n, span=3):
    """Brute-force equivalence class of p within a window of shifts."""
    out = set()
    for j1 in range(-span, span + 1):
        for j2 in range(-span, span + 1):
            out.add((p[0] + j1 * m - j2 * m2, p[1] + j2 * n))
    return out


def test_canonicalize_identity_on_canonical():
    assert canonicalize((0, 0), 4, 2, 4) == (0, 0)


def test_canonicalize_examples_against_orbit_oracle():
    for p, expected in [((0, 4), (2, 0)), ((5, 1), (1, 1))]:
        got = canonicalize(p, 4, 2, 4)
        assert got == expected
        assert got in orbit(p, 4, 2, 4)
        assert 0 <= got[0] < 4 and 0 <= got[1] < 4


def test_canonicalize_idempotent():
    for p in [(-7, 13), (0, 4), (5, 1), (3, -9)]:
        c = canonicalize(p, 4, 2, 4)
        assert canonicalize(c, 4, 2, 4) == c


@given(m=st.integers(2, 6), p1=st.integers(-20, 20), p2=st.integers(-20, 20),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_canonicalize_constant_on_orbits(m, p1, p2, data):
    m2 = data.draw(st.integers(1, m - 1))
    j1 = data.draw(st.integers(-3, 3))
    j2 = data.draw(st.integers(-3, 3))
    shifted = (p1 + j1 * m - j2 * m2, p2 + j2 * m)
    assert canonicalize((p1, p2), m, m2, m) == canonicalize(shifted, m, m2, m)


@given(m=st.integers(2, 5), data=st.data())
@settings(max_examples=50, deadline=None)
def test_canonicalize_partitions_box_into_m_squared_classes(m, data):
    m2 = data.draw(st.integers(1, m - 1))
    classes = {canonicalize((a, b), m, m2, m)
               for a in range(-m, 2 * m) for b in range(-m, 2 * m)}
    assert len(classes) == m * m


@pytest.mark.parametrize("m, m2, n", [(2, 1, 2), (4, 2, 4), (5, 3, 5), (2, 1, 3), (4, 3, 8),
                                      (5, 4, 9)])
def test_canonicalize_on_arrays_equals_the_scalar_calls(m, m2, n):
    p1, p2 = np.mgrid[-2 * m:2 * m + 1, -2 * m:2 * m + 1]
    c1, c2 = canonicalize((p1, p2), m, m2, n)
    assert c1.shape == c2.shape == p1.shape
    for a, b, want1, want2 in zip(p1.ravel().tolist(), p2.ravel().tolist(),
                                  c1.ravel().tolist(), c2.ravel().tolist()):
        assert canonicalize((a, b), m, m2, n) == (want1, want2)


@pytest.mark.parametrize("m1, N, m2", [(2, 3, 1), (3, 4, 1), (4, 8, 2), (7, 7, 3), (5, 9, 4)])
def test_neighbor_index_matches_canonicalize_on_non_square_tori(m1, N, m2):
    torus = TorusParams(L=4 * m1, N=N, m1=m1, m2=m2)
    # the integer view of the particle layer: index columns in label order
    labels, index, columns = label_table(torus)
    assert labels == tuple(torus.labels())
    for i, p in enumerate(labels):
        assert index[p] == i == p[1] * m1 + p[0]
    for name, dp in STENCIL._asdict().items():
        i1, i2 = neighbor_index(m1, N, m2, dp)
        assert i1.shape == i2.shape == (m1, N)
        for p1 in range(m1):
            for p2 in range(N):
                want = canonicalize((p1 + dp[0], p2 + dp[1]), m1, m2, N)
                assert (i1[p1, p2], i2[p1, p2]) == want
                assert labels[getattr(columns, name)[index[(p1, p2)]]] == want


@pytest.mark.parametrize("dims", [(4, 3, 2, 1), (8, 3, 2, 2), (64, 16, 16, 4)], ids=str)
def test_label_table_arrays_are_read_only_copies_of_the_columns(dims):
    torus = TorusParams(*dims)
    table = label_table(torus)
    for name, arr in table.neighbors._asdict().items():
        dp = getattr(STENCIL, name)
        assert arr.dtype.kind == "i" and not arr.flags.writeable
        assert arr.tolist() == [table.index[torus.canonical((p1 + dp[0], p2 + dp[1]))]
                                for p1, p2 in table.labels]
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("m1, N, m2", [(0, 0, 1), (1, 1, 1), (4, 4, 0), (4, 4, 4)])
def test_neighbor_index_rejects_a_degenerate_quotient(m1, N, m2):
    # an empty field must not give an empty table: (0, 0, 1) used to build one;
    # the array form of canonicalize checks the quotient as the scalar one does
    with pytest.raises(ParameterError):
        neighbor_index(m1, N, m2, (1, 0))
    with pytest.raises(ParameterError):
        canonicalize((np.arange(3), np.arange(3)), m1, m2, N)


def test_torus_params_ranges():
    with pytest.raises(ParameterError):
        TorusParams(L=4, N=3, m1=1, m2=1)
    with pytest.raises(ParameterError):
        TorusParams(L=4, N=3, m1=2, m2=3)
    # feasibility of the sector is a predicate, not a construction error
    t = TorusParams(L=3, N=2, m1=2, m2=1)
    assert not t.sector_feasible


def test_from_scaling_builds_the_torus_ell_over_epsilon_and_keeps_ell():
    assert (TorusParams.from_scaling(epsilon=0.25, ell=2.0, m=2, m2=1)
            == TorusParams(L=8, N=2, m1=2, m2=1, ell=2.0))
    with pytest.raises(ParameterError, match="not an integer"):
        TorusParams.from_scaling(epsilon=0.3, ell=2.0, m=2, m2=1)


@pytest.mark.parametrize("epsilon, ell", [
    (0.0, 2.0), (-0.25, 2.0), (math.nan, 2.0), (0.25, math.nan), (0.25, math.inf),
    (1e-320, 4.0), (0.5, 1.7e308)],
    ids=["eps-0", "eps-negative", "eps-nan", "ell-nan", "ell-inf", "eps-subnormal",
         "ell-over-eps-overflows"])
def test_from_scaling_rejects_a_scale_without_a_finite_period(epsilon, ell):
    with pytest.raises(ParameterError):
        TorusParams.from_scaling(epsilon=epsilon, ell=ell, m=4, m2=2)


def test_crystalline_scaling_example():
    # eps = 1/4, ell = 2, m = 2, m2 = 1: row spacing 4, up spacing 2
    torus = TorusParams.from_scaling(epsilon=0.25, ell=2.0, m=2, m2=1)
    cfg = crystalline(torus)
    assert cfg.positions[(0, 0)] == 0
    assert (cfg.positions[(1, 0)] - cfg.positions[(0, 0)]) % torus.L == 4
    assert (cfg.positions[(0, 1)] - cfg.positions[(0, 0)]) % torus.L == 2
    assert sector(cfg) == 1


def test_crystalline_gap_counts():
    # unit eps with row spacing 4 and up spacing 2
    torus = TorusParams.from_scaling(epsilon=1.0, ell=8.0, m=2, m2=1)
    cfg = crystalline(torus)
    for p in torus.labels():
        g = neighbor_distances(cfg, p)
        assert (g.a, g.b, g.c, g.d, g.e, g.f) == (3, 1, 2, 3, 1, 2)
    assert validate(cfg).ok


def test_crystalline_valid_across_parameter_grids():
    for eps_inv, ell, m, m2 in [(4, 2.0, 2, 1), (6, 3.0, 3, 1), (6, 3.0, 3, 2),
                                (8, 4.0, 4, 2), (12, 3.0, 6, 2)]:
        torus = TorusParams.from_scaling(epsilon=1.0 / eps_inv, ell=ell, m=m, m2=m2)
        cfg = crystalline(torus)
        assert validate(cfg).ok
        assert sector(cfg) == m2


def test_crystalline_rejects_fractional_spacing():
    torus = TorusParams(L=10, N=3, m1=3, m2=1)
    with pytest.raises(ParameterError):
        crystalline(torus)


def test_row_gap_telescoping():
    torus = TorusParams(L=4, N=3, m1=2, m2=1)
    for cfg in configs(torus):
        for i in range(torus.N):
            total = sum(neighbor_distances(cfg, (j, i)).d + 1 for j in range(torus.m1))
            assert total == torus.L


def test_neighbor_duality():
    torus = TorusParams(L=4, N=3, m1=2, m2=1)
    for cfg in configs(torus)[:10]:
        for p in torus.labels():
            g = neighbor_distances(cfg, p)
            assert g.a == neighbor_distances(cfg, (p[0] + 1, p[1])).d
            assert g.b == neighbor_distances(cfg, (p[0] + 1, p[1] - 1)).e
            assert g.c == neighbor_distances(cfg, (p[0], p[1] - 1)).f


def test_validate_passes_on_enumeration():
    torus = TorusParams(L=4, N=3, m1=2, m2=1)
    cfgs = configs(torus)
    assert cfgs
    for cfg in cfgs:
        assert validate(cfg).ok


def test_validate_rejects_overlap():
    torus = TorusParams(L=4, N=3, m1=2, m2=1)
    cfg = configs(torus)[0]
    bad = dict(cfg.positions)
    bad[(0, 0)] = bad[(1, 0)]
    report = validate(ParticleConfig(torus, bad))
    assert not report.ok
    assert report.failures


def test_validate_rejects_broken_interlacing():
    torus = TorusParams(L=4, N=3, m1=2, m2=1)
    cfg = configs(torus)[0]
    bad = dict(cfg.positions)
    # collapse a diagonal partner onto its neighbor: some window breaks
    bad[(0, 1)] = (bad[(0, 1)] + 2) % torus.L
    report = validate(ParticleConfig(torus, bad))
    assert not report.ok


def test_gap_columns_match_neighbor_distances_for_any_leading_shape():
    # every state of the 6x4 torus, and the states of a short run from the
    # crystalline start of the dense L=64 cascade torus, whose reads wrap at L
    small, dense = TorusParams(L=6, N=4, m1=3, m2=1), TorusParams(L=64, N=16, m1=16, m2=4)
    run = simulate(crystalline(dense), 0.7, 2.0, seed=1, observe_every=0.5)
    assert len(run.events) > 100
    for torus, cfgs in ((small, configs(small)),
                        (dense, [ParticleConfig(dense, s) for _, s in run.samples])):
        labels = label_table(torus).labels
        pos = np.array([[cfg.positions[p] for p in labels] for cfg in cfgs])
        batch = gap_columns(torus, pos)
        one = gap_columns(torus, pos[-1])
        for col, one_col in zip(batch, one):
            assert col.shape == pos.shape and one_col.shape == (len(labels),)
            assert np.array_equal(one_col, col[-1])
        for s, cfg in enumerate(cfgs):
            for k, p in enumerate(labels):
                g = neighbor_distances(cfg, p)
                assert all(type(v) is int for v in g)
                assert g == tuple(int(col[s, k]) for col in batch)


def test_enumeration_guard():
    with pytest.raises(StateSpaceError):
        enumerate_configs(TorusParams(L=12, N=12, m1=3, m2=1))


def test_enumeration_empty_when_sector_infeasible():
    assert enumerate_configs(TorusParams(L=3, N=2, m1=2, m2=1)).shape == (0, 4)


# every torus of at most 24 sites on the boundary m1/L + m2/N = 1 of the sector
BOUNDARY_TORI = [(L, N, m1, m2) for L in range(3, 25) for N in range(2, 24 // L + 1)
                 for m1 in range(2, L) for m2 in range(1, N) if m1 * N + m2 * L == L * N]


@pytest.mark.parametrize("dims", BOUNDARY_TORI, ids=str)
def test_boundary_sector_holds_only_frozen_states(dims):
    # the sector is feasible at equality, and every state there is frozen:
    # no clock rings, so the Gibbs weights are trivially stationary and a run
    # from the crystalline state (where its spacings are integers) never moves
    torus = TorusParams(*dims)
    assert torus.sector_feasible
    cfgs = configs(torus)
    assert cfgs
    for cfg in cfgs:
        assert validate(cfg).ok
        assert all(jump_rate(cfg, p, 0.5) == 0 for p in torus.labels())
    assert check_stationarity(torus, 0.5) == 0
    if torus.L % torus.m1 == 0 and torus.L * torus.m2 % (torus.m1 * torus.N) == 0:
        assert simulate(crystalline(torus), 0.5, 10.0, seed=0).events == []


def test_boundary_tori_are_the_thirteen_up_to_24_sites():
    assert len(BOUNDARY_TORI) == 13
    assert (3, 3, 2, 1) in BOUNDARY_TORI and (4, 4, 2, 2) in BOUNDARY_TORI


def test_enumeration_no_duplicates_and_sector():
    torus = TorusParams(L=4, N=3, m1=2, m2=1)
    cfgs = configs(torus)
    keys = {cfg.occupancy() for cfg in cfgs}
    assert len(keys) == len(cfgs)
    for cfg in cfgs:
        assert sector(cfg) == torus.m2


# (L, N, m1, m2): state count and SHA-256 of the labelled positions in order.
# The two m2 = 2 tori are the ones where the sector filter removes interlaced
# states.
ENUMERATION_PINS = {
    (4, 3, 2, 1): (30, "d4369118d53d8b414eb12a2bb5be03a67062cec61d1f6f4a004b50f649743cb6"),
    (6, 4, 3, 1): (1344, "e6cd43184a1d78419fa44ff288e2ee80d3f8930915366f5059f6dd9076b9dbdc"),
    (8, 3, 3, 1): (3048, "40c9dc3bb2672a167fade08d433f634d9ef9e95591c4fe4cd9f2f280aed3b02a"),
    (12, 2, 3, 1): (1848, "29ea8b14ec2fb0d537acf4e8c28bd1035083d39c0118caead13a8d486684f7ce"),
    (3, 8, 2, 1): (168, "2dc510e45db640d749a50edab2056eb7fb1fe142724651654671d29a73167455"),
    (8, 3, 2, 2): (84, "56b2ced574addab425ca122c61ffff61d53e84e0373351b5cf7c385db5560903"),
    (4, 6, 2, 2): (810, "a19a13f9f94b7db06fa5a7dc662123cb8643f8a9129c4386f95446f61130f7f9"),
    (6, 4, 2, 3): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
}


@pytest.mark.parametrize("dims", list(ENUMERATION_PINS), ids=str)
def test_enumeration_is_pinned(dims):
    # one read-only int array of shape (states, n), (0, n) on the empty sector
    torus = TorusParams(*dims)
    labels = torus.labels()
    pos = enumerate_configs(torus)
    assert pos.shape == (ENUMERATION_PINS[dims][0], len(labels))
    assert pos.dtype.kind == "i" and not pos.flags.writeable
    text = repr([list(zip(labels, xs)) for xs in pos.tolist()])
    assert (len(pos), hashlib.sha256(text.encode()).hexdigest()) == ENUMERATION_PINS[dims]


@pytest.mark.parametrize("dims", [(4, 3, 2, 1), (4, 4, 2, 1), (4, 4, 2, 2)], ids=str)
def test_enumeration_matches_a_brute_force_filter(dims):
    # a second route: every position tuple in range(L)^n that interlaces, has
    # no row collision, winds m2 times and has row 0 increasing (label (0, 0)
    # leftmost), sorted by the sorted rows
    torus = TorusParams(*dims)
    L, N, m1, m2 = dims
    pos = np.array(list(itertools.product(range(L), repeat=N * m1)))
    g = gap_columns(torus, pos)
    keep = ~((g.b > g.a) | (g.f > g.a) | (g.c > g.d) | (g.e > g.d)).any(axis=1)
    rows = pos.reshape(len(pos), N, m1)
    for j1, j2 in itertools.combinations(range(m1), 2):
        keep &= (rows[:, :, j1] != rows[:, :, j2]).all(axis=1)
    keep &= lattice._up_winding(torus, pos) == m2
    keep &= (np.diff(rows[:, 0], axis=1) > 0).all(axis=1)
    want = sorted(pos[keep].tolist(),
                  key=lambda xs: [sorted(xs[i * m1:(i + 1) * m1]) for i in range(N)])
    got = enumerate_configs(torus).tolist()
    assert want and got == want


def test_validate_rejects_a_sector_mismatch():
    # every row at {0, 4} interlaces, but the up loop does not wind: sector 0
    torus = TorusParams(L=8, N=3, m1=2, m2=2)
    cfg = ParticleConfig(torus, {(j, i): 4 * j for i in range(3) for j in range(2)})
    assert sector(cfg) == 0
    assert validate(cfg).failures == ["sector 0 != m2 2"]


def test_up_loop_windings_divide_m1_on_every_enumerable_torus():
    # sector returns m1 * N_h / N_v with N_v = steps // N; the up loop of the
    # labels has N * m1 / gcd(m1, m2) steps, so N_v divides m1 and the winding
    # ratio is always an integer
    for L in range(3, 25):
        for N in range(1, 24 // L + 1):
            for m1 in range(2, L):
                for m2 in range(1, N):
                    up = label_table(TorusParams(L=L, N=N, m1=m1, m2=m2)).neighbors.up
                    k, steps = 0, 0
                    while True:
                        k, steps = up[k], steps + 1
                        if k == 0:
                            break
                    assert steps % N == 0 and m1 % (steps // N) == 0, (L, N, m1, m2)


def test_sector_start_particle_independent():
    # relabelling so that particle p carries label (0, 0) starts the up loop
    # at p; the configuration stays valid and its sector stays m2
    for dims in [(6, 2, 2, 1), (4, 3, 2, 1), (6, 4, 3, 1)]:
        torus = TorusParams(*dims)
        for cfg in configs(torus):
            for p in torus.labels():
                moved = {q: cfg.positions[torus.canonical((q[0] + p[0], q[1] + p[1]))]
                         for q in torus.labels()}
                moved = ParticleConfig(torus, moved)
                assert validate(moved).ok and sector(moved) == torus.m2, (dims, p)


def test_fourier_modes_gram_identity():
    for m, m2 in [(2, 1), (3, 1), (4, 2), (6, 2)]:
        modes = fourier_modes(m, m2)
        F = modes.basis_matrix()
        gram = F @ np.conj(F.T)
        assert np.abs(gram - np.eye(m * m)).max() < 1e-12


def test_fourier_modes_zero_mode():
    modes = fourier_modes(4, 2)
    F = modes.basis_matrix()
    assert np.allclose(F[modes.zero_index], 0.25)


@pytest.mark.parametrize("m, m2", [(2, 1), (3, 1), (4, 2), (5, 2), (6, 2), (7, 3), (16, 5)])
def test_field_transform_matches_dense_basis(m, m2):
    modes = fourier_modes(m, m2)
    F = modes.basis_matrix()
    rng = np.random.default_rng(m * 100 + m2)
    real = rng.normal(size=(m, m))
    batch = rng.normal(size=(3, m, m))
    cplx = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    for xi in (real, batch, cplx):
        fast = modes.field_transform(xi)
        dense = xi.reshape(*xi.shape[:-2], m * m) @ F.T
        assert fast.shape == dense.shape
        assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


def test_fourier_modes_well_defined_on_quotient():
    m, m2 = 4, 2
    modes = fourier_modes(m, m2)
    # f_k(p) must agree on equivalent labels p and p + (m - m2, m)
    shift = np.array([m - m2, m], dtype=float)
    phase = np.stack(np.broadcast_arrays(modes.K1, modes.twist + modes.K2), axis=-1) @ shift
    assert np.abs(np.exp(-1j * phase) - 1).max() < 1e-12


def test_fourier_modes_closed_under_negation():
    for m, m2 in [(2, 1), (4, 2), (5, 2)]:
        modes = fourier_modes(m, m2)
        ks = np.stack(np.broadcast_arrays(modes.K1, modes.twist + modes.K2), axis=-1).reshape(-1, 2)
        kset = {tuple(np.round(np.mod(k, 2 * np.pi), 9)) for k in ks}
        negs = {tuple(np.round(np.mod(-k, 2 * np.pi), 9)) for k in ks}
        assert kset == negs


def test_fourier_count():
    for m, m2 in [(5, 2), (4, 2), (6, 1), (7, 3)]:
        modes = fourier_modes(m, m2)
        ks = np.stack(np.broadcast_arrays(modes.K1, modes.twist + modes.K2), axis=-1).reshape(-1, 2)
        assert len(ks) == m * m
        assert np.flatnonzero(~ks.any(axis=1)).tolist() == [modes.zero_index]


def test_serialization_roundtrip_bit_exact():
    torus = TorusParams(L=4, N=3, m1=2, m2=1)
    cfg = configs(torus)[3]
    text = config_to_text(cfg)
    back = config_from_text(text)
    assert back.positions == cfg.positions
    assert back.torus == cfg.torus
    assert config_to_text(back) == text


def test_serialization_rejects_garbage():
    with pytest.raises(ParameterError):
        config_from_text("")
    with pytest.raises(ParameterError):
        config_from_text("4 3 2\n0 0 1\n")
