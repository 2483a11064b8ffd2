import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from akpz.lattice import (ParameterError, TorusParams, crystalline, fourier_modes,
                          neighbor_distances, neighbor_index)
from akpz.sde import (DriftCoeffs, ModelParams, ModelError, SdeState, appendix_delta,
                      drift_coeffs, euler_maruyama, euler_maruyama_ensemble,
                      grad_v_check, shift_field, spectral_data, speed, step_count, symbol_A,
                      symbol_Q, symbol_R, symbol_W, validate_symbol_properties)


class ZeroNormals(np.random.Generator):
    """A generator whose standard normals are all zero: passed as seed, it
    gives a noiseless Euler-Maruyama run (np.random.default_rng hands a
    Generator back unchanged)."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def standard_normal(self, *args, out, **kwargs):
        out.fill(0.0)
        return out


def random_params(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        c = rng.uniform(0.1, 2.0)
        d = c + rng.uniform(0.1, 2.0)
        out.append(ModelParams(C=c, D=d))
    return out


def test_speed_cancellation_when_B_equals_C():
    # D = 2C makes B = C and the ratio collapses
    p = ModelParams(C=0.7, D=1.4)
    assert speed(p) == pytest.approx(1 - math.exp(-1.4), rel=1e-14)


def test_speed_direct_value():
    p = ModelParams(C=0.5, D=1.5)
    expected = (1 - math.exp(-1.0)) * (1 - math.exp(-1.5)) / (1 - math.exp(-0.5))
    assert speed(p) == pytest.approx(expected, rel=1e-15)


def test_speed_large_D_limit():
    c = 0.5
    vals = [speed(ModelParams(C=c, D=d)) for d in (5.0, 10.0, 20.0)]
    target = 1 / (1 - math.exp(-c))
    assert abs(vals[2] - target) < abs(vals[0] - target)
    assert vals[2] == pytest.approx(target, rel=1e-8)


def test_model_params_domain():
    with pytest.raises(ParameterError):
        ModelParams(C=0.0, D=1.0)
    with pytest.raises(ParameterError):
        ModelParams(C=1.5, D=1.0)
    # (1 - e^-C)^2 underflows at C = 1e-320; d1 and the Hessian determinant
    # underflow to 0 at (700, 800) and (0.5, 1e300)
    for C, D in ((math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (1e-320, 1.0),
                 (700.0, 800.0), (0.5, 1e300)):
        with pytest.raises(ParameterError):
            ModelParams(C=C, D=D)


def test_drift_row_sums_vanish():
    # stencil entries as in the DriftCoeffs docstring: diag, +d2, -d1, +d3
    for p in random_params(100):
        co = drift_coeffs(p)
        assert abs(co.diag + co.d2 - co.d1 + co.d3) < 1e-14


def test_drift_coeffs_positive():
    co = drift_coeffs(ModelParams(C=0.5, D=1.5))
    assert co.d1 > 0 and co.d2 > 0 and co.d3 > 0


def test_drift_matches_microscopic_rate_linearization():
    # central differences of the exact clock rate in its three gap counts
    eps = 1e-5
    torus = TorusParams.from_scaling(epsilon=eps, ell=6.0, m=4, m2=2)
    params = ModelParams.from_torus(torus)
    co = drift_coeffs(params)
    g = neighbor_distances(crystalline(torus), (0, 0))
    q = math.exp(-eps)

    def rate(b, c, d):
        return (1 - q ** b) * (1 - q ** (d + 1)) / (1 - q ** (c + 1))

    d2_fd = (rate(g.b + 1, g.c, g.d) - rate(g.b - 1, g.c, g.d)) / (2 * eps)
    d1_fd = (rate(g.b, g.c, g.d + 1) - rate(g.b, g.c, g.d - 1)) / (2 * eps)
    d3_fd = -(rate(g.b, g.c + 1, g.d) - rate(g.b, g.c - 1, g.d)) / (2 * eps)
    assert d1_fd == pytest.approx(co.d1, rel=1e-3)
    assert d2_fd == pytest.approx(co.d2, rel=1e-3)
    assert d3_fd == pytest.approx(co.d3, rel=1e-3)


def test_symbol_A_zero_mean():
    for p in random_params(20, seed=3):
        co = drift_coeffs(p)
        assert abs(symbol_A(0.0, 0.0, co)) < 1e-14


def test_symbol_A_conjugate_symmetry():
    co = drift_coeffs(ModelParams(C=0.5, D=1.5))
    rng = np.random.default_rng(1)
    k1, k2 = rng.uniform(-np.pi, np.pi, size=(10000, 2)).T
    total = symbol_A(k1, k2, co) + symbol_A(-k1, -k2, co)
    assert np.abs(total.imag).max() < 1e-13


def test_symbol_A_periodic():
    co = drift_coeffs(ModelParams(C=0.5, D=1.5))
    k = np.array([0.37, -1.2])
    for shift in (np.array([2 * np.pi, 0]), np.array([0, 2 * np.pi])):
        assert abs(symbol_A(*(k + shift), co) - symbol_A(*k, co)) < 1e-14


def test_symbol_R_zero_at_origin_and_negative_on_grid():
    co = drift_coeffs(ModelParams(C=0.5, D=1.5))
    assert abs(symbol_R(0.0, 0.0, co)) < 1e-14
    ax = -np.pi + 2 * np.pi * np.arange(512) / 512
    vals = symbol_R(ax[:, None], ax[None, :], co)
    vals[256, 256] = -1.0
    assert vals.max() < 0


def test_symbol_R_equals_twice_real_part_of_A():
    co = drift_coeffs(ModelParams(C=0.8, D=1.7))
    rng = np.random.default_rng(7)
    k1, k2 = rng.uniform(-np.pi, np.pi, size=(200, 2)).T
    assert np.abs(symbol_R(k1, k2, co) - 2 * symbol_A(k1, k2, co).real).max() < 1e-13


def test_symbol_R_quadratic_approximation_order():
    # remainder against the quadratic form is at most cubic in |k|
    co = drift_coeffs(ModelParams(C=0.5, D=1.5))
    direction = np.array([0.6, 0.8])
    ratios = []
    for scale in (1e-1, 1e-2, 1e-3):
        k = direction * scale
        gap = abs(symbol_R(*k, co) - symbol_W(*k, co))
        ratios.append(gap / scale ** 3)
    assert max(ratios) < 1.0
    # evenness actually buys a quartic remainder; record that the cubic
    # ratio itself keeps shrinking
    assert ratios[0] > ratios[1] > ratios[2]


def test_gibbs_symbol_proportional_to_R():
    for p in random_params(20, seed=5):
        co = drift_coeffs(p)
        rng = np.random.default_rng(11)
        k1, k2 = rng.uniform(-np.pi, np.pi, size=(500, 2)).T
        gap = np.abs(symbol_Q(k1, k2, p) - symbol_R(k1, k2, co) / (2 * p.v))
        assert gap.max() < 1e-12


def test_spectral_identities_over_random_draws():
    for p in random_params(100, seed=9):
        co = drift_coeffs(p)
        sp = spectral_data(co)
        # normalization of V
        assert np.abs(sp.V @ sp.whess @ sp.V.T + np.eye(2)).max() < 1e-12
        # determinant against the closed form
        from akpz.sde import det_hessian_closed_form
        wsq = det_hessian_closed_form(p)
        assert float(np.linalg.det(sp.whess)) == pytest.approx(wsq, rel=1e-12)
        # speed-to-width ratio
        assert p.v / sp.w == pytest.approx(math.sqrt(math.expm1(p.D)), rel=1e-12)
        # nonzero characteristic direction
        assert np.linalg.norm(sp.U) > 1e-12


def test_spectral_rejects_non_negative_definite():
    with pytest.raises(ModelError):
        spectral_data(DriftCoeffs(d1=5.0, d2=0.1, d3=0.1))


def test_appendix_discriminant_negative():
    for p in random_params(100, seed=13):
        assert appendix_delta(p) < 0


def test_validate_symbol_properties_all_pass():
    checks = validate_symbol_properties(ModelParams(C=0.5, D=1.5))
    assert len(checks) == 9
    assert all(c.worst <= c.tol for c in checks), checks


def test_grad_v_matches_characteristic_direction():
    p = ModelParams(C=0.5, D=1.5)
    co = drift_coeffs(p)
    u_fd, rel = grad_v_check(p)
    assert rel.max() < 1e-6
    assert u_fd[0] == pytest.approx(co.d1 + co.d2, rel=1e-6)
    assert co.d2 + co.d3 > 0 and u_fd[1] < 0


def test_shift_field_matches_quotient_arithmetic():
    m, m2 = 4, 2
    rng = np.random.default_rng(2)
    xi = rng.normal(size=(m, m))
    from akpz.lattice import canonicalize
    for dp in [(1, 0), (1, -1), (-1, 0), (0, -1), (0, 1)]:
        shifted = shift_field(xi, dp, m2)
        for p1 in range(m):
            for p2 in range(m):
                q1, q2 = canonicalize((p1 + dp[0], p2 + dp[1]), m, m2)
                assert shifted[p1, p2] == xi[q1, q2]


def test_euler_maruyama_kills_constants():
    params = ModelParams(C=0.5, D=1.5)
    initial = SdeState(xi=np.full((4, 4), 2.25), t=0.0)
    out = euler_maruyama(initial, params, dt=1e-3, T=0.2, seed=ZeroNormals(), m2=2)
    assert np.abs(out[-1].xi - 2.25).max() < 1e-12


def test_euler_maruyama_stability_guard():
    params = ModelParams(C=0.5, D=1.5)
    initial = SdeState(xi=np.zeros((4, 4)), t=0.0)
    with pytest.raises(ParameterError):
        euler_maruyama(initial, params, dt=0.5, T=1.0, seed=0, m2=2)
    with pytest.raises(ParameterError):
        euler_maruyama(initial, params, dt=-1e-3, T=1.0, seed=0, m2=2)
    with pytest.raises(ParameterError):
        euler_maruyama_ensemble(initial.xi, params, 2, -1e-3, 10, seed=0,
                                snapshot_steps=[10], replicas=1)
    with pytest.raises(ParameterError):
        euler_maruyama_ensemble(initial.xi, params, 2, 1e-3, -10, seed=0,
                                snapshot_steps=[-10], replicas=1)


@pytest.mark.parametrize("dt, T, record_every", [
    (math.nan, 1.0, None), (math.inf, 1.0, None), (1e-3, math.nan, None),
    (1e-3, math.inf, None), (1e-3, 1.0, math.nan), (1e-3, 1.0, math.inf)])
def test_euler_maruyama_rejects_non_finite(dt, T, record_every):
    params = ModelParams(C=0.5, D=1.5)
    initial = SdeState(xi=np.zeros((4, 4)), t=0.0)
    with pytest.raises(ParameterError):
        euler_maruyama(initial, params, dt=dt, T=T, seed=0, m2=2, record_every=record_every)
    if math.isnan(dt):
        with pytest.raises(ParameterError):
            euler_maruyama_ensemble(initial.xi, params, 2, dt, 10, seed=0,
                                    snapshot_steps=[10], replicas=1)


@pytest.mark.parametrize("T, record_every", [(0.015, None), (0.03, 0.015), (0.03, 0.005)])
def test_euler_maruyama_rejects_times_off_the_step_grid(T, record_every):
    # round(T/dt) steps would put the last snapshot at t=0.02, past T=0.015
    params = ModelParams(C=0.5, D=1.5)
    initial = SdeState(xi=np.zeros((4, 4)), t=0.0)
    with pytest.raises(ParameterError, match="integer multiple of dt"):
        euler_maruyama(initial, params, dt=0.01, T=T, seed=0, m2=2, record_every=record_every)


def test_step_count_takes_multiples_within_rounding():
    assert step_count(0.37, 0.01) == 37
    assert step_count(0.0, 0.01) == 0
    assert step_count(2.0, 1e-3, "t") == 2000
    with pytest.raises(ParameterError, match="t = 0.015"):
        step_count(0.015, 0.01, "t")


def test_euler_maruyama_is_the_one_replica_ensemble():
    params = ModelParams(C=0.5, D=1.5)
    xi0 = np.random.default_rng(1).normal(size=(4, 4))
    states = euler_maruyama(SdeState(xi=xi0, t=0.5), params, dt=1e-2, T=0.37, seed=9, m2=2,
                            record_every=0.05)
    steps = [0, 5, 10, 15, 20, 25, 30, 35, 37]
    snaps = euler_maruyama_ensemble(xi0, params, 2, 1e-2, 37, seed=9, snapshot_steps=steps,
                                    replicas=1)
    assert [st.t for st in states] == [0.5 + k * 1e-2 for k in steps]
    for st, k in zip(states, steps):
        assert st.xi.tobytes() == snaps[k][0].tobytes()


def test_euler_maruyama_deterministic_per_seed():
    params = ModelParams(C=0.5, D=1.5)
    initial = SdeState(xi=np.zeros((4, 4)), t=0.0)
    a = euler_maruyama(initial, params, dt=1e-2, T=0.5, seed=42, m2=2)
    b = euler_maruyama(initial, params, dt=1e-2, T=0.5, seed=42, m2=2)
    assert np.array_equal(a[-1].xi, b[-1].xi)


def test_mean_propagation_matches_fourier_multiplier():
    # ensemble mean of each Fourier mode follows exp(symbol_A(k) t)
    m, m2 = 4, 2
    params = ModelParams(C=0.75, D=1.5)
    rng = np.random.default_rng(5)
    xi0 = rng.normal(size=(m, m))
    t_end, dt, R = 1.0, 1e-3, 4000
    nsteps = round(t_end / dt)
    snaps = euler_maruyama_ensemble(xi0, params, m2, dt, nsteps, seed=7,
                                    snapshot_steps=[nsteps], replicas=R)
    modes = fourier_modes(m, m2)
    xh = modes.field_transform(snaps[nsteps])
    a = symbol_A(modes.K1, modes.twist + modes.K2, drift_coeffs(params)).ravel()
    target = np.exp(a * t_end) * modes.field_transform(xi0)
    se = xh.std(axis=0) / math.sqrt(R)
    z = np.abs(xh.mean(axis=0) - target) / np.maximum(se, 1e-12)
    assert z.max() < 3.0


def test_mode_variance_matches_exact_relaxation():
    m, m2 = 4, 2
    params = ModelParams(C=0.75, D=1.5)
    t_end, dt, R = 1.0, 1e-3, 4000
    nsteps = round(t_end / dt)
    snaps = euler_maruyama_ensemble(np.zeros((m, m)), params, m2, dt, nsteps,
                                    seed=17, snapshot_steps=[nsteps], replicas=R)
    modes = fourier_modes(m, m2)
    xh = modes.field_transform(snaps[nsteps])
    rvals = symbol_R(modes.K1, modes.twist + modes.K2, drift_coeffs(params)).ravel()
    exact = np.where(np.abs(rvals) > 1e-12,
                     params.v * np.expm1(rvals * t_end) / np.where(rvals == 0, 1, rvals),
                     params.v * t_end)
    sq = np.abs(xh) ** 2
    se = sq.std(axis=0) / math.sqrt(R)
    z = np.abs(sq.mean(axis=0) - exact) / np.maximum(se, 1e-12)
    assert z.max() < 3.0


def _snapshot_digest(snaps):
    h = hashlib.sha256()
    for k in sorted(snaps):
        h.update(f"{k}:{snaps[k].shape}:".encode())
        h.update(np.ascontiguousarray(snaps[k]).tobytes())
    return h.hexdigest()


def _em_case(case):
    params = ModelParams(C=0.5, D=1.5)
    rng = np.random.default_rng(4)
    if case == "shared-4x4":
        xi0 = rng.normal(size=(4, 4))
        return euler_maruyama_ensemble(xi0, params, 2, 1e-2, 40, seed=11,
                                       snapshot_steps=[0, 1, 40], replicas=64)
    if case == "batch-5x6x6":
        xi0 = rng.normal(size=(5, 6, 6))
        return euler_maruyama_ensemble(xi0, params, 4, 5e-3, 30, seed=12,
                                       snapshot_steps=[0, 7, 30])
    if case == "shared-16x16":
        xi0 = rng.normal(size=(16, 16))
        return euler_maruyama_ensemble(xi0, params, 8, 1e-2, 25, seed=13,
                                       snapshot_steps=[10, 25], replicas=3)
    xi0 = rng.normal(size=(3, 6, 6))
    return euler_maruyama_ensemble(xi0, params, 4, 1e-2, 50, seed=ZeroNormals(),
                                   snapshot_steps=[0, 50])


@pytest.mark.parametrize("case, digest", [
    ("shared-4x4",
     "eb975794f8643dfbf17f9eeb9848ef5feac42490392aa05d2bc562feb55126ab"),
    ("batch-5x6x6",
     "df1bf6fdac5c9dd52673fc804a65d75c7f66b5c9befa320ee7f4489e9b56cbb2"),
    ("shared-16x16",
     "4a30bf8f2fd837d2135119e6e8ead027847a08ce68e9209b8a6919ca495ac1e2"),
    ("no-noise",
     "0d9ad07702d98743cd9f522e5e6bc502e2bff011124a457325068ac335f4edad"),
])
def test_euler_maruyama_ensemble_bits_are_pinned(case, digest):
    # snapshot bytes recorded with numpy 2.4.6 before the step was moved into
    # preallocated buffers; a step that keeps the operation order and the RNG
    # stream must reproduce them bit for bit
    assert _snapshot_digest(_em_case(case)) == digest


@pytest.mark.parametrize("m, m2", [(4, 2), (16, 8), (4, 1), (5, 2), (6, 4), (7, 3)])
def test_flat_shift_tables_are_permutations(m, m2):
    # the step gathers xi.reshape(R, m*m) through these flat labels with
    # mode="clip", which is exact only because each table is a bijection
    xi = np.random.default_rng(m * m2).normal(size=(3, m, m))
    for dp in ((1, -1), (-1, 0), (0, -1)):
        i1, i2 = neighbor_index(m, m, m2, dp)
        flat = (i1 * m + i2).ravel()
        assert np.array_equal(np.sort(flat), np.arange(m * m))
        gathered = xi.reshape(3, m * m).take(flat, axis=1, mode="clip")
        assert np.array_equal(gathered, shift_field(xi, dp, m2).reshape(3, m * m))


def test_euler_maruyama_ensemble_leaves_inputs_and_snapshots_apart():
    params = ModelParams(C=0.5, D=1.5)
    xi0 = np.random.default_rng(6).normal(size=(4, 6, 6))
    before = xi0.copy()
    snaps = euler_maruyama_ensemble(xi0, params, 4, 1e-2, 6, seed=2,
                                    snapshot_steps=[0, 1, 2, 6])
    assert np.array_equal(xi0, before)
    only_start = euler_maruyama_ensemble(xi0, params, 4, 1e-2, 6, seed=2, snapshot_steps=[0])
    assert np.array_equal(only_start[0], xi0)
    arrays = [xi0, *snaps.values(), only_start[0]]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("shape", [(4,), (4, 5), (2, 4, 5), (2, 4, 4, 5)])
def test_euler_maruyama_ensemble_rejects_non_square_fields(shape):
    with pytest.raises(ParameterError, match="m x m"):
        euler_maruyama_ensemble(np.zeros(shape), ModelParams(C=0.5, D=1.5), 2, 1e-2, 3,
                                seed=0, snapshot_steps=[3], replicas=2)


@pytest.mark.parametrize("xi0_shape, replicas, steps", [
    ((3, 4, 4), 5, [3]),  # a batch of 3 with 5 replicas asked for
    ((4, 4), -1, [3]),
    ((4, 4), 2.5, [3]),
    ((4, 4), 2, [1, 2.5]),
], ids=["batch-size-mismatch", "negative-replicas", "fractional-replicas",
        "fractional-snapshot-step"])
def test_euler_maruyama_ensemble_rejects_bad_replicas_and_steps(xi0_shape, replicas, steps):
    with pytest.raises(ParameterError):
        euler_maruyama_ensemble(np.zeros(xi0_shape), ModelParams(C=0.5, D=1.5), 2, 1e-2, 3,
                                seed=0, snapshot_steps=steps, replicas=replicas)


def test_euler_maruyama_ensemble_runs_zero_replicas():
    snaps = euler_maruyama_ensemble(np.zeros((4, 4)), ModelParams(C=0.5, D=1.5), 2, 1e-2, 3,
                                    seed=0, snapshot_steps=[3], replicas=0)
    assert snaps[3].shape == (0, 4, 4)


def _reference_ensemble(xi0, params, m2, dt, nsteps, seed, snapshot_steps, replicas=None):
    # the step loop of euler_maruyama_ensemble as it was before its noise was
    # drawn ahead on a second thread: one standard_normal(out=) call in each
    # step; the argument checks are left out
    xi0 = np.asarray(xi0, dtype=float)
    xi = np.broadcast_to(xi0, (replicas, *xi0.shape)).copy() if xi0.ndim == 2 else xi0.copy()
    coeffs = drift_coeffs(params)
    m = xi.shape[-1]
    br, left, below = ((i1 * m + i2).ravel() for i1, i2 in
                       (neighbor_index(m, m, m2, dp) for dp in ((1, -1), (-1, 0), (0, -1))))
    flat = xi.reshape(-1, m * m)
    acc, tmp = np.empty_like(flat), np.empty_like(flat)
    rng = np.random.default_rng(seed)
    sig = math.sqrt(params.v * dt)
    want = set(snapshot_steps)
    last = max(want)
    out = {0: xi.copy()} if 0 in want and last else {}
    for step in range(1, last + 1):
        np.multiply(flat, coeffs.diag, out=acc)
        acc += np.multiply(flat.take(br, axis=1, out=tmp, mode="clip"), coeffs.d2, out=tmp)
        acc -= np.multiply(flat.take(left, axis=1, out=tmp, mode="clip"), coeffs.d1, out=tmp)
        acc += np.multiply(flat.take(below, axis=1, out=tmp, mode="clip"), coeffs.d3, out=tmp)
        acc *= dt
        flat += acc
        flat += np.multiply(rng.standard_normal(out=tmp), sig, out=tmp)
        if step in want and step < last:
            out[step] = xi.copy()
    out[last] = xi
    return out


def _block_steps(step_bytes, nsteps):
    # the integrator's rule: an eighth of the run, cut to 1 MiB, and at least one step
    return max(1, min(2 ** 20 // max(step_bytes, 1), nsteps // 8))


# (m, shared field or batch, replicas, nsteps, noise), a run without noise
# drawing from ZeroNormals.  With 8-byte sites a 4x4 replica is 128 bytes and
# a 16x16 one 2 KiB.
DRAW_AHEAD_CASES = [
    (4, "shared", 5, 0, True),
    (4, "shared", 5, 1, True),
    (4, "shared", 0, 40, True),
    (4, "shared", 1, 40, True),     # 8 blocks of 5
    (4, "shared", 512, 8, True),    # 64 KiB steps: 8 one-step blocks
    (4, "shared", 64, 576, True),   # 8 KiB steps: 8 whole blocks of 72
    (4, "shared", 64, 579, True),   # 8 blocks of 72 and a partial one of 3
    (4, "batch", 256, 37, True),    # 32 KiB steps: 9 blocks of 4 and a partial one of 1
    (4, "batch", 256, 9, True),     # 9 one-step blocks
    (6, "batch", 7, 50, False),
    (16, "shared", 128, 32, True),  # 256 KiB steps, 1 MiB bound: 8 whole blocks of 4
    (16, "batch", 128, 50, True),   # 12 blocks of 4 and a partial one of 2
    (16, "shared", 600, 3, True),   # steps above 1 MiB: one step a block
]


@pytest.mark.parametrize("m, start, replicas, nsteps, noise", DRAW_AHEAD_CASES, ids=str)
def test_draw_ahead_integrator_matches_the_per_step_loop(m, start, replicas, nsteps, noise):
    params = ModelParams(C=0.5, D=1.5)
    m2 = m // 2
    rng = np.random.default_rng(nsteps)
    shape = (m, m) if start == "shared" else (replicas, m, m)
    xi0 = rng.normal(size=shape)
    k = _block_steps(replicas * m * m * 8, nsteps)
    # every block edge, one step past each, and the end
    snapshot_steps = sorted({0, nsteps, *(s for e in range(k, nsteps, k) for s in (e, e + 1)
                                          if s <= nsteps)})
    seed = 21 if noise else ZeroNormals()
    got = euler_maruyama_ensemble(xi0, params, m2, 1e-2, nsteps, seed, snapshot_steps,
                                  replicas=replicas if start == "shared" else None)
    want = _reference_ensemble(xi0, params, m2, 1e-2, nsteps, seed, snapshot_steps,
                               replicas=replicas)
    assert sorted(got) == sorted(want) == snapshot_steps
    for step in snapshot_steps:
        assert got[step].shape == (replicas, m, m)
        assert got[step].tobytes() == want[step].tobytes(), step


def test_draw_ahead_keeps_its_bits_under_rapid_thread_switching():
    # the noise thread fills one buffer while the main thread reads the
    # other; switching threads every microsecond would expose a block read
    # before it is filled or overwritten while it is read
    params, xi0 = ModelParams(C=0.5, D=1.5), np.random.default_rng(8).normal(size=(4, 4))
    want = _reference_ensemble(xi0, params, 2, 1e-2, 2000, 5, [2000], replicas=256)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        got = euler_maruyama_ensemble(xi0, params, 2, 1e-2, 2000, 5, [2000], replicas=256)
    finally:
        sys.setswitchinterval(interval)
    assert got[2000].tobytes() == want[2000].tobytes()  # 62 blocks of 32 steps and one of 16


def _record_draws(monkeypatch, fail_on=None):
    # np.random.default_rng replaced by generators that record the thread of
    # each standard_normal call and raise on the call numbered fail_on
    real, drawn_on = np.random.default_rng, []

    class Recorded:
        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, *args, **kwargs):
            drawn_on.append(threading.current_thread())
            if len(drawn_on) == fail_on:
                raise RuntimeError(f"draw {fail_on} failed")
            return self.rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Recorded)
    return drawn_on


def test_a_call_from_a_worker_thread_draws_in_that_thread(monkeypatch):
    # as in cli.thread_map: the worker draws its own blocks, with the same bits
    params, xi0 = ModelParams(C=0.5, D=1.5), np.random.default_rng(3).normal(size=(4, 4))
    want = _reference_ensemble(xi0, params, 2, 1e-2, 579, 21, [100, 579], replicas=64)
    drawn_on = _record_draws(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(threading.current_thread).result(timeout=60)
        got = pool.submit(euler_maruyama_ensemble, xi0, params, 2, 1e-2, 579, 21, [100, 579],
                          replicas=64).result(timeout=60)
    assert len(drawn_on) == 9 and set(drawn_on) == {worker}  # 8 blocks of 72 and one of 3
    assert all(got[k].tobytes() == want[k].tobytes() for k in (100, 579))


def test_a_noise_thread_error_reaches_the_caller_and_no_thread_remains(monkeypatch):
    drawn_on = _record_draws(monkeypatch, fail_on=3)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="draw 3 failed"):  # 8 blocks of 5 steps
        euler_maruyama_ensemble(np.zeros((4, 4)), ModelParams(C=0.5, D=1.5), 2, 1e-2, 40,
                                seed=0, snapshot_steps=[40], replicas=64)
    assert len(drawn_on) == 3 and threading.current_thread() not in drawn_on
    assert set(threading.enumerate()) == before
