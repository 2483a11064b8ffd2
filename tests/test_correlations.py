import hashlib
import math

import numpy as np
import pytest

from akpz.correlations import (AccuracyError, CovarianceQuery, FourPointQuery,
                               corollary_regimes, covariance_asymptotic, covariance_finite_m,
                               covariance_heat_kernel, covariance_quadrature,
                               four_point_closed_form, gff_continuum_variance,
                               gff_lattice_bilinear, gff_smoothed_variance,
                               she_covariance, she_scaled_lattice_covariance,
                               stationary_cov_finite, stationary_cov_infinite,
                               two_bump_test_function)
from akpz.lattice import ParameterError, fourier_modes
from akpz.sde import ModelParams, drift_coeffs, euler_maruyama_ensemble, shift_field, spectral_data

PARAMS = ModelParams(C=0.5, D=1.5)
SPECTRAL = spectral_data(drift_coeffs(PARAMS))
V4 = PARAMS.v / (4 * math.pi * SPECTRAL.w)


def test_query_requires_ordered_times():
    with pytest.raises(ParameterError):
        CovarianceQuery(y=(0, 0), t=1.0, s=2.0)


def test_finite_m_zero_at_deterministic_start():
    q = CovarianceQuery(y=(1, 0), t=3.0, s=0.0)
    assert covariance_finite_m(q, 8, 4, PARAMS).value == 0.0


def test_finite_m_independent_of_initial_condition():
    # Monte-Carlo covariance from two different deterministic starts
    m, m2 = 4, 2
    params = ModelParams(C=0.75, D=1.5)
    rng = np.random.default_rng(31)
    t_end, dt, R = 1.0, 2e-3, 3000
    nsteps = round(t_end / dt)
    exact = covariance_finite_m(CovarianceQuery(y=(1, 0), t=t_end, s=t_end),
                                m, m2, params).value
    for start in (np.zeros((m, m)), rng.normal(size=(m, m))):
        snaps = euler_maruyama_ensemble(start, params, m2, dt, nsteps, seed=77,
                                        snapshot_steps=[nsteps], replicas=R)
        xi = snaps[nsteps] - np.mean(snaps[nsteps], axis=0)
        prod = xi * shift_field(xi, (1, 0), m2)
        z_r = prod.mean(axis=(1, 2))
        se = z_r.std(ddof=1) / math.sqrt(R)
        assert abs(z_r.mean() - exact) < 3.2 * se


def test_finite_m_real_and_reflection_symmetric_at_equal_time():
    # conjugate mode pairing makes every value real; at equal times only the
    # even symmetrized symbol enters, so y -> -y leaves the sum unchanged
    q_plus = CovarianceQuery(y=(2, 1), t=4.0, s=4.0)
    q_minus = CovarianceQuery(y=(-2, -1), t=4.0, s=4.0)
    a = covariance_finite_m(q_plus, 8, 4, PARAMS).value
    b = covariance_finite_m(q_minus, 8, 4, PARAMS).value
    assert a == pytest.approx(b, abs=1e-12)
    # two-time values are real as well (checked internally before discarding)
    covariance_finite_m(CovarianceQuery(y=(2, 1), t=4.0, s=3.0), 8, 4, PARAMS)


def test_quadrature_matches_finite_m_at_moderate_size():
    q = CovarianceQuery(y=(0, 0), t=5.0, s=5.0)
    fm = covariance_finite_m(q, 64, 32, PARAMS).value
    qd = covariance_quadrature(q, PARAMS)
    assert abs(fm - qd.value) < 1e-4
    assert qd.err_est <= 1e-6


def test_quadrature_zero_at_s_zero():
    q = CovarianceQuery(y=(3, -2), t=2.0, s=0.0)
    assert covariance_quadrature(q, PARAMS).value == 0.0


@pytest.mark.parametrize("call, tol", [
    (lambda: covariance_quadrature(CovarianceQuery(y=(0, 0), t=5.0, s=5.0), PARAMS,
                                   tol=1e-18, m_start=32, m_max=64), 1e-18),
    (lambda: stationary_cov_infinite(FourPointQuery((0, 0), (1, 0), (0, 0), (1, 0)), PARAMS,
                                     tol=1e-30, m_start=16, m_max=64), 1e-30),
], ids=["covariance", "stationary"])
def test_quadrature_reports_accuracy_failure(call, tol):
    with pytest.raises(AccuracyError) as err:
        call()
    assert str(err.value) == f"quadrature did not reach tol={tol} by m=64"


def test_heat_kernel_log_form_at_equal_time_origin():
    t = 37.0
    q = CovarianceQuery(y=(0, 0), t=t, s=t)
    val = covariance_heat_kernel(q, SPECTRAL, PARAMS).value
    assert val == pytest.approx(V4 * math.log(1 + t), rel=1e-12)


def test_heat_kernel_correction_decays_along_characteristic():
    s = 20.0
    gaps = (10.0, 40.0, 160.0)
    j_sizes = []
    for gap in gaps:
        t = s + gap
        y = tuple(int(a) for a in np.floor(SPECTRAL.U * gap))
        q = CovarianceQuery(y=y, t=t, s=s)
        quad = covariance_quadrature(q, PARAMS).value
        kern = covariance_heat_kernel(q, SPECTRAL, PARAMS).value
        j_sizes.append(abs(quad - kern))
    assert j_sizes[0] > j_sizes[1] >= j_sizes[2]
    assert j_sizes[-1] < 5e-3


def test_equal_time_log_growth_slope():
    ts = (50.0, 100.0, 200.0, 400.0, 800.0)
    vals = [covariance_quadrature(CovarianceQuery(y=(0, 0), t=t, s=t), PARAMS).value
            for t in ts]
    slope = float(np.polyfit(np.log(ts), vals, 1)[0])
    assert slope == pytest.approx(V4, rel=0.05)


def test_equal_time_spatial_regime():
    # at |y| ~ sqrt(t) the quadrature matches the exponential-integral form
    # tightly, while the log formula is off by a bounded constant
    from akpz.specfun import exp_integral_E1
    e1_gaps, log_gaps = [], []
    for t in (100.0, 400.0, 1600.0):
        y = (int(round(math.sqrt(t))), 0)
        quad = covariance_quadrature(CovarianceQuery(y=y, t=t, s=t), PARAMS).value
        Y = SPECTRAL.V @ np.array(y, dtype=float)
        a_lo = float(Y @ Y) / (4 * (t + 1))
        a_hi = float(Y @ Y) / 4
        e1_form = V4 * (exp_integral_E1(a_lo) - exp_integral_E1(a_hi))
        e1_gaps.append(abs(quad - e1_form))
        log_gaps.append(abs(quad - V4 * math.log(4 * (t + 1) / float(Y @ Y))))
    assert e1_gaps[0] > e1_gaps[1] > e1_gaps[2]
    assert e1_gaps[-1] < 1e-4
    assert max(log_gaps) < 0.15


def test_equal_time_far_spatial_regime_vanishes():
    for t in (100.0, 400.0):
        y = (int(round(10 * math.sqrt(t))), 0)
        quad = covariance_quadrature(CovarianceQuery(y=y, t=t, s=t), PARAMS,
                                     m_max=8192).value
        assert abs(quad) < 1e-8


def test_characteristic_regime_and_slow_decorrelation():
    t, gap = 400.0, 100.0
    s = t - gap
    y_char = tuple(int(a) for a in np.floor(SPECTRAL.U * gap))
    w_char = covariance_quadrature(CovarianceQuery(y=y_char, t=t, s=s), PARAMS).value
    target = V4 * math.log((t + s) / (t - s))
    assert w_char == pytest.approx(target, rel=0.10)
    rng = np.random.default_rng(11)
    for _ in range(8):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.75, 1.5)
        u = SPECTRAL.U + rad * np.array([np.cos(ang), np.sin(ang)])
        y_u = tuple(int(a) for a in np.floor(u * gap))
        w_u = covariance_quadrature(CovarianceQuery(y=y_u, t=t, s=s), PARAMS).value
        assert abs(w_u) < 0.25 * w_char


def test_off_characteristic_regime_vanishes():
    # t - s = t^0.7 puts every u != U direction out of reach
    t = 600.0
    gap = t ** 0.7
    s = t - gap
    u = SPECTRAL.U + np.array([0.9, 0.4])
    y_u = tuple(int(a) for a in np.floor(u * gap))
    w_u = covariance_quadrature(CovarianceQuery(y=y_u, t=t, s=s), PARAMS).value
    regs = {r.label: r for r in corollary_regimes(
        CovarianceQuery(y=y_u, t=t, s=s), SPECTRAL, PARAMS)}
    assert abs(w_u) < 1e-3
    assert regs["off-characteristic"].value < 1e-3
    assert regs["off-characteristic"].applies


def test_corollary_regime_tags():
    t, gap = 400.0, 100.0
    y_char = tuple(int(a) for a in np.floor(SPECTRAL.U * gap))
    regs = {r.label: r for r in corollary_regimes(
        CovarianceQuery(y=y_char, t=t, s=t - gap), SPECTRAL, PARAMS)}
    assert regs["characteristic"].applies
    assert not regs["off-characteristic"].applies
    assert regs["characteristic"].value == pytest.approx(
        V4 * math.log((2 * t - gap) / gap), rel=1e-12)


def test_covariance_asymptotic_takes_the_first_regime_that_applies():
    t, gap = 400.0, 100.0
    y_char = tuple(int(a) for a in np.floor(SPECTRAL.U * gap))
    q = CovarianceQuery(y=y_char, t=t, s=t - gap)
    res = covariance_asymptotic(q, SPECTRAL, PARAMS)
    first = next(r for r in corollary_regimes(q, SPECTRAL, PARAMS) if r.applies)
    assert (res.method, res.value) == ("asymptotic:characteristic", first.value)
    with pytest.raises(ParameterError, match=r"evaluated: equal-time-origin, equal-time-spatial"):
        covariance_asymptotic(CovarianceQuery(y=(100, 0), t=5.0, s=5.0), SPECTRAL, PARAMS)


def test_she_covariance_log_form_at_coincident_points():
    t, s = 5.0, 3.0
    val = she_covariance((1.0, 1.0), (1.0, 1.0), t, s)
    assert val == pytest.approx(math.log((t + s) / (t - s)) / 8, rel=1e-12)


def test_she_covariance_symmetric():
    a = she_covariance((1.0, 0.5), (0.0, 0.0), 4.0, 2.0)
    b = she_covariance((0.0, 0.0), (1.0, 0.5), 4.0, 2.0)
    assert a == pytest.approx(b, rel=1e-14)


def test_she_scaling_limit():
    x, y, t, s = (1.0, 0.0), (0.0, 0.0), 4.0, 2.0
    she = she_covariance(x, y, t, s)
    rels = []
    for delta in (1e-1, 1e-2, 1e-3):
        val = she_scaled_lattice_covariance(x, y, t, s, delta, SPECTRAL, PARAMS)
        rels.append(abs(val - she) / she)
    assert rels[0] > rels[1] > rels[2]
    assert rels[-1] < 0.01


def test_stationary_finite_degenerate_pair_vanishes():
    q = FourPointQuery((1, 1), (1, 1), (0, 0), (2, 0))
    assert stationary_cov_finite(q, 16, 8, PARAMS) == 0.0


def test_stationary_finite_matches_long_run_sde():
    m, m2 = 4, 2
    params = ModelParams(C=0.75, D=1.5)
    dt = 2e-3
    burn, t_sample, every = 60.0, 150.0, 1.0
    steps = [round((burn + j * every) / dt) for j in range(int(t_sample / every))]
    R = 48
    snaps = euler_maruyama_ensemble(np.zeros((m, m)), params, m2, dt, max(steps),
                                    seed=42, snapshot_steps=steps, replicas=R)
    fields = np.stack([snaps[s] for s in steps], axis=1)

    def gradient(y1, y2):
        return (fields[..., y1[0] % m, y1[1] % m] - fields[..., y2[0] % m, y2[1] % m])

    quads = [FourPointQuery((0, 0), (1, 0), (0, 0), (1, 0)),
             FourPointQuery((0, 0), (0, 1), (0, 0), (0, 1)),
             FourPointQuery((0, 0), (1, 0), (0, 0), (0, 1)),
             FourPointQuery((0, 0), (1, 1), (1, 0), (0, 1))]
    for q in quads:
        prod = gradient(q.y1, q.y2) * gradient(q.y3, q.y4)
        per_rep = prod.mean(axis=1)
        est = per_rep.mean()
        se = per_rep.std(ddof=1) / math.sqrt(R)
        exact = stationary_cov_finite(q, m, m2, params)
        assert abs(est - exact) < 3 * se


def test_stationary_finite_stabilizes_in_m():
    for y in [(1, 0), (0, 1), (1, 1)]:
        q = FourPointQuery((0, 0), y, (0, 0), y)
        a = stationary_cov_finite(q, 64, 32, PARAMS)
        b = stationary_cov_finite(q, 128, 64, PARAMS)
        assert abs(a - b) < 1e-3
    q = FourPointQuery((0, 0), (3, 1), (0, 0), (3, 1))
    b = stationary_cov_finite(q, 128, 64, PARAMS)
    c = stationary_cov_infinite(q, PARAMS)
    assert abs(b - c) < 5e-3


def test_equal_time_origin_minus_log_bounded():
    diffs = [abs(covariance_quadrature(CovarianceQuery(y=(0, 0), t=t, s=t),
                                       PARAMS).value - V4 * math.log(t))
             for t in (100.0, 400.0, 800.0)]
    assert max(diffs) < 0.5
    assert max(diffs) - min(diffs) < 0.01


def test_four_point_closed_form_variance_shape():
    y = (7, 2)
    q = FourPointQuery((0, 0), y, (0, 0), y)
    lead = four_point_closed_form(q, SPECTRAL, PARAMS)
    Y = SPECTRAL.V @ np.array(y, dtype=float)
    expected = PARAMS.v / (2 * math.pi * SPECTRAL.w) * math.log(1 + float(Y @ Y))
    assert lead == pytest.approx(expected, rel=1e-12)


def test_four_point_closed_form_antisymmetric_in_swap():
    q = FourPointQuery((0, 0), (9, 3), (5, 1), (-2, 4))
    q_swapped = FourPointQuery((0, 0), (9, 3), (-2, 4), (5, 1))
    a = four_point_closed_form(q, SPECTRAL, PARAMS)
    b = four_point_closed_form(q_swapped, SPECTRAL, PARAMS)
    assert a == pytest.approx(-b, rel=1e-12)


def test_four_point_remainder_envelope():
    # difference against quadrature decays like 1/separation with a bounded
    # envelope constant
    env = []
    diffs = []
    for d in (10, 20, 40):
        q = FourPointQuery((0, 0), (d, d), (d, 0), (0, d))
        lead = four_point_closed_form(q, SPECTRAL, PARAMS)
        quad = stationary_cov_infinite(q, PARAMS, tol=1e-5)
        diffs.append(abs(lead - quad))
        env.append(diffs[-1] * (1 + d))
    assert diffs[0] > diffs[1] > diffs[2]
    assert max(env) < 0.5


def test_four_point_exact_form_beats_leading_term():
    for d in (10, 20, 40):
        q = FourPointQuery((0, 0), (d, d), (d, 0), (0, d))
        lead = four_point_closed_form(q, SPECTRAL, PARAMS)
        exact = four_point_closed_form(q, SPECTRAL, PARAMS, exact=True)
        quad = stationary_cov_infinite(q, PARAMS, tol=1e-5)
        assert abs(exact - quad) < abs(lead - quad)


def test_variance_log_growth_bounded_remainder():
    remainders = []
    for ay in (8, 16, 32, 64):
        q = FourPointQuery((0, 0), (ay, 0), (0, 0), (ay, 0))
        var = stationary_cov_infinite(q, PARAMS, tol=1e-5)
        Y = SPECTRAL.V @ np.array([ay, 0.0])
        remainders.append(var - PARAMS.v / (math.pi * SPECTRAL.w)
                          * math.log(float(np.linalg.norm(Y))))
    spread = max(remainders) - min(remainders)
    assert spread < 1e-3
    assert max(map(abs, remainders)) < 1.0


def test_gff_zero_function():
    m, m2 = 64, 32
    g = gff_smoothed_variance(np.zeros((m, m)), 0.125, m, m2, PARAMS, SPECTRAL)
    assert g.lattice == 0.0
    assert g.continuum == 0.0


def test_gff_rejects_nonzero_mean():
    m = 64
    phi = np.zeros((m, m))
    phi[m // 2, m // 2] = 1.0
    with pytest.raises(ParameterError):
        gff_smoothed_variance(phi, 0.125, m, 32, PARAMS, SPECTRAL)


@pytest.mark.parametrize("delta", [math.inf, math.nan, 1e150, 1e200])
def test_gff_rejects_delta_whose_fourth_power_is_not_finite(delta):
    m = 16
    phi = np.zeros((m, m))
    phi[m // 2, m // 2], phi[m // 2 + 1, m // 2] = 1.0, -1.0
    with pytest.raises(ParameterError):
        gff_smoothed_variance(phi, delta, m, m // 2, PARAMS, SPECTRAL)
    with pytest.raises(ParameterError):
        two_bump_test_function(delta, m)


@pytest.mark.parametrize("two_point", [False, True], ids=["two-bump", "two-point"])
def test_gff_variance_overflow_names_delta(two_point):
    # just inside the delta bound the mode sum and the log-kernel sum overflow;
    # that is a ParameterError naming delta, with no RuntimeWarning on the way
    delta, m = 1.15e77, 16
    phi = two_bump_test_function(delta, m)
    if two_point:
        phi = np.zeros((m, m))
        phi[m // 2, m // 2], phi[m // 2 + 1, m // 2] = 1.0, -1.0
    with pytest.raises(ParameterError, match="delta=1.15e"):
        gff_smoothed_variance(phi, delta, m, m // 2, PARAMS, SPECTRAL)


def test_gff_lattice_vs_continuum():
    delta, m, m2 = 1 / 16, 256, 128
    phi = two_bump_test_function(delta, m)
    g = gff_smoothed_variance(phi, delta, m, m2, PARAMS, SPECTRAL)
    assert abs(g.lattice - g.continuum) < 0.05 * abs(g.continuum)


def test_gff_lattice_converges_toward_continuum_with_volume():
    delta = 1 / 16
    gaps = []
    for m in (256, 512):
        phi = two_bump_test_function(delta, m)
        g = gff_smoothed_variance(phi, delta, m, m // 2, PARAMS, SPECTRAL)
        gaps.append(abs(g.lattice - g.continuum))
    assert gaps[1] < gaps[0]


def _random_sparse_mean_zero(m, rng):
    phi = np.zeros((m, m))
    idx = rng.integers(m // 2 - 8, m // 2 + 8, size=(12, 2))
    vals = rng.normal(size=12)
    for (a, b), v in zip(idx, vals):
        phi[a, b] += v
    phi -= phi.mean()
    return phi


@pytest.mark.parametrize("m, m2", [(6, 2), (7, 3)])
def test_smoothed_transform_matches_definition(m, m2):
    from akpz.correlations import _smoothed_transform
    delta = 0.3
    modes = fourier_modes(m, m2)
    phi = np.random.default_rng(m).normal(size=(m, m))
    p1, p2 = np.meshgrid(np.arange(m) - m // 2, np.arange(m) - m // 2, indexing="ij")
    p = np.stack([p1.ravel(), p2.ravel()])
    direct = delta ** 2 * ((np.exp(1j * modes.k @ p) - 1) @ phi.ravel())
    fast = _smoothed_transform(phi, delta, modes)
    assert np.abs(fast - direct).max() <= 1e-12 * np.abs(direct).max()


def test_gff_polarization_identity_exact():
    m, m2, delta = 32, 16, 0.25
    rng = np.random.default_rng(3)
    p1 = _random_sparse_mean_zero(m, rng)
    p2 = _random_sparse_mean_zero(m, rng)
    b12 = gff_lattice_bilinear(p1, p2, delta, m, m2, PARAMS)
    q11 = gff_lattice_bilinear(p1, p1, delta, m, m2, PARAMS)
    q22 = gff_lattice_bilinear(p2, p2, delta, m, m2, PARAMS)
    qdd = gff_lattice_bilinear(p1 - p2, p1 - p2, delta, m, m2, PARAMS)
    assert 2 * b12 == pytest.approx(q11 + q22 - qdd, abs=1e-10)


def test_gff_quadratic_form_positive_semidefinite():
    m, m2, delta = 32, 16, 0.25
    rng = np.random.default_rng(29)
    for _ in range(20):
        phi = _random_sparse_mean_zero(m, rng)
        assert gff_lattice_bilinear(phi, phi, delta, m, m2, PARAMS) >= 0


def test_gff_continuum_value_from_direct_double_sum():
    # the FFT correlation path must agree with a direct double loop
    m, delta = 24, 0.25
    rng = np.random.default_rng(8)
    phi = _random_sparse_mean_zero(m, rng)
    fast = gff_continuum_variance(phi, delta, SPECTRAL, PARAMS)
    from akpz.correlations import _log_kernel_cell_average
    cell0 = _log_kernel_cell_average(delta, SPECTRAL.V)
    total = 0.0
    for a1 in range(m):
        for a2 in range(m):
            if phi[a1, a2] == 0:
                continue
            for b1 in range(m):
                for b2 in range(m):
                    if phi[b1, b2] == 0:
                        continue
                    dz = SPECTRAL.V @ (delta * np.array([a1 - b1, a2 - b2], dtype=float))
                    kern = cell0 if (a1 == b1 and a2 == b2) else math.log(np.linalg.norm(dz))
                    total += phi[a1, a2] * phi[b1, b2] * kern
    direct = -PARAMS.v / (2 * math.pi * SPECTRAL.w) * delta ** 4 * total
    assert fast == pytest.approx(direct, rel=1e-10, abs=1e-12)


def _covariance_layer_values(C, D):
    """repr of every covariance-layer output on fixed queries at (C, D)."""
    params = ModelParams(C=C, D=D)
    spectral = spectral_data(drift_coeffs(params))
    out = []
    for y, t, s in [((0, 0), 5.0, 5.0), ((2, -1), 7.5, 3.25), ((-3, 4), 12.0, 0.5)]:
        q = CovarianceQuery(y=y, t=t, s=s)
        for m, m2 in [(32, 5), (9, 4)]:  # an odd m and m2 other than m/2
            out.append(covariance_finite_m(q, m, m2, params))
        out.append(covariance_quadrature(q, params))  # value and err_est
    fours = [FourPointQuery((0, 0), (1, 0), (0, 0), (1, 0)),
             FourPointQuery((0, 0), (2, 1), (1, -1), (3, 2))]
    for q4 in fours:
        for m, m2 in [(32, 5), (11, 3)]:
            out.append(stationary_cov_finite(q4, m, m2, params))
        out.append(stationary_cov_infinite(q4, params, tol=1e-5, m_max=1024))
    delta, m = 0.25, 32
    phi = two_bump_test_function(delta, m)
    out.append(gff_smoothed_variance(phi, delta, m, 7, params, spectral))
    psi = _random_sparse_mean_zero(m, np.random.default_rng(5))
    out.append(gff_lattice_bilinear(phi, psi, delta, m, 13, params))
    for call in (lambda: covariance_quadrature(CovarianceQuery((0, 0), 5.0, 5.0), params,
                                               tol=1e-18, m_start=8, m_max=16),
                 lambda: stationary_cov_infinite(fours[0], params, tol=1e-30,
                                                 m_start=16, m_max=64)):
        with pytest.raises(AccuracyError) as err:
            call()
        out.append(str(err.value))
    return out


def test_covariance_layer_bits_are_pinned():
    # SHA-256 of repr over the covariance layer's outputs, recorded with
    # numpy 2.4.6; any change to a value, an err_est or an AccuracyError
    # message changes it
    values = [_covariance_layer_values(C, D) for C, D in [(0.5, 1.5), (0.75, 1.5), (0.3, 2.0)]]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "f3e8deff92f041d5c95daaea50ee0f46499b4d9ac6326a148e848f97c27f50fd"
