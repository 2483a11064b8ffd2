"""The quadrature and mode-sum routes of the covariance layer against values
recorded from the full-grid complex-arithmetic routes they replaced, against
a plain full-grid reference of each Riemann sum, and against an
extended-precision full-grid covariance sum."""

import math

import numpy as np
import pytest

from akpz import correlations
from akpz.correlations import (AccuracyError, CovarianceQuery, FourPointQuery,
                               covariance_finite_m, covariance_quadrature,
                               gff_lattice_bilinear, stationary_cov_finite,
                               stationary_cov_infinite, two_bump_test_function)
from akpz.sde import ModelParams, drift_coeffs, spectral_data
from test_correlations import _random_sparse_mean_zero

PAIRS = [(0.5, 1.5), (0.75, 1.5), (0.3, 2.0)]
FINITE_SIZES = [(32, 5), (9, 4), (256, 128)]

# Recorded with numpy 2.4.6 from the full m x m grid and the complex mode
# sum.  (C, D) -> (y, t, s) -> (covariance_finite_m at each of FINITE_SIZES,
# covariance_quadrature value, err_est, last refinement m).
RECORDED_COVARIANCE = {
    (0.5, 1.5): {
        ((0, 0), 5.0, 5.0): (0.6430739493139815, 0.654400942990116, 0.6430739492683363,
                             0.6430739492683363, 0.0, 256),
        ((2, -1), 7.5, 3.25): (0.007214331594836992, 0.042625941934540806,
                               0.0072123404425255945, 0.0072123404425256,
                               5.204170427930421e-18, 256),
        ((-3, 4), 12.0, 0.5): (-0.0003559084151997342, 0.0153407493936517,
                               -2.6632444077631717e-14, -2.6632364772232345e-14,
                               5.675857723496208e-20, 256),
    },
    (0.75, 1.5): {
        ((0, 0), 5.0, 5.0): (0.5997290826240969, 0.6028496682376766, 0.5997290826240969,
                             0.5997290826240969, 0.0, 256),
        ((2, -1), 7.5, 3.25): (0.026526322871280178, 0.06331816654966763,
                               0.026526322871282874, 0.026526322871282874, 0.0, 256),
        ((-3, 4), 12.0, 0.5): (2.1887797348666345e-10, -0.0009139131225375313,
                               -6.745587634056509e-11, -6.745587639867953e-11,
                               3.791174250013957e-20, 256),
    },
    (0.3, 2.0): {
        ((0, 0), 5.0, 5.0): (0.8400170980743471, 0.843646996662215, 0.8400001263587782,
                             0.8400001263587783, 1.1102230246251565e-16, 256),
        ((2, -1), 7.5, 3.25): (0.013757478121517385, 0.07349224413250326,
                               2.1872685485127506e-05, 2.187268548515307e-05,
                               8.589252898337507e-17, 256),
        ((-3, 4), 12.0, 0.5): (0.008747808185913536, 0.01581349898155132,
                               8.284235100687723e-19, 1.0862354110743637e-18,
                               5.121954385173285e-19, 512),
    },
}

# The two four-point queries of the layer digest run at tol=1e-5, m_max=1024;
# the four within [-2, 2]^2 are those the covariance bench draws at seed 0,
# run at the defaults.  (C, D) -> query -> (value, last refinement m).
LAYER_FOURS = [((0, 0), (1, 0), (0, 0), (1, 0)), ((0, 0), (2, 1), (1, -1), (3, 2))]
RECORDED_STATIONARY = {
    (0.5, 1.5): {
        ((0, 0), (1, 0), (0, 0), (1, 0)): (1.0904659674063226, 512),
        ((0, 0), (2, 1), (1, -1), (3, 2)): (0.5385706354897957, 512),
        ((2, 2), (1, 2), (2, -2), (-2, 2)): (0.014137192812268306, 512),
        ((-2, 2), (2, 2), (-1, -2), (0, 2)): (0.3999915153408447, 512),
        ((2, 2), (-2, 2), (2, -1), (0, 0)): (0.5093538725581408, 512),
        ((1, 0), (-2, 2), (1, -2), (2, 1)): (0.026613708768825087, 512),
    },
    (0.75, 1.5): {
        ((0, 0), (1, 0), (0, 0), (1, 0)): (1.0904659674045638, 512),
        ((0, 0), (2, 1), (1, -1), (3, 2)): (0.685778460290429, 512),
        ((2, 2), (1, 2), (2, -2), (-2, 2)): (-0.02782971403521176, 512),
        ((-2, 2), (2, 2), (-1, -2), (0, 2)): (0.35501420108878046, 512),
        ((2, 2), (-2, 2), (2, -1), (0, 0)): (0.4405573778112348, 512),
        ((1, 0), (-2, 2), (1, -2), (2, 1)): (-0.14338215320512748, 512),
    },
    (0.3, 2.0): {
        ((0, 0), (1, 0), (0, 0), (1, 0)): (1.53230125696694, 512),
        ((0, 0), (2, 1), (1, -1), (3, 2)): (0.5254942131555388, 512),
        ((2, 2), (1, 2), (2, -2), (-2, 2)): (0.3380568982257865, 1024),
        ((-2, 2), (2, 2), (-1, -2), (0, 2)): (0.5152733525234736, 512),
        ((2, 2), (-2, 2), (2, -1), (0, 0)): (0.94969939880595, 1024),
        ((1, 0), (-2, 2), (1, -2), (2, 1)): (0.3623008314005131, 1024),
    },
}

# Recorded with numpy 2.4.6 from the m^2 complex-exponential mode sums.  (C, D)
# -> four-point query of RECORDED_STATIONARY -> stationary_cov_finite at each
# of STATIONARY_SIZES.
STATIONARY_SIZES = [(32, 5), (11, 3), (128, 64), (256, 128)]
RECORDED_STATIONARY_FINITE = {
    (0.5, 1.5): {
        ((0, 0), (1, 0), (0, 0), (1, 0)):
            (1.0926450476420169, 1.1396451686476468,
             1.090273182002943, 1.0904176937131351),
        ((0, 0), (2, 1), (1, -1), (3, 2)):
            (0.5368569300970826, 0.7066840075059462,
             0.5380001641112236, 0.5384266405849908),
        ((2, 2), (1, 2), (2, -2), (-2, 2)):
            (0.026988468669812422, 0.00520385262117723,
             0.013290050586101939, 0.013923738201403225),
        ((-2, 2), (2, 2), (-1, -2), (0, 2)):
            (0.3975583742478294, 0.6378338346085441,
             0.3995598471526572, 0.39988208597601166),
        ((2, 2), (-2, 2), (2, -1), (0, 0)):
            (0.5298185970977592, 0.747730496765376,
             0.5077322205567855, 0.5089471111238323),
        ((1, 0), (-2, 2), (1, -2), (2, 1)):
            (0.02029025516589294, -0.06408696115487307,
             0.027094042827712956, 0.026735754364746903),
    },
    (0.75, 1.5): {
        ((0, 0), (1, 0), (0, 0), (1, 0)):
            (1.0872360558421372, 1.0777025087745187,
             1.0907502005699194, 1.0905371903678647),
        ((0, 0), (2, 1), (1, -1), (3, 2)):
            (0.652209520851158, 0.5496852318408612,
             0.6880714049386791, 0.6863559776702335),
        ((2, 2), (1, 2), (2, -2), (-2, 2)):
            (-0.031753289222067986, -0.007412512081450672,
             -0.02727459880847455, -0.02768811245147986),
        ((-2, 2), (2, 2), (-1, -2), (0, 2)):
            (0.30978160496480467, 0.27774881522847994,
             0.3583960014198924, 0.35586704727680524),
        ((2, 2), (-2, 2), (2, -1), (0, 0)):
            (0.42327437390136835, 0.4161032811357939,
             0.442257945162568, 0.4409844112474815),
        ((1, 0), (-2, 2), (1, -2), (2, 1)):
            (-0.12880262682618937, -0.09150895878691685,
             -0.14515103451824912, -0.14382707923725813),
    },
    (0.3, 2.0): {
        ((0, 0), (1, 0), (0, 0), (1, 0)):
            (1.5408778182171294, 1.4250406600921932,
             1.5318691291311703, 1.5321931346374185),
        ((0, 0), (2, 1), (1, -1), (3, 2)):
            (0.611265521445228, 0.3847767818970984,
             0.5231704647535316, 0.5249116416751969),
        ((2, 2), (1, 2), (2, -2), (-2, 2)):
            (0.3664745896279405, 0.26769832316706926,
             0.336607067600722, 0.3376926014466602),
        ((-2, 2), (2, 2), (-1, -2), (0, 2)):
            (0.6383889995490614, 0.41018625644877965,
             0.5124725487788995, 0.514570800322824),
        ((2, 2), (-2, 2), (2, -1), (0, 0)):
            (1.035022419304018, 0.7351786143154911,
             0.9465157215665868, 0.9489022851510561),
        ((1, 0), (-2, 2), (1, -2), (2, 1)):
            (0.28000712554634877, 0.15028364180405848,
             0.3639403710493352, 0.3627127180798083),
    },
}

# (C, D) -> gff_lattice_bilinear on the inputs of the layer digest in
# tests/test_correlations.py: (phi, phi) at m2=7 and (phi, psi) at m2=13.
RECORDED_GFF = {
    (0.5, 1.5): (0.5603819317600763, -0.05192502639088759),
    (0.75, 1.5): (0.35961419777883746, -0.047978365277838726),
    (0.3, 2.0): (0.6535810194839562, -0.0487422390954846),
}


def _assert_close(new, old):
    tol = 1e-12 * abs(old)
    if abs(old) < 1e-3:
        tol = max(tol, 1e-15)
    assert abs(new - old) <= tol, (new, old)


def _last_m(monkeypatch, name):
    """Record the m of every call to correlations.<name>."""
    seen = []
    route = getattr(correlations, name)

    def spy(*args):
        seen.append(args[-1])
        return route(*args)

    monkeypatch.setattr(correlations, name, spy)
    return seen


@pytest.mark.parametrize("C, D", PAIRS)
def test_covariance_routes_match_recorded_values(C, D, monkeypatch):
    params = ModelParams(C=C, D=D)
    seen = _last_m(monkeypatch, "_riemann_covariance")
    for (y, t, s), (*finite, value, err_est, last_m) in RECORDED_COVARIANCE[C, D].items():
        query = CovarianceQuery(y=y, t=t, s=s)
        for (m, m2), old in zip(FINITE_SIZES, finite):
            _assert_close(covariance_finite_m(query, m, m2, params).value, old)
        seen.clear()
        res = covariance_quadrature(query, params)
        _assert_close(res.value, value)
        assert abs(res.err_est - err_est) <= 1e-12
        assert seen[-1] == last_m


@pytest.mark.parametrize("C, D", PAIRS)
def test_stationary_route_matches_recorded_values(C, D, monkeypatch):
    params = ModelParams(C=C, D=D)
    seen = _last_m(monkeypatch, "_riemann_stationary")
    for points, (value, last_m) in RECORDED_STATIONARY[C, D].items():
        kw = dict(tol=1e-5, m_max=1024) if points in LAYER_FOURS else {}
        seen.clear()
        _assert_close(stationary_cov_infinite(FourPointQuery(*points), params, **kw), value)
        assert seen[-1] == last_m


@pytest.mark.parametrize("C, D", PAIRS)
def test_stationary_finite_route_matches_recorded_values(C, D):
    params = ModelParams(C=C, D=D)
    for points, finite in RECORDED_STATIONARY_FINITE[C, D].items():
        for (m, m2), old in zip(STATIONARY_SIZES, finite):
            _assert_close(stationary_cov_finite(FourPointQuery(*points), m, m2, params), old)


@pytest.mark.parametrize("C, D", PAIRS)
def test_gff_lattice_route_matches_recorded_values(C, D):
    params = ModelParams(C=C, D=D)
    delta, m = 0.25, 32
    phi = two_bump_test_function(delta, m)
    psi = _random_sparse_mean_zero(m, np.random.default_rng(5))
    same, other = RECORDED_GFF[C, D]
    _assert_close(gff_lattice_bilinear(phi, phi, delta, 7, params), same)
    _assert_close(gff_lattice_bilinear(phi, psi, delta, 13, params), other)


def test_refinement_failures_keep_their_messages():
    query = CovarianceQuery((0, 0), 5.0, 5.0)
    with pytest.raises(AccuracyError, match=r"^quadrature did not reach tol=1e-18 by m=16$"):
        covariance_quadrature(query, ModelParams(C=0.5, D=1.5), tol=1e-18, m_start=8, m_max=16)
    with pytest.raises(AccuracyError, match=r"^quadrature did not reach tol=1e-30 by m=64$"):
        stationary_cov_infinite(FourPointQuery(*LAYER_FOURS[0]), ModelParams(C=0.5, D=1.5),
                                tol=1e-30, m_start=16, m_max=64)


def _full_grid(coeffs, m):
    k = 2 * np.pi * np.arange(-(m // 2), m - m // 2) / m
    K1, K2 = k[:, None], k[None, :]
    R = 2 * (coeffs.diag + coeffs.d2 * np.cos(K1 - K2) - coeffs.d1 * np.cos(K1)
             + coeffs.d3 * np.cos(K2))
    R[m // 2, m // 2] = 0.0  # the origin, which the stationary sum leaves out
    return K1, K2, R


def _reference_covariance(query, params, coeffs, m):
    """The Riemann sum of the covariance over every point of the m x m grid."""
    K1, K2, R = _full_grid(coeffs, m)
    tau, s = query.t - query.s, query.s
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(R == 0, s, np.expm1(R * s) / R)
    phase = tau * (coeffs.d2 * np.sin(K1 - K2) + coeffs.d1 * np.sin(K1) - coeffs.d3 * np.sin(K2))
    terms = g * np.exp(R * tau / 2) * np.cos(phase - K1 * query.y[0] - K2 * query.y[1])
    return params.v / m ** 2 * float(terms.sum())


def _reference_stationary(qry, coeffs, v, m):
    """The Riemann sum of the stationary covariance over every nonzero point."""
    K1, K2, R = _full_grid(coeffs, m)
    num = sum(sign * np.cos(K1 * (a[0] - b[0]) + K2 * (a[1] - b[1]))
              for sign, a, b in ((1, qry.y1, qry.y3), (-1, qry.y1, qry.y4),
                                 (-1, qry.y2, qry.y3), (1, qry.y2, qry.y4)))
    keep = R != 0
    return -v / m ** 2 * float(np.sum(num[keep] / R[keep]))


REFERENCE_QUERIES = [CovarianceQuery((0, 0), 5.0, 5.0), CovarianceQuery((2, -1), 7.5, 3.25),
                     CovarianceQuery((-3, 4), 12.0, 0.5), CovarianceQuery((5, 1), 30.0, 12.5)]
REFERENCE_FOURS = [FourPointQuery((0, 0), (1, 0), (0, 0), (1, 0)),
                   FourPointQuery((0, 0), (2, 1), (1, -1), (3, 2)),
                   FourPointQuery((2, 2), (-2, 2), (2, -1), (0, 0))]


@pytest.mark.parametrize("m", [8, 9, 16, 17, 128])
@pytest.mark.parametrize("C, D", PAIRS)
def test_half_grid_sums_match_the_full_grid(C, D, m):
    params = ModelParams(C=C, D=D)
    coeffs = drift_coeffs(params)
    assert correlations._riemann_grid(coeffs, m).weights.sum() == m  # every row counted once
    for q in REFERENCE_QUERIES:
        ref = _reference_covariance(q, params, coeffs, m)
        assert abs(correlations._riemann_covariance(q, params, coeffs, m) - ref) <= 1e-13
    for q4 in REFERENCE_FOURS:
        ref = _reference_stationary(q4, coeffs, params.v, m)
        assert abs(correlations._riemann_stationary(q4, coeffs, params.v, m) - ref) <= 1e-13


@pytest.mark.parametrize("C, D", PAIRS)
def test_refinement_from_odd_m_matches_the_full_grid(C, D, monkeypatch):
    # m_start=9 refines through 9, 18, 36, ...: odd m, and even m whose half
    # grid has m/2+1 rows
    params = ModelParams(C=C, D=D)
    half = [covariance_quadrature(q, params, m_start=9) for q in REFERENCE_QUERIES]
    half4 = [stationary_cov_infinite(q4, params, tol=1e-5, m_start=9) for q4 in REFERENCE_FOURS]
    monkeypatch.setattr(correlations, "_riemann_covariance", _reference_covariance)
    monkeypatch.setattr(correlations, "_riemann_stationary", _reference_stationary)
    for q, res in zip(REFERENCE_QUERIES, half):
        ref = covariance_quadrature(q, params, m_start=9)
        assert abs(res.value - ref.value) <= 1e-13
        assert abs(res.err_est - ref.err_est) <= 1e-13
    for q4, value in zip(REFERENCE_FOURS, half4):
        assert abs(value - stationary_cov_infinite(q4, params, tol=1e-5, m_start=9)) <= 1e-13


def test_finite_m_rejects_an_imaginary_residue(monkeypatch):
    # with an R that is not even in k, conjugate modes no longer pair off and
    # the sine sum survives
    m, m2 = 8, 4
    modes, grid = correlations._mode_table(m, m2, drift_coeffs(ModelParams(C=0.5, D=1.5)))
    odd = grid._replace(rvals=grid.rvals * (1 + 0.3 * np.sin(grid.K1)))
    monkeypatch.setattr(correlations, "_mode_table", lambda *key: (modes, odd))
    query = CovarianceQuery(y=(2, 1), t=4.0, s=3.0)
    with pytest.raises(AccuracyError, match=r"^mode sum \(.*j\) is not a finite real number$"):
        covariance_finite_m(query, m, m2, ModelParams(C=0.5, D=1.5))


def _cor2_queries():
    """The queries of recipe cor2-characteristic at its default keys: t=400,
    s=300, the characteristic displacement and the 8 seed-11 ones off it."""
    t, s = 400.0, 300.0
    U = spectral_data(drift_coeffs(ModelParams(C=0.5, D=1.5))).U
    rng = np.random.default_rng(11)
    ys = [np.floor(U * (t - s))]
    for _ in range(8):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.75, 1.5)
        ys.append(np.floor((U + rad * np.array([np.cos(ang), np.sin(ang)])) * (t - s)))
    return [CovarianceQuery(y=tuple(int(a) for a in y), t=t, s=s) for y in ys]


def _extended_covariance(query, params, coeffs, m, m2=0):
    """The covariance summed over every mode k = 2 pi (r1/m, (m2 r1 + m r2)/m^2),
    r1, r2 in [-m/2, m/2), in np.longdouble from the float64 coefficients and
    query: the Riemann sum of the m x m grid at m2 = 0, the finite-m mode sum
    of the twisted set otherwise."""
    ld = np.longdouble
    r = np.arange(-(m // 2), m - m // 2).astype(ld)
    two_pi = 8 * np.arctan(ld(1))
    K1, K2 = two_pi * r[:, None] / m, two_pi * (m2 * r[:, None] + m * r[None, :]) / m ** 2
    d1, d2, d3, diag = (ld(c) for c in (coeffs.d1, coeffs.d2, coeffs.d3, coeffs.diag))
    R = 2 * (diag + d2 * np.cos(K1 - K2) - d1 * np.cos(K1) + d3 * np.cos(K2))
    R[m // 2, m // 2] = 1  # the origin, where the growth factor is s
    tau, s = ld(query.t) - ld(query.s), ld(query.s)
    g = np.expm1(R * s) / R
    g[m // 2, m // 2] = s
    R[m // 2, m // 2] = 0
    phase = tau * (d2 * np.sin(K1 - K2) + d1 * np.sin(K1) - d3 * np.sin(K2))
    terms = g * np.exp(R * tau / 2) * np.cos(phase - K1 * query.y[0] - K2 * query.y[1])
    return ld(params.v) / m ** 2 * terms.sum()


@pytest.mark.parametrize("m", [128, 256])
@pytest.mark.parametrize("C, D", PAIRS)
def test_riemann_covariance_matches_an_extended_precision_sum(C, D, m):
    # largest error seen over these queries and the 44 of a covariance bench
    # pass at m = 128-512: 2.6e-14, for the circulant phase tables and for
    # the m^2 sines and cosines they replaced alike
    params = ModelParams(C=C, D=D)
    coeffs = drift_coeffs(params)
    queries = REFERENCE_QUERIES + (_cor2_queries() if (C, D) == (0.5, 1.5) else [])
    for q in queries:
        ref = _extended_covariance(q, params, coeffs, m)
        assert abs(correlations._riemann_covariance(q, params, coeffs, m) - ref) <= 1e-13, q


FINITE_QUERIES = REFERENCE_QUERIES + [CovarianceQuery((3, 1), 1000.0, 10.0),
                                      CovarianceQuery((0, 0), 2000.0, 0.5)]


@pytest.mark.parametrize("m, m2", [(32, 5), (9, 4), (11, 3), (64, 32), (128, 48), (256, 128)])
@pytest.mark.parametrize("C, D", PAIRS)
def test_finite_m_matches_an_extended_precision_sum(C, D, m, m2):
    # the phase tables read at k2 - k1 and k2; at tau = 1000 and 2000 the
    # factor e^{R tau/2} is tiny where the d1 row factor alone would overflow
    params = ModelParams(C=C, D=D)
    coeffs = drift_coeffs(params)
    for q in FINITE_QUERIES:
        ref = _extended_covariance(q, params, coeffs, m, m2)
        assert abs(covariance_finite_m(q, m, m2, params).value - ref) <= 1e-13, q


def _argument_sizes(monkeypatch, *names):
    """Record the size of the first argument of every later call to np.<name>."""
    sizes = []

    def spy(ufunc):
        def call(x, *args, **kw):
            sizes.append(np.size(x))
            return ufunc(x, *args, **kw)
        return call

    for name in names:
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    return sizes


def test_riemann_covariance_calls_sin_and_cos_on_length_m_tables_only(monkeypatch):
    # the phase comes from three length-m tables; sines and cosines of the
    # whole grid cost 9-45 ns per entry against about 1.3 ns for exp
    m = 256
    params = ModelParams(C=0.5, D=1.5)
    coeffs = drift_coeffs(params)
    correlations._riemann_grid(coeffs, m)  # R on the grid is built once, outside the spy
    queries = REFERENCE_QUERIES + _cor2_queries()[:2]
    sizes = _argument_sizes(monkeypatch, "sin", "cos")
    for q in queries:
        correlations._riemann_covariance(q, params, coeffs, m)
    assert sizes and max(sizes) <= m, sizes


@pytest.mark.parametrize("m, m2", [(256, 128), (128, 48), (32, 5), (9, 4)])
def test_finite_m_calls_sin_and_cos_on_its_phase_tables_only(m, m2, monkeypatch):
    # k2 and k2 - k1 take m^2/gcd(m, m2) values, 512 at (256, 128); the route
    # it replaced took the sine and cosine of all m^2 phases
    params = ModelParams(C=0.5, D=1.5)
    covariance_finite_m(FINITE_QUERIES[0], m, m2, params)  # the mode table is built outside the spy
    sizes = _argument_sizes(monkeypatch, "sin", "cos")
    for q in FINITE_QUERIES:
        covariance_finite_m(q, m, m2, params)
    assert sizes and max(sizes) <= m * m // math.gcd(m, m2), sizes
    assert (m, m2) != (256, 128) or max(sizes) <= 512


def test_stationary_finite_calls_exp_cos_and_sin_on_length_m_tables_only(monkeypatch):
    # the twisted sum separates by rows; the complex route took four m^2
    # exponentials per query
    m, m2 = 256, 128
    params = ModelParams(C=0.5, D=1.5)
    queries = [FourPointQuery(*points) for points in RECORDED_STATIONARY[0.5, 1.5]]
    stationary_cov_finite(queries[0], m, m2, params)  # the mode table is built outside the spy
    sizes = _argument_sizes(monkeypatch, "exp", "cos", "sin")
    for q4 in queries:
        stationary_cov_finite(q4, m, m2, params)
    assert sizes and max(sizes) <= 4 * m, sizes


@pytest.mark.parametrize("m, m2", [(8, 3), (9, 4), (32, 5), (11, 3)])
def test_twisted_rows_are_the_fourier_modes(m, m2):
    # the mode table's grid holds the rows of its FourierModeSet, and k is
    # (K1, twist + K2) with K1 = 2 pi r1/m, twist = 2 pi m2 r1/m^2, K2 = 2 pi r2/m
    modes, grid = correlations._mode_table(m, m2, drift_coeffs(ModelParams(C=0.5, D=1.5)))
    assert grid.K1 is modes.K1 and grid.twist is modes.twist and grid.K2 is modes.K2
    assert (grid.K1.shape, grid.twist.shape, grid.K2.shape) == ((m, 1), (m, 1), (1, m))
    assert grid.origin == (m // 2, m // 2) and grid.weights == 1.0
    r1, r2 = np.meshgrid(np.arange(m) - m // 2, np.arange(m) - m // 2, indexing="ij")
    k = np.stack(np.broadcast_arrays(modes.K1, modes.twist + modes.K2), axis=-1)
    assert np.abs(k[..., 0] - 2 * np.pi * r1 / m).max() <= 1e-14
    assert np.abs(k[..., 1] - 2 * np.pi * (m2 * r1 / m + r2) / m).max() <= 1e-14


def test_stationary_finite_rejects_an_imaginary_residue(monkeypatch):
    # with a 1/R that is not even in k, the terms at k and -k no longer pair
    # off and the sine sum survives
    m, m2 = 8, 3
    modes, grid = correlations._mode_table(m, m2, drift_coeffs(ModelParams(C=0.5, D=1.5)))
    odd = grid._replace(rinv=grid.rinv * (1 + 0.3 * np.sin(grid.K1)))
    monkeypatch.setattr(correlations, "_mode_table", lambda *key: (modes, odd))
    with pytest.raises(AccuracyError, match=r"^mode sum \(.*j\) is not a finite real number$"):
        stationary_cov_finite(FourPointQuery(*LAYER_FOURS[1]), m, m2, ModelParams(C=0.5, D=1.5))


@pytest.mark.parametrize("m", [8, 9])
def test_growth_factor_is_s_at_the_origin_where_r_rounds_off_zero(m):
    # at (C, D) = (1.0, 1.3) R(0) evaluates to -5.55e-17, not 0, on both
    # tables, so a test for R s == 0 missed the origin and gave 299.9999999999975
    coeffs = drift_coeffs(ModelParams(C=1.0, D=1.3))
    for grid in (correlations._mode_table(m, 3, coeffs)[1], correlations._riemann_grid(coeffs, m)):
        r, r_inv, origin = grid.rvals, grid.rinv, grid.origin
        k1, k2 = np.broadcast_arrays(grid.K1, grid.twist + grid.K2)
        assert k1[origin] == k2[origin] == 0.0
        assert r[origin] != 0.0
        assert r_inv[origin] == 0.0
        for s in (0.0, 12.5, 300.0):
            assert correlations._growth_factor(r, s, origin)[origin] == s
