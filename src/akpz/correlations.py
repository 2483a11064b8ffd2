"""Space-time covariances of the limiting Gaussian system.

Four routes to the two-point function W_y(t, s) = Cov(xi_{p,t}, xi_{p+y,s})
started from deterministic initial data:

  * finite-m mode sum over the quotient momenta,
  * quadrature of the infinite-volume momentum integral,
  * heat-kernel closed form via exponential-integral differences,
  * asymptotic regime formulas (equal time, characteristic, off-characteristic).

plus the stationary gradient measure: finite-m and infinite-volume four-point
covariances, their log-ratio closed form, and smoothed-field variances whose
scaling limit is a log-correlated Gaussian field.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ParameterError
from .lattice import fourier_modes
from .sde import drift_coeffs, spectral_data, symbol_A, symbol_R
from .specfun import EULER_GAMMA, exp_integral_E1, heat_time_integral


@dataclass(frozen=True)
class CovarianceQuery:
    """Displacement y and finite time pair t >= s >= 0."""

    y: tuple
    t: float
    s: float

    def __post_init__(self):
        if not math.inf > self.t >= self.s >= 0:
            raise ParameterError(f"need inf > t >= s >= 0, got t={self.t}, s={self.s}")


@dataclass(frozen=True)
class CovarianceResult:
    y: tuple
    t: float
    s: float
    method: str
    value: float
    err_est: float


@dataclass(frozen=True)
class FourPointQuery:
    """Covariance of the gradient pair (xi_y1 - xi_y2) and (xi_y3 - xi_y4)."""

    y1: tuple
    y2: tuple
    y3: tuple
    y4: tuple


def _growth_factor(rvals, s):
    """(exp(R s) - 1)/R extended continuously by s at R = 0."""
    x = np.asarray(rvals, dtype=float) * s
    safe = np.where(rvals != 0, rvals, 1.0)
    return np.where(x != 0, np.expm1(x) / safe, float(s))


def _real_mode_sum(terms, scale, what):
    """scale * sum(terms) as a float; it must be finite, and an imaginary
    residue below 1e-10 relative is discarded."""
    total = scale * np.sum(terms)
    if not (np.isfinite(total) and abs(total.imag) <= 1e-10 * max(1.0, abs(total.real))):
        raise AccuracyError(f"{what} {total} is not a finite real number")
    return float(total.real)


def covariance_finite_m(query, m, m2, params) -> CovarianceResult:
    """Exact m^2-mode sum for the covariance on the quotient label set,
    independent of the base point and of the initial data."""
    coeffs = drift_coeffs(params)
    modes = fourier_modes(m, m2)
    avals = symbol_A(modes.k, coeffs)
    rvals = symbol_R(modes.k, coeffs)
    g = _growth_factor(rvals, query.s)
    y = np.asarray(query.y, dtype=float)
    phase = np.exp(-1j * (modes.k @ y))
    value = _real_mode_sum(phase * np.exp(avals * (query.t - query.s)) * g,
                           params.v / m ** 2, "mode sum")
    return CovarianceResult(y=tuple(query.y), t=query.t, s=query.s,
                            method="finite-m", value=value, err_est=float("nan"))


def _riemann_grid(coeffs, m):
    """Momenta K1 (m, 1), K2 (1, m) of the m x m periodic lattice and R on it."""
    # R is inlined here, not taken from symbol_R: on the separable (m,1)/(1,m)
    # axes cos/sin cost O(m) calls, on symbol_R's (m,m,2) grid O(m^2), which
    # measured about twice the time per call (12.0 vs 5.9 ms at m=256, 195 vs
    # 106-122 ms at m=1024).
    k = 2 * np.pi * np.arange(-(m // 2), m - m // 2) / m
    K1 = k[:, None]
    K2 = k[None, :]
    rvals = 2 * (coeffs.diag + coeffs.d2 * np.cos(K1 - K2) - coeffs.d1 * np.cos(K1)
                 + coeffs.d3 * np.cos(K2))
    return K1, K2, rvals


def _refine(value_at, tol, m_start, m_max, levels):
    """Double m from m_start until two consecutive values, after `levels`
    Richardson steps in 1/m^2, agree within tol: (value, |difference|)."""
    old = []
    m = m_start
    while m <= m_max:
        new = [value_at(m)]
        for j in range(min(levels, len(old))):
            new.append(new[j] + (new[j] - old[j]) / (4 ** (j + 1) - 1))
        if len(old) > levels and abs(new[levels] - old[levels]) <= tol:
            return new[levels], abs(new[levels] - old[levels])
        old = new
        m *= 2
    raise AccuracyError(f"quadrature did not reach tol={tol} by m={m_max}")


def _riemann_covariance(query, params, coeffs, m):
    """Midpoint/Riemann value of the momentum integral on an m x m periodic
    lattice, evaluated in real arithmetic."""
    d1, d2, d3 = coeffs.d1, coeffs.d2, coeffs.d3
    tau = query.t - query.s
    y1, y2 = query.y
    K1, K2, rvals = _riemann_grid(coeffs, m)
    acc = _growth_factor(rvals, query.s)
    acc *= np.exp(0.5 * rvals * tau)
    phase = d2 * np.sin(K1 - K2) + d1 * np.sin(K1) - d3 * np.sin(K2)
    phase *= tau
    phase -= K1 * y1 + K2 * y2
    acc *= np.cos(phase)
    return params.v / m ** 2 * float(acc.sum())


def covariance_quadrature(query, params, tol=1e-6, m_start=128, m_max=4096) -> CovarianceResult:
    """Infinite-volume covariance by refined periodic quadrature.

    The integrand is smooth and periodic, so lattice refinement converges
    spectrally; refinement stops once two consecutive levels agree within
    tol (absolute), reported as the error estimate.
    """
    coeffs = drift_coeffs(params)
    value, err = _refine(lambda m: _riemann_covariance(query, params, coeffs, m),
                         tol, m_start, m_max, levels=0)
    return CovarianceResult(y=tuple(query.y), t=query.t, s=query.s,
                            method="quadrature", value=value, err_est=err)


def covariance_heat_kernel(query, spectral, params) -> CovarianceResult:
    """Closed-form heat-kernel value of the covariance (the exact value
    differs from this by a bounded term that vanishes as t-s or |y| grow)."""
    tau = query.t - query.s
    H = spectral.V @ (np.asarray(query.y, dtype=float) - tau * spectral.U)  # Gaussian argument
    integral = heat_time_integral(float(H @ H), 1 + tau / 2, 1 + (query.t + query.s) / 2)
    value = params.v / (4 * math.pi * spectral.w) * integral
    return CovarianceResult(y=tuple(query.y), t=query.t, s=query.s,
                            method="heat-kernel", value=value, err_est=float("nan"))


@dataclass(frozen=True)
class RegimeValue:
    label: str
    value: float
    applies: bool
    condition: str


def corollary_regimes(query, spectral, params):
    """Asymptotic regime formulas with applicability tags.

    Returns every regime value that is well defined at the query, flagging
    which regime condition the query actually satisfies.
    """
    v4 = params.v / (4 * math.pi * spectral.w)
    t, s = query.t, query.s
    tau = t - s
    y = np.asarray(query.y, dtype=float)
    out = []
    is_equal_time = tau == 0
    is_origin = bool(np.all(y == 0))
    if t > 0:
        out.append(RegimeValue("equal-time-origin", v4 * math.log(t),
                               is_equal_time and is_origin, "y = 0, t = s large"))
    if not is_origin:
        Y = spectral.V @ y
        out.append(RegimeValue(
            "equal-time-spatial", v4 * math.log(4 * (t + 1) / float(Y @ Y)),
            is_equal_time and float(Y @ Y) <= 4 * (t + 1),
            "y != 0, |y| = O(sqrt t), t = s"))
    if tau > 0:
        on_char = bool(np.all(np.floor(spectral.U * tau) == y))
        out.append(RegimeValue("characteristic", v4 * math.log((t + s) / tau),
                               on_char, "y = floor(U (t-s)), t-s large"))
        u = y / tau
        arg = tau ** 2 * float(np.sum((spectral.V @ (spectral.U - u)) ** 2)) / (2 * (t + s))
        val = v4 * exp_integral_E1(arg) if arg > 0 else float("inf")
        out.append(RegimeValue("off-characteristic", val, not on_char,
                               "y = floor(u (t-s)) with u != U, t-s large"))
        if t > 1 and tau > 1:
            out.append(RegimeValue("diffusive-window",
                                   v4 * (math.log(t) - 2 * math.log(tau)),
                                   not on_char and tau <= math.sqrt(t),
                                   "u != U, t-s = O(sqrt t)"))
    return out


def covariance_asymptotic(query, spectral, params) -> CovarianceResult:
    """Value of the first regime of corollary_regimes that applies at the query."""
    regimes = corollary_regimes(query, spectral, params)
    regime = next((r for r in regimes if r.applies), None)
    if regime is None:
        raise ParameterError(f"no asymptotic regime applies at t={query.t}, s={query.s}, "
                             f"y={query.y} (evaluated: "
                             f"{', '.join(r.label for r in regimes) or 'none'})")
    return CovarianceResult(y=tuple(query.y), t=query.t, s=query.s,
                            method=f"asymptotic:{regime.label}", value=regime.value,
                            err_est=float("nan"))


def she_covariance(x, y, t, s) -> float:
    """Space-time covariance of the two-dimensional additive stochastic heat
    equation between (x, t) and (y, s), 0 < s < t."""
    if not 0 < s < t:
        raise ParameterError(f"need 0 < s < t, got s={s}, t={t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    return heat_time_integral(float(d @ d), (t - s) / 2, (t + s) / 2) / 8.0


def she_scaled_lattice_covariance(x, y, t, s, delta, spectral, params) -> float:
    """Heat-kernel covariance of the rescaled height field at space-time
    points (x, t/delta) and (y, s/delta) in characteristic coordinates,
    normalized to the stochastic-heat-equation scale."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    vinv_x = np.linalg.solve(spectral.V, x)
    vinv_y = np.linalg.solve(spectral.V, y)
    p_t = np.floor(spectral.U * t / delta + vinv_x / math.sqrt(delta))
    p_s = np.floor(spectral.U * s / delta + vinv_y / math.sqrt(delta))
    disp = tuple(int(a) for a in (p_t - p_s))
    q = CovarianceQuery(y=disp, t=t / delta, s=s / delta)
    amp_sq = 4 * math.pi * spectral.w / (8 * params.v)
    return amp_sq * covariance_heat_kernel(q, spectral, params).value


def _stationary_mode_sum(s1, s2, modes, params, what):
    """-v/m^2 sum over k != 0 of s1 conj(s2)/R(k), weights s1, s2 per mode."""
    rvals = symbol_R(modes.k, drift_coeffs(params))
    keep = np.arange(len(rvals)) != modes.zero_index
    return _real_mode_sum(s1[keep] * np.conj(s2[keep]) / rvals[keep],
                          -params.v / modes.m ** 2, what)


def stationary_cov_finite(qry, m, m2, params) -> float:
    """Stationary gradient covariance as an exact sum over nonzero modes."""
    modes = fourier_modes(m, m2)
    e = lambda y: np.exp(1j * (modes.k @ np.asarray(y, dtype=float)))
    return _stationary_mode_sum(e(qry.y1) - e(qry.y2), e(qry.y3) - e(qry.y4), modes, params,
                                "mode sum")


def _riemann_stationary(qry, coeffs, v, m):
    K1, K2, rvals = _riemann_grid(coeffs, m)
    rvals[m // 2, m // 2] = 1.0  # origin removed from the sum below
    y1, y2, y3, y4 = (np.asarray(a, dtype=float) for a in (qry.y1, qry.y2, qry.y3, qry.y4))
    num = (np.cos(K1 * (y1 - y3)[0] + K2 * (y1 - y3)[1])
           - np.cos(K1 * (y1 - y4)[0] + K2 * (y1 - y4)[1])
           - np.cos(K1 * (y2 - y3)[0] + K2 * (y2 - y3)[1])
           + np.cos(K1 * (y2 - y4)[0] + K2 * (y2 - y4)[1]))
    num[m // 2, m // 2] = 0.0
    return -v / m ** 2 * float(np.sum(num / rvals))


def stationary_cov_infinite(qry, params, tol=1e-6, m_start=64, m_max=4096) -> float:
    """Infinite-volume stationary gradient covariance by refined quadrature.

    The integrand has a bounded direction-dependent limit at the origin, so
    plain lattice refinement converges at order 1/m^2 with a clean expansion
    in even powers; two Richardson levels accelerate it.
    """
    coeffs = drift_coeffs(params)
    return _refine(lambda m: _riemann_stationary(qry, coeffs, params.v, m),
                   tol, m_start, m_max, levels=2)[0]


def _log_gauss_pair(Y):
    """E1(|Y|^2/4) + 2 log |Y|, continuously extended to Y = 0."""
    c = float(Y @ Y)
    if c == 0.0:
        return -EULER_GAMMA + 2 * math.log(2.0)
    if c / 4 > 745.0:
        return math.log(c)
    return exp_integral_E1(c / 4) + math.log(c)


def four_point_closed_form(qry, spectral, params, exact=False) -> float:
    """Closed form of the stationary four-point covariance.

    The default is the leading log-ratio; exact=True returns the full
    exponential-integral expression (exact for the Gaussian-regularized
    integral, differing from the true value by the quadrature remainder).
    """
    V = spectral.V
    y1, y2, y3, y4 = (np.asarray(a, dtype=float) for a in (qry.y1, qry.y2, qry.y3, qry.y4))
    Y14 = V @ (y1 - y4)
    Y32 = V @ (y3 - y2)
    Y13 = V @ (y1 - y3)
    Y24 = V @ (y2 - y4)
    if not exact:
        num = 1 + math.sqrt(float(Y14 @ Y14) * float(Y32 @ Y32))
        den = 1 + math.sqrt(float(Y13 @ Y13) * float(Y24 @ Y24))
        return params.v / (2 * math.pi * spectral.w) * math.log(num / den)
    bracket = (_log_gauss_pair(Y14) + _log_gauss_pair(Y32)
               - _log_gauss_pair(Y13) - _log_gauss_pair(Y24))
    return params.v / (4 * math.pi * spectral.w) * bracket


@dataclass(frozen=True)
class GffVariance:
    lattice: float
    continuum: float


# The continuum variance scales as delta^4, which must stay a finite float.
_MAX_DELTA = sys.float_info.max ** 0.25


def _check_delta(delta):
    if not 0 < delta < _MAX_DELTA:
        raise ParameterError(f"grid spacing delta must lie in (0, {_MAX_DELTA:.6g}), "
                             f"got {delta}")


def _check_mean_zero(phi, delta):
    total = float(phi.sum()) * delta ** 2
    scale = float(np.abs(phi).sum()) * delta ** 2
    if scale > 0 and abs(total) > 1e-8 * scale:
        raise ParameterError(f"test function must be mean zero, got integral {total}")


def _smoothed_transform(phi, delta, modes):
    """S(k) = delta^2 sum_p phi(delta p)(e^{i k p} - 1) over centered labels
    p = j - c, c = (m//2, m//2): m e^{-i k c} conj(hat(phi)_k) for real phi."""
    shift = np.exp(-1j * (modes.m // 2) * modes.k.sum(axis=1))
    return delta ** 2 * (modes.m * shift * np.conj(modes.field_transform(phi)) - float(phi.sum()))


def gff_lattice_bilinear(phi1, phi2, delta, m, m2, params) -> float:
    """Stationary covariance of two smoothed gradient fields on the m x m
    label set; positive semidefinite as a quadratic form."""
    modes = fourier_modes(m, m2)
    s1, s2 = (_smoothed_transform(np.asarray(phi, dtype=float), delta, modes)
              for phi in (phi1, phi2))
    return _stationary_mode_sum(s1, s2, modes, params, "smoothed covariance")


def _log_kernel_cell_average(delta, V, order=24):
    """Average of log |V z| over the square cell [-delta/2, delta/2]^2."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    z = 0.5 * delta * nodes
    Z1, Z2 = np.meshgrid(z, z, indexing="ij")
    pts = np.stack([Z1, Z2], axis=-1) @ V.T
    vals = 0.5 * np.log(np.sum(pts ** 2, axis=-1))
    wgt = np.outer(weights, weights) / 4.0
    return float(np.sum(vals * wgt))


def gff_continuum_variance(phi, delta, spectral, params) -> float:
    """Quadrature of -(v/2 pi w) * double integral of
    phi(x) phi(y) log |V(x-y)| dx dy from grid samples of phi.

    Midpoint rule off the diagonal; the diagonal cell uses the exact cell
    average of the log kernel.
    """
    phi = np.asarray(phi, dtype=float)
    m = phi.shape[0]
    size = 2 * m
    f = np.fft.rfft2(phi, s=(size, size))
    corr = np.fft.irfft2(f * np.conj(f), s=(size, size))  # corr[d] = sum_p phi_p phi_{p-d}
    d = np.arange(size)
    d = np.where(d < m, d, d - size)
    D1, D2 = np.meshgrid(d, d, indexing="ij")
    pts = np.stack([D1, D2], axis=-1).astype(float) * delta
    zz = np.einsum("ij,...j->...i", spectral.V, pts)
    dist_sq = np.sum(zz ** 2, axis=-1)
    kernel = np.where(dist_sq > 0, 0.5 * np.log(np.where(dist_sq > 0, dist_sq, 1.0)), 0.0)
    kernel[0, 0] = _log_kernel_cell_average(delta, spectral.V)
    total = float(np.sum(corr * kernel)) * delta ** 4
    return -params.v / (2 * math.pi * spectral.w) * total


def gff_smoothed_variance(phi, delta, m, m2, params, spectral=None) -> GffVariance:
    """Lattice variance of the smoothed gradient field next to its continuum
    log-kernel limit; the two converge as delta -> 0, m -> infinity."""
    _check_delta(delta)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (m, m):
        raise ParameterError(f"phi grid must be ({m}, {m}), got {phi.shape}")
    _check_mean_zero(phi, delta)
    if spectral is None:
        spectral = spectral_data(drift_coeffs(params))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        continuum = gff_continuum_variance(phi, delta, spectral, params)
        try:
            lattice = gff_lattice_bilinear(phi, phi, delta, m, m2, params)
        except AccuracyError:  # s conj(s) is real, so only a non-finite sum lands here
            lattice = math.nan
    if not (math.isfinite(lattice) and math.isfinite(continuum)):
        raise ParameterError(f"grid spacing delta={delta} overflows the smoothed variance")
    return GffVariance(lattice=lattice, continuum=continuum)


def two_bump_test_function(delta, m):
    """Mean-zero smooth test function: a bump of radius 1.25 minus its
    translate by about 2 along the first axis, sampled on the centered m x m
    grid with spacing delta.  The translate is an exact grid shift, so the samples sum to zero
    identically."""
    _check_delta(delta)
    radius = 1.25
    shift = max(1, int(round(2.0 / delta)))
    p = (np.arange(m) - m // 2) * delta
    X1, X2 = np.meshgrid(p, p, indexing="ij")

    def bump(x1, x2):
        rr = (x1 ** 2 + x2 ** 2) / radius ** 2
        out = np.zeros_like(rr)
        inside = rr < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - rr[inside]))
        return out

    base = bump(X1, X2)
    phi = base - np.roll(base, shift, axis=0)
    support = max(radius / delta + shift, 1)
    if support > m / 2 - 2:
        raise ParameterError("bump support does not fit on the grid")
    return phi
