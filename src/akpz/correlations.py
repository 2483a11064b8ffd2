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

import functools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ParameterError
from .lattice import fourier_modes
from .sde import drift_coeffs, symbol_R
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


def _growth_factor(rvals, s, origin):
    """(exp(R s) - 1)/R extended continuously by s at k = 0, in one new array."""
    out = np.multiply(rvals, s, dtype=float)
    np.expm1(out, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at the origin
        np.divide(out, rvals, out=out)
    out[origin] = s
    return out


# Momenta k = (K1, twist + K2): rows K1 (rows, 1), each with its twist (a
# (rows, 1) column, or 0.0), and columns K2 (1, m); the weight of each row (a
# (rows,) array, or 1.0); the index origin of k = 0; and R and 1/R, 0 at the
# origin, on the (rows, m) grid.  Its arrays are read-only.
SpectralGrid = namedtuple("SpectralGrid", "K1 twist K2 weights origin rvals rinv")


def _spectral_grid(coeffs, K1, twist, K2, weights, origin):
    """The SpectralGrid of these momenta, R = symbol_R on the rows K1 and the
    columns twist + K2, and 1/R, 0 at the origin k = 0, which the stationary
    sums leave out.  A ParameterError if 1/R is not finite at another mode."""
    rvals = symbol_R(K1, twist + K2, coeffs)
    rinv = rvals.copy()
    rinv[origin] = 1.0
    with np.errstate(divide="ignore", over="ignore"):  # rejected below
        np.divide(1.0, rinv, out=rinv)
    if not -math.inf < rinv.min() <= rinv.max() < math.inf:  # no m^2 temporary
        raise ParameterError(f"R rounds to 0 at a nonzero mode: d1, d2, d3 = {coeffs.d1:.6g}, "
                             f"{coeffs.d2:.6g}, {coeffs.d3:.6g} differ too much in scale")
    rinv[origin] = 0.0
    grid = SpectralGrid(K1, twist, K2, weights, origin, rvals, rinv)
    for a in grid:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=4)  # 16 m^2 bytes each, 16 MB at m=1024
def _mode_table(m, m2, coeffs):
    """The FourierModeSet of (m, m2) and its SpectralGrid (weight 1, origin at
    zero_index), built once per (m, m2, coeffs) and shared read-only."""
    modes = fourier_modes(m, m2)
    origin = divmod(modes.zero_index, m)
    return modes, _spectral_grid(coeffs, modes.K1, modes.twist, modes.K2, 1.0, origin)


def _amplitude(grid, s, tau):
    """g(R, s) e^{R tau/2} on the grid, g the growth factor, in one new array."""
    amp = _growth_factor(grid.rvals, s, grid.origin)
    tmp = np.multiply(0.5, grid.rvals)
    tmp *= tau
    amp *= np.exp(tmp, out=tmp)
    return amp


def _cyclic_rows(table, m, first):
    """Every row of a cyclic read of a table of n = m h entries, row i holding
    table[(first[i] + h c) mod n] in columns c = 0 .. m-1.

    With first[i] = q h + r mod n, 0 <= r < h, that row is
    table.reshape(m, h)[(q + c) mod m, r]: a cyclic window of column r.  Laid
    end to end, each column twice, the columns hold every row as one window of
    m entries.  Returns the windows (a view) and the window of each row, so
    windows[start[i:j]] is rows i .. j-1 as a new array."""
    h = len(table) // m
    q, r = np.divmod(first % len(table), h)
    laid = np.tile(table.reshape(m, h).T, 2).ravel()
    return np.lib.stride_tricks.sliding_window_view(laid, m), 2 * m * r + q


def _real_value(total, what):
    """A complex total as a float; it must be finite, and an imaginary residue
    below 1e-10 relative is discarded."""
    if not (np.isfinite(total) and abs(total.imag) <= 1e-10 * max(1.0, abs(total.real))):
        raise AccuracyError(f"{what} {total} is not a finite real number")
    return float(total.real)


def covariance_finite_m(query, m, m2, params) -> CovarianceResult:
    """Exact m^2-mode sum for the covariance on the quotient label set,
    independent of the base point and of the initial data.

    Each term is g e^{R tau/2} e^{i(tau phi - k.y)}, g the growth factor and
    phi = d1 sin k1 + d2 sin(k1 - k2) - d3 sin k2 = Im A; the imaginary part
    of the total is the residue that conjugate mode pairing cancels.  On the
    twisted set k2 = 2 pi (m2 r1 + m r2)/m^2 and k2 - k1 =
    2 pi ((m2 - m) r1 + m r2)/m^2 both lie on the grid 2 pi j/n,
    n = m^2/gcd(m, m2), so the phase is
    Ta(k2 - k1) Tb(k2) P(r1) Q(r2) with the n-entry tables
    Ta(j) = e^{-i tau d2 sin(2 pi j/n)} and Tb(j) = e^{-i tau d3 sin(2 pi j/n)},
    each read cyclically by rows, the row factor
    P = e^{i(tau d1 sin K1 - K1 y1 - twist y2)} and the column factor
    Q = e^{-i K2 y2}: n/2 + 1 sines and 2 (n/2 + 1) complex exponentials in
    place of m^2 sines and cosines, n = 2m at m2 = m/2.  The modes and R are
    built once per (m, m2, params) and reused by every later query."""
    coeffs = drift_coeffs(params)
    grid = _mode_table(m, m2, coeffs)[1]
    tau = query.t - query.s
    y1, y2 = query.y
    amp = _amplitude(grid, query.s, tau)
    g = math.gcd(m, m2)
    n = m * m // g
    # sin(2 pi (n - j)/n) = -sin(2 pi j/n), so each entry j > n/2 is the
    # conjugate of the one at n - j: exactly so, which keeps conjugate modes
    # paired (worst error 4.8e-15 with all n entries computed, 5.9e-16 so)
    sines = np.sin(2 * np.pi * np.arange(n // 2 + 1) / n)
    mirror = slice((n + 1) // 2 - 1, 0, -1)

    def table(d):
        half = np.exp(-1j * tau * d * sines)
        return np.concatenate([half, half[mirror].conj()])

    # the table index of column r2 = -(m//2) in each row r1
    r1 = np.arange(-(m // 2), m - m // 2)
    edge = -m * (m // 2)
    diffs, diff_at = _cyclic_rows(table(coeffs.d2), m, ((m2 - m) * r1 + edge) // g)
    k2s, k2_at = _cyclic_rows(table(coeffs.d3), m, (m2 * r1 + edge) // g)
    rows = np.exp(1j * (tau * coeffs.d1 * np.sin(grid.K1) - grid.K1 * y1 - grid.twist * y2))
    cols = np.exp(-1j * grid.K2 * y2)
    # Row tiles of at most 2^13 terms keep the complex temporaries in cache;
    # m^2 at once took about 700 page faults per call at m=256 and was no
    # faster than the m^2 sines and cosines.  Elementwise products and sums,
    # not BLAS dot products: a dot product of m^2 terms runs on OpenBLAS
    # threads, which took 8 ms in some processes.
    cos_sum = sin_sum = 0.0
    step = max(1, 2 ** 13 // m)
    for i in range(0, m, step):
        phase = diffs[diff_at[i:i + step]]
        phase *= k2s[k2_at[i:i + step]]
        phase *= rows[i:i + step]
        phase *= cols
        cos_sum += np.sum(amp[i:i + step] * phase.real)
        sin_sum += np.sum(amp[i:i + step] * phase.imag)
    scale = params.v / m ** 2
    total = complex(scale * cos_sum, scale * sin_sum)
    return CovarianceResult(y=tuple(query.y), t=query.t, s=query.s, method="finite-m",
                            value=_real_value(total, "mode sum"), err_est=float("nan"))


def _half_rows(m):
    """Row indices j1 of the mirror-reduced half of the m x m grid: -m/2
    (even m only), 0, 1, ..., ceil(m/2)-1."""
    j1 = np.arange((m + 1) // 2)
    return np.r_[-(m // 2), j1] if m % 2 == 0 else j1


@functools.lru_cache(maxsize=8)  # 8 m^2 bytes each, 8 MB at m=1024
def _riemann_grid(coeffs, m):
    """The SpectralGrid of half of the m x m periodic lattice (twist 0), built
    once per (coeffs, m) and shared read-only.

    Both Riemann integrands are even in K (R is even, the drift phase odd),
    and K -> -K maps row j1 of the grid onto row -j1 mod m.  So the rows
    j1 = -m/2 (even m only) and 0, which map onto themselves, carry weight 1,
    and rows 1 .. ceil(m/2)-1 weight 2 for their mirror rows.  K = 0 sits in
    row j1 = 0 (after the -m/2 row at even m), column m//2."""
    j1 = _half_rows(m)
    weights = np.where((j1 == 0) | (j1 == -(m // 2)), 1.0, 2.0)
    K1 = 2 * np.pi * j1[:, None] / m
    K2 = 2 * np.pi * np.arange(-(m // 2), m - m // 2)[None, :] / m
    return _spectral_grid(coeffs, K1, 0.0, K2, weights, (1 - m % 2, m // 2))


def _refine(value_at, tol, m_start, m_max, levels):
    """Double m from m_start until two consecutive values, after `levels`
    Richardson steps in 1/m^2, agree within tol: (value, |difference|).  A
    value that is not finite ends the refinement at once."""
    old = []
    m = m_start
    while m <= m_max:
        new = [value_at(m)]
        if not math.isfinite(new[0]):
            raise AccuracyError(f"quadrature value {new[0]} at m={m} is not finite")
        for j in range(min(levels, len(old))):
            new.append(new[j] + (new[j] - old[j]) / (4 ** (j + 1) - 1))
        if len(old) > levels and abs(new[levels] - old[levels]) <= tol:
            return new[levels], abs(new[levels] - old[levels])
        old = new
        m *= 2
    raise AccuracyError(f"quadrature did not reach tol={tol} by m={m_max}")


def _riemann_covariance(query, params, coeffs, m):
    """Midpoint/Riemann value of the momentum integral on an m x m periodic
    lattice, evaluated on its mirror-reduced half.

    On the grid K = 2 pi (j1, j2)/m the difference K1 - K2 takes only m
    values, so the phase factor e^{i(tau phi(K) - K.y)} is
    T((j2 - j1) mod m) P(j1) Q(j2) with T(d) = e^{-i tau d2 sin(2 pi d/m)},
    P = e^{i(tau d1 sin K1 - K1 y1)} and Q = e^{-i(tau d3 sin K2 + K2 y2)}:
    three length-m tables, T gathered as a circulant, in place of m^2 sines
    and cosines."""
    tau = query.t - query.s
    y1, y2 = query.y
    grid = _riemann_grid(coeffs, m)
    K1, K2 = grid.K1, grid.K2
    acc = _amplitude(grid, query.s, tau)
    T = np.exp(-1j * tau * coeffs.d2 * np.sin(2 * np.pi * np.arange(m) / m))
    circulant, start = _cyclic_rows(T, m, -(m // 2) - _half_rows(m))
    phase = circulant[start]  # row j1 holds T((j2 - j1) mod m)
    phase *= np.exp(1j * (tau * coeffs.d1 * np.sin(K1) - K1 * y1))
    phase *= np.exp(-1j * (tau * coeffs.d3 * np.sin(K2) + K2 * y2))
    acc *= phase.real
    return params.v / m ** 2 * float(grid.weights @ acc.sum(axis=1))


def covariance_quadrature(query, params, tol=1e-6, m_start=128, m_max=4096) -> CovarianceResult:
    """Infinite-volume covariance by refined periodic quadrature.

    The integrand is smooth and periodic, so lattice refinement converges
    spectrally; refinement stops once two consecutive levels agree within
    tol (absolute), reported as the error estimate.  The momenta and R on
    each m x m lattice are built once per (m, params) and reused by every
    later query.
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
    # a non-finite H is rejected below; |H|^2 = inf from a finite H is the
    # limit where the Gaussian factor vanishes
    with np.errstate(over="ignore", invalid="ignore"):
        H = spectral.V @ (np.asarray(query.y, dtype=float) - tau * spectral.U)  # Gaussian argument
        c_sq = float(H @ H)
    if not np.all(np.isfinite(H)):
        raise ParameterError(f"the Gaussian argument V(y - (t - s) U) = {H} is not finite at "
                             f"t={query.t}, s={query.s}, y={query.y}")
    integral = heat_time_integral(c_sq, 1 + tau / 2, 1 + (query.t + query.s) / 2)
    value = params.v / (4 * math.pi * spectral.w) * integral
    return CovarianceResult(y=tuple(query.y), t=query.t, s=query.s,
                            method="heat-kernel", value=value, err_est=float("nan"))


@dataclass(frozen=True)
class RegimeValue:
    label: str
    value: float
    applies: bool


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
                               is_equal_time and is_origin))
    if not is_origin:
        Y = spectral.V @ y
        out.append(RegimeValue(
            "equal-time-spatial", v4 * math.log(4 * (t + 1) / float(Y @ Y)),
            is_equal_time and float(Y @ Y) <= 4 * (t + 1)))
    if tau > 0:
        on_char = bool(np.all(np.floor(spectral.U * tau) == y))
        out.append(RegimeValue("characteristic", v4 * math.log((t + s) / tau), on_char))
        u = y / tau
        try:
            arg = tau ** 2 * float(np.sum((spectral.V @ (spectral.U - u)) ** 2)) / (2 * (t + s))
        except OverflowError:
            raise ParameterError(f"t - s = {tau} overflows (t - s)^2") from None
        val = v4 * exp_integral_E1(arg) if arg > 0 else float("inf")
        out.append(RegimeValue("off-characteristic", val, not on_char))
        if t > 1 and tau > 1:
            out.append(RegimeValue("diffusive-window",
                                   v4 * (math.log(t) - 2 * math.log(tau)),
                                   not on_char and tau <= math.sqrt(t)))
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
    with np.errstate(over="ignore"):  # an infinite coordinate is rejected below
        p_t = np.floor(spectral.U * t / delta + vinv_x / math.sqrt(delta))
        p_s = np.floor(spectral.U * s / delta + vinv_y / math.sqrt(delta))
    if not np.all(np.abs(np.concatenate([p_t, p_s])) <= 2 ** 53):
        raise ParameterError(f"lattice coordinates {p_t}, {p_s} at delta={delta} are not "
                             f"finite or exceed 2**53")
    disp = tuple(int(a) for a in (p_t - p_s))
    q = CovarianceQuery(y=disp, t=t / delta, s=s / delta)
    amp_sq = 4 * math.pi * spectral.w / (8 * params.v)
    return amp_sq * covariance_heat_kernel(q, spectral, params).value


def _four_point_sum(qry, grid):
    """Sum over the k = (K1, twist + K2) of a SpectralGrid of weights * num(k) *
    rinv(k), where num is
    e^{ik.(y1-y3)} - e^{ik.(y1-y4)} - e^{ik.(y2-y3)} + e^{ik.(y2-y4)}.  Each
    cos and sin of (K1 d1 + twist d2) + K2 d2 separates into a row and a column
    factor, so the sum is one product of 1/R with eight length-m columns."""
    y1, y2, y3, y4 = (np.asarray(a, dtype=float) for a in (qry.y1, qry.y2, qry.y3, qry.y4))
    diffs = np.array([y1 - y3, y1 - y4, y2 - y3, y2 - y4])
    along = grid.K1 * diffs[:, 0] + grid.twist * diffs[:, 1]  # (rows, 4)
    across = grid.K2.T * diffs[:, 1]  # (m, 4)
    cols = np.hstack([np.cos(across), np.sin(across)])
    # Tiles of at most 2^15 entries of 1/R: OpenBLAS runs a product of up to
    # 2^18 multiply-adds on one thread.  The whole product woke a second
    # thread, and at m = 512 took 5-8 ms in place of 0.1 ms in some processes.
    rinv = grid.rinv
    sums = np.empty((len(rinv), 8))
    step = max(1, 2 ** 15 // len(cols))
    for i in range(0, len(rinv), step):
        np.matmul(rinv[i:i + step], cols, out=sums[i:i + step])
    signs = np.multiply.outer(grid.weights, [1.0, -1.0, -1.0, 1.0])
    cos, sin = np.cos(along), np.sin(along)
    return complex(np.sum(signs * (cos * sums[:, :4] - sin * sums[:, 4:])),
                   np.sum(signs * (sin * sums[:, :4] + cos * sums[:, 4:])))


def stationary_cov_finite(qry, m, m2, params) -> float:
    """Stationary gradient covariance as an exact sum over nonzero modes, on
    the rows of the twisted mode set."""
    total = _four_point_sum(qry, _mode_table(m, m2, drift_coeffs(params))[1])
    return _real_value(-params.v / m ** 2 * total, "mode sum")


def _riemann_stationary(qry, coeffs, v, m):
    """-v/m^2 times the real four-point sum over K != 0 on the half grid."""
    return -v / m ** 2 * _four_point_sum(qry, _riemann_grid(coeffs, m)).real


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
    p = j - c, c = (m//2, m//2): m e^{-i k c} conj(hat(phi)_k) for real phi.
    By rows k.c = (K1 + twist) c + K2 c, so the shift is a row table times a
    column table: 2m exponentials."""
    c = modes.m // 2
    shift = (np.exp(-1j * c * (modes.K1 + modes.twist)) * np.exp(-1j * c * modes.K2)).ravel()
    return delta ** 2 * (modes.m * shift * np.conj(modes.field_transform(phi)) - float(phi.sum()))


def gff_lattice_bilinear(phi1, phi2, delta, m2, params) -> float:
    """Stationary covariance of two smoothed gradient fields of one (m, m) shape
    on the m x m label set; positive semidefinite as a quadratic form."""
    _check_delta(delta)
    phi1, phi2 = np.asarray(phi1, dtype=float), np.asarray(phi2, dtype=float)
    if phi1.ndim != 2 or phi1.shape[0] != phi1.shape[1] or phi2.shape != phi1.shape:
        raise ParameterError(f"fields must share one (m, m) shape, got {phi1.shape} "
                             f"and {phi2.shape}")
    m = len(phi1)
    modes, grid = _mode_table(m, m2, drift_coeffs(params))
    s1 = _smoothed_transform(phi1, delta, modes)
    s2 = s1 if phi2 is phi1 else _smoothed_transform(phi2, delta, modes)
    return _real_value(-params.v / m ** 2 * np.sum(s1 * np.conj(s2) * grid.rinv.ravel()),
                       "smoothed covariance")


def _log_kernel_cell_average(delta, V):
    """Average of log |V z| over the cell [-delta/2, delta/2]^2 (24-point Gauss-Legendre)."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
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
    _check_delta(delta)
    phi = np.asarray(phi, dtype=float)
    m = phi.shape[0]
    size = 2 * m
    f = np.fft.rfft2(phi, s=(size, size))
    corr = np.fft.irfft2(f * np.conj(f), s=(size, size))  # corr[d] = sum_p phi_p phi_{p-d}
    d = np.arange(size)
    z = np.where(d < m, d, d - size) * delta  # the offset axis, signed
    G = spectral.V.T @ spectral.V  # |V z|^2 = z^T G z, separable on the offset grid
    kernel = np.multiply.outer(2 * G[0, 1] * z, z)
    kernel += (G[0, 0] * z * z)[:, None]
    kernel += G[1, 1] * z * z
    kernel[0, 0] = 1.0  # the origin, which gets the cell average below
    np.log(kernel, out=kernel)
    kernel *= 0.5
    kernel[0, 0] = _log_kernel_cell_average(delta, spectral.V)
    corr *= kernel
    total = float(np.sum(corr)) * delta ** 4
    return -params.v / (2 * math.pi * spectral.w) * total


def gff_smoothed_variance(phi, delta, m, m2, params, spectral) -> GffVariance:
    """Lattice variance of the smoothed gradient field next to its continuum
    log-kernel limit; the two converge as delta -> 0, m -> infinity."""
    _check_delta(delta)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (m, m):
        raise ParameterError(f"phi grid must be ({m}, {m}), got {phi.shape}")
    _check_mean_zero(phi, delta)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        continuum = gff_continuum_variance(phi, delta, spectral, params)
        try:
            lattice = gff_lattice_bilinear(phi, phi, delta, m2, params)
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
