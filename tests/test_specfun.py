import math

import numpy as np
import pytest
from scipy.integrate import quad

from akpz.specfun import (DomainError, EULER_GAMMA, _dilog_sum_terms, dilog_sum,
                          exp_integral_E1, heat_time_integral, log_qpoch_asymptotic)


def oracle_E1(x):
    if x <= 10:
        val, err = quad(lambda t: math.exp(-t) / t, x, np.inf,
                        limit=400, epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-11 * max(val, 1e-300)
        return val
    # factor out the exponential tail so the quadrature stays well scaled
    val, err = quad(lambda u: math.exp(-u) / (u + x), 0, np.inf,
                    limit=400, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-11 * val
    return math.exp(-x) * val


def test_E1_at_one_matches_quadrature():
    assert exp_integral_E1(1.0) == pytest.approx(oracle_E1(1.0), rel=1e-12)


def test_E1_matches_quadrature_log_spaced():
    for x in np.logspace(-6, 2.5, 20):
        assert exp_integral_E1(float(x)) == pytest.approx(oracle_E1(float(x)), rel=1e-10)


def test_E1_small_x_limit():
    # E1(x) + log x + gamma -> 0 from the classical expansion
    gaps = [abs(exp_integral_E1(x) + math.log(x) + EULER_GAMMA)
            for x in (1e-2, 1e-4, 1e-6)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-6


def test_E1_monotone_decreasing():
    assert exp_integral_E1(2.0) < exp_integral_E1(1.0)


def test_E1_domain():
    with pytest.raises(DomainError):
        exp_integral_E1(0.0)
    with pytest.raises(DomainError):
        exp_integral_E1(-1.0)
    with pytest.raises(DomainError):
        exp_integral_E1(math.nan)
    assert exp_integral_E1(math.inf) == 0.0


def test_E1_extreme_arguments_finite():
    assert exp_integral_E1(1e-8) > 0
    assert exp_integral_E1(700.0) >= 0.0
    assert math.isfinite(exp_integral_E1(700.0))


def test_heat_time_integral_zero_branch():
    assert heat_time_integral(0.0, 1.0, 10.0) == pytest.approx(math.log(10.0), rel=1e-15)


def test_heat_time_integral_is_zero_on_the_empty_interval():
    for c_sq in (0.0, 4.0, math.inf):
        assert heat_time_integral(c_sq, 3.5, 3.5) == 0.0
    with pytest.raises(DomainError, match=r"^need 0 < a_lo <= a_hi, got \(3.5, 3.0\)$"):
        heat_time_integral(4.0, 3.5, 3.0)


def test_heat_time_integral_matches_quadrature():
    c_sq, a_lo, a_hi = 4.0, 1.0, 10.0
    oracle, err = quad(lambda a: math.exp(-c_sq / (4 * a)) / a, a_lo, a_hi,
                       epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    assert heat_time_integral(c_sq, a_lo, a_hi) == pytest.approx(oracle, abs=1e-10)


def test_heat_time_integral_additive():
    for c_sq in (0.0, 0.5, 9.0):
        left = heat_time_integral(c_sq, 1.0, 4.0) + heat_time_integral(c_sq, 4.0, 30.0)
        total = heat_time_integral(c_sq, 1.0, 30.0)
        assert left == pytest.approx(total, abs=1e-12)


def test_dilog_sum_log_identity():
    for b in (0.1, 0.7, 2.0):
        _, s1, _ = dilog_sum(b)
        assert abs(s1 + math.log1p(-math.exp(-b))) < 1e-13


def test_dilog_sum_geometric_identity():
    for b in (0.1, 0.7, 2.0):
        _, _, s0 = dilog_sum(b)
        assert s0 == pytest.approx(math.exp(-b) / (1 - math.exp(-b)), rel=1e-13)


def test_dilog_sum_ordering():
    s2, s1, _ = dilog_sum(1.3)
    assert s2 < s1


def test_dilog_sum_matches_long_direct_sum():
    n = np.arange(1, 10 ** 4 + 1, dtype=float)
    direct = float(np.sum(np.exp(-n) / n ** 2))
    s2, _, _ = dilog_sum(1.0)
    assert s2 == pytest.approx(direct, rel=1e-13)


def test_dilog_sum_truncation_tail():
    # the first omitted term is negligible relative to the slowest sum
    for b in (0.05, 0.5, 3.0):
        s2, _, _, n_stop = _dilog_sum_terms(b)
        next_term = math.exp(-b * (n_stop + 1)) / (n_stop + 1) ** 2
        assert next_term < 1e-14 * s2


def test_qpoch_asymptotic_linear_terms_vanish_at_zero():
    eps, b = 1e-3, 1.0
    s2, s1, _ = dilog_sum(b)
    assert log_qpoch_asymptotic(eps, b, 0.0) == pytest.approx(s2 / eps - 0.5 * s1, rel=1e-15)


def test_qpoch_asymptotic_window_enforced():
    with pytest.raises(DomainError):
        log_qpoch_asymptotic(1e-2, 1.0, 1e9)


def test_qpoch_constant_cancellation_across_b():
    from akpz.ctmc import log_q_pochhammer
    x = 5.0
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        q = math.exp(-eps)
        exact = (log_q_pochhammer(q, int(round(1.0 / eps + x)))
                 - log_q_pochhammer(q, int(round(2.0 / eps + x))))
        asym = log_qpoch_asymptotic(eps, 1.0, x) - log_qpoch_asymptotic(eps, 2.0, x)
        errs.append(abs(exact - asym))
    assert errs[0] > errs[1] > errs[2]
