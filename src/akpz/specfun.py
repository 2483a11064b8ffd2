"""Special functions: exponential integral, dilogarithm-type sums, and the
asymptotic expansion of the log q-Pochhammer symbol.

Everything here is pure and scalar.  The exponential integral is built from
scratch (power series below x = 1, modified Lentz continued fraction above)
so that the heat-kernel covariance formulas do not depend on scipy.
"""

import math

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606065120900824024


def exp_integral_E1(x: float) -> float:
    """E1(x) = integral of exp(-t)/t from x to infinity, for x > 0.

    Power series for x <= 1, modified Lentz continued fraction for x > 1.
    Relative accuracy is better than 1e-12 on [1e-8, 700]; E1(inf) = 0.
    """
    if not x > 0:
        raise DomainError(f"E1 requires x > 0, got {x}")
    if x == math.inf:
        return 0.0
    if x <= 1.0:
        # E1(x) = -gamma - ln x + sum_{n>=1} (-1)^(n+1) x^n / (n n!)
        total = 0.0
        term = 1.0
        for n in range(1, 80):
            term *= x / n
            add = term / n if n % 2 == 1 else -term / n
            total += add
            if abs(add) < 1e-18:
                break
        return -EULER_GAMMA - math.log(x) + total
    # continued fraction e^{-x} / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def heat_time_integral(c_sq: float, a_lo: float, a_hi: float) -> float:
    """Integral of exp(-c_sq/(4a))/a over a in [a_lo, a_hi].

    Evaluated in closed form as E1(c_sq/(4 a_hi)) - E1(c_sq/(4 a_lo)); the
    c_sq = 0 branch degenerates to log(a_hi/a_lo), and the empty interval
    a_lo = a_hi gives 0.
    """
    if c_sq < 0:
        raise DomainError(f"c_sq must be >= 0, got {c_sq}")
    if not 0 < a_lo <= a_hi:
        raise DomainError(f"need 0 < a_lo <= a_hi, got ({a_lo}, {a_hi})")
    if a_lo == a_hi:
        return 0.0
    if c_sq == 0.0:
        return math.log(a_hi / a_lo)
    return exp_integral_E1(c_sq / (4.0 * a_hi)) - exp_integral_E1(c_sq / (4.0 * a_lo))


def _dilog_sum_terms(b: float):
    """Sums S2, S1, S0 of exp(-b n)/n^p (p = 2, 1, 0) plus the truncation index."""
    if b <= 0:
        raise DomainError(f"b must be positive, got {b}")
    emb = math.exp(-b)
    s2 = s1 = s0 = 0.0
    n = 0
    chunk = 512
    while True:
        # vector-free inner loop; the geometric tail bound below is the
        # strictest of the three series, so one test covers all sums
        for i in range(n + 1, n + chunk + 1):
            e = math.exp(-b * i)
            s2 += e / (i * i)
            s1 += e / i
            s0 += e
        n += chunk
        tail = math.exp(-b * (n + 1)) / (1.0 - emb)
        if tail <= 1e-15 * s2:
            return s2, s1, s0, n


def dilog_sum(b: float):
    """(S2, S1, S0) with Sp = sum over n >= 1 of exp(-b n) / n^p.

    Terms are summed in chunks of 512, stopping after the first chunk whose
    end n has the geometric tail exp(-b(n+1))/(1 - exp(-b)), a bound on the
    remainder of all three series, at or below 1e-15 times the partial S2.
    """
    s2, s1, s0, _ = _dilog_sum_terms(b)
    return s2, s1, s0


def log_qpoch_asymptotic(eps: float, b: float, X: float) -> float:
    """Asymptotic value of log (q;q)_a for q = exp(-eps), a = b/eps + X:
    S2(b)/eps - S1(b)/2 - X S1(b) + eps X^2 S0(b)/2.

    The additive constant shared by all (b, X) is omitted, so only
    differences of returned values are meaningful.  Valid while
    sqrt(eps)*|X| stays below eps^(-1/10).
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if math.sqrt(eps) * abs(X) >= eps ** (-0.1):
        raise DomainError(
            f"(eps={eps}, X={X}) outside validity window sqrt(eps)|X| < eps^(-1/10)"
        )
    s2, s1, s0 = dilog_sum(b)
    return s2 / eps - 0.5 * s1 - X * s1 + eps * X * X * s0 / 2.0
