"""The Gaussian limit of the particle system: hydrodynamic speed, drift
matrix, Fourier symbols, spectral geometry, and an Euler-Maruyama integrator
for the limiting system of linear SDEs on quotient labels.

Model parameters are the limiting gap sizes 0 < C < D (with B = D - C).
The fluctuation field xi solves

    d xi_p = sqrt(v) dW_p + sum_{p'} A_{p,p'} xi_{p'} dt

where A has the four-point stencil coded in DriftCoeffs and v is the speed.
"""

import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ParameterError
from .lattice import neighbor_index


@dataclass(frozen=True)
class ModelParams:
    """Limit parameters C < D (B = D - C)."""

    C: float
    D: float

    def __post_init__(self):
        if not 0 < self.C < self.D < math.inf:
            raise ParameterError(f"need 0 < C < D < inf, got C={self.C}, D={self.D}")
        # d3 and the Hessian determinant divide by (1 - e^-C)^2, and all four
        # multiply exponentials that can underflow: each must be finite and positive
        if math.expm1(-self.C) ** 2 == 0:
            raise ParameterError(f"(1 - e^-C)^2 underflows to 0 at C={self.C}")
        c = drift_coeffs(self)
        values = (c.d1, c.d2, c.d3, det_hessian_closed_form(self))
        if not all(0 < x < math.inf for x in values):
            raise ParameterError(f"C={self.C}, D={self.D} give d1, d2, d3, det = {values}; "
                                 f"each must be a finite positive float")

    @property
    def B(self):
        return self.D - self.C

    @property
    def v(self):
        return speed(self)

    @classmethod
    def from_torus(cls, torus):
        if torus.epsilon is None:
            raise ParameterError("torus carries no scaling parameters")
        D = torus.ell / torus.m1
        C = D * torus.m2 / torus.m1
        return cls(C=C, D=D)


def speed(params) -> float:
    """Deterministic particle speed (1-e^-B)(1-e^-D)/(1-e^-C)."""
    return speed_from_slopes(params.D, params.C)


def _f(x):
    """e^-x / (1 - e^-x), the weight of a gap of limiting size x."""
    return math.exp(-x) / -math.expm1(-x)


def finite_eps_speed(params, eps: float) -> float:
    """Particle speed at q = e^-eps to first order in eps:
    v * (1 - eps*(f(B) + f(C))) with f(x) = e^-x/(1-e^-x).

    The clock rate of a particle is (1-q^b)(1-q^(d+1))/(1-q^(c+1)) in its
    gaps b, c, d.  On the torus the gaps telescope around each row and
    column, so their means are fixed in every admissible state:
    mean b = B/eps - 1, mean c = C/eps, mean d + 1 = D/eps.  At the mean
    gaps q^b = e^-B e^eps and q^(c+1) = e^-C e^-eps, so the rate is
    v * (1 - eps*f(B)) / (1 + eps*f(C)) + O(eps^2), while the factor in d
    is exactly 1 - e^-D.  This is the rate at the mean gaps only.  The rate
    is curved in the gaps, so their fluctuations add a term of the same first
    order that is not modelled: 10^4 replicas on the m=4, m2=2, D=1 torus
    (crystalline start, horizon 1/eps) run +0.98%, +0.48% and +0.23% of v
    above this speed at eps = 0.02, 0.01 and 0.005.
    """
    return speed(params) * (1 - eps * (_f(params.B) + _f(params.C)))


def speed_from_slopes(g1: float, g2: float) -> float:
    """Speed as a function of the two slope arguments (g1, g2) = (D, C)."""
    if g2 <= 0 or g2 >= g1:
        raise ParameterError(f"slopes outside 0 < g2 < g1: ({g1}, {g2})")
    return -math.expm1(g2 - g1) * -math.expm1(-g1) / -math.expm1(-g2)


@dataclass(frozen=True)
class DriftCoeffs:
    """Stencil of the drift matrix A:

    A[p, p]          = d1 - d2 - d3
    A[p, p + (1,-1)] = d2
    A[p, p - (1,0)]  = -d1
    A[p, p - (0,1)]  = d3
    """

    d1: float
    d2: float
    d3: float

    @property
    def diag(self):
        return self.d1 - self.d2 - self.d3

    @property
    def inf_norm(self):
        return abs(self.diag) + self.d1 + self.d2 + self.d3


def drift_coeffs(params) -> DriftCoeffs:
    B, C, D = params.B, params.C, params.D
    eB, eC, eD = math.exp(-B), math.exp(-C), math.exp(-D)
    one_c = -math.expm1(-C)
    return DriftCoeffs(
        d1=eD * -math.expm1(-B) / one_c,
        d2=eB * -math.expm1(-D) / one_c,
        d3=eC * -math.expm1(-B) * -math.expm1(-D) / one_c ** 2,
    )


def _split_k(k):
    k = np.asarray(k, dtype=float)
    return k[..., 0], k[..., 1]


def symbol_A(k, coeffs):
    """Fourier multiplier of the drift: acting on hat(xi)_k with
    hat(xi)_k = sum_p xi_p e^{-i p.k}/m.  Vanishes at k = 0."""
    k1, k2 = _split_k(k)
    return (coeffs.diag
            + coeffs.d2 * np.exp(1j * (k1 - k2))
            - coeffs.d1 * np.exp(-1j * k1)
            + coeffs.d3 * np.exp(-1j * k2))


def symbol_R(k, coeffs):
    """Symmetrization A(k) + A(-k): real, non-positive, zero only at k = 0."""
    k1, k2 = _split_k(k)
    return 2.0 * (coeffs.diag
                  + coeffs.d2 * np.cos(k1 - k2)
                  - coeffs.d1 * np.cos(k1)
                  + coeffs.d3 * np.cos(k2))


def symbol_W(k, coeffs):
    """Quadratic form approximating symbol_R at small k."""
    k1, k2 = _split_k(k)
    return -coeffs.d2 * (k1 - k2) ** 2 + coeffs.d1 * k1 ** 2 - coeffs.d3 * k2 ** 2


def symbol_Q(k, params):
    """Quadratic-form symbol of the Gibbs weight of near-crystalline
    configurations; equals symbol_R / (2 v) identically."""
    k1, k2 = _split_k(k)
    return (_f(params.D) * (1 - np.cos(k1))
            - _f(params.B) * (1 - np.cos(k1 - k2))
            - _f(params.C) * (1 - np.cos(k2)))


def hessian_matrix(coeffs):
    """symbol_W written as a symmetric 2x2 matrix."""
    d1, d2, d3 = coeffs.d1, coeffs.d2, coeffs.d3
    return np.array([[d1 - d2, d2], [d2, -(d2 + d3)]])


def det_hessian_closed_form(params) -> float:
    """Closed-form determinant of the Hessian form, e^-D(1-e^-D)(1-e^-B)^2/(1-e^-C)^2."""
    B, C, D = params.B, params.C, params.D
    return math.exp(-D) * -math.expm1(-D) * math.expm1(-B) ** 2 / math.expm1(-C) ** 2


@dataclass(frozen=True)
class SpectralData:
    """Geometry of the Gaussian limit: Hessian form Whess (negative
    definite), w = sqrt(det Whess), the normalizing matrix V with
    V Whess V^T = -I, and the characteristic direction U."""

    whess: np.ndarray
    w: float
    V: np.ndarray
    U: np.ndarray


def spectral_data(coeffs) -> SpectralData:
    whess = hessian_matrix(coeffs)
    lam, S = np.linalg.eigh(-whess)
    if lam.min() <= 0:
        raise ModelError(f"Hessian form is not negative definite: eigenvalues {-lam}")
    # descending eigenvalues, each eigenvector with positive leading entry
    lam = lam[::-1]
    S = S[:, ::-1]
    for j in range(2):
        lead = S[np.nonzero(S[:, j])[0][0], j]
        if lead < 0:
            S[:, j] = -S[:, j]
    V = np.diag(lam ** -0.5) @ S.T
    w = math.sqrt(float(np.linalg.det(whess)))
    U = np.array([coeffs.d1 + coeffs.d2, -(coeffs.d2 + coeffs.d3)])
    return SpectralData(whess=whess, w=w, V=V, U=U)


def appendix_delta(params) -> float:
    """Discriminant whose negativity excludes nontrivial stationary points
    of the symmetrized symbol."""
    C, D = params.C, params.D
    eC, eD = math.exp(C), math.exp(D)
    num = (1 + eC) * (eC + eD) * (-3 * eC + eC ** 2 + eD + eC * eD)
    den = (1 - eC) ** 2 * (eC - eD) ** 2 * (1 - eD) ** 4
    return -num / den


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    worst: float
    tol: float


def validate_symbol_properties(params) -> tuple:
    """Numerical check of the structural properties of the drift symbol:
    zero mean, strict negativity of the symmetrization away from k = 0,
    negative definite Hessian with the stated determinant and speed ratio,
    the normalization of V, the stationary-point discriminant, exact
    proportionality of the Gibbs symbol to symbol_R/(2v), and the gradient
    of the speed in its slopes matching U.  Each check holds when its worst
    value is below its tolerance."""
    coeffs = drift_coeffs(params)
    v = params.v
    checks = []

    def add(name, worst, tol):
        checks.append(PropertyCheck(name, float(worst), tol))

    add("symbol_A_vanishes_at_zero", abs(symbol_A(np.zeros(2), coeffs)), 1e-14)

    grid = 512
    ax = -np.pi + 2 * np.pi * np.arange(grid) / grid
    kk = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    rvals = symbol_R(kk, coeffs)
    origin = (grid // 2, grid // 2)  # ax[grid//2] == 0
    rvals[origin] = -np.inf
    add("symmetrized_symbol_negative", float(rvals.max()), -1e-15)

    lam = np.linalg.eigvalsh(hessian_matrix(coeffs))
    add("hessian_negative_definite", float(lam.max()), -1e-12)

    det = float(np.linalg.det(hessian_matrix(coeffs)))
    wsq = det_hessian_closed_form(params)
    add("hessian_det_closed_form", abs(det - wsq) / wsq, 1e-12)

    spectral = spectral_data(coeffs)
    add("speed_ratio_sqrt_expD_minus_1",
        abs(params.v / spectral.w - math.sqrt(math.expm1(params.D)))
        / math.sqrt(math.expm1(params.D)), 1e-12)
    add("V_normalizes_hessian",
        float(np.abs(spectral.V @ spectral.whess @ spectral.V.T + np.eye(2)).max()), 1e-12)

    add("stationary_point_discriminant", appendix_delta(params), -1e-15)

    ks = np.random.default_rng(0).uniform(-np.pi, np.pi, size=(10000, 2))
    gibbs_gap = np.abs(symbol_Q(ks, params) - symbol_R(ks, coeffs) / (2 * v))
    add("gibbs_symbol_is_R_over_2v", float(gibbs_gap.max()), 1e-12)

    _, rel = grad_v_check(params)
    add("speed_gradient_matches_U", float(rel.max()), 1e-6)

    return tuple(checks)


def grad_v_check(params):
    """Central finite differences of the speed in its two slope arguments at
    (D, C), compared against the characteristic direction U.  Returns
    (U_fd, rel_err) with componentwise relative errors."""
    U = spectral_data(drift_coeffs(params)).U
    # the step stays inside 0 < g2 < g1
    g1, g2, step = params.D, params.C, min(1e-5, params.C / 2, params.B / 2)
    fd1 = (speed_from_slopes(g1 + step, g2) - speed_from_slopes(g1 - step, g2)) / (2 * step)
    fd2 = (speed_from_slopes(g1, g2 + step) - speed_from_slopes(g1, g2 - step)) / (2 * step)
    u_fd = np.array([fd1, fd2])
    rel = np.abs(u_fd - U) / np.abs(U)
    return u_fd, rel


def shift_field(xi, dp, m2):
    """Field of values xi[canonical(p + dp)], respecting the twisted vertical
    wrap of the quotient labels."""
    m = xi.shape[-1]
    i1, i2 = neighbor_index(m, m, m2, dp)
    return xi[..., i1, i2]


def _square_fields(xi):
    """xi as a float array of fields indexed [..., p1, p2] on an m x m quotient."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim < 2 or xi.shape[-2] != xi.shape[-1]:
        raise ParameterError(f"fields must be indexed [..., p1, p2] on an m x m quotient, "
                             f"got shape {xi.shape}")
    return xi


@dataclass
class SdeState:
    """Fluctuation field indexed [p1, p2] plus the current time."""

    xi: np.ndarray
    t: float


def step_count(T, dt, name="T"):
    """The number of steps of size dt in the time T, which must be finite and
    an integer multiple of dt within 1e-9 relative."""
    if not 0 < dt < math.inf:
        raise ParameterError(f"dt must be finite and positive, got {dt}")
    if not 0 <= T < math.inf:
        raise ParameterError(f"{name} must be finite and >= 0, got {T}")
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9 * T:
        raise ParameterError(f"{name} = {T} is not an integer multiple of dt = {dt}")
    return nsteps


def euler_maruyama(initial, params, dt, T, seed, m2, record_every=None, noise=True):
    """Explicit Euler-Maruyama trajectory of the linear SDE system.

    xi(t+dt) = xi(t) + A xi(t) dt + sqrt(v dt) * standard normals.  The step
    must satisfy dt * ||A||_inf < 0.1.  Deterministic for a given seed.
    T and record_every are integer multiples of dt (see step_count).
    Returns the list of recorded SdeStates (always including the final one),
    from the one-replica case of euler_maruyama_ensemble.
    """
    nsteps = step_count(T, dt)
    stride = step_count(record_every, dt, "record_every") if record_every else max(nsteps, 1)
    steps = sorted({*range(0, nsteps, stride), nsteps})
    snaps = euler_maruyama_ensemble(np.asarray(initial.xi, dtype=float)[None], params, m2,
                                    dt, nsteps, seed, steps, noise=noise)
    return [SdeState(xi=snaps[k][0], t=initial.t + k * dt) for k in steps]


# the least and the most bytes of a block of noise that euler_maruyama_ensemble
# draws ahead, unless one step alone is more
_NOISE_BLOCK_BYTES = (1 << 16, 1 << 20)


def _now(fn, *args):
    """fn(*args) run in this thread, as a finished Future."""
    done = Future()
    done.set_result(fn(*args))
    return done


def euler_maruyama_ensemble(xi0, params, m2, dt, nsteps, seed, snapshot_steps,
                            replicas=None, noise=True):
    """Vectorized ensemble integrator.

    xi0 is either an (m, m) field shared by `replicas` replicas or an
    (R, m, m) batch, with replicas None or R.  Returns {step: (R, m, m) array}
    for each requested snapshot step in [0, nsteps]; the arrays share no
    memory with xi0, which is not modified, or with each other.  Deterministic
    for given (seed, replicas).

    Each step runs in two buffers allocated once per call, in the operation
    order of xi += (diag*xi + d2*xi[br] - d1*xi[l] + d3*xi[b]) * dt followed
    by xi += sig * standard normals, so its outputs are bitwise those of that
    expression.  Called from the main thread, it draws the normals one block
    of steps ahead on a second thread, into two buffers that take turns,
    while the main thread runs the steps; called from any other thread, it
    draws each block itself before the block's steps.  A block is an eighth
    of the run, held between 64 KiB and 1 MiB, and at least one step.  The
    normals fill each block in the order of one standard_normal(out=) call
    per step, so the stream and every output bit are those of drawing them
    in the step.  The second thread ends before the call returns or raises,
    and an error in it is raised in the caller.
    """
    if not 0 < dt < math.inf:
        raise ParameterError(f"dt must be finite and positive, got {dt}")
    want = set(snapshot_steps)
    if (not want or not all(isinstance(k, (int, np.integer)) for k in want)
            or nsteps < 0 or min(want) < 0 or max(want) > nsteps):
        raise ParameterError(f"snapshot steps must be integers in [0, {nsteps}], "
                             f"got {snapshot_steps}")
    xi0 = _square_fields(xi0)
    if replicas is not None and not (isinstance(replicas, (int, np.integer)) and replicas >= 0):
        raise ParameterError(f"replicas must be an integer >= 0, got {replicas}")
    if xi0.ndim == 2:
        if replicas is None:
            raise ParameterError("replicas required with a shared initial field")
        xi = np.broadcast_to(xi0, (replicas, *xi0.shape)).copy()
    else:
        if replicas is not None and replicas != math.prod(xi0.shape[:-2]):
            raise ParameterError(f"replicas={replicas} does not match a batch of "
                                 f"{math.prod(xi0.shape[:-2])} fields")
        xi = xi0.copy()
    coeffs = drift_coeffs(params)
    if dt * coeffs.inf_norm >= 0.1:
        raise ParameterError(
            f"stability guard: dt*||A|| = {dt * coeffs.inf_norm:.3g} must stay below 0.1")
    # flat shift tables of the drift stencil A, built (and the quotient checked) before any step
    m = xi.shape[-1]
    br, left, below = ((i1 * m + i2).ravel() for i1, i2 in
                       (neighbor_index(m, m, m2, dp) for dp in ((1, -1), (-1, 0), (0, -1))))
    flat = xi.reshape(-1, m * m)
    acc, tmp = np.empty_like(flat), np.empty_like(flat)
    diag, d1, d2, d3 = coeffs.diag, coeffs.d1, coeffs.d2, coeffs.d3
    rng = np.random.default_rng(seed)
    sig = math.sqrt(params.v * dt)
    # the last snapshot is xi itself, which no step touches after it
    last = max(want)
    out = {0: xi.copy()} if 0 in want and last else {}
    least, most = (size // max(flat.nbytes, 1) for size in _NOISE_BLOCK_BYTES)
    k = max(1, min(most, max(least, last // 8), last))
    blocks = [np.empty((k, *flat.shape)) for _ in range(2)] if noise else None

    def draw(start):
        # the normals of steps start + 1 .. start + k
        return rng.standard_normal(out=blocks[start // k % 2][:last - start])

    # ndarray.take, not np.take, whose wrapper costs about 1 us a call; mode="clip",
    # because numpy buffers out= under mode="raise".  The flat tables are
    # permutations of range(m*m), so nothing is ever clipped.
    with ThreadPoolExecutor(max_workers=1) as pool:
        # another thread draws for itself: it runs in a pool such as
        # cli.thread_map's, which already keeps every CPU busy
        submit = pool.submit if threading.current_thread() is threading.main_thread() else _now
        pending = submit(draw, 0) if noise and last else None
        for start in range(0, last, k):
            if noise:
                block = pending.result()
                if start + k < last:
                    pending = submit(draw, start + k)
            for j, step in enumerate(range(start + 1, min(start + k, last) + 1)):
                np.multiply(flat, diag, out=acc)
                acc += np.multiply(flat.take(br, axis=1, out=tmp, mode="clip"), d2, out=tmp)
                acc -= np.multiply(flat.take(left, axis=1, out=tmp, mode="clip"), d1, out=tmp)
                acc += np.multiply(flat.take(below, axis=1, out=tmp, mode="clip"), d3, out=tmp)
                acc *= dt
                flat += acc
                if noise:
                    flat += np.multiply(block[j], sig, out=tmp)
                if step in want and step < last:
                    out[step] = xi.copy()
    out[last] = xi
    return out
