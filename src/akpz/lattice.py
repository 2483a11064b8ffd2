"""Torus geometry for the interlaced particle system.

Particles live on the L x N discrete torus with m1 particles per row.
Particle labels are classes of Z^2 under

    (p1, p2) ~ (p1 + j1*m1 - j2*m2, p2 + j2*N),

where m2 is the conserved winding sector of the up-right loop through the
configuration.  A configuration assigns each label a horizontal position
modulo L, subject to the interlacing constraints between adjacent rows.

Every particle routine reads label_table(torus), the labels and their six
neighbours as integer indices (canonicalize, the one wrap, on all labels at
once), label_positions(config), a configuration in label order, and
gap_columns(torus, pos), their six gaps (neighbor_distances: one label's).
The exact oracle's states are one read-only (S, n) pos: enumerate_configs(torus).
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ParameterError, StateSpaceError


def canonicalize(p, m, m2, n=None):
    """Canonical representative of label p: first coordinate in [0, m),
    second in [0, n).  n defaults to m (square quotient).  The coordinates of p
    may be ints or integer arrays of one shape, wrapped elementwise."""
    if n is None:
        n = m
    if m < 2 or not 0 < m2 < n:
        raise ParameterError(f"need m >= 2 and 0 < m2 < n, got m={m}, m2={m2}, n={n}")
    p1, p2 = p
    j = p2 // n
    return ((p1 + j * m2) % m, p2 - j * n)


Neighbors = namedtuple("Neighbors", "right left below_right below up_left up")

# Offsets of the six nearest neighbours that the gaps of a particle read.
STENCIL = Neighbors(right=(1, 0), left=(-1, 0), below_right=(1, -1), below=(0, -1),
                    up_left=(-1, 1), up=(0, 1))


def neighbor_index(m1, N, m2, dp):
    """Index arrays (I1, I2) of shape (m1, N) with (I1[p], I2[p]) the
    canonical label of p + dp, respecting the twisted vertical wrap."""
    p1, p2 = np.indices((m1, N))
    return canonicalize((p1 + dp[0], p2 + dp[1]), m1, m2, N)


@dataclass(frozen=True)
class TorusParams:
    """Dimensions of the discrete torus and the particle sector.

    L, N are the horizontal and vertical periods, m1 the number of particles
    per row and m2 the winding sector.  epsilon and ell are optional scaling
    parameters tying the torus to its continuum limit via L = ell/epsilon
    with N = m1.
    """

    L: int
    N: int
    m1: int
    m2: int
    epsilon: float = None
    ell: float = None

    def __post_init__(self):
        if not 1 < self.m1 < self.L:
            raise ParameterError(f"need 1 < m1 < L, got m1={self.m1}, L={self.L}")
        if not 1 <= self.m2 < self.N:
            raise ParameterError(f"need 1 <= m2 < N, got m2={self.m2}, N={self.N}")
        if self.epsilon is not None:
            if self.epsilon <= 0:
                raise ParameterError("epsilon must be positive")
            if self.N != self.m1:
                raise ParameterError("scaling regime requires N == m1")
            if self.ell is None or abs(self.L * self.epsilon - self.ell) > 1e-9:
                raise ParameterError("scaling regime requires L = ell/epsilon")

    @classmethod
    def from_scaling(cls, epsilon, ell, m, m2):
        L = ell / epsilon
        if abs(L - round(L)) > 1e-9:
            raise ParameterError(f"ell/epsilon = {L} is not an integer")
        return cls(L=int(round(L)), N=m, m1=m, m2=m2, epsilon=epsilon, ell=ell)

    @property
    def sector_feasible(self):
        """Whether m1/L + m2/N <= 1, in integers m1*N + m2*L <= L*N, i.e.
        the configuration space is nonempty.  At equality every state is
        frozen: each diagonal gap b is 0, so every clock rate is 0."""
        return self.m1 * self.N + self.m2 * self.L <= self.L * self.N

    def canonical(self, p):
        return canonicalize(p, self.m1, self.m2, self.N)

    def labels(self):
        return [(j, i) for i in range(self.N) for j in range(self.m1)]

    @property
    def ideal_spacing_row(self):
        """Ideal same-row spacing L/m1 (the average of D_p + 1)."""
        return self.L / self.m1

    @property
    def ideal_spacing_up(self):
        """Ideal up-shift L*m2/(m1*N) (the average of C_p)."""
        return self.L * self.m2 / (self.m1 * self.N)


@dataclass(frozen=True)
class ParticleConfig:
    """Horizontal positions of all particles, keyed by canonical label."""

    torus: TorusParams
    positions: dict

    def shifted(self, labels):
        """New configuration with the given labels moved right by one."""
        new = dict(self.positions)
        for p in map(self.torus.canonical, labels):
            new[p] = (new[p] + 1) % self.torus.L
        return ParticleConfig(self.torus, new)

    def occupancy(self):
        """Label-free content of the configuration: frozenset of (row, x)."""
        return frozenset((p[1], x) for p, x in self.positions.items())


LabelTable = namedtuple("LabelTable", "labels index neighbors")


@lru_cache(maxsize=64)
def label_table(torus):
    """The one integer view of the torus: its labels in order, each label's
    index (i*m1 + j for label (j, i)), and a Neighbors of read-only int index
    columns in label order (neighbors.up[k] is the index of the up neighbour of
    label k).  Scalar readers take .tolist() of the columns they walk."""
    def column(dp):
        i1, i2 = neighbor_index(torus.m1, torus.N, torus.m2, dp)
        col = (i2 * torus.m1 + i1).T.ravel()
        col.flags.writeable = False
        return col
    labels = tuple(torus.labels())
    return LabelTable(labels, {p: k for k, p in enumerate(labels)},
                      Neighbors(*map(column, STENCIL)))


Gaps = namedtuple("Gaps", "a b c d e f")


def _gaps(L, x, right, left, below_right, below, up_left, up):
    """The six gaps of positions x given the positions of their six
    neighbours, for ints or integer arrays alike (interlacing unchecked)."""
    return Gaps(a=(right - x - 1) % L, b=(below_right - x - 1) % L, c=(x - below) % L,
                d=(x - left - 1) % L, e=(x - up_left - 1) % L, f=(up - x) % L)


def gap_columns(torus, pos):
    """The six gap counts of every label, as arrays of pos's shape, for integer
    positions pos[..., n] in label order (interlacing unchecked).  a, d count
    empty sites to the right/left neighbor on the same row, b, c locate the two
    interlacing partners in the row below, and e, f the two in the row above."""
    pos = np.asarray(pos)
    return _gaps(torus.L, pos, *(pos[..., col] for col in label_table(torus).neighbors))


def check_interlacing(labels, g):
    """Raise ConfigError naming the first of labels, in order, whose gaps in
    the columns of g break interlacing: b or f above a, or c or e above d."""
    bad = np.flatnonzero((g.b > g.a) | (g.f > g.a) | (g.c > g.d) | (g.e > g.d))
    if bad.size:
        raise ConfigError(f"interlacing violated at label {labels[bad[0]]}")


def label_positions(config):
    """The positions of config as a list in label order."""
    return [config.positions[p] for p in label_table(config.torus).labels]


def neighbor_distances(config, p):
    """The six gap counts of particle p, as ints: the one-label view of
    gap_columns.  Raises ConfigError when p breaks interlacing."""
    torus, x = config.torus, config.positions
    p = torus.canonical(p)
    labels, index, nb = label_table(torus)
    k = index[p]
    g = _gaps(torus.L, x[p], *(x[labels[col[k]]] for col in nb))
    check_interlacing((p,), g)
    return g


@dataclass
class ValidationReport:
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate(config):
    """Structured validity check: row counts, interlacing windows, sector."""
    torus = config.torus
    expected = set(torus.labels())
    got = set(config.positions)
    if got != expected:
        missing = sorted(expected - got)[:1]
        extra = sorted(got - expected)[:1]
        return ValidationReport(False, [f"label set mismatch (missing {missing}, extra {extra})"])
    for x in config.positions.values():
        if not isinstance(x, (int, np.integer)) or not 0 <= x < torus.L:
            return ValidationReport(False, [f"position {x} outside [0, {torus.L})"])
    pos = label_positions(config)
    for i in range(torus.N):
        if len(set(pos[i * torus.m1:(i + 1) * torus.m1])) != torus.m1:
            return ValidationReport(False, [f"row {i} has colliding particles"])
    try:
        check_interlacing(label_table(torus).labels, gap_columns(torus, pos))
    except ConfigError as err:
        return ValidationReport(False, [str(err)])
    sec = int(_up_winding(torus, pos))
    if sec != torus.m2:
        return ValidationReport(False, [f"sector {sec} != m2 {torus.m2}"])
    return ValidationReport(True)


def sector(config, start_label=(0, 0)):
    """Winding-number invariant m1*N_h/N_v of the up-right loop.

    Follows the up neighbours of start_label until the label returns,
    summing the horizontal steps; independent of the starting particle.
    """
    torus = config.torus
    start = label_table(torus).index[torus.canonical(start_label)]
    return int(_up_winding(torus, label_positions(config), start))


@lru_cache(maxsize=64)
def _up_loop(torus, start):
    """The indices of the up loop from index start, and of their up neighbours:
    the two rows of one read-only array."""
    up, loop = label_table(torus).neighbors.up.tolist(), [start]
    while up[loop[-1]] != start:
        loop.append(up[loop[-1]])
    loops = np.array([loop, loop[1:] + loop[:1]])
    loops.flags.writeable = False
    return loops


def _up_winding(torus, pos, start=0):
    """sector for positions pos[..., n] in label order, from the label at index
    start: an int array of pos's leading shape."""
    loop, ups = _up_loop(torus, start)
    pos = np.asarray(pos)
    disp = ((pos[..., ups] - pos[..., loop]) % torus.L).sum(axis=-1)
    # the label loop has N_v = m1/gcd(m1, m2) windings, a divisor of m1
    return torus.m1 * (disp // torus.L) // (len(loop) // torus.N)


def crystalline(torus):
    """Equi-spaced configuration with constant gaps; requires the ideal
    spacings L/m1 and L*m2/(m1*N) to be integers."""
    if not torus.sector_feasible:
        raise ParameterError("m1/L + m2/N > 1: empty configuration space "
                             "(at equality the states exist and are frozen)")
    dd = torus.ideal_spacing_row
    dc = torus.ideal_spacing_up
    if abs(dd - round(dd)) > 1e-9 or abs(dc - round(dc)) > 1e-9:
        raise ParameterError(
            f"ideal spacings ({dd}, {dc}) must be integers; adjust the parameter grid"
        )
    dd, dc = int(round(dd)), int(round(dc))
    return ParticleConfig(torus, {p: (p[0] * dd + p[1] * dc) % torus.L for p in torus.labels()})


def enumerate_configs(torus):
    """Every configuration of the sector, canonically labelled: a read-only
    (states, n) int array of positions in label order, (0, n) if empty.

    Guarded to small tori.  Row 0 is a set of m1 sites with label (0, 0)
    leftmost; each further label, in label order, takes every site of the
    window [x_below, x_below_right - 1] of the particle below it.  A state is
    kept when row 0 lies in the windows of the top row as well and its sector
    is m2.  States come in lexicographic order of their sorted rows, ties in
    the order of that expansion.
    """
    if torus.L * torus.N > 24:
        raise StateSpaceError(f"torus with {torus.L * torus.N} sites is too large to enumerate")
    L, m1, n = torus.L, torus.m1, torus.N * torus.m1
    nb = label_table(torus).neighbors

    def window(pos, k):
        """First site and size of the window that interlacing leaves to index
        (or slice of indices) k."""
        lo = pos[:, nb.below[k]]
        return lo, (pos[:, nb.below_right[k]] - lo) % L

    row0 = itertools.combinations(range(L), m1) if torus.sector_feasible else ()
    row0 = np.array(list(row0), dtype=int).reshape(-1, m1)
    pos = np.zeros((len(row0), n), dtype=row0.dtype)
    pos[:, :m1] = row0
    for k in range(m1, n):
        lo, size = window(pos, k)
        pos = np.repeat(pos, size, axis=0)
        # offset 0, 1, ..., size - 1 within each repeated block
        offset = np.arange(len(pos)) - np.repeat(np.cumsum(size) - size, size)
        pos[:, k] = (np.repeat(lo, size) + offset) % L
    lo, size = window(pos, slice(m1))
    wraps = ((pos[:, :m1] - lo) % L < size).all(axis=1)
    pos = pos[wraps & (_up_winding(torus, pos) == torus.m2)]
    rows = np.sort(pos.reshape(len(pos), torus.N, m1), axis=-1).reshape(len(pos), n)
    pos = pos[np.lexsort(rows.T[::-1])]
    pos.flags.writeable = False
    return pos


@dataclass(frozen=True)
class FourierModeSet:
    """The m^2 momenta diagonalizing translation on the quotient label set.

    Mode (r1, r2), with integer r1, r2 in [-m/2, m/2), has k = (K1, twist + K2):
    K1 = 2 pi r1/m and twist = 2 pi m2 r1/m^2 are (m, 1) columns over r1, and
    K2 = 2 pi r2/m is a (1, m) row over r2, so the twisted set separates by
    rows.  The functions f_k(p) = exp(-i p.k)/m form an orthonormal basis of
    fields on the labels.
    """

    m: int
    m2: int
    K1: np.ndarray  # (m, 1)
    twist: np.ndarray  # (m, 1)
    K2: np.ndarray  # (1, m)

    @property
    def k(self):
        """The momenta as a new (m*m, 2) array, flattened with r1 slowest."""
        m = self.m
        return np.column_stack([np.broadcast_to(self.K1, (m, m)).ravel(),
                                (self.twist + self.K2).ravel()])

    @property
    def zero_index(self):
        """Index of k = 0 in k: r1 = r2 = 0 sits at row m//2, column m//2."""
        return (self.m // 2) * (self.m + 1)

    def basis_matrix(self):
        """Matrix F[mode, site] = f_k(p) over canonical labels p in [0,m)^2,
        flattened with p2 fastest: the dense definition of field_transform."""
        m = self.m
        p1, p2 = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        phase = np.einsum("ki,i...->k...", self.k, np.array([p1, p2]))
        return np.exp(-1j * phase).reshape(m * m, m * m) / m

    def field_transform(self, xi):
        """hat(xi)_k = sum_p xi_p f_k(p) for fields xi indexed [..., p1, p2]:
        FFT along p1, the twist exp(-i twist p2), FFT along p2, with r1 signed
        in [-m/2, m/2) because the twist is not periodic in r1."""
        m = self.m
        xi = np.asarray(xi)
        a = np.fft.fftshift(np.fft.fft(xi, axis=-2), axes=-2)
        a = a * np.exp(-1j * (self.twist * np.arange(m)))
        a = np.fft.fftshift(np.fft.fft(a, axis=-1), axes=-1)
        return a.reshape(*xi.shape[:-2], m * m) / m


def fourier_modes(m, m2):
    if m < 2 or not 0 < m2 < m:
        raise ParameterError(f"need m >= 2 and 0 < m2 < m, got m={m}, m2={m2}")
    r = np.arange(-(m // 2), m - m // 2)
    r1 = r[:, None]
    return FourierModeSet(m=m, m2=m2, K1=2 * np.pi * r1 / m, twist=2 * np.pi * m2 * r1 / m ** 2,
                          K2=2 * np.pi * r[None, :] / m)


def config_to_text(config):
    """Plain-text serialization: header 'L N m1 m2', then 'p1 p2 x' lines."""
    torus = config.torus
    lines = [f"{torus.L} {torus.N} {torus.m1} {torus.m2}"]
    for p in sorted(config.positions):
        lines.append(f"{p[0]} {p[1]} {config.positions[p]}")
    return "\n".join(lines) + "\n"


def config_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty configuration text")
    try:
        L, N, m1, m2 = map(int, lines[0].split())
    except ValueError as err:
        raise ParameterError(f"bad header line: {lines[0]!r}") from err
    torus = TorusParams(L=L, N=N, m1=m1, m2=m2)
    positions = {}
    for ln in lines[1:]:
        try:
            p1, p2, x = map(int, ln.split())
        except ValueError as err:
            raise ParameterError(f"bad particle line: {ln!r}") from err
        if (p1, p2) in positions:
            raise ConfigError(f"repeated label ({p1}, {p2}) in particle line {ln!r}")
        positions[(p1, p2)] = x
    return ParticleConfig(torus, positions)
