"""Exact continuous-time dynamics of the interlaced particle system.

Each particle p carries an exponential clock of rate
(1 - q^B_p)(1 - q^(D_p+1)) / (1 - q^(C_p+1)); when it rings, p and the
particles stacked above it through zero up-gaps all shift right by one.
The Gibbs product weight built from q-Pochhammer symbols of the gap counts
is stationary; a brute-force generator over enumerated configurations makes
that checkable to rounding error on small tori.  Rates, push walks and
weights read the index columns of lattice.label_table and its gap formulas.
Rates and push walks come in twins that agree bit for bit: scalar ones
(_rate_kernel, _push_walk) that simulate calls once per event, and ones on
gaps or arrays (_rates, _masked_push_walk), from which jump_rate and the
generator are built.  simulate (Gillespie's direct method) finds each
trigger in the running sums of the rates in label order, a prefix of which
it keeps across events and rebuilds from the lowest label an event touched,
so each sum has the bits of a scan from label 0.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, ParameterError
from .lattice import (ParticleConfig, TorusParams, check_interlacing, enumerate_configs,
                      fourier_modes, gap_columns, label_positions, label_table,
                      neighbor_distances, validate)
from .sde import _f, _square_fields, shift_field, symbol_Q


def _check_q(q):
    if not 0 <= q < 1:
        raise DomainError(f"q must lie in [0, 1), got {q}")


def log_q_pochhammer(q: float, n: int) -> float:
    """log of (1-q)(1-q^2)...(1-q^n); 0 for n = 0.  Stable for n up to 1e6."""
    _check_q(q)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0 or q == 0.0:
        return 0.0
    # factors beyond q^i < 1e-30 contribute less than ~1e-30/(1-q)
    i_max = min(n, int(math.ceil(-69.1 / math.log(q))))
    i = np.arange(1, i_max + 1, dtype=float)
    return float(np.sum(np.log1p(-np.exp(i * math.log(q)))))


@lru_cache(maxsize=64)
def _q_powers(q, L):
    """q^0, ..., q^L, read-only: the one table of q-powers that every rate reads."""
    _check_q(q)
    qp = np.array([q ** k for k in range(L + 1)], dtype=float)
    qp.flags.writeable = False
    return qp


@lru_cache(maxsize=64)
def _rate_kernel(torus, q):
    """The one clock rate: rate(pos, i) of the label at index i for positions
    pos in label order, with the gaps b, c, d of lattice.gap_columns read from
    the same index columns (unchecked), as scalars: it runs once per event,
    where a NumPy call costs more.  _rates is its array twin."""
    L = torus.L
    qpow = _q_powers(q, L).tolist()
    nb = label_table(torus).neighbors
    reads = list(zip(nb.below_right.tolist(), nb.below.tolist(), nb.left.tolist()))

    def rate(pos, i):
        below_right, below, left = reads[i]
        x = pos[i]
        return ((1 - qpow[(pos[below_right] - x - 1) % L])
                * (1 - qpow[(x - pos[left] - 1) % L + 1])
                / (1 - qpow[(x - pos[below]) % L + 1]))
    return rate


def _rates(q, L, g):
    """The rates for gaps g, period L: one per label from the arrays of gap_columns,
    one from the ints of neighbor_distances; _rate_kernel's formula, bit for bit."""
    qp = _q_powers(q, L)
    return (1 - qp[g.b]) * (1 - qp[g.d + 1]) / (1 - qp[g.c + 1])


def jump_rate(config, p, q: float) -> float:
    """Clock rate of particle p; zero exactly when the diagonal gap b is zero."""
    return float(_rates(q, config.torus.L, neighbor_distances(config, p)))


def push_set(config, p):
    """Labels moved together with p: follow up-edges while the up-gap f is
    zero, stopping at the first positive gap or on loop closure."""
    labels, index, nb = label_table(config.torus)
    start = index[config.torus.canonical(p)]
    return frozenset(labels[i] for i in _push_walk(label_positions(config), nb.up.tolist(), start))


def _push_walk(pos, up, i):
    """Indices moved together with index i, in walk order, for positions pos
    and up-neighbour indices up in label order (f = 0: pos[up[j]] == pos[j])."""
    moved, x, cur = [i], pos[i], up[i]
    while pos[cur] == x and cur != i:
        moved.append(cur)
        cur = up[cur]
    return moved


def _masked_push_walk(pos, up, flip):
    """_push_walk from every label of every row of pos[..., n] at once, for
    the up column as an int array: the XOR of flip[..., j] over the indices j
    that each label's jump moves.  Walks stop one by one; the loop runs as
    long as the longest push."""
    start = np.arange(pos.shape[-1])
    cur = np.broadcast_to(up, pos.shape)
    out = flip.copy()
    live = (np.take_along_axis(pos, cur, axis=-1) == pos) & (cur != start)
    while live.any():
        out[live] ^= np.take_along_axis(flip, cur, axis=-1)[live]
        cur = np.where(live, up[cur], cur)
        live &= (np.take_along_axis(pos, cur, axis=-1) == pos) & (cur != start)
    return out


def apply_jump(config, p) -> ParticleConfig:
    """Shift the push set of p right by one; requires a positive rate."""
    if neighbor_distances(config, p).b == 0:
        raise ConfigError(f"zero-rate jump requested at {config.torus.canonical(p)}")
    return config.shifted(push_set(config, p))


class JumpRecord(NamedTuple):
    time: float
    trigger: tuple
    pushed: tuple


@dataclass
class Trajectory:
    events: list = field(default_factory=list)
    samples: list = field(default_factory=list)      # (time, positions dict)
    displacement: dict = field(default_factory=dict)  # label -> total jumps
    final: ParticleConfig = None


def _observation_times(T, every):
    """0, every, 2*every, ... (by repeated addition) up to T, then T itself
    unless the last of them lies within 1e-12 of it; every = 0 gives 0 and T."""
    t = 0.0
    yield t
    while every and t + every <= T + 1e-12:
        t += every
        yield t
    if t < T - 1e-12:
        yield T


def simulate(config, q, T, seed=0, observe_every=None) -> Trajectory:
    """Event-driven simulation: exponential waiting times with the total
    rate, trigger chosen proportionally to individual rates, cascades applied
    atomically.  Deterministic for a given seed.

    The trigger is the first label whose running sum of rates, in label
    order, exceeds a uniform draw times the total.  The sums are kept across
    events as a prefix, searched by bisection and extended a label at a
    time; an event cuts the prefix at the lowest label whose rate it
    recomputes, and each sum is the previous sum plus one rate, so the trigger
    is the one a scan from label 0 finds, bit for bit.

    observe_every records position snapshots on a regular time grid that
    always holds t = 0 and t = T (only these two when observe_every = 0).
    It raises ConfigError on a start that lattice.validate rejects, and when its
    rate table differs from a recomputation or a kept sum is not the
    label-order chain acc[k] = acc[k - 1] + rates[k], checked each 1024 events
    and at the end.
    """
    report = validate(config)
    if not report.ok:
        raise ConfigError(f"start configuration invalid: {report.failures}")
    _check_q(q)
    if not 0 <= T < math.inf:
        raise ParameterError(f"T must be finite and >= 0, got {T}")
    if observe_every is not None and not 0 <= observe_every < math.inf:
        raise ParameterError(f"observe_every must be finite and >= 0, got {observe_every}")
    torus = config.torus
    L = torus.L
    labels, index, nb = label_table(torus)
    # positions, rates and displacements are lists in label order; snapshots
    # and the final state are dicts with the key order of config.positions
    keys = list(config.positions)
    key_index = [index[p] for p in keys]
    pos = label_positions(config)
    up, up_left, right = nb.up.tolist(), nb.up_left.tolist(), nb.right.tolist()
    rate = _rate_kernel(torus, q)
    n = len(labels)
    rates = [rate(pos, i) for i in range(n)]
    displacement = [0] * n
    total = sum(rates)
    # acc[:valid] are the running sums of rates in label order, each built as
    # acc[k - 1] + rates[k] (the chain of a scan from label 0); an event
    # leaves valid no higher than its lowest touched index
    acc, valid = [0.0] * n, 0
    rng = np.random.default_rng(seed)
    random_raw = rng.bit_generator.random_raw
    traj = Trajectory()
    events, samples = traj.events, traj.samples

    def snapshot():
        return dict(zip(keys, [pos[i] for i in key_index]))

    def check_rates():
        # the same kernel on the same positions: a complete touched set keeps every bit
        for i, r in enumerate(rates):
            if r != rate(pos, i):
                raise ConfigError(f"stale rate of label {labels[i]}, t={t}: {r} != {rate(pos, i)}")
        # the kept sums are the chain a scan from label 0 builds
        for k in range(valid):
            if acc[k] != (acc[k - 1] + rates[k] if k else rates[0]):
                raise ConfigError(f"running sum of label {labels[k]}, t={t}: {acc[k]} is not "
                                  f"the label-order sum")

    # (trigger index, push length) -> (trigger label, pushed labels, touched
    # indices, lowest touched index).  The touched particles are those whose
    # rate reads a moved one r: r and its up-left, up and right neighbours.
    # They are updated in the iteration order of the set of their labels built
    # below, since the update order fixes the rounding of the running total.
    plans = {}

    def push_plan(trigger, moved):
        members = frozenset(labels[r] for r in moved)
        touched = [index[s] for s in {labels[s] for r in map(index.get, members)
                                      for s in (r, up_left[r], up[r], right[r])}]
        plan = plans[trigger, len(moved)] = (labels[trigger], tuple(sorted(members)),
                                             touched, min(touched))
        return plan

    grid = _observation_times(T, observe_every) if observe_every is not None else iter(())
    next_obs = next(grid, None)
    t = 0.0
    events_since_resync = 0
    while True:
        wait = rng.exponential(1.0 / total) if total > 0 else math.inf
        t_next = t + wait
        while next_obs is not None and next_obs <= min(t_next, T) + 1e-12:
            samples.append((next_obs, snapshot()))
            next_obs = next(grid, None)
        if t_next > T:
            break
        t = t_next

        # the first label whose cumulative rate, summed in label order, exceeds
        # u; rng.random() * total, bit for bit, from PCG64's raw word
        u = (random_raw() >> 11) * 2**-53 * total
        if not valid:
            acc[0], valid = rates[0], 1
        if u < acc[valid - 1]:
            trigger = bisect_right(acc, u, 0, valid)
        else:
            for trigger in range(valid, n):
                acc[trigger] = acc[trigger - 1] + rates[trigger]
                if u < acc[trigger]:
                    valid = trigger + 1
                    break
            else:  # rounding at the top of the cumulative sum
                trigger, valid = rates.index(max(rates)), n

        moved = _push_walk(pos, up, trigger)
        label, pushed, touched, low = (plans.get((trigger, len(moved)))
                                       or push_plan(trigger, moved))
        for i in moved:
            pos[i] = (pos[i] + 1) % L
            displacement[i] += 1
        events.append(tuple.__new__(JumpRecord, (t, label, pushed)))

        for i in touched:
            old = rates[i]
            rates[i] = rate(pos, i)
            total += rates[i] - old
        if low < valid:
            valid = low
        events_since_resync += 1
        if events_since_resync >= 1024:
            check_rates()
            total = sum(rates)
            events_since_resync = 0

    check_rates()
    traj.displacement = dict(zip(labels, displacement))
    traj.final = ParticleConfig(torus, snapshot())
    return traj


# log_q_pochhammer(q, n) computed once per (q, n) for the Gibbs weight
_log_qpoch = lru_cache(maxsize=4096)(log_q_pochhammer)


def _log_weights(g, q):
    """Unnormalized log Gibbs weights of the states whose gap columns (from
    lattice.gap_columns) are g.  One label column at a time, in label order,
    tot += (lq[a] - lq[b]) - lq[c]: the operation order of a per-state loop
    over the labels."""
    _check_q(q)
    # log (q;q)_n only for the gap counts that occur: L can be large
    seen = np.unique(g[:3])
    lq = np.zeros(seen[-1] + 1)
    lq[seen] = [_log_qpoch(q, int(n)) for n in seen]
    return sum(np.moveaxis((lq[g.a] - lq[g.b]) - lq[g.c], -1, 0))


def log_stationary_weight(config, q: float) -> float:
    """Unnormalized log Gibbs weight: sum over particles of
    log(q;q)_a - log(q;q)_b - log(q;q)_c."""
    g = gap_columns(config.torus, label_positions(config))
    check_interlacing(label_table(config.torus).labels, g)
    return float(_log_weights(g, q))


@dataclass(frozen=True)
class GeneratorMatrix:
    torus: TorusParams
    matrix: np.ndarray
    positions: np.ndarray  # (states, labels), read-only: the states in label order

    @property
    def n(self):
        return len(self.positions)


def build_generator(torus, q) -> GeneratorMatrix:
    """Dense generator over all enumerated configurations of the sector.

    A state is found by its label-free occupancy bitmask, bit row*L + x per
    particle; a jump flips the two bits of each moved particle.  Rates,
    targets and entries come as (state, label) arrays, added in that order."""
    _check_q(q)
    pos = enumerate_configs(torus)
    if len(pos) == 0:
        raise ParameterError("empty configuration space")
    L = torus.L
    labels, _, nb = label_table(torus)
    row = L * np.array([p[1] for p in labels])  # the bit of (row, x = 0) for each label
    bit = 1 << (row + pos)
    keys = np.bitwise_or.reduce(bit, axis=1)
    flip = bit | (1 << (row + (pos + 1) % L))
    order = np.argsort(keys)
    # the target state: the moved particles one site further right
    targets = keys[:, None] ^ _masked_push_walk(pos, nb.up, flip)
    rates = _rates(q, L, gap_columns(torus, pos))
    i, k = np.nonzero(rates > 0)
    n = len(pos)
    Q = np.zeros((n, n))
    np.add.at(Q, (i, order[np.searchsorted(keys[order], targets[i, k])]), rates[i, k])
    diag = np.zeros(n)
    for col in rates.T:  # in label order, the rounding of a per-state loop
        diag -= col
    Q[np.diag_indices(n)] = diag
    return GeneratorMatrix(torus=torus, matrix=Q, positions=pos)


def stationary_distribution(generator, q):
    """Normalized Gibbs weights over the generator's states."""
    logs = _log_weights(gap_columns(generator.torus, generator.positions), q)
    w = np.exp(logs - logs.max())
    return w / w.sum()


def check_stationarity(torus, q) -> float:
    """Max-norm residual of pi^T Q with pi the Gibbs weights; rounding-level
    for the true stationary measure."""
    gen = build_generator(torus, q)
    pi = stationary_distribution(gen, q)
    return float(np.abs(pi @ gen.matrix).max())


def gaussian_log_weight(etas, params, m2, mode="direct") -> float:
    """Quadratic log-weight of a fluctuation field around the crystalline
    state, normalized so that differences match log Gibbs-weight differences
    as the lattice spacing refines.

    etas is indexed [..., p1, p2] on an m x m quotient, m read from its
    shape.  mode='direct' evaluates the three gradient-squared sums;
    mode='fourier' evaluates sum_k |hat(eta)_k|^2 Q(k), to rounding the same.
    """
    etas = _square_fields(etas)
    m = etas.shape[-1]
    if mode == "direct":
        gd = etas - shift_field(etas, (1, 0), m2)
        gb = etas - shift_field(etas, (1, -1), m2)
        gc = etas - shift_field(etas, (0, -1), m2)
        return 0.5 * (_f(params.D) * float(np.sum(gd ** 2))
                      - _f(params.B) * float(np.sum(gb ** 2))
                      - _f(params.C) * float(np.sum(gc ** 2)))
    if mode == "fourier":
        modes = fourier_modes(m, m2)
        eta_hat = modes.field_transform(etas)
        qvals = symbol_Q(modes.k, params)
        return float(np.sum(np.abs(eta_hat) ** 2 * qvals))
    raise ParameterError(f"unknown mode {mode!r}")
