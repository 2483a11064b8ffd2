import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from akpz import ctmc
from akpz.ctmc import (DomainError, apply_jump, build_generator, check_stationarity,
                       gaussian_log_weight, jump_rate, log_q_pochhammer,
                       log_stationary_weight, push_set, simulate,
                       stationary_distribution)
from akpz.lattice import (STENCIL, ConfigError, ParameterError, ParticleConfig, TorusParams,
                          crystalline, enumerate_configs, gap_columns, label_positions,
                          label_table, neighbor_distances, sector, validate)
from akpz.sde import ModelParams

TORUS = TorusParams(L=4, N=3, m1=2, m2=1)


def configs(torus=TORUS, pos=None):
    """The states of pos (label-order rows; every enumerated state of torus by
    default) as ParticleConfig objects."""
    pos = enumerate_configs(torus) if pos is None else pos
    return [ParticleConfig(torus, dict(zip(torus.labels(), xs))) for xs in pos.tolist()]


# ---------------------------------------------------------------------------
# rates

def test_rate_zero_iff_diagonal_gap_zero():
    for cfg in configs():
        for p in TORUS.labels():
            g = neighbor_distances(cfg, p)
            r = jump_rate(cfg, p, 0.6)
            assert r >= 0
            assert (r == 0) == (g.b == 0)


def test_rate_is_one_at_q_zero():
    for cfg in configs()[:5]:
        for p in TORUS.labels():
            g = neighbor_distances(cfg, p)
            assert jump_rate(cfg, p, 0.0) == (1.0 if g.b >= 1 else 0.0)


def test_rate_recovers_limit_speed_as_eps_shrinks():
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        torus = TorusParams.from_scaling(epsilon=eps, ell=2.0, m=2, m2=1)
        params = ModelParams.from_torus(torus)
        cfg = crystalline(torus)
        r = jump_rate(cfg, (0, 0), math.exp(-eps))
        errs.append(abs(r - params.v))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-3


# ---------------------------------------------------------------------------
# cascades

def test_push_set_trivial_on_crystalline():
    torus = TorusParams.from_scaling(epsilon=1.0, ell=8.0, m=2, m2=1)
    cfg = crystalline(torus)
    for p in torus.labels():
        assert push_set(cfg, p) == {p}


def _configs_with_chain(torus, length):
    """Configs and triggers whose push cascade has the given length."""
    out = []
    for cfg in configs(torus):
        for p in torus.labels():
            if len(push_set(cfg, p)) == length and neighbor_distances(cfg, p).b >= 1:
                out.append((cfg, p))
    return out


def test_push_set_two_particle_stack_and_valid_jump():
    hits = _configs_with_chain(TORUS, 2)
    assert hits
    cfg, p = hits[0]
    chain = push_set(cfg, p)
    up = cfg.torus.canonical((p[0], p[1] + 1))
    assert chain == {p, up}
    assert neighbor_distances(cfg, p).f == 0
    assert validate(apply_jump(cfg, p)).ok


def test_push_set_longer_stacks_jump_validly():
    torus = TorusParams(L=4, N=4, m1=2, m2=1)
    hits = _configs_with_chain(torus, 3)
    assert hits
    for cfg, p in hits[:8]:
        out = apply_jump(cfg, p)
        assert validate(out).ok
        assert sector(out) == torus.m2


def test_push_set_bounded_by_loop_length():
    # a cascade can never outrun the up-right loop; a full wrap would force
    # zero horizontal winding, which the sector constraint m2 >= 1 excludes
    for torus in (TORUS, TorusParams(L=4, N=4, m1=2, m2=1)):
        # length of the up-right loop = N_v * N: the up chain of (0, 0)
        up = label_table(torus).neighbors.up
        loop_steps, k = 1, up[0]
        while k != 0:
            loop_steps, k = loop_steps + 1, up[k]
        for cfg in configs(torus)[::7]:
            for p in torus.labels():
                assert len(push_set(cfg, p)) < loop_steps + 1


def test_apply_jump_moves_only_trigger_on_crystalline():
    torus = TorusParams.from_scaling(epsilon=1.0, ell=8.0, m=2, m2=1)
    cfg = crystalline(torus)
    out = apply_jump(cfg, (0, 0))
    assert out.positions[(0, 0)] == (cfg.positions[(0, 0)] + 1) % torus.L
    for p in torus.labels():
        if p != (0, 0):
            assert out.positions[p] == cfg.positions[p]


def test_apply_jump_closes_diagonal_gap():
    for cfg in configs():
        for p in TORUS.labels():
            if neighbor_distances(cfg, p).b == 1 and len(push_set(cfg, p)) == 1:
                out = apply_jump(cfg, p)
                assert neighbor_distances(out, p).b == 0
                return
    pytest.fail("no single-push config with b == 1 found")


def test_apply_jump_rejects_zero_rate():
    for cfg in configs():
        for p in TORUS.labels():
            if neighbor_distances(cfg, p).b == 0:
                with pytest.raises(ConfigError):
                    apply_jump(cfg, p)
                return


def test_jumps_preserve_validity_and_sector():
    rng = np.random.default_rng(0)
    all_cfgs = configs()
    for _ in range(1000):
        cfg = all_cfgs[rng.integers(len(all_cfgs))]
        movable = [p for p in TORUS.labels() if neighbor_distances(cfg, p).b >= 1]
        p = movable[rng.integers(len(movable))]
        out = apply_jump(cfg, p)
        assert validate(out).ok
        assert sector(out) == TORUS.m2


# ---------------------------------------------------------------------------
# q-Pochhammer and the Gibbs weight

def test_log_q_pochhammer_empty_product():
    assert log_q_pochhammer(0.5, 0) == 0.0


def test_log_q_pochhammer_q_zero():
    assert log_q_pochhammer(0.0, 17) == 0.0


def test_log_q_pochhammer_direct_product():
    assert log_q_pochhammer(0.5, 3) == pytest.approx(math.log(0.328125), rel=1e-14)


def test_log_q_pochhammer_large_n_stable():
    val = log_q_pochhammer(0.999, 10 ** 6)
    assert math.isfinite(val) and val < 0


def test_log_q_pochhammer_domain():
    with pytest.raises(DomainError):
        log_q_pochhammer(1.0, 3)
    with pytest.raises(DomainError):
        log_q_pochhammer(0.5, -1)


def test_weight_uniform_at_q_zero():
    for cfg in configs()[:8]:
        assert log_stationary_weight(cfg, 0.0) == 0.0


def test_weight_invariant_under_global_shift():
    cfg = configs()[0]
    shifted = cfg.shifted(TORUS.labels())
    w0 = log_stationary_weight(cfg, 0.5)
    w1 = log_stationary_weight(shifted, 0.5)
    assert w0 == pytest.approx(w1, abs=1e-12)


def test_weight_ratio_matches_hand_product():
    q = 0.5

    def qpoch(n):
        out = 1.0
        for i in range(1, n + 1):
            out *= 1 - q ** i
        return out

    def weight(cfg):
        total = 1.0
        for p in TORUS.labels():
            g = neighbor_distances(cfg, p)
            total *= qpoch(g.a) / (qpoch(g.b) * qpoch(g.c))
        return total

    c0, c1 = configs()[0], configs()[7]
    ratio = weight(c0) / weight(c1)
    log_ratio = log_stationary_weight(c0, q) - log_stationary_weight(c1, q)
    assert log_ratio == pytest.approx(math.log(ratio), rel=1e-12)


# ---------------------------------------------------------------------------
# generator and stationarity

def test_generator_row_sums_and_signs():
    gen = build_generator(TORUS, 0.5)
    assert np.abs(gen.matrix.sum(axis=1)).max() < 1e-12
    off = gen.matrix - np.diag(np.diag(gen.matrix))
    assert off.min() >= 0


def test_generator_q_zero_unit_rates():
    gen = build_generator(TORUS, 0.0)
    off = gen.matrix[~np.eye(gen.n, dtype=bool)]
    nz = off[off != 0]
    assert np.all(nz == 1.0)


def test_generator_irreducible():
    gen = build_generator(TORUS, 0.5)
    adj = gen.matrix > 0

    def reach(mat):
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(mat[i])[0]:
                if j not in seen:
                    seen.add(int(j))
                    frontier.append(int(j))
        return seen

    assert reach(adj) == set(range(gen.n))
    assert reach(adj.T) == set(range(gen.n))


@pytest.mark.parametrize("torus", [TORUS, TorusParams(L=4, N=4, m1=2, m2=1),
                                   TorusParams(L=6, N=4, m1=3, m2=1)], ids=["4x3", "4x4", "6x4"])
def test_generator_matches_jump_rate_and_apply_jump(torus):
    # a second route to every entry: each off-diagonal entry is the label-order
    # sum of jump_rate over the labels whose apply_jump lands on that state,
    # matched by occupancy(); the diagonal is minus the row's sum
    q = 0.6
    gen = build_generator(torus, q)
    states = configs(torus, gen.positions)
    index = {cfg.occupancy(): i for i, cfg in enumerate(states)}
    off = ~np.eye(gen.n, dtype=bool)
    for i, cfg in enumerate(states):
        want = np.zeros(gen.n)
        for p in torus.labels():
            r = jump_rate(cfg, p, q)
            if r > 0:
                want[index[apply_jump(cfg, p).occupancy()]] += r
        row = gen.matrix[i]
        assert np.array_equal(row[off[i]], want[off[i]])
        assert row[i] == pytest.approx(-row[off[i]].sum(), rel=1e-13, abs=0)


def test_array_rate_and_masked_walk_match_the_scalar_twins():
    # on every state of four tori: _rates equals _rate_kernel bit for bit, and
    # the masked walk, XOR-ing one bit per index, gives the set _push_walk
    # moves; the 8x3 torus (m2 = 2) has no push longer than one, the others do
    longest = {}
    for torus in (TORUS, TorusParams(L=4, N=4, m1=2, m2=1), TorusParams(L=6, N=4, m1=3, m2=1),
                  TorusParams(L=8, N=3, m1=2, m2=2)):
        labels, _, nb = label_table(torus)
        pos = enumerate_configs(torus)
        states = pos.tolist()
        for q in (0.0, 0.3, 0.6):
            rate = ctmc._rate_kernel(torus, q)
            want = np.array([[rate(xs, k) for k in range(len(labels))] for xs in states])
            assert ctmc._rates(q, torus.L, gap_columns(torus, pos)).tobytes() == want.tobytes()
        bits = np.broadcast_to(1 << np.arange(len(labels)), pos.shape)
        masks = ctmc._masked_push_walk(pos, nb.up, bits)
        lengths = []
        for xs, row in zip(states, masks.tolist()):
            for k, mask in enumerate(row):
                moved = ctmc._push_walk(xs, nb.up.tolist(), k)
                assert mask == sum(1 << j for j in moved)
                lengths.append(len(moved))
        longest[torus.L, torus.N] = max(lengths)
    assert longest == {(4, 3): 2, (4, 4): 3, (6, 4): 3, (8, 3): 1}


def test_build_generator_enumerates_through_the_ctmc_module(monkeypatch):
    # the benchmark traces ctmc.enumerate_configs; a call that bypasses the
    # module attribute would leave its metrics at zero; the generator keeps
    # the very array it returned, with no copy in another format
    calls, returned = [], []

    def counting(torus):
        calls.append(torus)
        returned.append(enumerate_configs(torus))
        return returned[-1]

    monkeypatch.setattr(ctmc, "enumerate_configs", counting)
    gen = build_generator(TORUS, 0.5)
    assert calls == [TORUS]
    assert gen.positions is returned[0]


def test_stationarity_residuals():
    assert check_stationarity(TORUS, 0.0) < 1e-12
    assert check_stationarity(TORUS, 0.5) < 1e-10


def test_stationarity_residual_sensitive_to_perturbation():
    gen = build_generator(TORUS, 0.5)
    pi = stationary_distribution(gen)
    pert = pi.copy()
    pert[0] *= 1.01
    pert /= pert.sum()
    assert np.abs(pert @ gen.matrix).max() > 1e-4


# ---------------------------------------------------------------------------
# simulation

def test_simulate_no_events_at_zero_horizon():
    traj = simulate(configs()[0], 0.5, 0.0, seed=3)
    assert traj.events == []
    assert traj.final.positions == configs()[0].positions


@pytest.mark.parametrize("T, every", [(math.nan, None), (math.inf, None), (-1.0, None),
                                      (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
def test_simulate_rejects_bad_horizon_and_grid(T, every):
    with pytest.raises(ParameterError):
        simulate(configs()[0], 0.5, T, seed=0, observe_every=every)


@pytest.mark.parametrize("x, failure", [(2, "interlacing violated at label (0, 0)"),
                                        (7, "position 7 outside [0, 4)")])
def test_simulate_rejects_an_invalid_start(x, failure):
    # (0, 0) at 2 lies right of its up-right partner (0, 1) at 0; 7 is off the L = 4 ring
    start = ParticleConfig(TORUS, {**configs()[0].positions, (0, 0): x})
    message = f"start configuration invalid: ['{failure}']"
    with pytest.raises(ConfigError, match=re.escape(message)):
        simulate(start, 0.7, 25.0, seed=8)


def test_simulate_zero_horizon_grid_holds_the_start():
    for every in (0.0, 1.0):
        traj = simulate(configs()[0], 0.5, 0.0, seed=3, observe_every=every)
        assert traj.samples == [(0.0, configs()[0].positions)]


def test_simulate_event_times_increasing_and_states_valid():
    traj = simulate(configs()[0], 0.5, 30.0, seed=4)
    times = [ev.time for ev in traj.events]
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))
    assert validate(traj.final).ok


def test_simulate_deterministic_per_seed():
    a = simulate(configs()[0], 0.5, 20.0, seed=11)
    b = simulate(configs()[0], 0.5, 20.0, seed=11)
    assert [(e.time, e.trigger) for e in a.events] == [(e.time, e.trigger) for e in b.events]
    assert a.final.positions == b.final.positions


def test_simulate_observation_grid():
    traj = simulate(configs()[0], 0.5, 10.0, seed=5, observe_every=2.5)
    times = [t for t, _ in traj.samples]
    assert times == [0.0, 2.5, 5.0, 7.5, 10.0]
    # a horizon off the grid still ends the grid at T
    traj = simulate(configs()[0], 0.5, 1.0, seed=5, observe_every=0.3)
    times = [t for t, _ in traj.samples]
    assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-12)
    assert times[-1] == 1.0
    assert traj.samples[-1][1] == traj.final.positions


def test_uniform_occupation_at_q_zero():
    # final states of independent runs are multinomial samples of the
    # uniform law; chi-square accepted at the 5% level (fixed seeds)
    torus = TORUS
    all_cfgs = configs(torus)
    key_to_idx = {c.occupancy(): i for i, c in enumerate(all_cfgs)}
    n = len(all_cfgs)
    runs = 600
    counts = np.zeros(n)
    for r in range(runs):
        traj = simulate(all_cfgs[r % n], 0.0, 40.0, seed=5000 + r)
        counts[key_to_idx[traj.final.occupancy()]] += 1
    expected = runs / n
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square 95% quantile with n-1 = 29 degrees of freedom
    assert chi_sq < 42.557


def test_long_run_distribution_matches_gibbs_weights():
    # final states of independent runs against the Gibbs law at q = 0.5,
    # chi-square accepted at the 5% level (29 degrees of freedom)
    torus = TORUS
    q = 0.5
    gen = build_generator(torus, q)
    pi = stationary_distribution(gen)
    states = configs(torus, gen.positions)
    key_to_idx = {c.occupancy(): i for i, c in enumerate(states)}
    runs = 600
    counts = np.zeros(gen.n)
    for r in range(runs):
        traj = simulate(states[r % gen.n], q, 40.0, seed=9000 + r)
        counts[key_to_idx[traj.final.occupancy()]] += 1
    expected = runs * pi
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    assert chi_sq < 42.557


def test_simulate_drift_toward_limit_speed():
    # small version of the drift experiment; the finite-eps rate correction
    # is about -eps*(f(B)+f(C)) so the tolerance budgets for it
    eps, m, m2 = 0.02, 2, 1
    torus = TorusParams.from_scaling(epsilon=eps, ell=2.0, m=m, m2=m2)
    params = ModelParams.from_torus(torus)
    start = crystalline(torus)
    horizon = 1.0 / eps
    rates = []
    for rep in range(40):
        traj = simulate(start, math.exp(-eps), horizon, seed=700 + rep)
        rates.append(np.mean(list(traj.displacement.values())) / horizon)
    assert np.mean(rates) == pytest.approx(params.v, rel=0.08)


# ---------------------------------------------------------------------------
# quadratic weight of near-crystalline fluctuations

def test_gaussian_log_weight_vanishes_on_constants():
    params = ModelParams(C=0.5, D=1.5)
    eta = np.full((4, 4), 1.3)
    assert abs(gaussian_log_weight(eta, params, 2, mode="direct")) < 1e-12
    assert abs(gaussian_log_weight(eta, params, 2, mode="fourier")) < 1e-12


def test_gaussian_log_weight_direct_matches_fourier():
    params = ModelParams(C=0.75, D=1.5)
    rng = np.random.default_rng(21)
    for _ in range(100):
        eta = rng.normal(size=(4, 4))
        direct = gaussian_log_weight(eta, params, 2, mode="direct")
        fourier = gaussian_log_weight(eta, params, 2, mode="fourier")
        assert direct == pytest.approx(fourier, abs=1e-12)


@pytest.mark.parametrize("mode", ["direct", "fourier"])
@pytest.mark.parametrize("shape", [(4, 5), (16,)], ids=["4x5", "1d"])
def test_gaussian_log_weight_rejects_a_field_that_is_not_square(mode, shape):
    params = ModelParams(C=0.75, D=1.5)
    with pytest.raises(ParameterError, match=re.escape(f"m x m quotient, got shape {shape}")):
        gaussian_log_weight(np.ones(shape), params, 2, mode=mode)


def test_exact_weight_differences_approach_gaussian_form():
    # log Gibbs-weight differences between perturbed and crystalline states
    # approach the quadratic form as the lattice refines (the normalization
    # cancels in differences)
    rng = np.random.default_rng(4)
    eta_base = rng.normal(size=(2, 2))
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        torus = TorusParams.from_scaling(epsilon=eps, ell=2.0, m=2, m2=1)
        params = ModelParams.from_torus(torus)
        start = crystalline(torus)
        disp = np.round(eta_base / math.sqrt(eps)).astype(int)
        eta_eff = math.sqrt(eps) * disp
        positions = {p: (start.positions[p] + int(disp[p[0], p[1]])) % torus.L
                     for p in torus.labels()}
        cfg = ParticleConfig(torus, positions)
        assert validate(cfg).ok
        q = math.exp(-eps)
        d_exact = log_stationary_weight(cfg, q) - log_stationary_weight(start, q)
        d_gauss = gaussian_log_weight(eta_eff, params, torus.m2)
        errs.append(abs(d_exact - d_gauss))
    assert errs[0] > errs[1] > errs[2]


CASCADE_TORUS = TorusParams(L=32, N=8, m1=8, m2=2)


@pytest.mark.parametrize("start, T, seed, longest_push", [
    (configs()[0], 25.0, 8, 2), (crystalline(CASCADE_TORUS), 5.0, 1, 3)], ids=["4x3", "cascade"])
def test_simulate_events_replay_through_apply_jump(start, T, seed, longest_push):
    # replaying the recorded triggers with apply_jump, the jump the generator
    # uses, gives the recorded pushes, valid states and the final state; and
    # an event changes only the rates that read a moved label r, the rates of
    # r and of the labels whose below-right, below or left neighbour is r
    q, torus = 0.7, start.torus
    traj = simulate(start, q, T, seed=seed)
    assert max(len(e.pushed) for e in traj.events) >= longest_push
    labels = label_table(torus).labels
    readers = [(0, 0), STENCIL.below_right, STENCIL.below, STENCIL.left]
    cfg, rates = start, ctmc._rates(q, torus.L, gap_columns(torus, label_positions(start)))
    for e in traj.events:
        assert push_set(cfg, e.trigger) == set(e.pushed)
        cfg = apply_jump(cfg, e.trigger)
        assert validate(cfg).ok
        new = ctmc._rates(q, torus.L, gap_columns(torus, label_positions(cfg)))
        stencil = {torus.canonical((r1 - d1, r2 - d2))
                   for r1, r2 in e.pushed for d1, d2 in readers}
        assert {labels[i] for i in np.flatnonzero(new != rates)} <= stencil
        rates = new
    assert cfg.positions == traj.final.positions


def _unsteady_rate_of_first_label(monkeypatch):
    # each call for label (0, 0) returns its rate plus 1e-9 times the number
    # of earlier calls, so no stored value matches a recomputation, as a
    # table entry that an event failed to refresh would not
    kernel = ctmc._rate_kernel

    def unsteady(torus, q):
        rate, calls = kernel(torus, q), itertools.count()
        return lambda pos, i: rate(pos, i) + (1e-9 * next(calls) if i == 0 else 0.0)
    monkeypatch.setattr(ctmc, "_rate_kernel", unsteady)


def test_simulate_rechecks_its_rate_table_at_the_end(monkeypatch):
    assert len(simulate(configs()[0], 0.7, 25.0, seed=8).events) < 1024
    _unsteady_rate_of_first_label(monkeypatch)
    with pytest.raises(ConfigError, match=re.escape("stale rate of label (0, 0), t=")):
        simulate(configs()[0], 0.7, 25.0, seed=8)


def test_simulate_rechecks_its_rate_table_at_each_resync(monkeypatch):
    # unpatched, this run has 5,916 events by T = 30 and its 1024th near
    # t = 5.1, so the first resync raises long before the end check could
    dense = crystalline(TorusParams(L=64, N=16, m1=16, m2=4))
    _unsteady_rate_of_first_label(monkeypatch)
    with pytest.raises(ConfigError, match=re.escape("stale rate of label (0, 0), t=")) as err:
        simulate(dense, 0.7, 30.0, seed=1)
    assert float(re.search(r"t=([^:]+):", str(err.value)).group(1)) < 15.0


def test_jump_record_is_an_immutable_named_tuple():
    rec = ctmc.JumpRecord(0.5, (1, 0), ((1, 0), (1, 1)))
    assert ctmc.JumpRecord._fields == ("time", "trigger", "pushed")
    assert rec == ctmc.JumpRecord(0.5, (1, 0), ((1, 0), (1, 1)))
    assert (rec.time, rec.trigger, rec.pushed) == (0.5, (1, 0), ((1, 0), (1, 1)))
    with pytest.raises(AttributeError):
        rec.time = 1.0


def _stream_digest(traj):
    events = [(e.time.hex(), e.trigger, e.pushed) for e in traj.events]
    return hashlib.sha256(repr(events).encode()).hexdigest()


def test_simulate_stream_is_pinned():
    # event times, triggers and pushes of two seeded runs, recorded with
    # numpy 2.4.6; an engine that keeps the RNG stream of simulate must
    # reproduce them bit for bit
    cascade = simulate(crystalline(CASCADE_TORUS), 0.7, 5.0, seed=1)
    assert _stream_digest(cascade) == (
        "41f139c171570fac31c44478b5080dc4eaa262c8d7493b810e93cfdb20834010")
    drift = TorusParams.from_scaling(epsilon=0.01, ell=4.0, m=4, m2=2)
    traj = simulate(crystalline(drift), math.exp(-0.01), 100.0, seed=0)
    assert _stream_digest(traj) == (
        "0f2a99c31ade8ac8eb578469b11336328a08ec84c86b0109d46b2b146071b395")


def _state_digest(traj):
    # samples, displacements and final positions, each dict with its key order
    state = ([(t.hex(), list(positions.items())) for t, positions in traj.samples],
             list(traj.displacement.items()), list(traj.final.positions.items()))
    return hashlib.sha256(repr(state).encode()).hexdigest()


def test_simulate_state_is_pinned():
    # everything simulate returns besides the events, recorded with numpy
    # 2.4.6 on the runs of test_simulate_stream_is_pinned (the cascade run
    # observed every 0.5) and on a start whose dict is not in label order
    cascade = simulate(crystalline(CASCADE_TORUS), 0.7, 5.0, seed=1, observe_every=0.5)
    assert _state_digest(cascade) == (
        "3d0a1bcea2ee2d45359367194cdf575d96eeff407c3a912501e7a778ba93c04c")
    drift = TorusParams.from_scaling(epsilon=0.01, ell=4.0, m=4, m2=2)
    traj = simulate(crystalline(drift), math.exp(-0.01), 100.0, seed=0)
    assert _state_digest(traj) == (
        "aa962a801b12715a8fc8205e329654ac6f608dff59950105cbd996d568041681")
    start = configs()[3]
    reordered = ParticleConfig(TORUS, dict(sorted(start.positions.items(), reverse=True)))
    traj = simulate(reordered, 0.7, 10.0, seed=2, observe_every=1.0)
    assert list(traj.final.positions) == list(reordered.positions)
    assert _state_digest(traj) == (
        "2d95c315f76c9de8a3ab99230656d3ca7a23fc2b08d3dcac3ed02035f6e88147")



def _reference_simulate(config, q, T, seed=0, observe_every=None):
    # the event loop of simulate as it was before it kept its running sums
    # across events: a scan of accumulate(rates) from label 0 at every event
    # and the uniform from rng.random(); the argument checks are left out
    accumulate, Trajectory, JumpRecord = itertools.accumulate, ctmc.Trajectory, ctmc.JumpRecord
    _rate_kernel, _push_walk, _observation_times = (
        ctmc._rate_kernel, ctmc._push_walk, ctmc._observation_times)
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
    rates = [rate(pos, i) for i in range(len(labels))]
    displacement = [0] * len(labels)
    total = sum(rates)
    rng = np.random.default_rng(seed)
    traj = Trajectory()
    events, samples = traj.events, traj.samples

    def snapshot():
        return dict(zip(keys, [pos[i] for i in key_index]))

    def check_rates():
        # the same kernel on the same positions: a complete touched set keeps every bit
        for i, r in enumerate(rates):
            if r != rate(pos, i):
                raise ConfigError(f"stale rate of label {labels[i]}, t={t}: {r} != {rate(pos, i)}")

    # (trigger index, push length) -> (pushed labels, touched indices).  The
    # touched particles are those whose rate reads a moved one r: r and its
    # up-left, up and right neighbours.  They are updated in the iteration
    # order of the set of their labels built below, since the update order
    # fixes the rounding of the running total.
    plans = {}

    def push_plan(trigger, moved):
        members = frozenset(labels[r] for r in moved)
        touched = {labels[s] for r in map(index.get, members)
                   for s in (r, up_left[r], up[r], right[r])}
        plan = plans[trigger, len(moved)] = (tuple(sorted(members)), [index[s] for s in touched])
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

        # the first label whose cumulative rate, summed in label order, exceeds u
        u = rng.random() * total
        for trigger, acc in enumerate(accumulate(rates)):
            if u < acc:
                break
        else:  # rounding at the top of the cumulative sum
            trigger = rates.index(max(rates))

        moved = _push_walk(pos, up, trigger)
        pushed, touched = plans.get((trigger, len(moved))) or push_plan(trigger, moved)
        for i in moved:
            pos[i] = (pos[i] + 1) % L
            displacement[i] += 1
        events.append(JumpRecord(t, labels[trigger], pushed))

        for i in touched:
            old = rates[i]
            rates[i] = rate(pos, i)
            total += rates[i] - old
        events_since_resync += 1
        if events_since_resync >= 1024:
            check_rates()
            total = sum(rates)
            events_since_resync = 0

    check_rates()
    traj.displacement = dict(zip(labels, displacement))
    traj.final = ParticleConfig(torus, snapshot())
    return traj


@pytest.mark.parametrize("start, q, T, observe_every", [
    (configs()[0], 0.0, 25.0, None),
    (configs()[0], 0.5, 25.0, 2.0),
    (configs(TorusParams(L=6, N=4, m1=3, m2=1))[7], 0.7, 20.0, None),
    (crystalline(CASCADE_TORUS), 0.7, 5.0, 0.5),
    (crystalline(TorusParams.from_scaling(epsilon=0.01, ell=4.0, m=4, m2=2)),
     math.exp(-0.01), 100.0, None),
    (crystalline(TorusParams(L=64, N=16, m1=16, m2=4)), 0.7, 3.0, 1.0),
], ids=["4x3-q0", "4x3-q0.5", "6x4", "cascade", "drift", "dense-256"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_matches_the_label_order_scan(start, q, T, observe_every, seed):
    # the prefix of running sums kept across events finds the trigger the
    # scan from label 0 finds, bit for bit, through bisection, extension,
    # zero-rate plateaus, the ties of q = 0 and 256 labels
    traj = simulate(start, q, T, seed=seed, observe_every=observe_every)
    ref = _reference_simulate(start, q, T, seed=seed, observe_every=observe_every)
    assert len(traj.events) > 10
    assert _stream_digest(traj) == _stream_digest(ref)
    assert _state_digest(traj) == _state_digest(ref)


@pytest.mark.parametrize("seed", range(5))
def test_raw_word_uniform_is_the_generator_uniform(seed):
    # simulate draws its uniform as (random_raw() >> 11) * 2**-53, which is
    # how numpy's PCG64 generator builds random(); interleaved with the
    # exponential waiting times, both generators give the same bits
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    raw = twin.bit_generator.random_raw
    for k in range(10_000):
        scale = 1.0 + k % 7
        assert rng.exponential(scale) == twin.exponential(scale)
        assert rng.random().hex() == ((raw() >> 11) * 2**-53).hex()


def test_simulate_calls_share_no_state():
    # calls on two tori at two q, interleaved, give the events and final
    # state of the same call run alone on cleared caches
    calls = [(crystalline(CASCADE_TORUS), 0.7, 2.0, 1), (configs()[5], 0.3, 20.0, 4),
             (crystalline(CASCADE_TORUS), 0.3, 2.0, 1), (configs()[5], 0.7, 20.0, 4)]

    def run(call):
        traj = simulate(*call[:3], seed=call[3])
        return traj.events, traj.final.positions

    alone = []
    for call in calls:
        for cached in vars(ctmc).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        alone.append(run(call))
    for i in (0, 1, 2, 3, 3, 1, 0, 2):
        assert run(calls[i]) == alone[i]


def test_simulate_stream_at_q_zero_is_pinned():
    # at q = 0 every positive rate is exactly 1; recorded with numpy 2.4.6
    traj = simulate(configs()[0], 0.0, 25.0, seed=8)
    assert max(len(e.pushed) for e in traj.events) >= 2
    assert _stream_digest(traj) == (
        "d73206276f7bfab591ab8d9e9fe28cd24b79696de1673c94819f43f800ba11e1")


@pytest.mark.parametrize("torus, digest", [
    (TORUS, "895e1fe3124930a803932b08c71c2b71eceb4b74a5faca5618c25a5ce9c87d8a"),
    (TorusParams(L=4, N=4, m1=2, m2=1),
     "00295b1d7e8396dbf092079e6eb19711bf7e3646a9ab31a25adaf6aec4096445"),
    (TorusParams(L=6, N=4, m1=3, m2=1),
     "abba55a1178ad1870d9f847fcd8b6811c0a15435a8b50ab5ffe2e69e92f76b8d"),
], ids=["4x3", "4x4", "6x4"])
def test_oracle_bits_are_pinned(torus, digest):
    # generator matrix, Gibbs weights and residual at three q, recorded with
    # numpy 2.4.6; a rewrite of the rate or weight code must keep every bit
    h = hashlib.sha256()
    for q in (0.0, 0.3, 0.6):
        gen = build_generator(torus, q)
        h.update(gen.matrix.tobytes())
        h.update(stationary_distribution(gen).tobytes())
        h.update(repr(check_stationarity(torus, q)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("torus", [TORUS, TorusParams(L=6, N=4, m1=3, m2=1)],
                         ids=["4x3", "6x4"])
def test_weight_and_rate_match_the_gap_definitions(torus):
    # the weight equals the label-order sum over neighbor_distances with
    # log_q_pochhammer called directly, and the rate vanishes exactly at b = 0
    q = 0.6
    for cfg in configs(torus):
        total = 0.0
        for p in torus.labels():
            g = neighbor_distances(cfg, p)
            total += (log_q_pochhammer(q, g.a) - log_q_pochhammer(q, g.b)
                      - log_q_pochhammer(q, g.c))
            for rate_q in (0.0, q):
                assert (jump_rate(cfg, p, rate_q) == 0) == (g.b == 0)
        assert log_stationary_weight(cfg, q) == total


def test_interlacing_failure_names_the_first_label_in_label_order():
    # moving (2, 2) of the crystalline state from 16 to 13 keeps every row
    # collision-free but breaks interlacing at four labels, none of them (0, 0)
    torus = TorusParams(L=18, N=3, m1=3, m2=1)
    positions = dict(crystalline(torus).positions)
    positions[(2, 2)] = 13
    bad = ParticleConfig(torus, positions)
    failing = []
    for p in torus.labels():
        try:
            neighbor_distances(bad, p)
        except ConfigError as err:
            assert str(err) == f"interlacing violated at label {p}"
            failing.append(p)
    assert failing == [(0, 1), (2, 1), (1, 2), (2, 2)]
    message = "interlacing violated at label (0, 1)"
    assert validate(bad).failures == [message]
    with pytest.raises(ConfigError) as err:
        log_stationary_weight(bad, 0.5)
    assert str(err.value) == message
