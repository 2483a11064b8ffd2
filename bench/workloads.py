"""The three workloads: seeded inputs, one pass over a fixed task list, the
checks on its outputs and the per-layer metrics drawn from its spans.

Every input (replica seeds, query times and displacements, four-point
queries, test fields) comes from the workload seed alone.  A pass does the
same work on the same inputs every time, so pass times are comparable and
every pass must reproduce the outputs of the first one.

Each pass returns (summary, checks): summary holds the counts the
per-layer metrics need plus a digest of the outputs, and checks is a list
of (name, passed, detail).
"""

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from tracing import LAYERS, median, percentile, ratio

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    # particle
    ("ctmc.simulate.events_per_s", "1/s"),
    ("ctmc.simulate.p50_ms", "ms"),
    ("ctmc.simulate.p90_ms", "ms"),
    ("ctmc.simulate.calls", "count"),
    ("ctmc.simulate.events", "count"),
    ("ctmc.cascade.events_per_s", "1/s"),
    ("ctmc.cascade.share", "1"),
    ("ctmc.cascade.mean_push", "particles"),
    ("ctmc.check_stationarity.ms", "ms"),
    ("ctmc.build_generator.states_per_s", "1/s"),
    ("lattice.enumerate_configs.ms", "ms"),
    ("lattice.enumerate_configs.states", "count"),
    # sde-ensemble
    ("sde.euler_maruyama_ensemble.site_steps_per_s_small", "1/s"),
    ("sde.euler_maruyama_ensemble.site_steps_per_s_large", "1/s"),
    ("cli.sde.s", "s"),
    ("cli.sde.rows_per_s", "1/s"),
    ("cli.sde.csv_bytes", "bytes"),
    ("cli.sde.self_s", "s"),
    # covariance
    ("correlations.covariance_quadrature.p50_ms", "ms"),
    ("correlations.covariance_quadrature.p90_ms", "ms"),
    ("correlations.covariance_quadrature.calls", "count"),
    ("correlations.covariance_quadrature.err_est_max", "1"),
    ("correlations.covariance_finite_m.p50_ms", "ms"),
    ("ctmc.gaussian_log_weight.fourier_ms", "ms"),
    ("lattice.field_transform.ms", "ms"),
    ("correlations.gff_smoothed_variance.ms", "ms"),
    ("correlations.stationary_cov_infinite.p50_ms", "ms"),
    ("correlations.stationary_cov_infinite.calls", "count"),
    ("specfun.exp_integral_E1.p50_us", "us"),
    # every workload
    *((f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"),
    ("trace.overhead_frac", "1"),
    ("wall_s", "s"),
    ("reference_s", "s"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    targets: tuple          # entry points traced in a traced pass
    make_inputs: object     # (ak, seed, size, workdir) -> inputs
    run_pass: object        # (ak, inputs, tracer) -> (summary, checks)


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _seeds(seed_seq, n):
    return [int(s) for s in seed_seq.generate_state(n, dtype=np.uint64)]


def _within(name, est, ref, tol):
    ok = bool(abs(est - ref) <= tol)
    return (name, ok, f"got {est:.6g}, ref {ref:.6g}, tol {tol:.3g}")


def _below(name, value, limit):
    return (name, bool(value < limit), f"{value:.3g} < {limit:.3g}")


def _f(x):
    """e^-x / (1 - e^-x), the gap factor of the Gibbs weight."""
    return math.exp(-x) / -math.expm1(-x)


# ---------------------------------------------------------------------------
# particle: ctmc and lattice do nearly all of the work; sde and correlations
# stay idle.  The drift torus never cascades (mean push set 1.0), the dense
# torus does on a quarter of its events, and the exact oracle loads
# enumeration and the dense generator.  An event-loop or enumeration change
# shows here; the other two workloads predict no change for it.

PARTICLE_SIZES = {
    "full": dict(replicas=32, cascade_T=30.0, oracle=(6, 4, 3, 1)),
    "tiny": dict(replicas=8, cascade_T=2.0, oracle=(4, 3, 2, 1)),
}


def particle_inputs(ak, seed, size, workdir):
    n = PARTICLE_SIZES[size]
    drift_ss, cascade_ss, oracle_ss = np.random.SeedSequence(seed).spawn(3)
    eps, m, m2, D = 0.01, 4, 2, 1.0
    torus = ak.lattice.TorusParams.from_scaling(epsilon=eps, ell=D * m, m=m, m2=m2)
    params = ak.sde.ModelParams.from_torus(torus)
    dense = ak.lattice.TorusParams(L=64, N=16, m1=16, m2=4)
    L, N, m1, om2 = n["oracle"]
    small = ak.lattice.TorusParams(L=4, N=3, m1=2, m2=1)
    return SimpleNamespace(
        eps=eps, params=params, horizon=1.0 / eps, q=math.exp(-eps),
        drift_start=ak.lattice.crystalline(torus),
        drift_seeds=_seeds(drift_ss, n["replicas"]),
        cascade_start=ak.lattice.crystalline(dense), cascade_q=0.7,
        cascade_T=n["cascade_T"], cascade_seed=_seeds(cascade_ss, 1)[0],
        oracle=[(ak.lattice.TorusParams(L=L, N=N, m1=m1, m2=om2),
                 float(np.random.default_rng(oracle_ss).uniform(0.2, 0.8)))]
        + [(small, q) for q in (0.0, 0.3, 0.7)],
    )


def particle_pass(ak, inp, tracer):
    ctmc, lattice = ak.ctmc, ak.lattice
    with tracer.span("task.drift"):
        drift = [ctmc.simulate(inp.drift_start, inp.q, inp.horizon, seed=s)
                 for s in inp.drift_seeds]
    with tracer.span("task.cascade"):
        cascade = [ctmc.simulate(inp.cascade_start, inp.cascade_q, inp.cascade_T,
                                 seed=inp.cascade_seed, observe_every=1.0)]
    with tracer.span("task.oracle"):
        residuals = [ctmc.check_stationarity(torus, q) for torus, q in inp.oracle]
    with tracer.span("task.checks"):
        checks = [_below(f"stationarity residual {t.L}x{t.N} q={q:.3g}", r, 1e-10)
                  for (t, q), r in zip(inp.oracle, residuals)]
        for kind, trajs in (("drift", drift), ("cascade", cascade)):
            for i, traj in enumerate(trajs):
                report = lattice.validate(traj.final)
                checks.append((f"{kind} replica {i} final configuration valid",
                               report.ok, "; ".join(report.failures)))
        rates = [float(np.mean(list(t.displacement.values()))) / inp.horizon for t in drift]
        se = float(np.std(rates, ddof=1)) / math.sqrt(len(rates))
        p = inp.params
        predicted = p.v * (1 - inp.eps * (_f(p.B) + _f(p.C)))
        checks.append(_within("drift rate vs finite-eps speed (4 SE)",
                              float(np.mean(rates)), predicted, 4 * se))
        pushes = [len(e.pushed) for t in cascade for e in t.events]
        summary = dict(
            drift_events=sum(len(t.events) for t in drift),
            cascade_events=len(pushes),
            cascade_share=ratio(sum(1 for k in pushes if k > 1), len(pushes)),
            cascade_mean_push=ratio(sum(pushes), len(pushes)),
            digest=_digest([sorted(t.final.positions.items()) for t in drift + cascade],
                           [len(t.events) for t in drift + cascade], residuals),
        )
    return summary, checks


PARTICLE = Workload(
    name="particle",
    why="exact CTMC and enumeration (ctmc, lattice) do the work, with and without cascades; "
        "sde and correlations stay idle",
    targets=(
        ("ctmc", "simulate", "ctmc.simulate"),
        ("ctmc", "check_stationarity", "ctmc.check_stationarity"),
        ("ctmc", "build_generator", "ctmc.build_generator", lambda g: g.n),
        ("ctmc", "enumerate_configs", "lattice.enumerate_configs", len),
        ("lattice", "validate", "lattice.validate"),
    ),
    make_inputs=particle_inputs, run_pass=particle_pass,
)


# ---------------------------------------------------------------------------
# sde-ensemble: the Euler-Maruyama integrator does most of the work and ctmc
# stays idle.  It is used three ways -- many replicas of a 4x4 field (per-step
# overhead bound), a few replicas of a 64x64 field (gather bound), and the
# `akpz sde` command (single-replica integrator plus per-row CSV output) --
# so a gain for one use that costs another shows up.

SDE_SIZES = {
    "full": dict(small_replicas=512, small_t=2.0, large_m=64, large_replicas=32,
                 large_steps=60, block=16, cli_m=16, cli_replicas=8, cli_T=0.5),
    "tiny": dict(small_replicas=64, small_t=0.2, large_m=16, large_replicas=4,
                 large_steps=20, block=4, cli_m=4, cli_replicas=2, cli_T=0.1),
}
SDE_CHUNKS = 8
CLI_OBSERVE = 0.05


def sde_inputs(ak, seed, size, workdir):
    n = SDE_SIZES[size]
    small_ss, large_ss, cli_ss = np.random.SeedSequence(seed).spawn(3)
    replicas = n["small_replicas"]
    return SimpleNamespace(
        params=ak.sde.ModelParams(C=0.75, D=1.5), dt=1e-3, m=4, m2=2,
        small_t=n["small_t"], small_steps=round(n["small_t"] / 1e-3),
        small_chunks=list(zip(small_ss.spawn(SDE_CHUNKS),
                              [replicas // SDE_CHUNKS + (i < replicas % SDE_CHUNKS)
                               for i in range(SDE_CHUNKS)])),
        large_m=n["large_m"], large_m2=n["large_m"] // 2, large_replicas=n["large_replicas"],
        large_steps=n["large_steps"], large_seed=large_ss, block=n["block"],
        cli_m=n["cli_m"], cli_replicas=n["cli_replicas"], cli_T=n["cli_T"],
        cli_seed=_seeds(cli_ss, 1)[0] % 2 ** 31,
        csv_path=os.path.join(workdir, "sde.csv"),
    )


def _cov_check(ak, label, samples_of, xi, m2, t, params):
    """Within 4 SE of the exact finite-m covariance at y = (0,0), (1,0), (0,1)."""
    out = []
    m = xi.shape[-1]
    for y in ((0, 0), (1, 0), (0, 1)):
        z = samples_of(xi * ak.sde.shift_field(xi, y, m2))
        est = float(z.mean())
        se = float(z.std(ddof=1)) / math.sqrt(z.size)
        exact = ak.correlations.covariance_finite_m(
            ak.correlations.CovarianceQuery(y=y, t=t, s=t), m, m2, params).value
        out.append(_within(f"{label} covariance y={y} (4 SE)", est, exact, 4 * se))
    return out


def sde_pass(ak, inp, tracer):
    sde, cli = ak.sde, ak.cli
    with tracer.span("task.small"):
        xi = np.concatenate([
            sde.euler_maruyama_ensemble(np.zeros((inp.m, inp.m)), inp.params, inp.m2, inp.dt,
                                        inp.small_steps, seed=ss, replicas=r,
                                        snapshot_steps=[inp.small_steps])[inp.small_steps]
            for ss, r in inp.small_chunks])
    with tracer.span("task.large"):
        m = inp.large_m
        xl = sde.euler_maruyama_ensemble(np.zeros((m, m)), inp.params, inp.large_m2, inp.dt,
                                         inp.large_steps, seed=inp.large_seed,
                                         replicas=inp.large_replicas,
                                         snapshot_steps=[inp.large_steps])[inp.large_steps]
    argv = ["sde", "--C", "0.75", "--D", "1.5", "--m", str(inp.cli_m),
            "--m2", str(inp.cli_m // 2), "--dt", "1e-3", "--T", str(inp.cli_T),
            "--replicas", str(inp.cli_replicas), "--seed", str(inp.cli_seed),
            "--observe-every", str(CLI_OBSERVE), "--out", inp.csv_path]
    with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.sde"):
        code = cli.main(argv)
    with tracer.span("task.checks"):
        # One sample per replica on the small torus, whose 16 sites are
        # strongly correlated; on the large field the correlation length
        # stays below a site, so block means give many more samples and
        # keep a 4 SE bound from failing on a short tail.
        checks = _cov_check(ak, "small field", lambda z: z.mean(axis=(1, 2)), xi, inp.m2,
                            inp.small_t, inp.params)
        b = inp.block
        k = inp.large_m // b
        checks += _cov_check(
            ak, "large field", lambda z: z.reshape(len(z), k, b, k, b).mean(axis=(2, 4)).ravel(),
            xl, inp.large_m2, inp.large_steps * inp.dt, inp.params)
        checks.append(("akpz sde exit code", code == 0, f"exit {code}"))
        with open(inp.csv_path, newline="") as fh:
            header = next(csv.reader(fh))
        rows = np.loadtxt(inp.csv_path, delimiter=",", skiprows=1, ndmin=2)
        expected = inp.cli_replicas * (round(inp.cli_T / CLI_OBSERVE) + 1) * inp.cli_m ** 2
        checks += [
            ("akpz sde CSV header", header == ["replica", "t", "p1", "p2", "xi"], str(header)),
            ("akpz sde CSV row count", len(rows) == expected, f"{len(rows)} vs {expected}"),
            ("akpz sde CSV values finite", bool(np.isfinite(rows).all()), ""),
        ]
        with open(inp.csv_path, "rb") as fh:
            csv_digest = hashlib.sha256(fh.read()).hexdigest()
        summary = dict(
            small_site_steps=xi.size * inp.small_steps,
            large_site_steps=xl.size * inp.large_steps,
            rows=len(rows), csv_bytes=os.path.getsize(inp.csv_path),
            digest=_digest(xi.tobytes(), xl.tobytes(), csv_digest),
        )
    return summary, checks


SDE_ENSEMBLE = Workload(
    name="sde-ensemble",
    why="the Euler-Maruyama integrator (sde) on a small batched field, a large field and the "
        "akpz sde command; ctmc stays idle",
    targets=(
        ("sde", "euler_maruyama_ensemble", "sde.euler_maruyama_ensemble"),
        ("sde", "euler_maruyama", "sde.euler_maruyama"),
        ("correlations", "covariance_finite_m", "correlations.covariance_finite_m"),
    ),
    make_inputs=sde_inputs, run_pass=sde_pass,
)


# ---------------------------------------------------------------------------
# covariance: correlations, specfun and the Fourier modes of lattice do the
# work; ctmc and sde only supply parameters.  Quadrature and the m=256 mode
# sums are the bulk, the dense m=48 Gibbs form loads the basis matrix (time
# and peak memory), and the GFF, stationary and asymptotic routes cover the
# rest of the covariance recipes of `akpz all`.

COV_SIZES = {
    "full": dict(queries=30, gibbs_m=48, four_point=4, stationary_m=128),
    "tiny": dict(queries=3, gibbs_m=8, four_point=1, stationary_m=32),
}
FINITE_M = 256
COR1_TIMES = (50.0, 100.0, 200.0, 400.0, 800.0)
COR2_T, COR2_S, COR2_SEED = 400.0, 300.0, 11
SHE_DELTAS = (1e-1, 1e-2, 1e-3)
QPOCH_EPS = (1e-2, 1e-3, 1e-4)
GFF_DELTA, GFF_M = 1 / 16, 256


def cov_inputs(ak, seed, size, workdir):
    n = COV_SIZES[size]
    corr = ak.correlations
    params = ak.sde.ModelParams(C=0.5, D=1.5)
    spectral = ak.sde.spectral_data(ak.sde.drift_coeffs(params))
    # cor1 and cor2 are the recipes of `akpz all`, with their own fixed
    # inputs (cor2 draws its off-characteristic directions from seed 11), so
    # their refinement levels, and cost, do not change with the seed.
    gap = COR2_T - COR2_S
    cor2_y = [tuple(int(a) for a in np.floor(spectral.U * gap))]
    dirs = np.random.default_rng(COR2_SEED)
    for _ in range(8):
        ang, rad = dirs.uniform(0, 2 * np.pi), dirs.uniform(0.75, 1.5)
        u = spectral.U + rad * np.array([np.cos(ang), np.sin(ang)])
        cor2_y.append(tuple(int(a) for a in np.floor(u * gap)))
    rng = np.random.default_rng(seed)
    # t - s <= 40 and |y| <= 8 keep every query well inside the m=256 torus,
    # where quadrature and the finite-m mode sum agree to 1e-6
    queries = []
    for _ in range(n["queries"]):
        t = float(rng.uniform(2.0, 60.0))
        s = float(rng.uniform(max(0.0, t - 40.0), t))
        y = tuple(int(a) for a in rng.integers(-8, 9, size=2))
        queries.append(corr.CovarianceQuery(y=y, t=t, s=s))
    # four distinct points within [-2, 2]^2: wider spreads make the
    # stationary quadrature stop at refinement levels 4x apart, so the pass
    # cost would follow the seed
    four = []
    for _ in range(n["four_point"]):
        pts = rng.integers(-2, 3, size=(4, 2))
        while len({tuple(p) for p in pts}) < 4:
            pts = rng.integers(-2, 3, size=(4, 2))
        four.append(corr.FourPointQuery(*(tuple(int(a) for a in p) for p in pts)))
    gm = n["gibbs_m"]
    return SimpleNamespace(
        params=params, spectral=spectral, stationary_m=n["stationary_m"],
        cor1=[corr.CovarianceQuery(y=(0, 0), t=t, s=t) for t in COR1_TIMES],
        cor2=[corr.CovarianceQuery(y=y, t=COR2_T, s=COR2_S) for y in cor2_y],
        queries=queries, four_point=four,
        e1_args=[float(x) for x in rng.uniform(1e-3, 30.0, size=n["queries"] + 14)],
        gibbs_m=gm, gibbs_field=rng.standard_normal((gm, gm)),
        gff_phi=float(rng.uniform(0.5, 2.0)) * corr.two_bump_test_function(GFF_DELTA, GFF_M),
    )


def cov_pass(ak, inp, tracer):
    corr, ctmc, specfun = ak.correlations, ak.ctmc, ak.specfun
    params, spectral = inp.params, inp.spectral
    with tracer.span("task.quadrature"):
        cor1 = [corr.covariance_quadrature(q, params) for q in inp.cor1]
        cor2 = [corr.covariance_quadrature(q, params) for q in inp.cor2]
        quad = [corr.covariance_quadrature(q, params) for q in inp.queries]
    with tracer.span("task.finite_m"):
        fm = FINITE_M
        finite = [corr.covariance_finite_m(q, fm, fm // 2, params) for q in inp.queries]
    with tracer.span("task.regimes"):
        every = inp.cor1 + inp.cor2 + inp.queries
        kernel = [corr.covariance_heat_kernel(q, spectral, params).value for q in every]
        regimes = [[r.value for r in corr.corollary_regimes(q, spectral, params)] for q in every]
        e1 = [specfun.exp_integral_E1(x) for x in inp.e1_args]
    with tracer.span("task.gibbs_fourier"):
        w_fourier = ctmc.gaussian_log_weight(inp.gibbs_field, params, inp.gibbs_m // 2,
                                             mode="fourier")
    with tracer.span("task.gibbs_direct"):
        w_direct = ctmc.gaussian_log_weight(inp.gibbs_field, params, inp.gibbs_m // 2,
                                            mode="direct")
    with tracer.span("task.gff"):
        gff = corr.gff_smoothed_variance(inp.gff_phi, GFF_DELTA, GFF_M, GFF_M // 2,
                                         params, spectral)
    with tracer.span("task.stationary"):
        sm = inp.stationary_m
        stationary = [(corr.stationary_cov_infinite(fq, params),
                       corr.stationary_cov_finite(fq, sm, sm // 2, params),
                       corr.four_point_closed_form(fq, spectral, params, exact=True))
                      for fq in inp.four_point]
    with tracer.span("task.asymptotics"):
        x, y, t, s = (1.0, 0.0), (0.0, 0.0), 4.0, 2.0
        she = corr.she_covariance(x, y, t, s)
        she_err = [abs(corr.she_scaled_lattice_covariance(x, y, t, s, d, spectral, params)
                       - she) / she for d in SHE_DELTAS]
        qpoch_err = []
        for eps in QPOCH_EPS:
            q, a1, a2 = math.exp(-eps), int(round(1 / eps)), int(round(1 / eps + 10))
            exact = ctmc.log_q_pochhammer(q, a1) - ctmc.log_q_pochhammer(q, a2)
            asym = (specfun.log_qpoch_asymptotic(eps, 1.0, 0.0)
                    - specfun.log_qpoch_asymptotic(eps, 1.0, 10.0))
            qpoch_err.append(abs(exact - asym))
    with tracer.span("task.checks"):
        v4 = params.v / (4 * math.pi * spectral.w)
        slope = float(np.polyfit(np.log(COR1_TIMES), [r.value for r in cor1], 1)[0])
        target = v4 * math.log((COR2_T + COR2_S) / (COR2_T - COR2_S))
        w_char = cor2[0].value
        checks = [_within("cor1 slope vs v/(4 pi w) (5%)", slope, v4, 0.05 * v4),
                  _within("cor2 characteristic value (10%)", w_char, target, 0.10 * target)]
        checks += [_below(f"cor2 off-characteristic {i} below 25% of characteristic",
                          abs(r.value), 0.25 * w_char) for i, r in enumerate(cor2[1:])]
        checks += [_within(f"quadrature vs finite m={fm} at y={q.y} t={q.t:.3g} s={q.s:.3g}",
                           a.value, b.value, 1e-6)
                   for q, a, b in zip(inp.queries, quad, finite)]
        checks.append(_within("GFF lattice vs continuum variance (5%)", gff.lattice,
                              gff.continuum, 0.05 * abs(gff.continuum)))
        checks.append(_below("fourier vs direct Gibbs form (relative)",
                             abs(w_fourier - w_direct) / abs(w_direct), 1e-10))
        checks += [("cor3-she error decreasing", all(b < a for a, b in zip(she_err, she_err[1:])),
                    str(she_err)),
                   _below("cor3-she final relative error", she_err[-1], 0.01),
                   ("qpoch-asymptotics error decreasing",
                    all(b < a for a, b in zip(qpoch_err, qpoch_err[1:])), str(qpoch_err)),
                   _below("qpoch-asymptotics final error", qpoch_err[-1], 1e-2)]
        results = cor1 + cor2 + quad
        summary = dict(
            err_est_max=max(r.err_est for r in results),
            digest=_digest([r.value for r in results + finite], kernel, regimes, e1,
                           w_fourier, w_direct, gff, stationary, she_err, qpoch_err),
        )
    return summary, checks


COVARIANCE = Workload(
    name="covariance",
    why="covariance and GFF evaluators (correlations, specfun, lattice Fourier modes) on seeded "
        "queries; ctmc and sde only supply parameters",
    targets=tuple(
        ("correlations", f, f"correlations.{f}")
        for f in ("covariance_quadrature", "covariance_finite_m", "covariance_heat_kernel",
                  "corollary_regimes", "gff_smoothed_variance", "stationary_cov_infinite",
                  "stationary_cov_finite", "she_scaled_lattice_covariance")
    ) + (
        ("ctmc", "gaussian_log_weight", "ctmc.gaussian_log_weight"),
        ("lattice", "FourierModeSet.field_transform", "lattice.field_transform"),
        ("specfun", "exp_integral_E1", "specfun.exp_integral_E1"),
        ("correlations", "exp_integral_E1", "specfun.exp_integral_E1"),
    ),
    make_inputs=cov_inputs, run_pass=cov_pass,
)

WORKLOADS = {w.name: w for w in (PARTICLE, SDE_ENSEMBLE, COVARIANCE)}


def layer_metrics(view, summary):
    """Every PER_LAYER metric except trace.overhead_frac, from the spans of
    the traced passes and the summary of one of them.  A metric of a layer
    the workload leaves idle reads 0."""
    s = dict.fromkeys(("drift_events", "cascade_events", "cascade_share", "cascade_mean_push",
                       "small_site_steps", "large_site_steps", "rows", "csv_bytes",
                       "err_est_max"), 0)
    s.update(summary)
    em = "sde.euler_maruyama_ensemble"
    drift = view.durations("ctmc.simulate", "task.drift")
    quad = view.durations("correlations.covariance_quadrature")
    stat = view.durations("correlations.stationary_cov_infinite")
    cli_s = view.pass_total("cli.sde")

    def rate(count, name, task=None):
        return median([ratio(count, t) for t in view.pass_total(name, task)])

    def pass_ms(name, task=None):
        return 1e3 * median(view.pass_total(name, task))

    out = {
        "ctmc.simulate.events_per_s": rate(s["drift_events"], "ctmc.simulate", "task.drift"),
        "ctmc.simulate.p50_ms": 1e3 * median(drift),
        "ctmc.simulate.p90_ms": 1e3 * percentile(drift, 90),
        "ctmc.simulate.calls": len(drift),
        "ctmc.simulate.events": s["drift_events"],
        "ctmc.cascade.events_per_s": rate(s["cascade_events"], "ctmc.simulate", "task.cascade"),
        "ctmc.cascade.share": s["cascade_share"],
        "ctmc.cascade.mean_push": s["cascade_mean_push"],
        "ctmc.check_stationarity.ms": pass_ms("ctmc.check_stationarity"),
        "ctmc.build_generator.states_per_s": median(
            [ratio(n, t) for n, t in zip(view.pass_count("ctmc.build_generator"),
                                         view.pass_total("ctmc.build_generator"))]),
        "lattice.enumerate_configs.ms": pass_ms("lattice.enumerate_configs"),
        "lattice.enumerate_configs.states": median(view.pass_count("lattice.enumerate_configs")),
        "sde.euler_maruyama_ensemble.site_steps_per_s_small":
            rate(s["small_site_steps"], em, "task.small"),
        "sde.euler_maruyama_ensemble.site_steps_per_s_large":
            rate(s["large_site_steps"], em, "task.large"),
        "cli.sde.s": median(cli_s),
        "cli.sde.rows_per_s": median([ratio(s["rows"], t) for t in cli_s]),
        "cli.sde.csv_bytes": s["csv_bytes"],
        "cli.sde.self_s": median(view.layer_self("cli")),
        "correlations.covariance_quadrature.p50_ms": 1e3 * median(quad),
        "correlations.covariance_quadrature.p90_ms": 1e3 * percentile(quad, 90),
        "correlations.covariance_quadrature.calls": len(quad),
        "correlations.covariance_quadrature.err_est_max": s["err_est_max"],
        "correlations.covariance_finite_m.p50_ms":
            1e3 * median(view.durations("correlations.covariance_finite_m")),
        "ctmc.gaussian_log_weight.fourier_ms":
            pass_ms("ctmc.gaussian_log_weight", "task.gibbs_fourier"),
        "lattice.field_transform.ms": pass_ms("lattice.field_transform"),
        "correlations.gff_smoothed_variance.ms": pass_ms("correlations.gff_smoothed_variance"),
        "correlations.stationary_cov_infinite.p50_ms": 1e3 * median(stat),
        "correlations.stationary_cov_infinite.calls": len(stat),
        "specfun.exp_integral_E1.p50_us":
            1e6 * median(view.durations("specfun.exp_integral_E1")),
    }
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = median(view.layer_self(layer))
    return out
