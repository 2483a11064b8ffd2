"""Command-line harness: experiment recipes with CSV artifacts.

Subcommands:
    akpz ctmc                particle-system trajectory to CSV
    akpz sde                 Euler-Maruyama trajectories to CSV
    akpz cov                 covariance queries (finite / quad / kernel / asymptotic)
    akpz validate            recipe symbol-properties (drift-symbol checks), its keys as flags
    akpz oracle-stationarity recipe stationarity-oracle, its keys as flags
    akpz she-check           recipe cor3-she (additive heat equation limit), its keys as flags
    akpz gff                 recipe gff-variance (lattice vs continuum), its keys as flags
    akpz run                 run a recipe described by a config file
    akpz all                 run the full verification suite

Every recipe run, alias or not, prints one PASS/FAIL line per report row: the
verdict, then the numbers its rule reads, |got - ref| <= tol or got < bound.
Exit codes: 0 all checks pass, 1 tolerance failure, 2 usage/config error.
"""

import argparse
import csv
import inspect
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import correlations as corr
from . import ctmc, lattice, sde
from .errors import AkpzError, ConfigError, ParameterError
from .lattice import ParticleConfig, TorusParams, crystalline
from .sde import ModelParams, drift_coeffs, spectral_data
from .specfun import log_qpoch_asymptotic


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _read_text(path):
    """The contents of a UTF-8 text file; a byte that is not UTF-8 raises a
    ConfigError naming the file and the offset of that byte."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text (byte 0x{err.object[err.start]:02x} "
                              f"at offset {err.start})") from err


def _cpu_count():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_map(fn, items):
    """Map in input order on min(len(items), CPUs) threads; the worker count
    never changes the result.  Worth it only when `fn` spends its time in
    numpy, which releases the interpreter lock."""
    with ThreadPoolExecutor(max_workers=min(len(items), _cpu_count())) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# experiment configuration files
#
# A config key is a keyword parameter of some recipe, and its annotation is
# its type (`_SCHEMA`, built below the recipes); a `tuple` value is a list of
# space-separated floats.  Flag values go through the same `_parse_value`.

_RANGES = {
    "C": lambda v: v > 0,
    "D": lambda v: v > 0,
    "q": lambda v: 0 <= v < 1,
    "eps": lambda v: v > 0,
    "dt": lambda v: v > 0,
    "m": lambda v: v >= 2,
    "replicas": lambda v: v >= 1,
    "delta": lambda v: v > 0,
    "delta_list": lambda v: len(v) > 0 and min(v) > 0 and all(a > b for a, b in zip(v, v[1:])),
    "tol": lambda v: v > 0,
    "seed": lambda v: v >= 0,
    "method": lambda v: v in ("finite", "quad", "kernel", "asymptotic"),
}

@dataclass
class ExperimentConfig:
    experiment: str
    values: dict = field(default_factory=dict)


def _parse_value(key, typ, text):
    """The value of `key` written as `text`, checked against its type and range."""
    try:
        value = tuple(map(float, text.split())) if typ is tuple else typ(text)
    except ValueError as err:
        raise ConfigError(f"bad {typ.__name__} value {text!r} for {key!r}") from err
    if typ is int and not text.lstrip("+-").isdigit():
        raise ConfigError(f"key {key!r} requires an integer, got {text!r}")
    if key in _RANGES and not _RANGES[key](value):
        raise ConfigError(f"value {value} out of range for {key!r}")
    return value


def parse_config(text) -> ExperimentConfig:
    """Strict line-oriented `key = value` parser; rejects unknown keys,
    duplicates, and out-of-range values, reporting line numbers."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(key, _SCHEMA[key], val)
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: {err}") from err
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    name = values.pop("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    return ExperimentConfig(experiment=name, values=values)


# ---------------------------------------------------------------------------
# comparison reports

@dataclass
class ReportRow:
    """A "within" row passes when |value_a - value_b| <= tolerance, a "bound"
    row when value_a < tolerance, its bound (its value_b is 0)."""
    label: str
    value_a: float
    value_b: float
    tolerance: float
    rule: str = "within"

    @property
    def difference(self):
        return self.value_a - self.value_b

    @property
    def passed(self):
        return bool(self.value_a < self.tolerance if self.rule == "bound"
                    else abs(self.difference) <= self.tolerance)


@dataclass
class ComparisonReport:
    experiment: str
    rows: list = field(default_factory=list)

    def add(self, label, value_a, value_b, tolerance):
        self.rows.append(ReportRow(label, value_a, value_b, tolerance))

    def add_bound(self, label, value, bound):
        self.rows.append(ReportRow(label, value, 0.0, bound, "bound"))

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def lines(self):
        out = []
        for r in self.rows:
            tag = "PASS" if r.passed else "FAIL"
            numbers = (f"got={_fmt(r.value_a)} < bound={_fmt(r.tolerance)}" if r.rule == "bound"
                       else f"got={_fmt(r.value_a)} ref={_fmt(r.value_b)} "
                            f"|diff|={_fmt(abs(r.difference))} tol={_fmt(r.tolerance)}")
            out.append(f"{tag}  {self.experiment}: {r.label}  {numbers}")
        return out


# ---------------------------------------------------------------------------
# recipes

def recipe_symbol_properties(C: float = 0.5, D: float = 1.5):
    report = ComparisonReport("symbol-properties")
    for check in sde.validate_symbol_properties(ModelParams(C=C, D=D)):
        report.add_bound(check.name, check.worst, check.tol)
    return report


def recipe_stationarity_oracle(L: int = 4, N: int = 3, m1: int = 2, m2: int = 1,
                               q: float = None, tol: float = 1e-10, out: str = None):
    torus = TorusParams(L=L, N=N, m1=m1, m2=m2)
    report = ComparisonReport("stationarity-oracle")
    qs = [q] if q is not None else [0.0, 0.3, 0.7]
    rows = []
    for q in qs:
        res = ctmc.check_stationarity(torus, q)
        report.add(f"residual q={q:g}", res, 0.0, tol)
        rows.append((q, res))
    if out:
        write_csv(out, ["q", "residual"], rows)
    return report


def recipe_drift_check(eps: float = 0.01, m: int = 4, m2: int = 2, D: float = 1.0,
                       replicas: int = 200, seed: int = 0, tol: float = 0.02,
                       out: str = None):
    torus = TorusParams.from_scaling(epsilon=eps, ell=D * m, m=m, m2=m2)
    params = ModelParams.from_torus(torus)
    start = crystalline(torus)
    horizon = 1.0 / eps
    q = math.exp(-eps)

    def one(rep):
        traj = ctmc.simulate(start, q, horizon, seed=seed + rep)
        return float(np.mean(list(traj.displacement.values()))) / horizon

    rates = [one(rep) for rep in range(replicas)]
    mean_rate = float(np.mean(rates))
    report = ComparisonReport("drift-check")
    report.add(f"displacement rate vs finite-eps speed v*(1-eps*(f(B)+f(C))) "
               f"({replicas} replicas)",
               mean_rate, sde.finite_eps_speed(params, eps), tol * params.v)
    if out:
        write_csv(out, ["replica", "rate"], list(enumerate(rates)))
    return report


def recipe_sde_vs_exact(C: float = 0.75, D: float = 1.5, m: int = 4, m2: int = 2,
                        dt: float = 1e-3, t: float = 2.0, replicas: int = 10000,
                        seed: int = 123, out: str = None):
    if replicas < 2:
        raise ConfigError(f"sde-vs-exact needs replicas >= 2 for a standard error, "
                          f"got {replicas}")
    params = ModelParams(C=C, D=D)
    nsteps = sde.step_count(t, dt, "t")
    chunks = 8
    sizes = [replicas // chunks + (1 if i < replicas % chunks else 0) for i in range(chunks)]
    seeds = np.random.SeedSequence(seed).spawn(chunks)

    def one(i):
        snaps = sde.euler_maruyama_ensemble(np.zeros((m, m)), params, m2, dt, nsteps,
                                            seed=seeds[i], snapshot_steps=[nsteps],
                                            replicas=sizes[i])
        return snaps[nsteps]

    xi = np.concatenate(thread_map(one, range(chunks)), axis=0)
    report = ComparisonReport("sde-vs-exact")
    rows = []
    for y in [(0, 0), (1, 0), (0, 1)]:
        prod = xi * sde.shift_field(xi, y, m2)
        z_r = prod.mean(axis=(1, 2))
        est = float(z_r.mean())
        se = float(z_r.std(ddof=1)) / math.sqrt(replicas)
        exact = corr.covariance_finite_m(
            corr.CovarianceQuery(y=y, t=t, s=t), m, m2, params).value
        report.add(f"covariance y={y} (3 MC std errors)", est, exact, 3 * se)
        rows.append((y[0], y[1], est, exact, se))
    if out:
        write_csv(out, ["y1", "y2", "mc", "exact", "se"], rows)
    return report


def recipe_cor1_log_growth(C: float = 0.5, D: float = 1.5, tol: float = 0.05,
                           out: str = None):
    params = ModelParams(C=C, D=D)
    spectral = spectral_data(drift_coeffs(params))
    ts = (50.0, 100.0, 200.0, 400.0, 800.0)
    vals = [corr.covariance_quadrature(
        corr.CovarianceQuery(y=(0, 0), t=t, s=t), params).value for t in ts]
    slope = float(np.polyfit(np.log(ts), vals, 1)[0])
    target = params.v / (4 * math.pi * spectral.w)
    report = ComparisonReport("cor1-log-growth")
    report.add("slope of W0(t,t) against log t", slope, target, tol * target)
    if out:
        write_csv(out, ["t", "W0"], list(zip(ts, vals)))
    return report


def recipe_cor2_characteristic(C: float = 0.5, D: float = 1.5, t: float = 400.0,
                               s: float = 300.0, seed: int = 11, tol: float = 0.10,
                               out: str = None):
    if not 0 <= s < t < math.inf:
        raise ParameterError(f"need 0 <= s < t < inf, got t={t}, s={s}")
    params = ModelParams(C=C, D=D)
    spectral = spectral_data(drift_coeffs(params))
    gap = t - s
    s = t - gap  # t - s == gap exactly, the lag y_char uses; s moves by an ulp when s < t/2
    y_char = tuple(int(a) for a in np.floor(spectral.U * gap))
    # the characteristic regime of covariance_asymptotic, which applies at y_char
    target = corr.covariance_asymptotic(corr.CovarianceQuery(y=y_char, t=t, s=s),
                                        spectral, params).value
    rng = np.random.default_rng(seed)
    y_off = []
    for _ in range(8):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.75, 1.5)
        u = spectral.U + rad * np.array([np.cos(ang), np.sin(ang)])
        y_off.append(tuple(int(a) for a in np.floor(u * gap)))

    def w_at(y):
        return corr.covariance_quadrature(
            corr.CovarianceQuery(y=y, t=t, s=s), params).value

    w_char = w_at(y_char)
    off = [w_at(y) for y in y_off]
    report = ComparisonReport("cor2-characteristic")
    report.add("characteristic W vs log((t+s)/(t-s))", w_char, target, tol * target)
    for i, w_off in enumerate(off):
        report.add(f"off-characteristic direction {i} below 25% of characteristic",
                   abs(w_off), 0.0, 0.25 * w_char)
    if out:
        rows = [("characteristic", y_char[0], y_char[1], w_char)]
        rows += [(f"off-{i}", *y, w) for i, (y, w) in enumerate(zip(y_off, off))]
        write_csv(out, ["direction", "y1", "y2", "W"], rows)
    return report


def recipe_cor3_she(C: float = 0.5, D: float = 1.5, t: float = 4.0, s: float = 2.0,
                    delta_list: tuple = (1e-1, 1e-2, 1e-3), tol: float = 0.01,
                    out: str = None):
    params = ModelParams(C=C, D=D)
    spectral = spectral_data(drift_coeffs(params))
    x, y = (1.0, 0.0), (0.0, 0.0)
    she = corr.she_covariance(x, y, t, s)
    if she == 0:
        raise ParameterError(f"the SHE covariance at t={t}, s={s} is 0, so the relative "
                             f"error is undefined")
    rels = []
    rows = []
    for d in delta_list:
        val = corr.she_scaled_lattice_covariance(x, y, t, s, d, spectral, params)
        rel = abs(val - she) / she
        rels.append(rel)
        rows.append((d, val, she, rel))
    report = ComparisonReport("cor3-she")
    for i in range(1, len(rels)):
        report.add_bound(f"relative error decreasing at delta={delta_list[i]:g}",
                         rels[i], rels[i - 1])
    report.add("final relative error", rels[-1], 0.0, tol)
    if out:
        write_csv(out, ["delta", "scaled", "she", "rel_err"], rows)
    return report


def _read_phi(path, m):
    """Test function from 'p1 p2 value' rows with centred labels in [-m/2, m/2)."""
    phi = np.zeros((m, m))
    seen = set()
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        fields = raw.partition("#")[0].split()
        if not fields:
            continue
        try:
            p1, p2, val = map(float, fields)
            ok = p1.is_integer() and p2.is_integer() and math.isfinite(val)
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(f"{path} line {lineno}: expected 'p1 p2 value' with integer "
                              f"labels, got {raw.strip()!r}")
        i1, i2 = int(p1) + m // 2, int(p2) + m // 2
        if not (0 <= i1 < m and 0 <= i2 < m):
            raise ConfigError(f"{path} line {lineno}: label ({int(p1)}, {int(p2)}) "
                              f"outside [-m/2, m/2) for m={m}")
        if (i1, i2) in seen:
            raise ConfigError(f"{path} line {lineno}: repeated label ({int(p1)}, {int(p2)})")
        seen.add((i1, i2))
        phi[i1, i2] = val
    if not phi.any():
        raise ConfigError(f"{path}: no nonzero value")
    return phi


def recipe_gff_variance(C: float = 0.5, D: float = 1.5, delta: float = 1 / 16, m: int = 256,
                        m2: int = None, phi: str = None, tol: float = 0.05, out: str = None):
    params = ModelParams(C=C, D=D)
    spectral = spectral_data(drift_coeffs(params))
    m2 = m // 2 if m2 is None else m2
    grid = _read_phi(phi, m) if phi else corr.two_bump_test_function(delta, m)
    g = corr.gff_smoothed_variance(grid, delta, m, m2, params, spectral)
    report = ComparisonReport("gff-variance")
    report.add("lattice vs continuum variance", g.lattice, g.continuum,
               tol * abs(g.continuum))
    if out:
        write_csv(out, ["lattice", "continuum", "rel_gap"],
                  [(g.lattice, g.continuum, abs(g.lattice - g.continuum) / abs(g.continuum))])
    return report


def recipe_qpoch_asymptotics(tol: float = 1e-2, out: str = None):
    b, x1, x2 = 1.0, 0.0, 10.0
    epss = (1e-2, 1e-3, 1e-4)
    errs = []
    rows = []
    for eps in epss:
        q = math.exp(-eps)
        a1 = int(round(b / eps + x1))
        a2 = int(round(b / eps + x2))
        exact = ctmc.log_q_pochhammer(q, a1) - ctmc.log_q_pochhammer(q, a2)
        asym = log_qpoch_asymptotic(eps, b, x1) - log_qpoch_asymptotic(eps, b, x2)
        errs.append(abs(exact - asym))
        rows.append((eps, exact, asym, errs[-1]))
    report = ComparisonReport("qpoch-asymptotics")
    for i in range(1, len(errs)):
        report.add_bound(f"error decreasing at eps={epss[i]:g}", errs[i], errs[i - 1])
    report.add("final error below threshold", errs[-1], 0.0, tol)
    if out:
        write_csv(out, ["eps", "exact_diff", "asymptotic_diff", "error"], rows)
    return report


_RECIPES = {
    "symbol-properties": recipe_symbol_properties,
    "stationarity-oracle": recipe_stationarity_oracle,
    "drift-check": recipe_drift_check,
    "sde-vs-exact": recipe_sde_vs_exact,
    "cor1-log-growth": recipe_cor1_log_growth,
    "cor2-characteristic": recipe_cor2_characteristic,
    "cor3-she": recipe_cor3_she,
    "gff-variance": recipe_gff_variance,
    "qpoch-asymptotics": recipe_qpoch_asymptotics,
}
EXPERIMENTS = tuple(_RECIPES)


_SCHEMA = {"experiment": str, **{key: param.annotation for recipe in _RECIPES.values()
                                 for key, param in inspect.signature(recipe).parameters.items()}}


def run_experiment(config) -> ComparisonReport:
    """Dispatch an ExperimentConfig to its recipe; deterministic per seed.
    A key the recipe does not take is a ConfigError, raised before any work."""
    if config.experiment not in _RECIPES:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    unused = sorted(config.values.keys()
                    - inspect.signature(_RECIPES[config.experiment]).parameters.keys())
    if unused:
        raise ConfigError(f"experiment {config.experiment!r} does not take "
                          f"{', '.join(map(repr, unused))}")
    return _RECIPES[config.experiment](**config.values)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ctmc(*, L: int = None, N: int = None, m1: int = None, m2: int = None, q: float,
             T: float, seed: int = 0, observe_every: float = None, crystalline: bool = False,
             start: str = None, dump_final: str = None, out: str):
    """Simulate the particle system and write its trajectory to CSV.

    It starts on the torus --L/--N/--m1/--m2 from the first enumerated (or
    with --crystalline the crystalline) configuration, or from a --start file
    ('L N m1 m2' header, 'p1 p2 x' rows), which sets the torus and takes
    none of those flags nor --crystalline; --dump-final writes the final
    configuration in the same text format."""
    if start:
        given = [flag for flag, value in {"--L": L, "--N": N, "--m1": m1, "--m2": m2}.items()
                 if value is not None] + ["--crystalline"] * crystalline
        if given:
            raise ConfigError(f"--start sets the torus and the start; it takes no "
                              f"{', '.join(given)}")
        initial = lattice.config_from_text(_read_text(start))
    else:
        if None in (L, N, m1, m2):
            raise ConfigError("either --start or all of --L/--N/--m1/--m2 are required")
        torus = TorusParams(L=L, N=N, m1=m1, m2=m2)
        if crystalline:
            initial = lattice.crystalline(torus)
        else:
            states = lattice.enumerate_configs(torus)
            if len(states) == 0:
                raise ParameterError(f"no configuration with m1={torus.m1}, m2={torus.m2} "
                                     f"on the {torus.L}x{torus.N} torus")
            initial = ParticleConfig(torus, dict(zip(torus.labels(), states[0].tolist())))
    traj = ctmc.simulate(initial, q, T, seed=seed, observe_every=observe_every or T)
    rows = [(t_obs, p1, p2, x) for t_obs, positions in traj.samples
            for (p1, p2), x in sorted(positions.items())]
    write_csv(out, ["time", "p1", "p2", "x_p"], rows)
    if dump_final:
        with open(dump_final, "w", newline="\n") as fh:
            fh.write(lattice.config_to_text(traj.final))
    print(f"wrote {len(rows)} rows to {out} ({len(traj.events)} events)")
    return 0


def cmd_sde(*, C: float, D: float, m: int, m2: int, dt: float, T: float, replicas: int = 1,
            seed: int = 0, observe_every: float = None, out: str):
    """Integrate the limiting SDE system and write its trajectories to CSV.

    --T and --observe-every must be integer multiples of --dt."""
    params = ModelParams(C=C, D=D)
    sde.step_count(observe_every or 0, dt, "observe_every")
    sites = [f"{p1},{p2}" for p1 in range(m) for p2 in range(m)]
    lines = []
    seeds = np.random.SeedSequence(seed).spawn(replicas)
    for rep in range(replicas):
        states = sde.euler_maruyama(np.zeros((m, m)), params, dt, T, seeds[rep], m2=m2,
                                    record_every=observe_every or T)
        for t, xi in states:  # one 'replica,t,p1,p2,xi' line per site, as write_csv formats it
            head = f"{rep},{t:.17g},"
            lines += [f"{head}{site},{x:.17g}\n" for site, x in zip(sites, xi.ravel().tolist())]
    with open(out, "w", newline="\n") as fh:
        fh.write("replica,t,p1,p2,xi\n")
        fh.writelines(lines)
    print(f"wrote {len(lines)} rows to {out}")
    return 0


def cmd_cov(*, C: float, D: float, m: int = None, m2: int = None, t: float, s: float, y1: int,
            y2: int, method: str, out: str = None):
    """Evaluate a covariance query W_y(t,s).

    --method is finite (the mode sum on the --m x --m torus, which needs --m
    and --m2), quad, kernel or asymptotic."""
    params = ModelParams(C=C, D=D)
    query = corr.CovarianceQuery(y=(y1, y2), t=t, s=s)
    if method == "finite" and (m is None or m2 is None):
        raise ConfigError("--method finite requires --m and --m2")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is reported below
        if method == "finite":
            res = corr.covariance_finite_m(query, m, m2, params)
        elif method == "quad":
            res = corr.covariance_quadrature(query, params)
        else:
            route = (corr.covariance_heat_kernel if method == "kernel"
                     else corr.covariance_asymptotic)
            res = route(query, spectral_data(drift_coeffs(params)), params)
    if not math.isfinite(res.value):
        raise ParameterError(f"{res.method}: W_y(t,s) = {res.value} is not finite at "
                             f"t={t}, s={s}")
    rows = [(res.t, res.s, res.y[0], res.y[1], res.method, res.value, res.err_est)]
    if out:
        write_csv(out, ["t", "s", "y1", "y2", "method", "value", "err_est"], rows)
    print(f"{res.method}: W_y(t,s) = {_fmt(res.value)} (err_est {_fmt(res.err_est)})")
    return 0


# Subcommands that call one function with its keyword parameters as flags.
_COMMANDS = {"ctmc": cmd_ctmc, "sde": cmd_sde, "cov": cmd_cov}


# Subcommands that run one recipe with its keys as flags: alias -> recipe.
_ALIASES = {
    "oracle-stationarity": "stationarity-oracle",
    "she-check": "cor3-she",
    "gff": "gff-variance",
    "validate": "symbol-properties",
}


def _flag_values(args, fn):
    """The flags of `fn` given in `args`: a switch is True, and any other value
    is checked by `_parse_value` against the annotation of its parameter."""
    params = inspect.signature(fn).parameters
    return {key: text if text is True else _parse_value(
                key, params[key].annotation, " ".join(text) if isinstance(text, list) else text)
            for key, text in vars(args).items() if key in params}


def _run_printed(config):
    """Run a config, print its report lines, and return the exit code of its verdict."""
    report = run_experiment(config)
    print("\n".join(report.lines()))
    return 0 if report.passed else 1


def cmd_run(args):
    return _run_printed(parse_config(_read_text(args.config)))


def cmd_all(args):
    failures = sum(_run_printed(ExperimentConfig(name)) for name in EXPERIMENTS)
    print(f"\n{'ALL PASS' if failures == 0 else f'{failures} experiment(s) FAILED'}")
    return 0 if failures == 0 else 1


def _add_flags(parser, fn):
    """One `--key` flag per parameter of `fn`, `_` written as `-`: required
    without a default, a switch for a bool, one or more words for a tuple."""
    for key, param in inspect.signature(fn).parameters.items():
        kind = ({"action": "store_true"} if param.annotation is bool else
                {"required": param.default is param.empty,
                 "nargs": "+" if param.annotation is tuple else None})
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            default=argparse.SUPPRESS, **kind)


def build_parser():
    parser = argparse.ArgumentParser(prog="akpz", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, fn in _COMMANDS.items():
        doc = inspect.getdoc(fn)
        p = sub.add_parser(command, help=doc.splitlines()[0], description=doc)
        _add_flags(p, fn)
        p.set_defaults(func=lambda args, fn=fn: fn(**_flag_values(args, fn)))
    for alias, name in _ALIASES.items():
        p = sub.add_parser(alias, help=f"run recipe {name}, its keys as flags")
        _add_flags(p, _RECIPES[name])
        p.set_defaults(func=lambda args, name=name: _run_printed(
            ExperimentConfig(name, _flag_values(args, _RECIPES[name]))))

    p = sub.add_parser("run", help="run a recipe from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("all", help="run the full verification suite")
    p.set_defaults(func=cmd_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AkpzError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2
