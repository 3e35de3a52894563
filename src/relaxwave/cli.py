"""Command-line entry point tying every module together.

Subcommands: dispersion, critical-alpha, soliton-profile, classify,
bilinear, verify, simulate, figure, run-report, medium.  Every output is
deterministic byte for byte for identical inputs: floats carry 17
significant digits, JSON keys are sorted, CSV uses CRLF endings, and no
artifact embeds timestamps.

Exit codes: 0 success, 2 domain error, 3 numerical abort, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import random
import sys
from pathlib import Path

import numpy as np

from .dispersion import (
    alpha_critical,
    complex_dispersion_residual,
    make_complex_wave,
    real_dispersion_residual,
    solve_real,
)
from .errors import DomainError, NumericalError, ToolkitError
from .hirota import VARIANTS, bilinear_residual
from .medium import (
    MediumParams,
    high_freq_coeffs,
    low_freq_coeffs,
    reduce_combined,
    reduce_swsp,
)
from .output import (
    canonical_json,
    config_value,
    csv_text,
    fmt,
    parse_config,
    to_jsonable,
    write_csv_series,
    write_json,
    write_svg,
)
from .sim import (
    MKdVBCoeffs,
    SimStateMKdVB,
    boundary_from_wave,
    compare_to_exact,
    evolve_mkdvb,
    evolve_system19,
    soliton_state19,
)
from .soliton import ShapeClass, classify, profile
from .verify import (
    METHODS,
    GridSpec,
    ResidualReport,
    complex_residual_reports,
    eq11_residual_physical,
    exactness_forcing,
    manufactured_selftest,
    real_residual_reports,
    system19_point_residual,
)

_DEFAULT_FIGURE_ALPHAS = (alpha_critical(0.24), 0.1, 0.8)

# --system token -> system name
_SYSTEM_TOKENS = {"19": "coupled", "coupled": "coupled", "14": "factored",
                  "factored": "factored", "eqq11": "complex", "complex": "complex",
                  "11": "physical", "physical": "physical", "mkdvb": "mkdvb"}

# verify's grid options: one per GridSpec field, with its default
_GRID = tuple(f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(GridSpec))

# The options that each --system of verify and simulate reads.  Any other
# option of the command that the command line names is refused before any
# work (exit 2).
_READS = {
    "verify": {"coupled": ("--v", "--alpha", "--method", "--point", *_GRID),
               "factored": ("--v", "--alpha", "--method", *_GRID),
               "complex": ("--k-re", "--k-im", "--root", "--alpha", "--method", *_GRID),
               "physical": ("--v", "--alpha", "--tau-point", "--sigma-min", "--sigma-max",
                            "--n-sigma")},
    "simulate": {"coupled": ("--config",), "mkdvb": ("--config", "--seed")},
}


@dataclasses.dataclass(frozen=True)
class FigureSpec:
    """Parameters of the profile-figure emitter.

    The defaults reproduce the reference display: v = 0.24 with the three
    regime representatives (critical, below-critical, above-critical) at
    initial time.
    """

    v: float = 0.24
    alphas: tuple[float, ...] = _DEFAULT_FIGURE_ALPHAS
    tau: float = 0.0
    sigma_min: float = -15.0
    sigma_max: float = 15.0
    n: int = 601
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.fmt not in ("csv", "svg"):
            raise DomainError(f"figure format must be csv or svg, got {self.fmt!r}")
        if not self.alphas:
            raise DomainError("figure needs at least one alpha")
        for name in ("tau", "sigma_min", "sigma_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"figure {name} must be finite, got {value}")


def _print(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _emit_json(args, obj) -> None:
    if args.out:
        write_json(args.out, obj)
        _print(args, f"wrote {args.out}")
    else:
        sys.stdout.write(canonical_json(obj))


def _emit_csv(args, header, rows) -> None:
    if args.out:
        write_csv_series([args.out], header, rows[:, 0], [rows[:, 1:]])
        _print(args, f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text(header, rows))


def _report_obj(rep: ResidualReport) -> dict:
    eqs = []
    for e in rep.equations:
        normalized = e.linf / e.normalization if e.normalization > 0.0 else 0.0
        eqs.append({"equation": e.equation, "linf": e.linf, "l2": e.l2,
                    "normalization": e.normalization, "normalized": normalized})
    return {"system": rep.system, "method": rep.method,
            "grid": to_jsonable(rep.grid), "equations": eqs}


def _bilinear_obj(w, variant: str) -> dict:
    rep = bilinear_residual(w, variant)
    return {"variant": rep.variant,
            "line1_linf": rep.line1_linf, "line2_linf": rep.line2_linf,
            "line1_normalization": rep.line1_normalization,
            "line2_normalization": rep.line2_normalization,
            "grid": {"sigma_range": list(rep.sigma_range),
                     "tau_range": list(rep.tau_range),
                     "n_sigma": rep.n_sigma, "n_tau": rep.n_tau}}


def _shape_obj(sc: ShapeClass) -> dict:
    return {"class": sc.shape, "momentum_shape": sc.momentum_shape,
            "singular_thetas": list(sc.singular_thetas)}


def _config_from_path(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _reject_unread(cfg: dict[str, str], keys: tuple[str, ...], reader: str) -> None:
    """Refuse config keys outside ``keys``: a misspelt key would otherwise
    leave its value at the default without a word."""
    unread = sorted(set(cfg) - set(keys))
    if unread:
        raise DomainError(f"{reader} does not read config key(s) "
                          + ", ".join(map(repr, unread)))


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _cmd_dispersion(args) -> int:
    w = solve_real(args.v, args.alpha)
    _emit_json(args, {"v": args.v, "alpha": args.alpha, "k": w.k, "omega": w.omega,
                      "residual": real_dispersion_residual(w.k, w.omega, args.alpha)})
    return 0


def _cmd_critical_alpha(args) -> int:
    val = alpha_critical(args.v)
    if args.format == "json":
        _emit_json(args, {"v": args.v, "alpha_critical": val})
    elif args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(fmt(val) + "\n")
        _print(args, f"wrote {args.out}")
    else:
        print(fmt(val))
    return 0


def _cmd_soliton_profile(args) -> int:
    w = solve_real(args.v, args.alpha, theta0=args.theta0)
    p = profile(w, tau=args.tau, sigma_min=args.sigma_min,
                sigma_max=args.sigma_max, n=args.n, C=args.C)
    rows = np.column_stack((p.sigma, p.theta, p.u, p.Z, p.y, p.pi, p.dZdsigma))
    _emit_csv(args, ("sigma", "theta", "u", "Z", "y", "pi", "dZdsigma"), rows)
    return 0


def _cmd_classify(args) -> int:
    w = solve_real(args.v, args.alpha)
    sc = classify(w, tol=args.tol)
    _emit_json(args, {"v": args.v, "alpha": args.alpha, **_shape_obj(sc),
                      "alpha_critical": sc.alpha_critical})
    return 0


def _cmd_bilinear(args) -> int:
    w = solve_real(args.v, args.alpha)
    names = {"squared": "squared-alpha", "linear": "linear-alpha"}
    variants = list(VARIANTS) if args.variant == "both" else [names[args.variant]]
    _emit_json(args, {"v": args.v, "alpha": args.alpha,
                      "reports": [_bilinear_obj(w, v) for v in variants]})
    return 0


def _refuse_unread_options(args) -> None:
    system = _SYSTEM_TOKENS[args.system]
    for option in args.named:
        if option not in _READS[args.command][system]:
            raise DomainError(f"{option} is not read by --system {system}")


def _cmd_verify(args) -> int:
    token = _SYSTEM_TOKENS[args.system]
    methods = METHODS if args.method == "all" else (args.method,)
    grid = GridSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GridSpec)})
    obj: dict = {"system": token, "reports": []}
    if token == "complex":
        cw = make_complex_wave(complex(args.k_re, args.k_im), args.alpha,
                               root=args.root)
        obj.update({"alpha": args.alpha,
                    "k": {"re": cw.k.real, "im": cw.k.imag},
                    "omega": {"re": cw.omega.real, "im": cw.omega.imag},
                    "dispersion_residual": abs(complex_dispersion_residual(
                        cw.k, cw.omega, cw.alpha))})
        obj["reports"] = [_report_obj(r) for r in complex_residual_reports(cw, grid, methods)]
    elif token == "physical":
        w = solve_real(args.v, args.alpha)
        samples = profile(w, tau=args.tau_point,
                          sigma_min=args.sigma_min, sigma_max=args.sigma_max,
                          n=max(args.n_sigma, 201))
        obj.update({"v": args.v, "alpha": args.alpha})
        obj["reports"].append(_report_obj(eq11_residual_physical(samples, args.alpha)))
    else:
        w = solve_real(args.v, args.alpha)
        obj.update({"v": args.v, "alpha": args.alpha, "k": w.k, "omega": w.omega})
        obj["reports"] = [_report_obj(r)
                          for r in real_residual_reports(w, grid, methods, (token,))]
        if args.point is not None:  # read by --system coupled only
            s0, t0 = args.point
            pts = {m: dict(zip(("r1", "r2"), system19_point_residual(w, s0, t0, m)))
                   for m in methods}
            obj["point"] = {"sigma": s0, "tau": t0, "residuals": pts}
    _emit_json(args, obj)
    return 0


def _parse_alpha_tokens(text: str, v: float) -> tuple[float, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "critical":
            out.append(alpha_critical(v))
        else:
            try:
                out.append(float(tok))
            except ValueError as exc:
                raise DomainError(f"bad alpha token {tok!r}") from exc
    return tuple(out)


def figure(spec: FigureSpec, out_dir: str | Path) -> dict:
    """Emit the parametric profile curves and manifest for one FigureSpec."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    panels = []
    for i, a in enumerate(spec.alphas, start=1):
        w = solve_real(spec.v, a)
        sc = classify(w)
        p = profile(w, tau=spec.tau, sigma_min=spec.sigma_min,
                    sigma_max=spec.sigma_max, n=spec.n)
        files = {}
        for name, field in (("u", p.u), ("pi", p.pi)):
            files[name] = f"curve_{i:02d}_{name}.csv"
            write_csv_series([out / files[name]], ("sigma", "y", name), p.sigma,
                             [np.column_stack((p.y, field))])
            if spec.fmt == "svg":
                files[f"svg_{name}"] = f"curve_{i:02d}_{name}.svg"
                write_svg(out / files[f"svg_{name}"], [(p.y, field, f"alpha={fmt(a)}")],
                          "y", name)
        panels.append({"alpha": a, **_shape_obj(sc), "files": files})
    manifest = {"schema_version": 1, "v": spec.v, "tau": spec.tau,
                "sigma_min": spec.sigma_min, "sigma_max": spec.sigma_max,
                "n": spec.n, "format": spec.fmt, "panels": panels}
    write_json(out / "figure_manifest.json", manifest)
    return manifest


def _cmd_figure(args) -> int:
    if not args.out:
        raise DomainError("figure requires --out <directory>")
    alphas = (_parse_alpha_tokens(args.alphas, args.v) if args.alphas
              else _DEFAULT_FIGURE_ALPHAS)
    spec = FigureSpec(v=args.v, alphas=alphas, tau=args.tau,
                      sigma_min=args.sigma_min, sigma_max=args.sigma_max,
                      n=args.n, fmt=args.format)
    figure(spec, args.out)
    _print(args, f"wrote {args.out}")
    return 0


def run_report(cfg: dict[str, str], seed: int = 0) -> tuple[dict, int]:
    """Consolidated findings report; returns (document, exit_code)."""
    _reject_unread(cfg, ("v", "alphas", "n_samples"), "run-report")
    v = config_value(cfg, "v", float, 0.24)
    alphas = config_value(cfg, "alphas", list, _DEFAULT_FIGURE_ALPHAS)
    n_samples = config_value(cfg, "n_samples", int, 200)
    grid = GridSpec()

    # random, not numpy.random: the draws are few, and numpy.random costs
    # a fresh process about 6 MB and 15 ms to import
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_samples):
        vv = rng.uniform(-0.99, 0.99)
        aa = rng.uniform(0.0, 5.0)
        ww = solve_real(vv, aa)
        worst = max(worst, abs(real_dispersion_residual(ww.k, ww.omega, aa)))

    entries = []
    for a in alphas:
        entry: dict = {"alpha": a}
        try:
            w = solve_real(v, a)
            entry["dispersion"] = {
                "k": w.k, "omega": w.omega,
                "residual": real_dispersion_residual(w.k, w.omega, a)}
            entry["classification"] = _shape_obj(classify(w))
            entry["bilinear"] = [_bilinear_obj(w, var) for var in VARIANTS]
            coupled, factored = real_residual_reports(w, grid, ("analytic",))
            entry["verify"] = {"coupled": _report_obj(coupled),
                               "factored": _report_obj(factored)}
        except ToolkitError as exc:
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        entries.append(entry)

    report = {
        "schema_version": 1,
        "v": v,
        "alpha_critical": alpha_critical(v) if 0.0 < v < 1.0 else None,
        "seed": seed,
        "selftest": to_jsonable(manufactured_selftest()),
        "property_samples": {"n": n_samples,
                             "max_real_dispersion_residual": worst},
        "entries": entries,
    }
    code = 0
    for entry in entries:
        if "error" in entry:
            code = 3 if entry["error"]["type"] == "NumericalError" else 2
            break
    return report, code


def _cmd_run_report(args) -> int:
    cfg = _config_from_path(args.config)
    report, code = run_report(cfg, seed=args.seed)
    _emit_json(args, report)
    return code


def _simulate_system19(cfg: dict[str, str], out: Path) -> None:
    _reject_unread(cfg, ("v", "alpha", "theta0", "sigma_min", "sigma_max", "n", "T", "dt",
                         "n_snapshots", "bc", "forcing", "linearized"),
                   "simulate --system 19")
    v = config_value(cfg, "v", float, 0.24)
    alpha = config_value(cfg, "alpha", float, 0.8)
    theta0 = config_value(cfg, "theta0", float, 0.0)
    sigma_min = config_value(cfg, "sigma_min", float, -15.0)
    sigma_max = config_value(cfg, "sigma_max", float, 15.0)
    n = config_value(cfg, "n", int, 301)
    if n < 8:
        raise DomainError(f"config key 'n': need at least 8 grid points, got {n}")
    h = (sigma_max - sigma_min) / (n - 1)
    T = config_value(cfg, "T", float, 5.0)
    dt = config_value(cfg, "dt", float, 0.4 * h)
    n_snapshots = config_value(cfg, "n_snapshots", int, 11)
    bc_mode = config_value(cfg, "bc", str, "wave")
    forcing_mode = config_value(cfg, "forcing", str, "none")
    linearized = config_value(cfg, "linearized", bool, False)
    if bc_mode not in ("wave", "frozen"):
        raise DomainError(f"config key 'bc': expected wave|frozen, got {bc_mode!r}")
    if forcing_mode not in ("none", "exactness"):
        raise DomainError(
            f"config key 'forcing': expected none|exactness, got {forcing_mode!r}")

    w = solve_real(v, alpha, theta0=theta0)
    sigma = np.linspace(sigma_min, sigma_max, n)
    init = soliton_state19(w, sigma)
    bc = boundary_from_wave(w, sigma_min, sigma_max) if bc_mode == "wave" else None
    forcing = exactness_forcing(w, linearized) if forcing_mode == "exactness" else None
    traj = evolve_system19(init, alpha, T, dt, bc=bc, forcing=forcing,
                           linearized=linearized, n_snapshots=n_snapshots)
    errs = compare_to_exact(traj, w)

    out.mkdir(parents=True, exist_ok=True)
    names = [f"snapshot_{i:03d}.csv" for i in range(len(traj.taus))]
    write_csv_series([out / name for name in names], ("sigma", "u", "ut", "Z", "zt"),
                     traj.sigma, (np.column_stack(fields) for fields in
                                  zip(traj.u, traj.ut, traj.Z, traj.zt)))
    snaps = [{"index": i, "tau": tau, "file": name,
              "u_linf": float(np.max(np.abs(traj.u[i]))),
              "u_rms": float(np.sqrt(np.mean(np.square(traj.u[i])))),
              "z_linf": float(np.max(np.abs(traj.Z[i]))),
              "z_rms": float(np.sqrt(np.mean(np.square(traj.Z[i])))),
              "drift_u_linf": errs.u_linf[i], "drift_u_rms": errs.u_l2[i],
              "drift_z_linf": errs.z_linf[i], "drift_z_rms": errs.z_l2[i]}
             for i, (tau, name) in enumerate(zip(traj.taus, names))]
    manifest = {
        "schema_version": 1, "system": "19",
        "params": {"v": v, "alpha": alpha, "theta0": theta0,
                   "sigma_min": sigma_min, "sigma_max": sigma_max, "n": n,
                   "h": h, "T": T, "dt": dt, "n_snapshots": n_snapshots,
                   "bc": bc_mode, "forcing": forcing_mode,
                   "linearized": linearized,
                   "k": w.k, "omega": w.omega},
        "snapshots": snaps}
    write_json(out / "run_manifest.json", manifest)


def _simulate_mkdvb(cfg: dict[str, str], out: Path, seed: int) -> None:
    run_keys = ("length", "n", "T", "dt", "n_snapshots", "ic", "amp", "width", "mode")
    if "tau" in cfg or "v_f" in cfg:
        _reject_unread(cfg, run_keys + ("tau", "v_e", "v_f", "alpha_e", "a_e"),
                       "simulate --system mkdvb with 'tau' or 'v_f' (the medium route)")
        m = MediumParams(tau=config_value(cfg, "tau", float),
                         v_e=config_value(cfg, "v_e", float),
                         v_f=config_value(cfg, "v_f", float),
                         alpha_e=config_value(cfg, "alpha_e", float, 0.0),
                         a_e=config_value(cfg, "a_e", float, 1.0))
        coeffs = MKdVBCoeffs.from_medium(m)
    else:
        _reject_unread(cfg, run_keys + ("v_e", "quad", "cubic", "beta", "gamma"),
                       "simulate --system mkdvb")
        coeffs = MKdVBCoeffs(v_e=config_value(cfg, "v_e", float, 1.0),
                             quad=config_value(cfg, "quad", float, 1.0),
                             cubic=config_value(cfg, "cubic", float, 1.0),
                             beta=config_value(cfg, "beta", float, 0.1),
                             gamma=config_value(cfg, "gamma", float, 0.02))
    length = config_value(cfg, "length", float, 50.0)
    n = config_value(cfg, "n", int, 256)
    T = config_value(cfg, "T", float, 1.0)
    dt = config_value(cfg, "dt", float, 1e-3)
    n_snapshots = config_value(cfg, "n_snapshots", int, 11)
    ic = config_value(cfg, "ic", str, "gauss")
    amp = config_value(cfg, "amp", float, 0.1)
    width = config_value(cfg, "width", float, 2.0)
    mode = config_value(cfg, "mode", int, 1)

    x = length * np.arange(n) / n
    if ic == "gauss":
        p0 = amp * np.exp(-np.square((x - 0.5 * length) / width))
    elif ic == "sine":
        p0 = amp * np.sin(2.0 * np.pi * mode * x / length)
    elif ic == "random":
        rng = np.random.default_rng(seed)
        p0 = np.zeros(n)
        for m_idx in range(1, 7):
            c1, c2 = rng.standard_normal(2)
            p0 += (c1 * np.cos(2.0 * np.pi * m_idx * x / length)
                   + c2 * np.sin(2.0 * np.pi * m_idx * x / length)) / m_idx**2
        p0 *= amp
    else:
        raise DomainError(f"config key 'ic': expected gauss|sine|random, got {ic!r}")

    init = SimStateMKdVB(x=x, p=p0, coeffs=coeffs)
    traj = evolve_mkdvb(init, T, dt, n_snapshots=n_snapshots)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"snapshot_{i:03d}.csv" for i in range(len(traj.ts))]
    write_csv_series([out / name for name in names], ("x", "p"), traj.x, traj.p)
    snaps = [{"index": i, "t": t, "file": name, "mean": traj.means[i], "rms": traj.rms[i]}
             for i, (t, name) in enumerate(zip(traj.ts, names))]
    manifest = {
        "schema_version": 1, "system": "mkdvb",
        "params": {"v_e": coeffs.v_e, "quad": coeffs.quad,
                   "cubic": coeffs.cubic, "beta": coeffs.beta,
                   "gamma": coeffs.gamma, "length": length, "n": n, "T": T,
                   "dt": dt, "n_snapshots": n_snapshots, "ic": ic,
                   "amp": amp, "width": width, "mode": mode,
                   "seed": seed},
        "snapshots": snaps}
    write_json(out / "run_manifest.json", manifest)


def _cmd_simulate(args) -> int:
    if not args.out:
        raise DomainError("simulate requires --out <directory>")
    cfg = _config_from_path(args.config)
    out = Path(args.out)
    if _SYSTEM_TOKENS[args.system] == "coupled":
        _simulate_system19(cfg, out)
    else:
        _simulate_mkdvb(cfg, out, args.seed)
    _print(args, f"wrote {out}")
    return 0


_MEDIUM_KEYS = ("tau", "v_e", "v_f", "alpha_e", "a_e", "alpha_f", "a_f")


def _cmd_medium(args) -> int:
    cfg = _config_from_path(args.config)
    _reject_unread(cfg, _MEDIUM_KEYS, "medium")

    def pick(name: str, default: float | None = None) -> float:
        flag = getattr(args, name)
        return flag if flag is not None else config_value(cfg, name, float, default)

    m = MediumParams(tau=pick("tau"), v_e=pick("v_e"), v_f=pick("v_f"),
                     alpha_e=pick("alpha_e", 0.0), a_e=pick("a_e", 1.0),
                     alpha_f=pick("alpha_f", 0.0), a_f=pick("a_f", 1.0))
    hf = high_freq_coeffs(m)
    lf = low_freq_coeffs(m)
    obj = {"inputs": to_jsonable(m),
           "high_freq": {"beta_f": hf.beta_f, "gamma_f": hf.gamma_f},
           "low_freq": {"beta_e": lf.beta_e, "gamma_e": lf.gamma_e}}
    if args.reduction != "none":
        red = reduce_swsp(m) if args.reduction == "swsp" else reduce_combined(m)
        obj["reduced"] = to_jsonable(red)
        obj["reduction"] = args.reduction
    _emit_json(args, obj)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.

class _Named(argparse.Action):
    """Store the value and note the option as named on the command line, so
    that ``_READS`` can refuse it where its system does not read it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.named = (*namespace.named, self.option_strings[0])


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _system_tokens(command: str) -> tuple[str, ...]:
    return tuple(t for t, system in _SYSTEM_TOKENS.items() if system in _READS[command])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output file (or directory for multi-file commands)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational notes")
    wave = argparse.ArgumentParser(add_help=False)
    wave.add_argument("--v", type=float, required=True)
    wave.add_argument("--alpha", type=float, required=True)
    # the profile samples of soliton-profile and figure
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--tau", type=float, default=0.0)
    samples.add_argument("--sigma-min", type=float, default=-15.0)
    samples.add_argument("--sigma-max", type=float, default=15.0)
    samples.add_argument("--n", type=int, default=601)

    ap = argparse.ArgumentParser(
        prog="relaxwave",
        description="Soliton analysis, verification and simulation toolkit "
                    "for nonlinear waves in relaxing media.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", parents=[common, wave],
                       help="solve the real dispersion relation")
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("critical-alpha", parents=[common],
                       help="critical dissipative parameter at velocity v")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--format", choices=("json",), default=None,
                   help="json for a JSON object; the plain number without it")
    p.set_defaults(func=_cmd_critical_alpha)

    p = sub.add_parser("soliton-profile", parents=[common, wave, samples],
                       help="parametric profile samples as CSV")
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--C", type=float, default=0.0)
    p.set_defaults(func=_cmd_soliton_profile)

    p = sub.add_parser("classify", parents=[common, wave],
                       help="loop/cusp/kink shape classification")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bilinear", parents=[common, wave],
                       help="bilinear-line residual measurement")
    p.add_argument("--variant", choices=("both", "squared", "linear"),
                   default="both")
    p.set_defaults(func=_cmd_bilinear)

    p = sub.add_parser("verify", parents=[common],
                       help="residual report of a candidate solution")
    p.add_argument("--system", required=True, choices=_system_tokens("verify"))
    p.add_argument("--v", type=float, default=0.24, action=_Named)
    p.add_argument("--alpha", type=float, default=0.1, action=_Named)
    p.add_argument("--method", choices=(*METHODS, "all"), default="analytic",
                   action=_Named, help="derivative route")
    p.add_argument("--k-re", type=float, default=1.25, action=_Named,
                   help="complex system: real part of k")
    p.add_argument("--k-im", type=float, default=0.0, action=_Named,
                   help="complex system: imaginary part of k")
    p.add_argument("--root", type=int, choices=(0, 1), default=0, action=_Named,
                   help="complex system: dispersion root index")
    p.add_argument("--tau-point", type=float, default=0.0, action=_Named,
                   help="physical system: profile time")
    p.add_argument("--point", type=float, nargs=2, metavar=("SIGMA", "TAU"),
                   default=None, action=_Named,
                   help="coupled system: also report pointwise residuals here")
    for option, f in zip(_GRID, dataclasses.fields(GridSpec)):
        p.add_argument(option, type=type(f.default), default=f.default, action=_Named)
    p.set_defaults(func=_cmd_verify, named=())

    p = sub.add_parser("simulate", parents=[common],
                       help="time-integrate one of the model systems")
    p.add_argument("--system", required=True, choices=_system_tokens("simulate"))
    p.add_argument("--config", default=None, action=_Named,
                   help="flat key=value config file")
    p.add_argument("--seed", type=_seed, default=0, action=_Named,
                   help="numpy.random seed of the mkdvb random initial state")
    p.set_defaults(func=_cmd_simulate, named=())

    p = sub.add_parser("figure", parents=[common, samples],
                       help="emit profile curves (u vs y, momentum vs y)")
    p.add_argument("--v", type=float, default=FigureSpec.v)
    p.add_argument("--alphas", default=None,
                   help="comma list of alpha values; token 'critical' allowed")
    p.add_argument("--format", default=FigureSpec.fmt, help="csv (default) or svg curves")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("run-report", parents=[common],
                       help="consolidated JSON findings report")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=_seed, default=0,
                   help="random.Random seed of the property samples")
    p.set_defaults(func=_cmd_run_report)

    p = sub.add_parser("medium", parents=[common],
                       help="map physical medium parameters to model coefficients")
    for name in _MEDIUM_KEYS:
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--reduction", choices=("none", "swsp", "combined"),
                   default="none")
    p.set_defaults(func=_cmd_medium)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call only: building costs far more than parsing.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in _READS:
            _refuse_unread_options(args)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
