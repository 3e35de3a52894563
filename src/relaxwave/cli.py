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
import sys
from dataclasses import dataclass
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
    config_float,
    config_float_list,
    config_int,
    config_str,
    csv_text,
    fmt,
    to_jsonable,
    write_csv,
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
    exactness_forcing,
    soliton_state19,
)
from .soliton import classify, profile
from .verify import (
    GridSpec,
    ResidualReport,
    eq11_residual_physical,
    eq14_residual,
    manufactured_selftest,
    system19_point_residual,
    system19_residual,
    system_eqq11_residual,
)

__all__ = ["FigureSpec", "figure", "run_report", "main"]

_DEFAULT_FIGURE_ALPHAS = (alpha_critical(0.24), 0.1, 0.8)


@dataclass(frozen=True)
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
        write_csv(args.out, header, rows)
        _print(args, f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text(header, rows))


def _grid_from_args(args) -> GridSpec:
    return GridSpec(sigma_min=args.sigma_min, sigma_max=args.sigma_max,
                    n_sigma=args.n_sigma, tau_min=args.tau_min,
                    tau_max=args.tau_max, n_tau=args.n_tau)


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


def _config_from_path(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    from .output import parse_config

    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _config_bool(cfg: dict[str, str], key: str, default: bool) -> bool:
    if key not in cfg:
        return default
    val = cfg[key].strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"config key {key!r}: expected a boolean, got {cfg[key]!r}")


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
    header = ("sigma", "theta", "u", "Z", "y", "pi", "dZdsigma")
    rows = np.column_stack((p.sigma, p.theta, p.u, p.Z, p.y, p.pi, p.dZdsigma))
    _emit_csv(args, header, rows)
    return 0


def _cmd_classify(args) -> int:
    w = solve_real(args.v, args.alpha)
    sc = classify(w, tol=args.tol)
    _emit_json(args, {"v": args.v, "alpha": args.alpha, "class": sc.shape,
                      "momentum_shape": sc.momentum_shape,
                      "singular_thetas": list(sc.singular_thetas),
                      "alpha_critical": sc.alpha_critical})
    return 0


def _cmd_bilinear(args) -> int:
    w = solve_real(args.v, args.alpha)
    names = {"squared": "squared-alpha", "linear": "linear-alpha"}
    variants = list(VARIANTS) if args.variant == "both" else [names[args.variant]]
    _emit_json(args, {"v": args.v, "alpha": args.alpha,
                      "reports": [_bilinear_obj(w, v) for v in variants]})
    return 0


def _cmd_verify(args) -> int:
    token = {"19": "coupled", "coupled": "coupled", "14": "factored",
             "factored": "factored", "eqq11": "complex", "complex": "complex",
             "11": "physical", "physical": "physical"}[args.system]
    methods = ("analytic", "fd2", "fd4") if args.method == "all" else (args.method,)
    grid = _grid_from_args(args)
    obj: dict = {"system": token, "reports": []}
    if token == "complex":
        cw = make_complex_wave(complex(args.k_re, args.k_im), args.alpha,
                               root=args.root)
        obj.update({"alpha": args.alpha,
                    "k": {"re": cw.k.real, "im": cw.k.imag},
                    "omega": {"re": cw.omega.real, "im": cw.omega.imag},
                    "dispersion_residual": abs(complex_dispersion_residual(
                        cw.k, cw.omega, cw.alpha))})
        for m in methods:
            obj["reports"].append(_report_obj(system_eqq11_residual(cw, grid, m)))
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
        fn = system19_residual if token == "coupled" else eq14_residual
        for m in methods:
            obj["reports"].append(_report_obj(fn(w, grid, m)))
        if token == "coupled" and args.point is not None:
            s0, t0 = args.point
            pts = {}
            for m in methods:
                r1, r2 = system19_point_residual(w, s0, t0, m)
                pts[m] = {"r1": r1, "r2": r2}
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
        fu = f"curve_{i:02d}_u.csv"
        fp = f"curve_{i:02d}_pi.csv"
        write_csv(out / fu, ("sigma", "y", "u"), np.column_stack((p.sigma, p.y, p.u)))
        write_csv(out / fp, ("sigma", "y", "pi"), np.column_stack((p.sigma, p.y, p.pi)))
        files = {"u": fu, "pi": fp}
        if spec.fmt == "svg":
            su = f"curve_{i:02d}_u.svg"
            sp = f"curve_{i:02d}_pi.svg"
            label = f"alpha={fmt(a)}"
            write_svg(out / su, [(p.y, p.u, label)], "y", "u")
            write_svg(out / sp, [(p.y, p.pi, label)], "y", "pi")
            files["svg_u"] = su
            files["svg_pi"] = sp
        panels.append({"alpha": a, "class": sc.shape,
                       "momentum_shape": sc.momentum_shape,
                       "singular_thetas": list(sc.singular_thetas),
                       "files": files})
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
                      n=args.n, fmt=args.format or "csv")
    figure(spec, args.out)
    _print(args, f"wrote {args.out}")
    return 0


def run_report(cfg: dict[str, str], seed: int = 0) -> tuple[dict, int]:
    """Consolidated findings report; returns (document, exit_code)."""
    v = config_float(cfg, "v", 0.24)
    alphas = config_float_list(cfg, "alphas", _DEFAULT_FIGURE_ALPHAS)
    n_samples = config_int(cfg, "n_samples", 200)
    grid = GridSpec()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        vv = float(rng.uniform(-0.99, 0.99))
        aa = float(rng.uniform(0.0, 5.0))
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
            sc = classify(w)
            entry["classification"] = {
                "class": sc.shape, "momentum_shape": sc.momentum_shape,
                "singular_thetas": list(sc.singular_thetas)}
            entry["bilinear"] = [_bilinear_obj(w, var) for var in VARIANTS]
            entry["verify"] = {
                "coupled": _report_obj(system19_residual(w, grid, "analytic")),
                "factored": _report_obj(eq14_residual(w, grid, "analytic"))}
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


def _simulate_system19(cfg: dict[str, str], out: Path, args) -> None:
    v = config_float(cfg, "v", 0.24)
    alpha = config_float(cfg, "alpha", 0.8)
    theta0 = config_float(cfg, "theta0", 0.0)
    sigma_min = config_float(cfg, "sigma_min", -15.0)
    sigma_max = config_float(cfg, "sigma_max", 15.0)
    n = config_int(cfg, "n", 301)
    h = (sigma_max - sigma_min) / (n - 1)
    T = config_float(cfg, "T", 5.0)
    dt = config_float(cfg, "dt", 0.4 * h)
    n_snapshots = config_int(cfg, "n_snapshots", 11)
    bc_mode = config_str(cfg, "bc", "wave")
    forcing_mode = config_str(cfg, "forcing", "none")
    linearized = _config_bool(cfg, "linearized", False)
    if bc_mode not in ("wave", "frozen"):
        raise DomainError(f"config key 'bc': expected wave|frozen, got {bc_mode!r}")
    if forcing_mode not in ("none", "exactness"):
        raise DomainError(
            f"config key 'forcing': expected none|exactness, got {forcing_mode!r}")

    w = solve_real(v, alpha, theta0=theta0)
    sigma = np.linspace(sigma_min, sigma_max, n)
    init = soliton_state19(w, sigma)
    bc = boundary_from_wave(w, sigma_min, sigma_max) if bc_mode == "wave" else None
    forcing = exactness_forcing(w) if forcing_mode == "exactness" else None
    traj = evolve_system19(init, alpha, T, dt, bc=bc, forcing=forcing,
                           linearized=linearized, n_snapshots=n_snapshots)
    errs = compare_to_exact(traj, w)

    snaps = []
    for i, tau in enumerate(traj.taus):
        name = f"snapshot_{i:03d}.csv"
        write_csv(out / name, ("sigma", "u", "ut", "Z", "zt"),
                  np.column_stack((traj.sigma, traj.u[i], traj.ut[i], traj.Z[i],
                                   traj.zt[i])))
        snaps.append({
            "index": i, "tau": tau, "file": name,
            "u_linf": float(np.max(np.abs(traj.u[i]))),
            "u_rms": float(np.sqrt(np.mean(np.square(traj.u[i])))),
            "z_linf": float(np.max(np.abs(traj.Z[i]))),
            "z_rms": float(np.sqrt(np.mean(np.square(traj.Z[i])))),
            "drift_u_linf": errs.u_linf[i], "drift_u_rms": errs.u_l2[i],
            "drift_z_linf": errs.z_linf[i], "drift_z_rms": errs.z_l2[i]})
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


def _simulate_mkdvb(cfg: dict[str, str], out: Path, args) -> None:
    if "tau" in cfg or "v_f" in cfg:
        m = MediumParams(tau=config_float(cfg, "tau"),
                         v_e=config_float(cfg, "v_e"),
                         v_f=config_float(cfg, "v_f"),
                         alpha_e=config_float(cfg, "alpha_e", 0.0),
                         a_e=config_float(cfg, "a_e", 1.0))
        coeffs = MKdVBCoeffs.from_medium(m)
    else:
        coeffs = MKdVBCoeffs(v_e=config_float(cfg, "v_e", 1.0),
                             quad=config_float(cfg, "quad", 1.0),
                             cubic=config_float(cfg, "cubic", 1.0),
                             beta=config_float(cfg, "beta", 0.1),
                             gamma=config_float(cfg, "gamma", 0.02))
    length = config_float(cfg, "length", 50.0)
    n = config_int(cfg, "n", 256)
    T = config_float(cfg, "T", 1.0)
    dt = config_float(cfg, "dt", 1e-3)
    n_snapshots = config_int(cfg, "n_snapshots", 11)
    ic = config_str(cfg, "ic", "gauss")
    amp = config_float(cfg, "amp", 0.1)
    width = config_float(cfg, "width", 2.0)
    mode = config_int(cfg, "mode", 1)

    x = length * np.arange(n) / n
    if ic == "gauss":
        p0 = amp * np.exp(-np.square((x - 0.5 * length) / width))
    elif ic == "sine":
        p0 = amp * np.sin(2.0 * np.pi * mode * x / length)
    elif ic == "random":
        rng = np.random.default_rng(args.seed)
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
    snaps = []
    for i, t in enumerate(traj.ts):
        name = f"snapshot_{i:03d}.csv"
        write_csv(out / name, ("x", "p"), np.column_stack((traj.x, traj.p[i])))
        snaps.append({"index": i, "t": t, "file": name,
                      "mean": traj.means[i], "rms": traj.rms[i]})
    manifest = {
        "schema_version": 1, "system": "mkdvb",
        "params": {"v_e": coeffs.v_e, "quad": coeffs.quad,
                   "cubic": coeffs.cubic, "beta": coeffs.beta,
                   "gamma": coeffs.gamma, "length": length, "n": n, "T": T,
                   "dt": dt, "n_snapshots": n_snapshots, "ic": ic,
                   "amp": amp, "width": width, "mode": mode,
                   "seed": args.seed},
        "snapshots": snaps}
    write_json(out / "run_manifest.json", manifest)


def _cmd_simulate(args) -> int:
    if not args.out:
        raise DomainError("simulate requires --out <directory>")
    cfg = _config_from_path(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.system in ("19", "coupled"):
        _simulate_system19(cfg, out, args)
    else:
        _simulate_mkdvb(cfg, out, args)
    _print(args, f"wrote {out}")
    return 0


def _cmd_medium(args) -> int:
    cfg = _config_from_path(args.config)

    def pick(name: str, default: float | None = None) -> float:
        flag = getattr(args, name)
        if flag is not None:
            return flag
        return config_float(cfg, name, default)

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

def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma-min", type=float, default=-15.0)
    p.add_argument("--sigma-max", type=float, default=15.0)
    p.add_argument("--n-sigma", type=int, default=301)
    p.add_argument("--tau-min", type=float, default=-15.0)
    p.add_argument("--tau-max", type=float, default=15.0)
    p.add_argument("--n-tau", type=int, default=301)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output file (or directory for multi-file commands)")
    common.add_argument("--format", default=None,
                        help="output format where the command supports a choice")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for any randomized sampling")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational notes")

    ap = argparse.ArgumentParser(
        prog="relaxwave",
        description="Soliton analysis, verification and simulation toolkit "
                    "for nonlinear waves in relaxing media.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", parents=[common],
                       help="solve the real dispersion relation")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("critical-alpha", parents=[common],
                       help="critical dissipative parameter at velocity v")
    p.add_argument("--v", type=float, required=True)
    p.set_defaults(func=_cmd_critical_alpha)

    p = sub.add_parser("soliton-profile", parents=[common],
                       help="parametric profile samples as CSV")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--C", type=float, default=0.0)
    p.add_argument("--sigma-min", type=float, default=-15.0)
    p.add_argument("--sigma-max", type=float, default=15.0)
    p.add_argument("--n", type=int, default=601)
    p.set_defaults(func=_cmd_soliton_profile)

    p = sub.add_parser("classify", parents=[common],
                       help="loop/cusp/kink shape classification")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bilinear", parents=[common],
                       help="bilinear-line residual measurement")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--variant", choices=("both", "squared", "linear"),
                   default="both")
    p.set_defaults(func=_cmd_bilinear)

    p = sub.add_parser("verify", parents=[common],
                       help="residual report of a candidate solution")
    p.add_argument("--system", required=True,
                   choices=("19", "coupled", "14", "factored",
                            "eqq11", "complex", "11", "physical"))
    p.add_argument("--v", type=float, default=0.24)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--method", choices=("analytic", "fd2", "fd4", "all"),
                   default="analytic")
    p.add_argument("--k-re", type=float, default=1.25,
                   help="complex system: real part of k")
    p.add_argument("--k-im", type=float, default=0.0,
                   help="complex system: imaginary part of k")
    p.add_argument("--root", type=int, choices=(0, 1), default=0,
                   help="complex system: dispersion root index")
    p.add_argument("--tau-point", type=float, default=0.0,
                   help="physical system: profile time")
    p.add_argument("--point", type=float, nargs=2, metavar=("SIGMA", "TAU"),
                   default=None, help="also report pointwise residuals here")
    _add_grid_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", parents=[common],
                       help="time-integrate one of the model systems")
    p.add_argument("--system", required=True,
                   choices=("19", "coupled", "mkdvb"))
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figure", parents=[common],
                       help="emit profile curves (u vs y, momentum vs y)")
    p.add_argument("--v", type=float, default=0.24)
    p.add_argument("--alphas", default=None,
                   help="comma list of alpha values; token 'critical' allowed")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--sigma-min", type=float, default=-15.0)
    p.add_argument("--sigma-max", type=float, default=15.0)
    p.add_argument("--n", type=int, default=601)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("run-report", parents=[common],
                       help="consolidated JSON findings report")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.set_defaults(func=_cmd_run_report)

    p = sub.add_parser("medium", parents=[common],
                       help="map physical medium parameters to model coefficients")
    for name in ("tau", "v_e", "v_f", "alpha_e", "a_e", "alpha_f", "a_f"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--reduction", choices=("none", "swsp", "combined"),
                   default="none")
    p.set_defaults(func=_cmd_medium)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
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
