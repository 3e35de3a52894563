"""Seeded job passes for each workload, and the checks on every job's output.

A *pass* is the fixed list of CLI jobs that a workload repeats.  The seed
draws the physical parameters; the mix of job kinds and the sizes that set
their cost are the same for every seed, up to a small stratified jitter, so
medians stay comparable between seeds.  Each job's expected exit code and
the facts its output must show are recorded when the job is generated,
independently of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("closed-form-sweep", "integrate", "dense-output")

CONFIG_NAME = "in.cfg"
DIR = "{d}"  # replaced by the job's directory when it runs


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: tuple[str, ...]
    check: str
    expect_rc: int = 0
    config: str | None = None
    params: dict = field(default_factory=dict)

    def resolved_argv(self, d: Path) -> list[str]:
        return [a.replace(DIR, str(d)) for a in self.argv]


def alpha_critical(v: float) -> float:
    """Loop/kink threshold, written out here so checks do not trust the program."""
    return v * math.sqrt(1.0 + v) / (1.0 - v)


def expected_shape(v: float, alpha: float) -> str:
    ac = alpha_critical(v)
    if abs(alpha - ac) <= 1e-9 * max(1.0, ac):
        return "cusp"
    return "loop" if alpha < ac else "kink"


def _num(x: float) -> str:
    return repr(float(x))


def _regime_alpha(rng: random.Random, v: float, shape: str) -> float:
    ac = alpha_critical(v)
    if shape == "loop":
        return ac * rng.uniform(0.05, 0.9)
    if shape == "cusp":
        return ac
    return ac * rng.uniform(1.2, 3.0)


def _config_text(cfg: dict) -> str:
    return "".join(f"{k} = {_num(v) if isinstance(v, float) else v}\n"
                   for k, v in cfg.items())


# ---------------------------------------------------------------------------
# Workload passes.

def closed_form_sweep(seed: int) -> list[Job]:
    """Grid residual reports dominate; scalar closed forms fill the rest."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    for system in ("coupled", "factored"):
        for shape in ("loop", "cusp", "kink"):
            v = rng.uniform(0.05, 0.9)
            a = _regime_alpha(rng, v, shape)
            jobs.append(Job(f"verify-{system}-{shape}",
                            ("verify", "--system", system, "--method", "all",
                             "--v", _num(v), "--alpha", _num(a),
                             "--out", f"{DIR}/out.json", "--quiet"),
                            "verify", params={"system": system, "methods": 3}))
    for i in range(3):
        k_re, k_im = rng.uniform(0.8, 1.6), rng.uniform(0.05, 0.6)
        jobs.append(Job(f"verify-complex-{i}",
                        ("verify", "--system", "complex", "--method", "all",
                         "--k-re", _num(k_re), "--k-im", _num(k_im),
                         "--alpha", _num(rng.uniform(0.0, 1.0)),
                         "--root", str(rng.randrange(2)),
                         "--out", f"{DIR}/out.json", "--quiet"),
                        "verify", params={"system": "complex", "methods": 3}))
    v = rng.uniform(0.05, 0.9)
    jobs.append(Job("verify-physical-kink",
                    ("verify", "--system", "physical", "--v", _num(v),
                     "--alpha", _num(_regime_alpha(rng, v, "kink")),
                     "--out", f"{DIR}/out.json", "--quiet"),
                    "verify", params={"system": "physical", "methods": 1}))
    jobs.append(Job("verify-point-origin",
                    ("verify", "--system", "coupled", "--method", "all",
                     "--v", "0", "--alpha", "0", "--point", "0", "0",
                     "--out", f"{DIR}/out.json", "--quiet"),
                    "verify", params={"system": "coupled", "methods": 3, "point": True}))
    v = rng.uniform(0.1, 0.6)
    alphas = [_regime_alpha(rng, v, s) for s in ("loop", "cusp", "kink")]
    jobs.append(Job("run-report",
                    ("run-report", "--config", f"{DIR}/{CONFIG_NAME}",
                     "--seed", str(rng.randrange(1 << 30)),
                     "--out", f"{DIR}/out.json", "--quiet"),
                    "run-report",
                    config=_config_text({"v": v, "alphas": ", ".join(map(_num, alphas))}),
                    params={"entries": len(alphas)}))
    for shape in ("loop", "kink"):
        v = rng.uniform(0.05, 0.9)
        jobs.append(Job(f"bilinear-{shape}",
                        ("bilinear", "--v", _num(v),
                         "--alpha", _num(_regime_alpha(rng, v, shape)),
                         "--out", f"{DIR}/out.json", "--quiet"),
                        "bilinear"))
    for shape in ("loop", "cusp", "kink"):
        v = rng.uniform(0.05, 0.9)
        a = _regime_alpha(rng, v, shape)
        jobs.append(Job(f"classify-{shape}",
                        ("classify", "--v", _num(v), "--alpha", _num(a),
                         "--out", f"{DIR}/out.json", "--quiet"),
                        "classify", params={"v": v, "alpha": a, "shape": shape}))
    for i in range(2):
        v, a = rng.uniform(-0.9, 0.9), rng.uniform(0.0, 5.0)
        jobs.append(Job(f"dispersion-{i}",
                        ("dispersion", "--v", _num(v), "--alpha", _num(a),
                         "--out", f"{DIR}/out.json", "--quiet"),
                        "dispersion", params={"v": v, "alpha": a}))
    out = ("--out", f"{DIR}/out.json", "--quiet")
    jobs.append(rng.choice([
        Job("ood-dispersion-v", ("dispersion", "--v", _num(rng.uniform(1.0, 2.0)),
                                 "--alpha", "0.3") + out, "error", expect_rc=2),
        Job("ood-classify-v", ("classify", "--v", _num(-rng.uniform(0.05, 0.9)),
                               "--alpha", "0.2") + out, "error", expect_rc=2),
        Job("ood-verify-alpha", ("verify", "--system", "coupled",
                                 "--alpha", _num(-rng.uniform(0.1, 1.0))) + out,
            "error", expect_rc=2),
    ]))
    return jobs


def integrate(seed: int) -> list[Job]:
    """Both integrators at their default grids; the step loops dominate."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    s19 = (("wave", "none"), ("wave", "none"), ("frozen", "none"), ("wave", "exactness"))
    for i, (bc, forcing) in enumerate(s19):
        v = rng.uniform(0.1, 0.5)
        cfg = {"v": v, "alpha": alpha_critical(v) * rng.uniform(0.5, 2.5),
               "n": 301, "T": 3.0 + 2.0 * (i + rng.random()) / len(s19),
               "bc": bc, "forcing": forcing}
        jobs.append(Job(f"s19-{bc}-{forcing}-{i}",
                        ("simulate", "--system", "19", "--config", f"{DIR}/{CONFIG_NAME}",
                         "--out", f"{DIR}/out", "--quiet"),
                        "simulate-19", config=_config_text(cfg),
                        params={"n": 301, "snapshots": 11}))
    mk = (("gauss", "direct", 256), ("sine", "medium", 256), ("random", "direct", 256),
          ("gauss", "medium", 1024), ("sine", "direct", 1024), ("random", "medium", 1024))
    for ic, route, n in mk:
        if route == "direct":
            cfg = {"v_e": rng.uniform(0.8, 1.2), "quad": rng.uniform(0.5, 1.0),
                   "cubic": rng.uniform(0.5, 1.0), "beta": rng.uniform(0.1, 0.2),
                   "gamma": rng.uniform(0.01, 0.03)}
        else:
            cfg = {"tau": rng.uniform(1.0, 3.0), "v_e": rng.uniform(0.6, 0.9),
                   "v_f": rng.uniform(1.3, 1.8), "alpha_e": rng.uniform(0.2, 0.5),
                   "a_e": rng.uniform(0.5, 1.5)}
        # Amplitudes stay below beta / (2 * quad): above it the quadratic term
        # is anti-diffusive and the periodic run blows up at n = 1024.
        amp = rng.uniform(0.005, 0.01) if ic == "random" else rng.uniform(0.02, 0.04)
        cfg.update({"n": n, "T": 0.5, "ic": ic, "amp": amp,
                    "width": rng.uniform(1.5, 3.0), "mode": rng.randint(1, 4)})
        jobs.append(Job(f"mkdvb-{ic}-{route}-{n}",
                        ("simulate", "--system", "mkdvb", "--config", f"{DIR}/{CONFIG_NAME}",
                         "--seed", str(rng.randrange(1 << 30)),
                         "--out", f"{DIR}/out", "--quiet"),
                        "simulate-mkdvb", config=_config_text(cfg),
                        params={"n": n, "snapshots": 11}))
    sim19 = ("simulate", "--system", "19", "--config", f"{DIR}/{CONFIG_NAME}",
             "--out", f"{DIR}/out", "--quiet")
    jobs.append(rng.choice([
        Job("ood-s19-bc", sim19, "error", expect_rc=2, config="bc = absorbing\n"),
        Job("ood-s19-cfl", sim19, "error", expect_rc=2,
            config=_config_text({"dt": rng.uniform(0.06, 0.2)})),
        Job("ood-mkdvb-ic", ("simulate", "--system", "mkdvb") + sim19[3:], "error",
            expect_rc=2, config="ic = step\n"),
    ]))
    return jobs


def dense_output(seed: int) -> list[Job]:
    """Few large text artifacts; number formatting does almost all the work."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    for i, size in enumerate((100_000, 30_000, 10_000, 3_000)):
        n = size - rng.randrange(size // 50)  # jitter below the size, at most 2%
        v = rng.uniform(0.05, 0.9)
        shape = ("loop", "cusp", "kink")[i % 3]
        jobs.append(Job(f"profile-{size}",
                        ("soliton-profile", "--v", _num(v),
                         "--alpha", _num(_regime_alpha(rng, v, shape)),
                         "--tau", _num(rng.uniform(-2.0, 2.0)),
                         "--theta0", _num(rng.uniform(-1.0, 1.0)),
                         "--C", _num(rng.uniform(-1.0, 1.0)),
                         "--n", str(n), "--out", f"{DIR}/out.csv", "--quiet"),
                        "profile", params={"rows": n, "cols": 7}))
    for i, n in enumerate((301, 301, 601, 601, 601, 601, 1201, 1201, 1201, 2401)):
        v = rng.uniform(0.1, 0.6)
        alphas = [alpha_critical(v), _regime_alpha(rng, v, "loop"),
                  _regime_alpha(rng, v, "kink")]
        tokens = ["critical", _num(alphas[1]), _num(alphas[2])]
        order = list(range(3))
        rng.shuffle(order)
        jobs.append(Job(f"figure-{n}-{i}",
                        ("figure", "--format", "svg", "--v", _num(v),
                         "--alphas", ", ".join(tokens[j] for j in order),
                         "--n", str(n), "--out", f"{DIR}/out", "--quiet"),
                        "figure",
                        params={"v": v, "n": n, "alphas": [alphas[j] for j in order]}))
    out = ("--out", f"{DIR}/out.csv", "--quiet")
    jobs.append(rng.choice([
        Job("ood-profile-n", ("soliton-profile", "--v", "0.24", "--alpha", "0.1",
                              "--n", "1") + out, "error", expect_rc=2),
        Job("ood-profile-alpha", ("soliton-profile", "--v", "0.24",
                                  "--alpha", _num(-rng.uniform(0.1, 1.0))) + out,
            "error", expect_rc=2),
        Job("ood-figure-v", ("figure", "--v", _num(rng.uniform(1.0, 2.0)),
                             "--alphas", "critical", "--out", f"{DIR}/out", "--quiet"),
            "error", expect_rc=2),
    ]))
    return jobs


PASSES = {"closed-form-sweep": closed_form_sweep, "integrate": integrate,
          "dense-output": dense_output}


def make_pass(workload: str, seed: int) -> list[Job]:
    return PASSES[workload](seed)


# ---------------------------------------------------------------------------
# Artifacts.

def artifacts(d: Path) -> list[Path]:
    """Files the job wrote, in a stable order (the config file is input)."""
    return sorted(p for p in d.rglob("*") if p.is_file() and p.name != CONFIG_NAME)


def digest(d: Path) -> str:
    h = hashlib.sha256()
    for p in artifacts(d):
        h.update(str(p.relative_to(d)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


_POINTS = re.compile(rb'points="([^"]*)"')


def count_cells(path: Path, data: bytes) -> int:
    """Numbers the output layer formatted into one artifact."""
    if path.suffix == ".csv":
        lines = data.count(b"\r\n")
        cols = data[:data.index(b"\r\n")].count(b",") + 1
        return (lines - 1) * cols
    if path.suffix == ".json":
        return _json_numbers(json.loads(data))
    if path.suffix == ".svg":
        return 2 * sum(m.count(b",") for m in _POINTS.findall(data))
    return 0


def _json_numbers(obj) -> int:
    if isinstance(obj, dict):
        return sum(_json_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_json_numbers(v) for v in obj)
    return int(isinstance(obj, (int, float)) and not isinstance(obj, bool))


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means the job passed.

def check_job(job: Job, rc, d: Path) -> list[str]:
    if rc != job.expect_rc:
        return [f"exit code {rc}, expected {job.expect_rc}"]
    try:
        return CHECKS[job.check](job, d)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _finite_tree(obj, where: str = "") -> list[str]:
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _finite_tree(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _finite_tree(v, f"{where}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [f"non-finite value at {where}"]
    return []


def _load(d: Path, name: str = "out.json"):
    return json.loads((d / name).read_text(encoding="utf-8"))


def _check_error(job: Job, d: Path) -> list[str]:
    left = artifacts(d)
    return [f"out-of-domain job left {len(left)} artifact(s)"] if left else []


def _check_dispersion(job: Job, d: Path) -> list[str]:
    obj = _load(d)
    v, a = job.params["v"], job.params["alpha"]
    k, om = obj["k"], obj["omega"]
    res = 4.0 * (k * k - om * om) + 2.0 * a * (k - om) - 1.0
    probs = []
    if not (k > 0.0 and abs(res) <= 1e-12):
        probs.append(f"dispersion root k={k} leaves residual {res}")
    if abs(om - k * v) > 1e-15 * max(1.0, abs(om)):
        probs.append(f"omega={om} is not k*v")
    return probs


def _check_classify(job: Job, d: Path) -> list[str]:
    obj = _load(d)
    v, a = job.params["v"], job.params["alpha"]
    probs = []
    if obj["class"] != expected_shape(v, a) or obj["class"] != job.params["shape"]:
        probs.append(f"class {obj['class']!r} disagrees with alpha vs alpha_critical")
    ac = alpha_critical(v)
    if abs(obj["alpha_critical"] - ac) > 1e-12 * ac:
        probs.append(f"alpha_critical {obj['alpha_critical']} != {ac}")
    return probs


def _check_bilinear(job: Job, d: Path) -> list[str]:
    obj = _load(d)
    probs = _finite_tree(obj)
    if len(obj["reports"]) != 2:
        probs.append(f"{len(obj['reports'])} bilinear reports, expected 2")
    return probs


def _check_verify(job: Job, d: Path) -> list[str]:
    obj = _load(d)
    probs = _finite_tree(obj)
    if obj["system"] != job.params["system"]:
        probs.append(f"system {obj['system']!r}, expected {job.params['system']!r}")
    if len(obj["reports"]) != job.params["methods"]:
        probs.append(f"{len(obj['reports'])} reports, expected {job.params['methods']}")
    if job.params.get("point"):
        for method, r in obj["point"]["residuals"].items():
            if abs(r["r1"] + 0.5) > 1e-8:
                probs.append(f"r1 at the origin is {r['r1']} by {method}, expected -1/2")
    return probs


def _check_run_report(job: Job, d: Path) -> list[str]:
    obj = _load(d)
    probs = _finite_tree(obj)
    if obj["selftest"]["passed"] is not True:
        probs.append("selftest.passed is not true")
    entries = obj["entries"]
    if len(entries) != job.params["entries"] or any("error" in e for e in entries):
        probs.append("report entries missing or in error")
    return probs


def _csv_table(path: Path, rows: int, cols: int) -> tuple[list[str], bytes]:
    data = path.read_bytes()
    probs = []
    got = data.count(b"\r\n") - 1
    if got != rows:
        probs.append(f"{path.name}: {got} rows, expected {rows}")
    if data[:data.index(b"\r\n")].count(b",") + 1 != cols:
        probs.append(f"{path.name}: header does not have {cols} columns")
    low = data.lower()
    if b"nan" in low or b"inf" in low:
        probs.append(f"{path.name}: non-finite values")
    return probs, data


def _csv_columns(data: bytes) -> list[list[float]]:
    rows = data.decode("ascii").split("\r\n")[1:-1]
    return [list(map(float, col)) for col in zip(*(r.split(",") for r in rows))]


def _check_profile(job: Job, d: Path) -> list[str]:
    return _csv_table(d / "out.csv", job.params["rows"], job.params["cols"])[0]


def _check_figure(job: Job, d: Path) -> list[str]:
    man = _load(d / "out", "figure_manifest.json")
    v, n = job.params["v"], job.params["n"]
    probs = _finite_tree(man)
    if len(man["panels"]) != len(job.params["alphas"]):
        return probs + ["figure panel count differs from the alpha list"]
    for panel, a in zip(man["panels"], job.params["alphas"]):
        if panel["class"] != expected_shape(v, a):
            probs.append(f"panel alpha={a} classified {panel['class']!r}")
        for key in ("u", "pi"):
            probs += _csv_table(d / "out" / panel["files"][key], n, 3)[0]
        for key in ("svg_u", "svg_pi"):
            svg = (d / "out" / panel["files"][key]).read_bytes()
            if svg.count(b"<polyline") != 1 or b"nan" in svg:
                probs.append(f"{panel['files'][key]}: malformed curve")
    return probs


def _snapshots(job: Job, d: Path, cols: int):
    man = _load(d / "out", "run_manifest.json")
    probs = _finite_tree(man)
    snaps = man["snapshots"]
    if len(snaps) != job.params["snapshots"]:
        probs.append(f"{len(snaps)} snapshots, expected {job.params['snapshots']}")
    tables = []
    for s in snaps:
        p, data = _csv_table(d / "out" / s["file"], job.params["n"], cols)
        probs += p
        tables.append(data)
    return probs, tables


def _check_simulate_19(job: Job, d: Path) -> list[str]:
    return _snapshots(job, d, 5)[0]


def _check_simulate_mkdvb(job: Job, d: Path) -> list[str]:
    probs, tables = _snapshots(job, d, 2)
    if probs:
        return probs
    fields = [_csv_columns(t)[1] for t in tables]
    m0 = math.fsum(fields[0]) / len(fields[0])
    scale = max(1.0, max(map(abs, fields[0])))
    for i, p in enumerate(fields[1:], start=1):
        m = math.fsum(p) / len(p)
        if abs(m - m0) > 1e-12 * scale:
            probs.append(f"snapshot {i} mean {m!r} drifted from initial {m0!r}")
    return probs


CHECKS = {
    "error": _check_error,
    "dispersion": _check_dispersion,
    "classify": _check_classify,
    "bilinear": _check_bilinear,
    "verify": _check_verify,
    "run-report": _check_run_report,
    "profile": _check_profile,
    "figure": _check_figure,
    "simulate-19": _check_simulate_19,
    "simulate-mkdvb": _check_simulate_mkdvb,
}
