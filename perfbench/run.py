"""End-to-end and per-layer benchmark of the relaxwave command line.

    python3 perfbench/run.py --workload integrate --seed 1 --seconds 30 --trace 0

One closed-loop client in one thread drives ``relaxwave.cli.main(argv)``
in-process: each job starts after the previous one returned.  A run first
makes one pass over the workload's jobs and checks every output; then it
repeats the pass until ``--seconds`` have elapsed, timing every job and
requiring byte-identical artifacts.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
per-layer spans and counts per pass.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from the repository root; the package is imported from
``src/`` and artifacts go under ``.perfbench/``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child interpreter.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import jobs as jobmod  # noqa: E402
import spans as tracemod  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 5
IMPORT_LAUNCHES = 3
SETUP_CODE = ("import time, relaxwave.cli as c; c.build_parser(); "
              "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), c.__file__)")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch_setup() -> float:
    """Seconds from launching an interpreter to a built CLI parser."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    t_ready, path = out.stdout.split()
    if Path(path).resolve().parent != SRC / "relaxwave":
        raise RuntimeError(f"child imported relaxwave from {path}, not {SRC}")
    return (int(t_ready) - t0) / 1e9


def import_costs() -> dict[str, float]:
    """Import times from ``-X importtime``: cumulative per package, self for relaxwave."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import relaxwave.cli"],
                         env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    cum, own = {}, 0
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        cum.setdefault(name, int(cum_us))
        if name.startswith("relaxwave"):
            own += int(self_us)
    return {"import.cli_total_s": cum["relaxwave.cli"] / 1e6,
            "import.relaxwave_self_s": own / 1e6,
            "import.numpy_s": cum["numpy"] / 1e6,
            "import.scipy_integrate_s": cum.get("scipy.integrate", 0) / 1e6,
            "import.scipy_sparse_s": cum.get("scipy.sparse", 0) / 1e6}


class Runner:
    """Runs jobs in per-job directories and counts attempts and failures."""

    def __init__(self, cli, work: Path) -> None:
        self.cli = cli
        self.work = work
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def job_dir(self, index: int, job: jobmod.Job) -> Path:
        return self.work / f"{index:02d}-{job.name}"

    def execute(self, index: int, job: jobmod.Job, rec=None):
        """Run one job; returns (exit code, seconds).  Only ``main`` is timed."""
        d = self.job_dir(index, job)
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        if job.config is not None:
            (d / jobmod.CONFIG_NAME).write_text(job.config, encoding="utf-8")
        argv = job.resolved_argv(d)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            span = rec.open("cli") if rec is not None else None
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed job, not a stopped run
                rc = f"crash {type(exc).__name__}: {exc}"
            finally:
                if span is not None:
                    rec.close(span)
            elapsed = time.perf_counter() - t0
        return rc, elapsed

    def run(self, index: int, job: jobmod.Job, rec=None) -> float:
        rc, elapsed = self.execute(index, job, rec)
        d = self.job_dir(index, job)
        self.attempted += 1
        if index not in self.digests:
            problems = jobmod.check_job(job, rc, d)
            if not problems:
                self.digests[index] = jobmod.digest(d)
        elif rc != job.expect_rc:
            problems = [f"exit code {rc}, expected {job.expect_rc}"]
        elif jobmod.digest(d) != self.digests[index]:
            problems = ["artifacts differ from the checked run"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.notes.append(f"{job.name}: {'; '.join(problems)}")
        if rec is not None:
            for p in jobmod.artifacts(d):
                data = p.read_bytes()
                rec.counts["output.bytes"] += len(data)
                rec.counts["output.cells"] += jobmod.count_cells(p, data)
        return elapsed


def end_to_end(runner: Runner, jobs: list[jobmod.Job], seconds: float):
    setup = [launch_setup() for _ in range(SETUP_LAUNCHES + 1)][1:]  # first one warms caches
    for i, job in enumerate(jobs):
        runner.run(i, job)
    lat: list[float] = []
    start = time.perf_counter()
    while not lat or time.perf_counter() - start < seconds:
        lat += [runner.run(i, job) for i, job in enumerate(jobs)]
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s.p50": statistics.median(lat),
        "job_s.p90": statistics.quantiles(lat, n=10)[8],
        "jobs_per_s": len(lat) / sum(lat),
        "pass_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"samples": len(lat), "passes": len(lat) // len(jobs),
            "setup_launches": SETUP_LAUNCHES}
    return metrics, info, True


COUNT_KEYS = ("medium.calls", "dispersion.calls", "soliton.calls", "soliton.points",
              "soliton.scalar_calls", "hirota.calls", "verify.calls", "verify.grid_points",
              "sim.calls", "sim.steps", "sim.bc_calls", "sim.forcing_calls",
              "sim.fft_calls", "output.calls", "output.cells", "output.bytes")


def _pass_times(untraced: float, traced: float, rec: tracemod.Recorder) -> dict[str, float]:
    row = {f"{layer}.self_s": t for layer, t in rec.self_seconds().items()}
    for key in ("s19", "mkdvb"):
        steps = rec.step_ns[f"{key}_steps"]
        row[f"sim.{key}_step_s"] = rec.step_ns[f"{key}_ns"] / 1e9 / steps if steps else 0.0
    row["trace.job_s"] = traced
    row["trace.overhead_s"] = traced - untraced
    return row


def per_layer(runner: Runner, jobs: list[jobmod.Job], seconds: float, spans_path: Path):
    imports = [import_costs() for _ in range(IMPORT_LAUNCHES)]
    for i, job in enumerate(jobs):
        runner.run(i, job)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        untraced = sum(runner.run(i, job) for i, job in enumerate(jobs))
        rec = tracemod.Recorder()
        traced = 0.0
        with tracemod.installed(rec):
            for i, job in enumerate(jobs):
                rec.job = i
                traced += runner.run(i, job, rec)
        passes.append((untraced, traced, rec))

    rows = [_pass_times(*p) for p in passes]
    counts = [{k: rec.counts[k] for k in COUNT_KEYS} for _u, _t, rec in passes]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics.update(counts[0])
    metrics["trace.spans"] = len(passes[0][2].spans)
    metrics.update({k: statistics.median(c[k] for c in imports) for k in imports[0]})

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("pass,span,layer,start_ns,end_ns,parent,job\n")
        for p, (_u, _t, rec) in enumerate(passes):
            for i, (layer, s, e, parent, job) in enumerate(rec.spans):
                fh.write(f"{p},{i},{layer},{s},{e},{parent},{job}\n")
    info = {"passes": len(passes), "spans_file": str(spans_path.relative_to(ROOT)),
            "self_time_sum_s": sum(metrics[f"{layer}.self_s"] for layer in tracemod.LAYERS),
            "import_launches": IMPORT_LAUNCHES}
    return metrics, info, all(c == counts[0] for c in counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobmod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "relaxwave" / "cli.py").is_file():
        print(f"perfbench: no relaxwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import relaxwave.cli as cli

    jobs = jobmod.make_pass(args.workload, args.seed)
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    runner = Runner(cli, work / "jobs")
    try:
        if args.trace:
            metrics, info, consistent = per_layer(runner, jobs, args.seconds,
                                                  work.with_name(work.name + "-spans.csv"))
        else:
            metrics, info, consistent = end_to_end(runner, jobs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "threads": {v: os.environ[v] for v in THREAD_VARS}}
    sizes = [job.name + ("" if job.expect_rc == 0 else f"(exit {job.expect_rc})")
             for job in jobs]
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "jobs_per_pass": len(jobs), **info}, sort_keys=True))
    print("pass " + " ".join(sizes))
    for note in runner.notes[:10]:
        print("FAILED " + note)
    if not consistent:
        print("FAILED per-pass counts differ between passes")
    print(f"fail_ratio {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted})")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and consistent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
