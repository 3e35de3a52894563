"""Minor page faults, CPU time, peak RSS and latency band of every job of one benchmark pass.

    python3 tools/job_faults.py TREE --workload closed-form-sweep --seed 11
    python3 tools/job_faults.py TREE --workload integrate --passes 8 --json out.json

The pass of (workload, seed) comes from TREE's own ``perfbench/jobs.py``,
and TREE's ``relaxwave.cli.main`` under ``src/`` runs it in this
interpreter, the way ``perfbench/run.py`` does: one untimed pass first
(imports, lazy set-up), then ``--passes`` measured passes.  Around each
``main`` call the script reads ``resource.getrusage(RUSAGE_SELF)``; a job's
minor faults are the change of ``ru_minflt`` and its CPU time the change of
user plus system time, so writing its config and removing its directory
are not counted.  Its peak RSS is ``ru_maxrss`` after it returns in the
untimed first pass: the level the process had reached, and the rise that
job caused, which is zero unless it set a new peak; so the job that sets a
workload's ``peak_rss_mb`` is the last one with a rise.  A job's latency is
the ``perf_counter`` time of its ``main`` call, as ``run.py`` times it.
Ranked by median latency, the ``r``-th fastest of ``n`` jobs covers the
latency band ``(r - 1)/n`` to ``r/n`` of a pass: the share of jobs ranked
below it, and that plus its own share.  It prints one line per job with
the medians over the passes, its band and the first pass's RSS, then the
median per-pass total.  Last it takes ``job_s.p50`` and ``job_s.p90`` over
every latency of the measured passes as ``run.py`` does (``median`` and
``quantiles(n=10)[8]``) and names the jobs whose bands hold the 50 % and
90 % points (two jobs where the point is a band edge): the jobs that set
those metrics, since every job runs once per pass.  It sets no
environment variable and no malloc setting; ``run.py`` pins
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1,
so set those in the calling shell to match it.  Artifacts go to a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def usage() -> tuple[int, float, int]:
    """This process's minor faults, CPU seconds and peak RSS (KiB) so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def run_pass(cli, jobmod, jobs, work: Path) -> list[tuple[int, float, int, int, float]]:
    """Run every job once; one ``(minor faults, CPU seconds, peak RSS KiB,
    its rise KiB, wall seconds)`` per job."""
    rows = []
    for index, job in enumerate(jobs):
        d = work / f"{index:02d}-{job.name}"
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        if job.config is not None:
            (d / jobmod.CONFIG_NAME).write_text(job.config, encoding="utf-8")
        argv = job.resolved_argv(d)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            faults0, cpu0, rss0 = usage()
            t0 = time.perf_counter()
            try:
                cli.main(argv)
            except SystemExit:
                pass
            wall = time.perf_counter() - t0
            faults1, cpu1, rss1 = usage()
        rows.append((faults1 - faults0, cpu1 - cpu0, rss1, rss1 - rss0, wall))
    return rows


def setters(ranked: list[str], samples: list[float]) -> dict[str, dict]:
    """``job_s.p50`` and ``job_s.p90`` over ``samples`` as ``run.py`` computes
    them, each with the jobs of ``ranked`` (fastest first) whose latency band
    holds its share: one job, or the two that meet at a band edge."""
    n, out = len(ranked), {}
    for key, share, value in (("p50", 0.5, statistics.median(samples)),
                              ("p90", 0.9, statistics.quantiles(samples, n=10)[8])):
        edge = round(share * n)
        ranks = [edge - 1, edge] if abs(share * n - edge) < 1e-9 else [int(share * n)]
        out[key] = {"value_s": value, "share": share,
                    "jobs": [ranked[r] for r in ranks if 0 <= r < n]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path, help="checkout whose src/ and perfbench/ to run")
    ap.add_argument("--workload", default="closed-form-sweep")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--passes", type=int, default=16)
    ap.add_argument("--json", type=Path, default=None, help="also write the medians here")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import jobs as jobmod
    import relaxwave.cli as cli

    if Path(cli.__file__).resolve().parent != tree / "src" / "relaxwave":
        raise RuntimeError(f"imported relaxwave from {cli.__file__}, not {tree}")
    jobs = jobmod.make_pass(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="job-faults-") as tmp:
        first = run_pass(cli, jobmod, jobs, Path(tmp))
        passes = [run_pass(cli, jobmod, jobs, Path(tmp)) for _ in range(args.passes)]

    per_job = {}
    names = [f"{index:02d}-{job.name}" for index, job in enumerate(jobs)]
    for index, name in enumerate(names):
        faults = [p[index][0] for p in passes]
        cpu = [p[index][1] for p in passes]
        per_job[name] = {
            "minflt": statistics.median(faults), "cpu_s": statistics.median(cpu),
            "wall_s": statistics.median(p[index][4] for p in passes),
            "peak_rss_mb": first[index][2] / 1024, "peak_rss_rise_mb": first[index][3] / 1024}
    ranked = sorted(names, key=lambda name: per_job[name]["wall_s"])
    for rank, name in enumerate(ranked):
        per_job[name]["band"] = [rank / len(names), (rank + 1) / len(names)]
    total = {"minflt": statistics.median(sum(row[0] for row in p) for p in passes),
             "cpu_s": statistics.median(sum(row[1] for row in p) for p in passes)}
    job_s = setters(ranked, [row[4] for p in passes for row in p])
    print(f"{'job':40s} {'minflt':>10s} {'cpu_ms':>9s} {'wall_ms':>9s} {'band_%':>9s} "
          f"{'rss_mb':>8s} {'rise_mb':>8s}")
    for name, row in per_job.items():
        band = f"{row['band'][0] * 100:.0f}-{row['band'][1] * 100:.0f}"
        print(f"{name:40s} {row['minflt']:10g} {row['cpu_s'] * 1e3:9.2f} "
              f"{row['wall_s'] * 1e3:9.2f} {band:>9s} "
              f"{row['peak_rss_mb']:8.2f} {row['peak_rss_rise_mb']:8.2f}")
    print(f"{'pass total':40s} {total['minflt']:10g} {total['cpu_s'] * 1e3:9.2f}")
    for key, row in job_s.items():
        print(f"job_s.{key} {row['value_s'] * 1e3:.2f} ms: the {row['share']:.0%} point of the "
              f"bands falls in {' and '.join(row['jobs'])}")
    if args.json:
        args.json.write_text(json.dumps(
            {"tree": str(tree), "workload": args.workload, "seed": args.seed,
             "passes": args.passes, "jobs": per_job, "pass_total": total, "job_s": job_s},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
