"""Minor page faults and CPU time of every job of one benchmark pass, per job.

    python3 tools/job_faults.py TREE --workload closed-form-sweep --seed 11
    python3 tools/job_faults.py TREE --workload integrate --passes 8 --json out.json

The pass of (workload, seed) comes from TREE's own ``perfbench/jobs.py``,
and TREE's ``relaxwave.cli.main`` under ``src/`` runs it in this
interpreter, the way ``perfbench/run.py`` does: one untimed pass first
(imports, lazy set-up), then ``--passes`` measured passes.  Around each
``main`` call the script reads ``resource.getrusage(RUSAGE_SELF)``; a job's
minor faults are the change of ``ru_minflt`` and its CPU time the change of
user plus system time, so writing its config and removing its directory
are not counted.  It prints one line per job with the median over the
passes, then the median per-pass total.  It sets no environment variable
and no malloc setting; ``run.py`` pins ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1, so set those in the
calling shell to match it.  Artifacts go to a temporary directory.
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
from pathlib import Path


def usage() -> tuple[int, float]:
    """This process's minor faults and CPU seconds so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_utime + ru.ru_stime


def run_pass(cli, jobmod, jobs, work: Path) -> list[tuple[int, float]]:
    """Run every job once; one ``(minor faults, CPU seconds)`` per job."""
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
            faults0, cpu0 = usage()
            try:
                cli.main(argv)
            except SystemExit:
                pass
            faults1, cpu1 = usage()
        rows.append((faults1 - faults0, cpu1 - cpu0))
    return rows


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
        run_pass(cli, jobmod, jobs, Path(tmp))
        passes = [run_pass(cli, jobmod, jobs, Path(tmp)) for _ in range(args.passes)]

    per_job = {}
    for index, job in enumerate(jobs):
        faults = [p[index][0] for p in passes]
        cpu = [p[index][1] for p in passes]
        per_job[f"{index:02d}-{job.name}"] = {
            "minflt": statistics.median(faults), "cpu_s": statistics.median(cpu)}
    total = {"minflt": statistics.median(sum(f for f, _c in p) for p in passes),
             "cpu_s": statistics.median(sum(c for _f, c in p) for p in passes)}
    print(f"{'job':40s} {'minflt':>10s} {'cpu_ms':>9s}")
    for name, row in per_job.items():
        print(f"{name:40s} {row['minflt']:10g} {row['cpu_s'] * 1e3:9.2f}")
    print(f"{'pass total':40s} {total['minflt']:10g} {total['cpu_s'] * 1e3:9.2f}")
    if args.json:
        args.json.write_text(json.dumps(
            {"tree": str(tree), "workload": args.workload, "seed": args.seed,
             "passes": args.passes, "jobs": per_job, "pass_total": total},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
