"""Check that two checkouts write the same bytes for every benchmark job.

    python3 tools/compare_artifacts.py OLD_TREE NEW_TREE
    python3 tools/compare_artifacts.py OLD NEW --workloads integrate --seeds 1 2 3 --json out.json

Each tree's own ``perfbench/jobs.py`` generates the jobs of its check pass
for every (workload, seed), and a fresh interpreter per tree runs them
through that tree's ``relaxwave.cli.main`` under ``src/``.  The default
workloads are every entry of ``jobs.WORKLOADS`` in the ``perfbench/`` next
to this script.  Both trees run the jobs in the same directories, one after
the other, so paths written into outputs match.  For each job the exit
code, the ``jobs.digest`` of its artifacts, its captured stdout/stderr and
the list of problems its harness check reports must be equal.  Prints one
line per workload and one per differing job; exits 1 on any difference, 0
when every job is identical.

For a job whose JSON artifacts differ but keep their structure (same keys,
list lengths and non-numeric values), the line also gives the size of the
numeric change: the largest absolute difference over all numbers and, for
numbers of an equation entry that carries a ``normalization`` (a residual
report's ``linf``, ``l2`` and ``normalization``; not the dimensionless
``normalized``), the largest difference divided by the old normalization.
Likewise for CSV artifacts that differ but keep their header and shape (and
non-numeric cells): the number of moved cells, the largest absolute change
and the largest change divided by the sup of the old column's absolute
values.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FIELDS = ("rc", "digest", "output", "problems")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_tree(tree: Path, work: Path, workloads: list[str], seeds: list[int]) -> dict:
    """Run every check-pass job of ``tree``; one record per job (in the worker)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import jobs as jobmod
    import relaxwave.cli as cli

    if Path(cli.__file__).resolve().parent != (tree / "src" / "relaxwave").resolve():
        raise RuntimeError(f"imported relaxwave from {cli.__file__}, not {tree}")
    records = {}
    for workload in workloads:
        for seed in seeds:
            for index, job in enumerate(jobmod.make_pass(workload, seed)):
                d = work / f"{workload}-seed{seed}" / f"{index:02d}-{job.name}"
                d.mkdir(parents=True)
                if job.config is not None:
                    (d / jobmod.CONFIG_NAME).write_text(job.config, encoding="utf-8")
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        rc = cli.main(job.resolved_argv(d))
                    except SystemExit as exc:
                        rc = exc.code
                    except Exception as exc:  # a crash is a result to compare
                        rc = f"crash {type(exc).__name__}: {exc}"
                found = jobmod.artifacts(d)
                records[f"{workload} seed {seed} {index:02d}-{job.name}"] = {
                    "workload": workload, "rc": rc, "digest": jobmod.digest(d),
                    "files": len(found), "output": sink.getvalue(),
                    "problems": jobmod.check_job(job, rc, d),
                    "json": {str(p.relative_to(d)): json.loads(p.read_text(encoding="utf-8"))
                             for p in found if p.suffix == ".json"},
                    "csv": {str(p.relative_to(d)): p.read_text(encoding="utf-8")
                            for p in found if p.suffix == ".csv"}}
    return records


def launch(tree: Path, work: Path, workloads: list[str], seeds: list[int]) -> dict:
    """Run :func:`run_tree` for ``tree`` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree), str(work),
         "--workloads", *workloads, "--seeds", *map(str, seeds)],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"worker for {tree} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout)


class StructureChanged(Exception):
    """Two JSON documents differ in more than their numbers."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(a, b, norm: float | None, in_entry: bool, acc: dict) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise StructureChanged
        own = a.get("normalization")
        entry = _is_number(own)
        for key in a:
            _walk(a[key], b[key], own if entry and key != "normalized" else None,
                  entry, acc)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise StructureChanged
        for x, y in zip(a, b):
            _walk(x, y, None, False, acc)
    elif _is_number(a) and _is_number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        diff = abs(a - b)
        acc["moved"] += 1
        acc["outside"] += not in_entry
        acc["abs"] = max(acc["abs"], diff)
        if norm:
            acc["rel"] = max(acc["rel"], diff / abs(norm))
    elif a != b or type(a) is not type(b):
        raise StructureChanged


def numeric_change(old_docs: dict, new_docs: dict) -> str | None:
    """Size of the change between two jobs' JSON artifacts, as one line.

    ``None`` when no JSON artifact differs.
    """
    if old_docs == new_docs:
        return None
    if old_docs.keys() != new_docs.keys():
        return "JSON artifacts: different files"
    acc = {"moved": 0, "outside": 0, "abs": 0.0, "rel": 0.0}
    for name in old_docs:
        try:
            _walk(old_docs[name], new_docs[name], None, False, acc)
        except StructureChanged:
            return f"JSON artifacts: structure or non-numeric values of {name} differ"
    return (f"JSON numbers: {acc['moved']} moved ({acc['outside']} outside equation "
            f"entries), max |diff| {acc['abs']:.3g}, "
            f"max |diff|/normalization {acc['rel']:.3g}")


def _csv_columns(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and columns (as cell strings) of one CSV artifact."""
    header, *body = list(csv.reader(io.StringIO(text))) or [[]]
    if any(len(r) != len(header) for r in body):
        raise StructureChanged
    return header, [[r[j] for r in body] for j in range(len(header))]


def _floats(cells: list[str]) -> list[float] | None:
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def csv_change(old_files: dict, new_files: dict) -> str | None:
    """Size of the change between two jobs' CSV artifacts, as one line.

    ``None`` when no CSV artifact differs.
    """
    if old_files == new_files:
        return None
    if old_files.keys() != new_files.keys():
        return "CSV artifacts: different files"
    moved, changed, worst_abs, worst_rel = 0, 0, 0.0, 0.0
    for name in old_files:
        if old_files[name] == new_files[name]:
            continue
        changed += 1
        try:
            h0, cols0 = _csv_columns(old_files[name])
            h1, cols1 = _csv_columns(new_files[name])
            if h0 != h1 or [len(c) for c in cols0] != [len(c) for c in cols1]:
                raise StructureChanged
        except StructureChanged:
            return f"CSV artifacts: header or shape of {name} differ"
        for c0, c1 in zip(cols0, cols1):
            if c0 == c1:
                continue
            a, b = _floats(c0), _floats(c1)
            if a is None or b is None:
                return f"CSV artifacts: non-numeric cells of {name} differ"
            sup = max(abs(x) for x in a)
            for x, y in zip(a, b):
                if x == y or (math.isnan(x) and math.isnan(y)):
                    continue
                moved += 1
                worst_abs = max(worst_abs, abs(x - y))
                if sup:
                    worst_rel = max(worst_rel, abs(x - y) / sup)
    return (f"CSV numbers: {moved} moved in {changed} files, max |diff| {worst_abs:.3g}, "
            f"max |diff|/column sup {worst_rel:.3g}")


def compare(old: dict, new: dict, workloads: list[str]) -> tuple[dict, list[str]]:
    """Per-workload counts and one line per job that differs."""
    summary = {w: {"jobs": 0, "identical": 0, "files": 0, "check_failures": [0, 0]}
               for w in workloads}
    diffs = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            diffs.append(f"{key}: only in the {'new' if a is None else 'old'} tree")
            continue
        s = summary[a["workload"]]
        s["jobs"] += 1
        s["files"] += b["files"]
        s["check_failures"][0] += bool(a["problems"])
        s["check_failures"][1] += bool(b["problems"])
        moved = [f for f in FIELDS if a[f] != b[f]]
        if moved:
            sizes = (numeric_change(a["json"], b["json"]), csv_change(a["csv"], b["csv"]))
            diffs.append(f"{key}: {', '.join(moved)} differ"
                         + "".join(f"\n    {f}: {a[f]!r} -> {b[f]!r}"
                                   for f in moved if f != "output")
                         + "".join(f"\n    {size}" for size in sizes if size))
        else:
            s["identical"] += 1
    return summary, diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="reference checkout")
    ap.add_argument("new", type=Path, help="checkout under test")
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="default: every workload of jobs.WORKLOADS")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--json", type=Path, default=None, help="also write the summary here")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:  # old = the tree to run, new = its work directory
        json.dump(run_tree(args.old.resolve(), args.new, args.workloads, args.seeds),
                  sys.stdout)
        return 0
    if args.workloads is None:
        # here only: a worker must import its own tree's jobs module
        sys.path.insert(0, str(PERFBENCH))
        import jobs as jobmod

        args.workloads = list(jobmod.WORKLOADS)

    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        work = Path(tmp) / "jobs"
        runs = []
        for tree in (args.old, args.new):
            runs.append(launch(tree.resolve(), work, args.workloads, args.seeds))
            shutil.rmtree(work)
    summary, diffs = compare(*runs, args.workloads)
    for workload, s in summary.items():
        print(f"{workload}: {s['identical']}/{s['jobs']} jobs identical, {s['files']} files, "
              f"check failures old/new {s['check_failures'][0]}/{s['check_failures'][1]}")
    for line in diffs:
        print("DIFF " + line)
    if args.json:
        args.json.write_text(json.dumps({"seeds": args.seeds, "workloads": summary,
                                         "differences": diffs}, indent=1) + "\n")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
