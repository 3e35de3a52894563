"""Wall time of one-shot CLI calls, each in a fresh interpreter, for two trees.

    python3 tools/oneshot.py OLD_TREE NEW_TREE --pairs 10
    python3 tools/oneshot.py OLD NEW --pairs 12 --json oneshot.json

A user who runs a command once pays the interpreter start, every import and
the command itself; ``perfbench/run.py`` runs jobs in one long-lived process
and sees only the last.  This script times ``python -m relaxwave.cli`` in a
new interpreter with ``PYTHONPATH=<tree>/src``, from launch to exit, for
four commands with fixed small inputs: ``simulate --system 19``,
``simulate --system mkdvb``, ``run-report`` and ``verify --system
physical``.  ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` are pinned to 1, as ``run.py`` pins them.  Each pair runs every command once per tree; the tree
that goes first alternates from pair to pair.  A call that exits non-zero
stops the script.  Per command it prints the median and quartiles of each
tree, the ratio of the medians (NEW / OLD) and in how many pairs NEW was
faster.  Outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (argv after ``relaxwave.cli``, config text or None for no ``--config``)
COMMANDS = {
    "simulate-19": (["simulate", "--system", "19"], "v = 0.24\nalpha = 0.8\nT = 1\n"),
    "simulate-mkdvb": (["simulate", "--system", "mkdvb"], "n = 256\nT = 0.1\n"),
    "run-report": (["run-report"], "alphas = 0.1, 0.8\nn_samples = 50\n"),
    "verify-physical": (["verify", "--system", "physical", "--v", "0.24", "--alpha", "0.8"],
                        None),
}


def tree_env(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def time_call(tree: Path, name: str, work: Path) -> float:
    """Seconds from launch to exit of one fresh CLI call of ``name`` in ``tree``,
    run in a new directory under ``work``."""
    argv, config = COMMANDS[name]
    d = work / name
    d.mkdir(parents=True)
    if config is not None:
        (d / "in.cfg").write_text(config, encoding="utf-8")
        argv = [*argv, "--config", "in.cfg"]
    cmd = [sys.executable, "-m", "relaxwave.cli", *argv, "--out", "out", "--quiet"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=d, env=tree_env(tree), capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {name} exited {proc.returncode}: {proc.stderr}")
    shutil.rmtree(d)
    return elapsed


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", type=Path, default=None, help="also write the results here")
    args = ap.parse_args()
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "relaxwave" / "cli.py").is_file():
            ap.error(f"{tree} has no src/relaxwave/cli.py")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    times = {name: {"old": [], "new": []} for name in COMMANDS}
    with tempfile.TemporaryDirectory(prefix="oneshot-") as tmp:
        work = Path(tmp)
        for pair in range(args.pairs):
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            for name in COMMANDS:
                for side in order:
                    times[name][side].append(
                        time_call(trees[side], name, work / f"{pair}-{side}"))

    result = {"pairs": args.pairs, "python": platform.python_version(),
              "numpy": metadata.version("numpy"),
              "nproc": os.cpu_count(), "trees": {k: str(v) for k, v in trees.items()},
              "commands": {}}
    for name, t in times.items():
        old, new = summary(t["old"]), summary(t["new"])
        wins = sum(n < o for o, n in zip(t["old"], t["new"]))
        result["commands"][name] = {"old": old, "new": new, "ratio": new["median"] / old["median"],
                                    "new_faster_pairs": wins, "times": t}
        print(f"{name:15s} old {old['median']:.3f} s [{old['q1']:.3f}, {old['q3']:.3f}]  "
              f"new {new['median']:.3f} s [{new['q1']:.3f}, {new['q3']:.3f}]  "
              f"ratio {new['median'] / old['median']:.3f}  new faster {wins}/{args.pairs}")
    if args.json:
        args.json.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
