"""Run the benchmark over workloads and seeds and print every metric by name.

    python3 perfbench/report.py                       # each declared workload once, seed 1
    python3 perfbench/report.py --seeds 1 2 3 4 5 --json out.json
    python3 perfbench/report.py --trace 1 --workloads integrate

Each (workload, seed) is one ``run.py`` process, so peak memory is per
workload.  For every metric the table gives the median over seeds, the
quartiles and the spread (interquartile distance over the median), next to
the bound from ``BENCHMARK.json``; ``fail_ratio`` is failed / attempted jobs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import jobs as jobmod  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (final result object, env line)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=jobmod.WORKLOADS,
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, default=None, help="also write the results here")
    args = ap.parse_args(argv)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    doc = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
           "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res, env = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **res})
            doc["env"] = env
            ok &= res["correct"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        doc["workloads"][workload] = {"fail_ratio": failed / attempted,
                                      "summary": summary, "runs": runs}
        print(f"\n{workload}: {len(runs)} run(s), fail_ratio {failed / attempted:.3g} "
              f"({failed}/{attempted} jobs)")
        print(f"  {'metric':26s} {'unit':>10s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, s in summary.items():
            unit = runs[0]["metrics"][name]["unit"]
            bound = bounds[name]
            flag = ""
            if bound is not None and len(runs) > 1 and name != "setup_s":
                flag = "  over bound" if s["spread"] > bound else (
                    "  over bound/3" if s["spread"] > bound / 3 else "")
            print(f"  {name:26s} {unit:>10s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    print("\nenv " + json.dumps(doc.get("env"), sort_keys=True))
    if args.json:
        args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
