"""Self-checks of the benchmark harness.

    python3 -m pytest -q perfbench/check_harness.py

The file name keeps these checks out of the repository's own test run; they
exercise the benchmark, not the package.  Corrupted artifacts and wrong exit
codes must be counted as failed jobs, real outputs must pass, and traced
counts must repeat exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import jobs as jobmod  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))
import relaxwave.cli as real_cli  # noqa: E402


def _job(workload: str, prefix: str) -> tuple[int, jobmod.Job]:
    return next((i, j) for i, j in enumerate(jobmod.make_pass(workload, 7))
                if j.name.startswith(prefix))


class FakeCli:
    """The real CLI followed by an edit of what it wrote, on chosen calls."""

    def __init__(self, edit, on_calls=(1,)) -> None:
        self.edit = edit
        self.on_calls = on_calls
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        rc = real_cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        if self.calls in self.on_calls:
            return self.edit(out, rc)
        return rc


def _drop_last_row(out: Path, rc: int) -> int:
    data = out.read_bytes()
    out.write_bytes(data[:data.rindex(b"\r\n", 0, len(data) - 2) + 2])
    return rc


def _wrong_class(out: Path, rc: int) -> int:
    obj = json.loads(out.read_text())
    obj["class"] = "kink" if obj["class"] != "kink" else "loop"
    out.write_text(json.dumps(obj))
    return rc


def _shift_snapshot(out: Path, rc: int) -> int:
    snap = out / "snapshot_005.csv"
    lines = snap.read_text().split("\n")
    x, p = lines[3].split(",")
    lines[3] = f"{x},{float(p) + 1e-6!r}\r"
    snap.write_text("\n".join(lines))
    return rc


@pytest.mark.parametrize("workload,prefix,edit", [
    ("dense-output", "profile-3000", _drop_last_row),
    ("closed-form-sweep", "classify-loop", _wrong_class),
    ("integrate", "mkdvb-gauss-direct-256", _shift_snapshot),
])
def test_corrupted_artifact_is_a_failure(tmp_path, workload, prefix, edit):
    i, job = _job(workload, prefix)
    runner = run.Runner(FakeCli(edit), tmp_path)
    runner.run(i, job)
    assert runner.failed == 1 and runner.attempted == 1


def test_corrupted_repeat_is_a_failure(tmp_path):
    i, job = _job("closed-form-sweep", "classify-cusp")
    runner = run.Runner(FakeCli(_wrong_class, on_calls=(2,)), tmp_path)
    runner.run(i, job)
    assert runner.failed == 0
    runner.run(i, job)
    assert runner.failed == 1 and runner.attempted == 2
    assert "differ" in runner.notes[-1]


@pytest.mark.parametrize("prefix,wrong_rc", [("classify-kink", 3), ("ood-", 0)])
def test_wrong_exit_code_is_a_failure(tmp_path, prefix, wrong_rc):
    i, job = _job("closed-form-sweep", prefix)
    runner = run.Runner(FakeCli(lambda out, rc: wrong_rc), tmp_path)
    runner.run(i, job)
    assert runner.failed == 1
    assert f"exit code {wrong_rc}" in runner.notes[-1]


@pytest.mark.parametrize("workload", jobmod.WORKLOADS)
def test_real_outputs_pass_every_check(tmp_path, workload):
    runner = run.Runner(real_cli, tmp_path)
    jobs = jobmod.make_pass(workload, 11)
    for i, job in enumerate(jobs):
        runner.run(i, job)
    assert runner.notes == []
    assert sum(j.expect_rc == 2 for j in jobs) == 1


def test_passes_differ_by_seed_but_not_in_composition():
    for workload in jobmod.WORKLOADS:
        a, b = jobmod.make_pass(workload, 1), jobmod.make_pass(workload, 2)
        assert [j.check for j in a] == [j.check for j in b]
        assert [j.argv for j in a] != [j.argv for j in b]
        assert [j.argv for j in a] == [j.argv for j in jobmod.make_pass(workload, 1)]


def test_traced_counts_repeat_and_self_times_cover_the_jobs(tmp_path):
    jobs = [j for j in jobmod.make_pass("integrate", 3) if j.params.get("n") == 256]
    jobs += [_job("closed-form-sweep", "run-report")[1]]
    runner = run.Runner(real_cli, tmp_path)
    recs = []
    for _ in range(2):
        rec = spans.Recorder()
        with spans.installed(rec):
            for i, job in enumerate(jobs):
                rec.job = i
                runner.run(i, job, rec)
        recs.append(rec)
    assert runner.failed == 0
    assert recs[0].counts == recs[1].counts
    assert recs[0].counts["sim.fft_calls"] > 0 and recs[0].counts["hirota.calls"] > 0
    rec = recs[0]
    roots = sum(e - s for layer, s, e, parent, _ in rec.spans if parent < 0) / 1e9
    assert all(layer == "cli" for layer, _, _, parent, _ in rec.spans if parent < 0)
    assert sum(rec.self_seconds().values()) == pytest.approx(roots, rel=1e-9)
    # The wrappers are gone once the context exits.
    import relaxwave.sim as sim
    import relaxwave.soliton as soliton
    assert sim.eval_uZ is soliton.eval_uZ
