"""The CLI loads no scipy on any path, and no numpy.fft module until an
mkdvb run needs one.

Each case runs in a fresh interpreter, so modules loaded by other tests in
this process cannot hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter importing ``relaxwave`` from this tree.

    ``code`` must print one JSON object as its last line of stdout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


STARTUP = """
import json, sys
import relaxwave
import relaxwave.cli
from relaxwave.cli import build_parser, main
build_parser()
codes = [
    main(["classify", "--v", "0.24", "--alpha", "0.1", "--out", "classify.json", "--quiet"]),
    main(["dispersion", "--v", "0.24", "--alpha", "0.1", "--out", "dispersion.json", "--quiet"]),
    main(["verify", "--system", "coupled", "--v", "0", "--alpha", "0", "--point", "0", "0",
          "--method", "all", "--out", "point.json", "--quiet"]),
]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "numpy.fft": sorted(m for m in sys.modules if m.startswith("numpy.fft"))}))
"""


def test_startup_and_scalar_commands_load_no_scipy(tmp_path):
    got = run_fresh(STARTUP, tmp_path)
    assert got["codes"] == [0, 0, 0]
    assert got["scipy"] == []
    # evolve_mkdvb looks its FFT kernels up when called, not at import
    assert got["numpy.fft"] == []
    for name in ("classify.json", "dispersion.json", "point.json"):
        assert json.loads((tmp_path / name).read_text())


SIMULATE = """
import json, sys
from relaxwave.cli import main
code = main(["simulate", "--system", "19", "--config", "run.cfg", "--out", "run19", "--quiet"])
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_simulate_system19_loads_no_scipy(tmp_path):
    (tmp_path / "run.cfg").write_text("v = 0.24\nalpha = 0.8\nn = 41\nT = 0.1\ndt = 0.05\n"
                                      "n_snapshots = 2\n")
    assert run_fresh(SIMULATE, tmp_path) == {"code": 0, "scipy": []}
    manifest = json.loads((tmp_path / "run19" / "run_manifest.json").read_text())
    assert len(manifest["snapshots"]) == 2
