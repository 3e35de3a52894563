"""The CLI loads no scipy on any path, and no numpy.fft module until an
mkdvb run needs one.  No path loads ``numpy.ma`` or ``numpy.random`` but
the mkdvb random initial state, which draws from ``numpy.random``: each
costs a fresh process several MB, for work as small as one median or a
few hundred uniform draws.

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


SUBPACKAGES = """
import json, sys
from relaxwave.cli import main
codes = [main(argv) for argv in {argvs!r}]
loaded = sorted(m for m in sys.modules for pkg in ("numpy.ma", "numpy.random")
                if m == pkg or m.startswith(pkg + "."))
print(json.dumps(dict(codes=codes, loaded=loaded)))
"""

SMALL_GRID = ["--n-sigma", "21", "--n-tau", "21", "--method", "all"]


def run_argvs(tmp_path, argvs):
    """Exit codes of ``main(argv)`` for each of ``argvs`` in one fresh
    interpreter, and the ``numpy.ma``/``numpy.random`` modules it loaded."""
    return run_fresh(SUBPACKAGES.format(argvs=argvs), tmp_path)


def test_cli_paths_load_no_numpy_ma_or_numpy_random(tmp_path):
    (tmp_path / "report.cfg").write_text("alphas = 0.1\nn_samples = 5\n")
    (tmp_path / "s19.cfg").write_text("n = 41\nT = 0.1\ndt = 0.05\nn_snapshots = 2\n")
    (tmp_path / "mk.cfg").write_text("n = 32\nT = 0.01\ndt = 0.005\nn_snapshots = 2\n"
                                     "ic = gauss\n")
    out = ["--out", "out.json", "--quiet"]
    argvs = [
        ["classify", "--v", "0.24", "--alpha", "0.1", *out],
        ["dispersion", "--v", "0.24", "--alpha", "0.1", *out],
        ["bilinear", "--v", "0.24", "--alpha", "0.1", *out],
        ["verify", "--system", "coupled", *SMALL_GRID, *out],
        ["verify", "--system", "factored", *SMALL_GRID, *out],
        ["verify", "--system", "complex", "--k-im", "0.3", *SMALL_GRID, *out],
        ["verify", "--system", "physical", "--v", "0.24", "--alpha", "0.8", *out],
        ["run-report", "--config", "report.cfg", *out],
        ["simulate", "--system", "19", "--config", "s19.cfg", "--out", "run19", "--quiet"],
        ["simulate", "--system", "mkdvb", "--config", "mk.cfg", "--out", "runmk", "--quiet"],
    ]
    assert run_argvs(tmp_path, argvs) == {"codes": [0] * len(argvs), "loaded": []}


def test_mkdvb_random_initial_state_is_the_path_that_loads_numpy_random(tmp_path):
    (tmp_path / "mk.cfg").write_text("n = 32\nT = 0.01\ndt = 0.005\nn_snapshots = 2\n"
                                     "ic = random\n")
    got = run_argvs(tmp_path, [["simulate", "--system", "mkdvb", "--config", "mk.cfg",
                                "--seed", "3", "--out", "runmk", "--quiet"]])
    assert got["codes"] == [0]
    assert "numpy.random" in got["loaded"]
    assert not any(m == "numpy.ma" or m.startswith("numpy.ma.") for m in got["loaded"])
