"""End-to-end command-line checks: outputs, file artifacts, exit codes."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import relaxwave.cli
from relaxwave import MediumParams, alpha_critical, reduce_swsp
from relaxwave.cli import main

from helpers import (
    CRIT_ALPHA_024,
    CRIT_ALPHA_05,
    K_024_01,
    LINE2_NORMALIZED,
    THETA_SING_024_01,
    W_024_01,
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dispersion_command(capsys):
    code, obj = run_json(capsys, ["dispersion", "--v", "0.24", "--alpha", "0.1"])
    assert code == 0
    assert obj["k"] == pytest.approx(K_024_01, abs=1e-15)
    assert obj["omega"] == pytest.approx(W_024_01, abs=1e-15)
    assert abs(obj["residual"]) < 1e-12


def test_critical_alpha_plain_and_json(capsys):
    assert main(["critical-alpha", "--v", "0.24"]) == 0
    out = capsys.readouterr().out
    assert float(out.strip()) == pytest.approx(CRIT_ALPHA_024, abs=1e-15)
    code, obj = run_json(capsys, ["critical-alpha", "--v", "0.5", "--format", "json"])
    assert code == 0
    assert obj["alpha_critical"] == pytest.approx(CRIT_ALPHA_05, abs=1e-14)


def test_classify_command(capsys):
    code, obj = run_json(capsys, ["classify", "--v", "0.24", "--alpha", "0.1"])
    assert code == 0
    assert obj["class"] == "loop"
    assert obj["momentum_shape"] == "loop-like"
    assert obj["singular_thetas"][1] == pytest.approx(THETA_SING_024_01, abs=1e-12)
    assert obj["alpha_critical"] == pytest.approx(CRIT_ALPHA_024, abs=1e-14)


def test_soliton_profile_csv(tmp_path, capsys):
    dest = tmp_path / "profile.csv"
    code = main(["soliton-profile", "--v", "0.24", "--alpha", "0.1",
                 "--n", "21", "--out", str(dest), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    raw = dest.read_bytes().decode()
    lines = raw.split("\r\n")
    assert lines[0] == "sigma,theta,u,Z,y,pi,dZdsigma"
    assert len(lines) == 23 and lines[-1] == ""
    first = lines[1].split(",")
    assert float(first[0]) == -15.0
    assert main(["soliton-profile", "--v", "0.24", "--alpha", "0.1",
                 "--n", "5"]) == 0
    assert capsys.readouterr().out.startswith("sigma,theta,u,Z,y,pi,dZdsigma\r\n")


def test_bilinear_command(capsys):
    code, obj = run_json(capsys, ["bilinear", "--v", "0.24", "--alpha", "0.1"])
    assert code == 0
    assert [r["variant"] for r in obj["reports"]] == ["squared-alpha", "linear-alpha"]
    assert obj["reports"][0]["line2_linf"] == pytest.approx(LINE2_NORMALIZED, rel=1e-5)
    code, obj = run_json(capsys, ["bilinear", "--v", "0.24", "--alpha", "0.1",
                                  "--variant", "squared"])
    assert [r["variant"] for r in obj["reports"]] == ["squared-alpha"]


GRID_SMALL = ["--sigma-min", "-10", "--sigma-max", "10", "--n-sigma", "61",
              "--tau-min", "-10", "--tau-max", "10", "--n-tau", "61"]


def test_verify_coupled_with_point(capsys):
    code, obj = run_json(capsys, ["verify", "--system", "coupled", "--v", "0",
                                  "--alpha", "0", "--method", "all",
                                  "--point", "0", "0"] + GRID_SMALL)
    assert code == 0
    assert obj["system"] == "coupled"
    assert len(obj["reports"]) == 3
    assert [e["equation"] for e in obj["reports"][0]["equations"]] == ["u", "Z"]
    for m in ("analytic", "fd2", "fd4"):
        assert obj["point"]["residuals"][m]["r1"] == pytest.approx(-0.5, abs=1e-10)
        assert obj["point"]["residuals"][m]["r2"] == pytest.approx(1.0, abs=1e-10)


def test_verify_factored_and_complex(capsys):
    code, obj = run_json(capsys, ["verify", "--system", "14"] + GRID_SMALL)
    assert code == 0
    assert obj["system"] == "factored"
    assert [r["method"] for r in obj["reports"]] == ["analytic"]
    assert obj["reports"][0]["equations"][0]["equation"] == "u-factored"
    code, obj = run_json(capsys, ["verify", "--system", "complex", "--k-re", "1.0",
                                  "--k-im", "0.5", "--alpha", "0.1"] + GRID_SMALL)
    assert code == 0
    assert obj["dispersion_residual"] < 1e-12
    eqs = {e["equation"]: e["linf"] for e in obj["reports"][0]["equations"]}
    assert set(eqs) == {"Q_re", "Q_im", "Z"}
    assert eqs["Z"] < 1e-12


def test_verify_physical(capsys):
    code, obj = run_json(capsys, ["verify", "--system", "physical", "--v", "0.24",
                                  "--alpha", "0.8"])
    assert code == 0
    assert obj["system"] == "physical"
    assert obj["reports"][0]["equations"][0]["linf"] == pytest.approx(1.6805032,
                                                                      abs=1e-3)


@pytest.mark.parametrize("argv,message", [
    (["verify", "--system", "physical", "--method", "fd4"],
     "--method is not read by --system physical"),
    (["verify", "--system", "11", "--method", "analytic"],
     "--method is not read by --system physical"),
    (["verify", "--system", "factored", "--point", "0", "0"],
     "--point is not read by --system factored"),
    (["verify", "--system", "complex", "--point", "0", "0"],
     "--point is not read by --system complex"),
    (["verify", "--system", "physical", "--point", "0", "0"],
     "--point is not read by --system physical"),
    # named on the command line, even at its default value
    (["verify", "--system", "complex", "--v", "0.24"], "--v is not read by --system complex"),
    *[(["verify", "--system", system, option, value], f"{option} is not read by --system {system}")
      for system in ("coupled", "factored", "physical")
      for option, value in (("--k-re", "3"), ("--k-im", "0"), ("--root", "1"))],
    *[(["verify", "--system", system, "--tau-point", "4"],
       f"--tau-point is not read by --system {system}")
      for system in ("coupled", "factored", "complex")],
    (["verify", "--system", "physical", "--alpha", "0.8", "--tau-min", "-3"],
     "--tau-min is not read by --system physical"),
    (["verify", "--system", "physical", "--alpha", "0.8", "--tau-max=3"],
     "--tau-max is not read by --system physical"),
    (["verify", "--system", "physical", "--alpha", "0.8", "--n-t", "11"],
     "--n-tau is not read by --system physical"),
    (["simulate", "--system", "19", "--seed", "3"], "--seed is not read by --system coupled"),
])
def test_verify_refuses_an_option_its_system_does_not_read(tmp_path, capsys, argv, message):
    assert_refused(tmp_path, capsys, [*argv, "--out", str(tmp_path / "out")], message)


def test_the_reads_table_names_every_option_of_verify_and_simulate(capsys):
    # each option but --system and the common ones is noted when named, is
    # read by some system, and passes the check with every system that reads it
    cli = relaxwave.cli
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    for command, reads in cli._READS.items():
        actions = [a for a in sub.choices[command]._actions
                   if a.option_strings[0] not in ("-h", "--out", "--quiet", "--system")]
        assert all(isinstance(a, cli._Named) for a in actions)
        assert ({a.option_strings[0] for a in actions}
                == {option for options in reads.values() for option in options})
        values = {a.option_strings[0]: ["1"] * (a.nargs or 1) for a in actions}
        values["--method"] = ["fd2"]
        for token, system in cli._SYSTEM_TOKENS.items():
            if system in reads:
                argv = [command, "--system", token,
                        *[s for option in reads[system] for s in (option, *values[option])]]
                args = cli._parser().parse_args(argv)
                cli._refuse_unread_options(args)
                assert sorted(args.named) == sorted(reads[system])


def test_perfbench_verify_and_simulate_argvs_pass_the_reads_check(monkeypatch):
    # the closed-form-sweep and integrate jobs of seeds 1-20, generated and
    # parsed, never run
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # its dataclass looks itself up
    spec.loader.exec_module(jobs)
    option_sets = Counter()
    for seed in range(1, 21):
        for job in jobs.closed_form_sweep(seed) + jobs.integrate(seed):
            argv = job.resolved_argv(Path("d"))
            if argv[0] in relaxwave.cli._READS:
                args = relaxwave.cli._parser().parse_args(argv)
                relaxwave.cli._refuse_unread_options(args)
                option_sets[argv[0], args.system, *sorted(args.named)] += 1
    verify = {key: n for key, n in option_sets.items() if key[0] == "verify"}
    assert sum(verify.values()) == 223 and len(verify) == 6
    assert option_sets["simulate", "mkdvb", "--config", "--seed"] == 120


def test_critical_alpha_refuses_a_format_other_than_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["critical-alpha", "--v", "0.2", "--format", "xml"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --format: invalid choice: 'xml'" in captured.err
    assert captured.out == ""


def test_medium_command_and_config_route(tmp_path, capsys):
    argv = ["medium", "--tau", "2", "--v_e", "0.75", "--v_f", "1.5",
            "--reduction", "swsp"]
    code, obj = run_json(capsys, argv)
    assert code == 0
    assert obj["high_freq"]["beta_f"] == pytest.approx(1.0, abs=1e-15)
    assert obj["low_freq"]["beta_e"] == pytest.approx(0.421875, abs=1e-15)
    expected = reduce_swsp(MediumParams(tau=2.0, v_e=0.75, v_f=1.5))
    assert obj["reduction"] == "swsp"
    assert obj["reduced"]["alpha"] == pytest.approx(expected.alpha, abs=1e-15)
    cfgfile = tmp_path / "medium.cfg"
    cfgfile.write_text("tau = 2\nv_e = 0.75\nv_f = 1.5\n")
    code2, obj2 = run_json(capsys, ["medium", "--config", str(cfgfile),
                                    "--reduction", "swsp"])
    assert code2 == 0
    assert obj2 == obj


def test_simulate_coupled_artifacts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v = 0.24\nalpha = 0.8\nn = 61\nT = 0.2\ndt = 0.1\n"
                   "n_snapshots = 3\nforcing = exactness\n")
    out = tmp_path / "run19"
    code = main(["simulate", "--system", "19", "--config", str(cfg),
                 "--out", str(out), "--quiet"])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["system"] == "19"
    assert manifest["params"]["n"] == 61
    assert manifest["params"]["forcing"] == "exactness"
    assert len(manifest["snapshots"]) == 3
    for snap in manifest["snapshots"]:
        f = out / snap["file"]
        assert f.exists()
        assert f.read_bytes().split(b"\r\n")[0] == b"sigma,u,ut,Z,zt"
        assert snap["drift_u_linf"] < 1e-4


def test_linearized_exactness_run_tracks_the_closed_form(tmp_path):
    # the forcing negates the residual of the system the run steps, so the
    # closed form is an exact solution of the linearized run too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v = 0.24\nalpha = 0.8\nT = 2\nn_snapshots = 3\n"
                   "forcing = exactness\nlinearized = true\n")
    out = tmp_path / "run19"
    code = main(["simulate", "--system", "19", "--config", str(cfg),
                 "--out", str(out), "--quiet"])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["params"]["n"] == 301
    assert manifest["params"]["linearized"] is True
    assert max(snap["drift_u_linf"] for snap in manifest["snapshots"]) < 1e-5


def test_simulate_mkdvb_artifacts(tmp_path):
    cfg = tmp_path / "mk.cfg"
    cfg.write_text("n = 32\nT = 0.01\ndt = 0.005\nn_snapshots = 2\nic = sine\n")
    out = tmp_path / "runmk"
    code = main(["simulate", "--system", "mkdvb", "--config", str(cfg),
                 "--out", str(out), "--quiet"])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["system"] == "mkdvb"
    assert len(manifest["snapshots"]) == 2
    snap = out / "snapshot_001.csv"
    assert snap.read_bytes().split(b"\r\n")[0] == b"x,p"


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_figure_default_panels_and_determinism(tmp_path):
    d1, d2 = tmp_path / "fig1", tmp_path / "fig2"
    for d in (d1, d2):
        assert main(["figure", "--out", str(d), "--n", "101", "--quiet"]) == 0
    manifest = json.loads((d1 / "figure_manifest.json").read_text())
    assert [p["class"] for p in manifest["panels"]] == ["cusp", "loop", "kink"]
    assert [p["momentum_shape"] for p in manifest["panels"]] == \
        ["cusp-like", "loop-like", "hump-like"]
    names = {p.name for p in d1.iterdir()}
    for i in (1, 2, 3):
        assert f"curve_{i:02d}_u.csv" in names
        assert f"curve_{i:02d}_pi.csv" in names
    assert read_tree(d1) == read_tree(d2)


def test_figure_svg_and_alpha_tokens(tmp_path):
    out = tmp_path / "figsvg"
    code = main(["figure", "--out", str(out), "--n", "51", "--format", "svg",
                 "--alphas", "critical, 0.8", "--quiet"])
    assert code == 0
    manifest = json.loads((out / "figure_manifest.json").read_text())
    assert [p["class"] for p in manifest["panels"]] == ["cusp", "kink"]
    assert (out / "curve_01_u.svg").exists()
    assert (out / "curve_02_pi.svg").exists()


def test_run_report_structure_and_determinism(tmp_path):
    cfg = tmp_path / "report.cfg"
    cfg.write_text("n_samples = 5\nalphas = 0.1\n")
    outs = []
    for name in ("r1.json", "r2.json"):
        dest = tmp_path / name
        code = main(["run-report", "--config", str(cfg), "--out", str(dest),
                     "--quiet"])
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["schema_version"] == 1
    assert report["selftest"]["passed"] is True
    assert report["property_samples"]["n"] == 5
    assert report["property_samples"]["max_real_dispersion_residual"] < 1e-12
    entry = report["entries"][0]
    assert entry["classification"]["class"] == "loop"
    assert len(entry["bilinear"]) == 2
    assert set(entry["verify"]) == {"coupled", "factored"}


def test_run_report_flags_domain_failures(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_samples = 2\nalphas = 0.1, -1\n")
    code, report = run_json(capsys, ["run-report", "--config", str(cfg)])
    assert code == 2
    assert "error" in report["entries"][1]
    assert report["entries"][1]["error"]["type"] == "DomainError"


def test_exit_codes(tmp_path, capsys):
    assert main(["dispersion", "--v", "2", "--alpha", "0.1"]) == 2
    assert "error" in capsys.readouterr().err
    missing = tmp_path / "no" / "dir" / "x.txt"
    assert main(["critical-alpha", "--v", "0.5", "--out", str(missing)]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    builds = []
    build = relaxwave.cli.build_parser
    monkeypatch.setattr(relaxwave.cli, "build_parser", lambda: builds.append(1) or build())
    relaxwave.cli._parser.cache_clear()
    argvs = [["classify", "--v", "0.24", "--alpha", "0.1"],
             ["dispersion", "--v", "2", "--alpha", "0.1"],
             ["classify", "--v", "0.24", "--alpha", "0.1"]]
    try:
        got = []
        for argv in argvs:
            code = main(argv)
            got.append((code, *capsys.readouterr()))
        assert len(builds) == 1
    finally:
        relaxwave.cli._parser.cache_clear()
    assert [g[0] for g in got] == [0, 2, 0]
    src = str(Path(relaxwave.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    for argv, expected in zip(argvs, got):
        proc = subprocess.run([sys.executable, "-m", "relaxwave.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


def assert_refused(tmp_path, capsys, argv, message):
    # exit 2 with the message on stderr, and nothing written to stdout or
    # under tmp_path/out
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("system,config,message", [
    ("19", "dt = nan\n", "dt must be positive and finite, got nan"),
    ("mkdvb", "dt = nan\n", "dt must be positive and finite, got nan"),
    ("19", "T = inf\n", "T must be nonnegative and finite, got inf"),
    ("mkdvb", "T = inf\n", "T must be nonnegative and finite, got inf"),
    ("19", "T = nan\n", "T must be nonnegative and finite, got nan"),
    ("mkdvb", "T = nan\n", "T must be nonnegative and finite, got nan"),
    ("19", "n = 1\n", "config key 'n': need at least 8 grid points, got 1"),
    ("19", "theta0 = nan\n", "phase offset theta0 must be finite, got nan"),
])
def test_simulate_refuses_non_finite_or_degenerate_run_parameters(tmp_path, capsys, system,
                                                                  config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert_refused(tmp_path, capsys, ["simulate", "--system", system, "--config", str(cfg),
                                      "--out", str(tmp_path / "out"), "--quiet"], message)


@pytest.mark.parametrize("argv", [
    ["dispersion", "--v", "0.2", "--alpha", "inf"],
    ["classify", "--v", "0.2", "--alpha", "inf"],
])
def test_real_wave_commands_refuse_a_non_finite_alpha(tmp_path, capsys, argv):
    assert_refused(tmp_path, capsys, argv + ["--out", str(tmp_path / "out")],
                   "dissipative parameter must be finite, got inf")


CUSP_ALPHA = repr(alpha_critical(0.24))


@pytest.mark.parametrize("argv,message", [
    (["soliton-profile", "--v", "0.24", "--alpha", "0.1", "--theta0", "nan"],
     "phase offset theta0 must be finite, got nan"),
    (["soliton-profile", "--v", "0.24", "--alpha", "0.1", "--C", "inf"],
     "profile needs a finite C, got inf"),
    (["soliton-profile", "--v", "0.24", "--alpha", "0.1", "--tau=-inf"],
     "profile needs a finite tau, got -inf"),
    (["figure", "--v", "0.24", "--tau", "inf", "--alphas", "0.1"],
     "figure tau must be finite, got inf"),
    (["verify", "--system", "physical", "--alpha", "0.8", "--tau-point", "nan"],
     "profile needs a finite tau, got nan"),
    (["classify", "--v", "0.24", "--alpha", CUSP_ALPHA, "--tol", "nan"],
     "cusp tolerance tol must be finite and >= 0, got nan"),
    (["classify", "--v", "0.24", "--alpha", CUSP_ALPHA, "--tol", "-1"],
     "cusp tolerance tol must be finite and >= 0, got -1.0"),
    (["classify", "--v", "0.24", "--alpha", CUSP_ALPHA, "--tol", "inf"],
     "cusp tolerance tol must be finite and >= 0, got inf"),
    (["soliton-profile", "--v", "0.24", "--alpha", "0.1", "--sigma-min=-inf", "--n", "5"],
     "profile needs a finite sigma_min, got -inf"),
    (["soliton-profile", "--v", "0.24", "--alpha", "0.1", "--sigma-max", "inf"],
     "profile needs a finite sigma_max, got inf"),
    (["figure", "--v", "0.24", "--sigma-max", "inf", "--alphas", "0.1"],
     "figure sigma_max must be finite, got inf"),
    (["figure", "--v", "0.24", "--sigma-min=-inf", "--alphas", "0.1"],
     "figure sigma_min must be finite, got -inf"),
])
def test_closed_form_commands_refuse_non_finite_or_negative_parameters(tmp_path, capsys, argv,
                                                                       message):
    assert_refused(tmp_path, capsys, argv + ["--out", str(tmp_path / "out")], message)


@pytest.mark.parametrize("flags", [["--alpha", "inf"], ["--k-re", "inf"], ["--k-re", "nan"]])
def test_verify_complex_refuses_a_non_finite_k_or_alpha(tmp_path, capsys, flags):
    assert_refused(tmp_path, capsys, ["verify", "--system", "complex", *flags,
                                      "--out", str(tmp_path / "out")],
                   "complex wave needs finite k and alpha")


@pytest.mark.parametrize("argv,config,message", [
    (["simulate", "--system", "19"], "alpah = 0.5\nn = 41\n",
     "simulate --system 19 does not read config key(s) 'alpah'"),
    (["simulate", "--system", "mkdvb"], "tau = 2\nv_e = 0.75\nv_f = 1.5\nquad = 1\ncubic = 2\n",
     "simulate --system mkdvb with 'tau' or 'v_f' (the medium route) does not read "
     "config key(s) 'cubic', 'quad'"),
    (["simulate", "--system", "mkdvb"], "gama = 0.1\n",
     "simulate --system mkdvb does not read config key(s) 'gama'"),
    (["run-report"], "alpha = 0.1\n", "run-report does not read config key(s) 'alpha'"),
    (["medium", "--reduction", "swsp"], "tau = 2\nv_e = 0.75\nv_f = 1.5\nbeta = 1\n",
     "medium does not read config key(s) 'beta'"),
])
def test_commands_refuse_config_keys_they_do_not_read(tmp_path, capsys, argv, config,
                                                      message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert_refused(tmp_path, capsys, argv + ["--config", str(cfg), "--out",
                                             str(tmp_path / "out"), "--quiet"], message)


@pytest.mark.parametrize("argv,config", [
    (["run-report", "--seed", "-5"], "n_samples = 2\nalphas = 0.1\n"),
    (["simulate", "--system", "mkdvb", "--seed", "-1"], "n = 32\nT = 0.01\nic = random\n"),
    (["simulate", "--system", "mkdvb", "--seed", "1.5"], "n = 32\nT = 0.01\nic = random\n"),
], ids=["run-report-negative", "mkdvb-negative", "mkdvb-fraction"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, argv, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: expected a non-negative integer, got '{argv[-1]}'" in err
    assert not (tmp_path / "out").exists()


def test_seed_and_format_are_options_of_the_commands_that_read_them(capsys):
    sub = next(a for a in relaxwave.cli.build_parser()._actions if a.choices)
    owners = {opt: sorted(name for name, p in sub.choices.items()
                          if opt in p._option_string_actions)
              for opt in ("--seed", "--format")}
    assert owners == {"--seed": ["run-report", "simulate"],
                      "--format": ["critical-alpha", "figure"]}
    for argv in (["classify", "--v", "0.24", "--alpha", "0.1", "--seed", "1"],
                 ["dispersion", "--v", "0.24", "--alpha", "0.1", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("system,config,message", [
    ("19", "n = 101\nT = 12\n", "numerical abort: non-finite state at step 80 (tau=9.6)"),
    ("mkdvb", "n = 1024\namp = 2\nquad = 1\nbeta = 0.1\n",
     "numerical abort: non-finite spectrum at step 11 (t=0.011)"),
], ids=["19", "mkdvb"])
def test_a_diverging_simulate_prints_only_its_abort(tmp_path, system, config, message):
    (tmp_path / "run.cfg").write_text(config)
    src = str(Path(relaxwave.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "relaxwave.cli", "simulate", "--system",
                           system, "--config", "run.cfg", "--out", "out", "--quiet"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message + "\n")
