"""Residual measurement machinery: analytic vs finite-difference derivative routes."""

import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxwave import (
    DomainError,
    GridSpec,
    complex_residual_reports,
    eq11_residual_physical,
    eq14_residual,
    make_complex_wave,
    manufactured_selftest,
    profile,
    real_residual_reports,
    solve_real,
    system19_point_residual,
    system19_residual,
    system_eqq11_residual,
)
from relaxwave.dispersion import ComplexWave
import relaxwave.cli
import relaxwave.verify
from relaxwave.soliton import (
    FieldBundle,
    complex_bundles,
    complex_Z,
    eval_complex_Q,
    eval_uZ,
    real_bundles,
    sigma_tau_from_xi_zeta,
)
from relaxwave.verify import (
    METHODS,
    EquationResidual,
    ResidualReport,
    _grid_fd_rows,
    _stencil_bundle,
    complex_residuals_from_bundles,
    fd_bundle,
    manufactured_bundles,
    phi_from_quadrature,
    physical_operator_grid,
    physical_operator_pointwise,
    point_bundle,
    residuals_from_bundles,
)

from helpers import (
    PHI_GAP_ORIGIN,
    PHI_QUAD_ORIGIN,
    hand_phi_quadrature,
    hand_residuals,
)

SMALL_GRID = GridSpec(-10.0, 10.0, 61, -10.0, 10.0, 61)


def test_residual_fields_match_hand_formulas():
    rng = np.random.default_rng(51)
    for _ in range(8):
        w = solve_real(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 2.0)))
        S, T = np.meshgrid(rng.uniform(-6.0, 6.0, 7), rng.uniform(-6.0, 6.0, 7),
                           indexing="ij")
        bu, bz = real_bundles(w, S, T)
        r1, r2 = residuals_from_bundles(bu, bz, w.alpha)
        h1, h2 = hand_residuals(w, S, T)
        assert np.max(np.abs(r1 - h1)) < 1e-12
        assert np.max(np.abs(r2 - h2)) < 1e-12


def test_origin_point_residual_all_methods():
    # for v = 0, alpha = 0 the first residual at the origin is exactly -1/2
    # and the second exactly 1; this is a finding about the closed forms
    w0 = solve_real(0.0, 0.0)
    r1a, r2a = system19_point_residual(w0, 0.0, 0.0, method="analytic")
    assert r1a == -0.5
    assert r2a == 1.0
    for method in ("fd2", "fd4"):
        r1, r2 = system19_point_residual(w0, 0.0, 0.0, method=method)
        assert r1 == pytest.approx(-0.5, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(v=st.floats(-0.9, 0.9), alpha=st.floats(0.0, 5.0), tau=st.floats(-5.0, 5.0))
def test_point_residual_at_zero_phase_is_minus_two_k_plus_omega_squared(v, alpha, tau):
    # r1 = 4(k+w)^2 [-(k-w)(alpha+2k+2w) T^2 - T + alpha(k-w) + 2(k^2-w^2) - 1]
    # with T = tanh(theta); on the dispersion branch the constant term is
    # -1/2, so r1 = -2(k+w)^2 wherever theta = 0, e.g. on sigma = v*tau
    w = solve_real(v, alpha)
    exact = -2.0 * (w.k + w.omega) ** 2
    for method, rel in (("analytic", 1e-13), ("fd2", 1e-9), ("fd4", 1e-9)):
        r1, _r2 = system19_point_residual(w, v * tau, tau, method)
        assert abs(r1 - exact) <= rel * abs(exact)


def test_point_residual_method_agreement():
    w = solve_real(0.24, 0.1)
    vals = [system19_point_residual(w, 0.7, -0.4, method=m) for m in METHODS]
    for i in (0, 1):
        col = [v[i] for v in vals]
        assert max(col) - min(col) < 1e-10


def test_field_residual_method_stability():
    w0 = solve_real(0.0, 0.0)
    linfs = [system19_residual(w0, method=m).equations[0].linf for m in METHODS]
    assert max(linfs) - min(linfs) < 1e-6
    for linf in linfs:
        assert linf == pytest.approx(1.9999988, abs=1e-5)


def test_report_structure_and_normalization():
    w = solve_real(0.24, 0.1)
    rep = system19_residual(w, grid=SMALL_GRID)
    assert rep.system == "coupled"
    assert rep.method == "analytic"
    assert tuple(e.equation for e in rep.equations) == ("u", "Z")
    for e in rep.equations:
        assert 0.0 < e.l2 <= e.linf
        assert e.normalization > 0.0


def test_factored_equation_equals_first_coupled_residual():
    w = solve_real(0.24, 0.1)
    r19 = system19_residual(w)
    r14 = eq14_residual(w)
    assert r14.system == "factored"
    assert r14.equations[0].equation == "u-factored"
    assert r14.equations[0].linf == pytest.approx(r19.equations[0].linf, rel=1e-12)


def test_factored_second_derivative_chain_rule():
    # -(u_ss - u_tt) must equal the rotated-frame mixed derivative u_xi_zeta
    w = solve_real(0.24, 0.1)
    xi0, zeta0 = 0.3, -0.2

    def u_of(xi, zeta):
        s, t = sigma_tau_from_xi_zeta(xi, zeta)
        return eval_uZ(w, s, t)[0]

    h = 2e-3
    mixed = (u_of(xi0 + h, zeta0 + h) - u_of(xi0 + h, zeta0 - h)
             - u_of(xi0 - h, zeta0 + h) + u_of(xi0 - h, zeta0 - h)) / (4.0 * h * h)
    s0, t0 = sigma_tau_from_xi_zeta(xi0, zeta0)
    bu, _ = real_bundles(w, s0, t0)
    assert mixed == pytest.approx(-(bu.ss - bu.tt), abs=1e-6)


def test_phi_quadrature_matches_antiderivative():
    w = solve_real(0.24, 0.1)
    assert phi_from_quadrature(w, -1000.0, 0.3) == 1.0
    for xi, zeta in ((0.0, 0.0), (0.8, -0.2), (-0.4, 0.5)):
        got = phi_from_quadrature(w, xi, zeta)
        assert got == pytest.approx(hand_phi_quadrature(w, xi, zeta), abs=1e-8)


def test_phi_quadrature_gap_at_origin():
    # the nonlocal route and the local ansatz Z_s + Z_t disagree; the origin
    # values are pinned as reference findings
    w = solve_real(0.24, 0.1)
    got = phi_from_quadrature(w, 0.0, 0.0)
    assert got == pytest.approx(PHI_QUAD_ORIGIN, abs=1e-8)
    bu, bz = real_bundles(w, 0.0, 0.0)
    assert got - (bz.s + bz.t) == pytest.approx(PHI_GAP_ORIGIN, abs=1e-8)


def test_complex_system_companion_equation_closes():
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    rep = system_eqq11_residual(cw, grid=SMALL_GRID)
    assert rep.system == "complex"
    assert tuple(e.equation for e in rep.equations) == ("Q_re", "Q_im", "Z")
    assert rep.equations[2].linf < 1e-12
    for e in rep.equations[:2]:
        assert np.isfinite(e.linf) and e.linf > 0.0
    # on the default grid the analytic Z residual stays at round-off of its
    # largest term, out to the largest |Im theta|
    for k, alpha, root, theta0 in ((1.2 + 0.4j, 0.3, 1, 0j), (0.8 + 0.6j, 0.9, 0, 0.3 - 0.7j),
                                   (1.6 + 0.05j, 0.0, 1, 0j), (1.0 + 0.5j, 0.1, 0, 0j)):
        cw = make_complex_wave(k, alpha, root=root, theta0=theta0)
        z = system_eqq11_residual(cw, GridSpec(), "analytic").equations[2]
        assert z.linf <= 1e-14 * z.normalization


@pytest.mark.parametrize("order", (2, 4))
def test_grid_fd_bundles_match_callable_stencil(order):
    # grid-slice stencils against fd_bundle at S +- j*h: every node, edges
    # included; the neighbour nodes differ from S +- j*h only by round-off
    w = solve_real(0.24, 0.1)
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    S, T = SMALL_GRID.mesh()
    hs, ht = SMALL_GRID.spacings()
    cases = (
        (lambda s, t: eval_uZ(w, s, t),
         (lambda s, t: eval_uZ(w, s, t)[0], lambda s, t: eval_uZ(w, s, t)[1])),
        (lambda s, t: (*eval_complex_Q(cw, s, t), complex_Z(cw, s, t)),
         (lambda s, t: eval_complex_Q(cw, s, t)[0],
          lambda s, t: eval_complex_Q(cw, s, t)[1],
          lambda s, t: complex_Z(cw, s, t))),
    )
    for fields, parts in cases:
        got = _grid_fd_rows(fields, SMALL_GRID, order)(0, SMALL_GRID.n_sigma, order)
        for g, part in zip(got, parts, strict=True):
            ref = fd_bundle(part, S, T, hs, ht, order)
            assert np.array_equal(g.f, ref.f)
            for name in ("s", "t", "ss", "tt"):
                a, b = getattr(g, name), getattr(ref, name)
                assert a.shape == b.shape == S.shape
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def _count_closed_form_calls(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("eval_uZ", "eval_complex_Q", "complex_Z"):
        def counted(*a, _fn=getattr(relaxwave.verify, name), _name=name):
            calls[_name] += 1
            return _fn(*a)
        monkeypatch.setattr(relaxwave.verify, name, counted)
    return calls


@pytest.mark.parametrize("method", ("fd2", "fd4"))
def test_fd_grid_reports_evaluate_each_closed_form_once(monkeypatch, method):
    calls = _count_closed_form_calls(monkeypatch)
    w = solve_real(0.24, 0.1)
    for report in (system19_residual, eq14_residual):
        calls.clear()
        report(w, SMALL_GRID, method)
        assert calls == {"eval_uZ": 1}
    calls.clear()
    system_eqq11_residual(make_complex_wave(1.0 + 0.5j, 0.1), SMALL_GRID, method)
    assert calls == {"eval_complex_Q": 1, "complex_Z": 1}


@pytest.mark.parametrize(("method", "expected"), (("fd2", 25), ("fd4", 45)))
def test_fd_point_residual_evaluates_closed_form_once_per_stencil_point(
        monkeypatch, method, expected):
    # 5 Richardson levels of a 5-point (fd2) or 9-point (fd4) stencil; u and
    # Z come from the same eval_uZ call
    w = solve_real(0.24, 0.1)
    order = 2 if method == "fd2" else 4
    ref = [point_bundle(lambda s, t, i=i: eval_uZ(w, s, t)[i], 0.7, -0.4, order)
           for i in (0, 1)]
    calls = Counter()

    def counted(*a):
        calls["eval_uZ"] += 1
        return eval_uZ(*a)

    monkeypatch.setattr(relaxwave.verify, "eval_uZ", counted)
    got = system19_point_residual(w, 0.7, -0.4, method)
    assert calls == {"eval_uZ": expected}
    # the shared evaluation gives the per-field route's values bit for bit
    assert got == tuple(float(r) for r in residuals_from_bundles(*ref, w.alpha))


@pytest.mark.parametrize("method", METHODS)
def test_analytic_and_fd_reports_on_a_multi_block_grid_evaluate_each_point_once(
        monkeypatch, method):
    grid = GridSpec()
    assert grid.n_sigma * grid.n_tau > relaxwave.verify._BLOCK_POINTS
    calls, points = Counter(), Counter()
    for name in ("eval_uZ", "eval_complex_Q", "complex_Z", "real_bundles",
                 "complex_bundles"):
        def counted(wave, s, t, _fn=getattr(relaxwave.verify, name), _name=name):
            calls[_name] += 1
            points[_name] += np.broadcast(s, t).size
            return _fn(wave, s, t)
        monkeypatch.setattr(relaxwave.verify, name, counted)
    w, cw = solve_real(0.24, 0.1), make_complex_wave(1.0 + 0.5j, 0.1)
    cases = ((system19_residual, w, {"eval_uZ": 1}, "real_bundles"),
             (eq14_residual, w, {"eval_uZ": 1}, "real_bundles"),
             (system_eqq11_residual, cw, {"eval_complex_Q": 1, "complex_Z": 1},
              "complex_bundles"))
    for report, wave, fd_calls, analytic in cases:
        calls.clear()
        points.clear()
        report(wave, grid, method)
        if method == "analytic":
            assert set(calls) == {analytic} and calls[analytic] > 1
            assert points == {analytic: grid.n_sigma * grid.n_tau}
        else:
            assert calls == fd_calls


def _whole_grid_bundles(bundles, fields, grid, method):
    """Unblocked reference: analytic bundles on ``grid.mesh()``, or the
    stencils taken as slices of one evaluation on the ghost-padded mesh."""
    if method == "analytic":
        return bundles(*grid.mesh())
    pad = 1 if method == "fd2" else 2
    hs, ht = grid.spacings()
    ghosts = np.arange(1.0, pad + 1.0)
    axes = [np.concatenate((a[0] - h * ghosts[::-1], a, a[-1] + h * ghosts))
            for a, h in zip(grid.axes(), (hs, ht))]
    padded = fields(*np.meshgrid(*axes, indexing="ij", sparse=True))
    ns, nt = grid.n_sigma, grid.n_tau

    def at(F, i, j):
        return F[pad + i:pad + i + ns, pad + j:pad + j + nt]

    steps = range(1, pad + 1)
    return tuple(
        _stencil_bundle(at(F, 0, 0), [(at(F, j, 0), at(F, -j, 0)) for j in steps],
                        [(at(F, 0, j), at(F, 0, -j)) for j in steps], hs, ht)
        for F in padded)


def _whole_grid_report(system, grid, method, wave):
    if system == "complex":
        bqr, bqi, bz = _whole_grid_bundles(
            lambda s, t: complex_bundles(wave, s, t),
            lambda s, t: (*eval_complex_Q(wave, s, t), complex_Z(wave, s, t)), grid, method)
        r1, r2, r3 = complex_residuals_from_bundles(bqr, bqi, bz, wave.alpha)
        phi = bz.s + bz.t
        pr, pi_ = bqr.s + bqr.t, bqi.s + bqi.t
        eqs = (("Q_re", r1, [bqr.ss, -bqr.tt, phi * bqr.f, wave.alpha * pr]),
               ("Q_im", r2, [bqi.ss, -bqi.tt, phi * bqi.f, wave.alpha * pi_]),
               ("Z", r3, [bz.ss, -bz.tt, bqr.f * pr, bqi.f * pi_]))
    else:
        bu, bz = _whole_grid_bundles(lambda s, t: real_bundles(wave, s, t),
                                     lambda s, t: eval_uZ(wave, s, t), grid, method)
        pi = bu.s + bu.t
        if system == "coupled":
            r1 = bu.ss - bu.tt - (bz.s + bz.t) * bu.f + wave.alpha * pi
            r2 = bz.ss - bz.tt + (bu.f + 1.0) * pi
            eqs = (("u", r1, [bu.ss, -bu.tt, -(bz.s + bz.t) * bu.f, wave.alpha * pi]),
                   ("Z", r2, [bz.ss, -bz.tt, bu.f * pi, pi]))
        else:
            u_xz, u_zeta, phi = -(bu.ss - bu.tt), -pi, bz.s + bz.t
            r = u_xz + wave.alpha * u_zeta + phi * bu.f
            eqs = (("u-factored", r, [u_xz, wave.alpha * u_zeta, phi * bu.f]),)
    return tuple(
        EquationResidual(name, float(np.max(np.abs(total))),
                         float(np.sqrt(np.mean(np.square(total)))),
                         max(float(np.max(np.abs(t))) for t in terms))
        for name, total, terms in eqs)


@pytest.mark.parametrize(("grid", "shape"), (
    (GridSpec(), "default"),
    (GridSpec(-12.0, 9.0, 137, -10.0, 14.0, 1201), "ragged last block"),
    (GridSpec(-5.0, 5.0, 12, -4.0, 6.0, 9001), "one row per block"),
    # at fd4 the ghost columns outnumber the interior ones, so most lanes of
    # the tau runs cross row ends; a warning from a dropped lane is an error
    pytest.param(GridSpec(-15.0, 15.0, 5000, -1.0, 1.0, 2), "two tau nodes",
                 marks=pytest.mark.filterwarnings("error")),
), ids=("default", "ragged-last-block", "one-row-blocks", "two-tau-nodes"))
def test_blocked_grid_reports_equal_the_whole_grid_reference(grid, shape):
    rows = max(1, relaxwave.verify._BLOCK_POINTS // grid.n_tau)
    assert grid.n_sigma > rows
    assert {"ragged last block": grid.n_sigma % rows != 0,
            "one row per block": rows == 1}.get(shape, True)
    w = solve_real(0.24, 0.1, theta0=0.3)
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    for report, system, wave in ((system19_residual, "coupled", w),
                                 (eq14_residual, "factored", w),
                                 (system_eqq11_residual, "complex", cw)):
        for method in METHODS:
            got = report(wave, grid, method)
            assert (got.system, got.method, got.grid) == (system, method, grid)
            assert got.equations == _whole_grid_report(system, grid, method, wave)


@pytest.mark.parametrize("grid", (SMALL_GRID, GridSpec(-12.0, 9.0, 137, -10.0, 14.0, 1201)),
                         ids=("small", "137x1201"))
def test_all_method_reports_equal_single_method_reports(monkeypatch, grid):
    # one computation serves every method, with one padded evaluation for
    # fd2 and fd4 together; each report is bit-identical to its own call
    w = solve_real(0.24, 0.1, theta0=0.3)
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    single = {
        "coupled": [system19_residual(w, grid, m) for m in METHODS],
        "factored": [eq14_residual(w, grid, m) for m in METHODS],
        "complex": [system_eqq11_residual(cw, grid, m) for m in METHODS],
    }
    calls = _count_closed_form_calls(monkeypatch)
    for system in ("coupled", "factored"):
        calls.clear()
        assert list(real_residual_reports(w, grid, METHODS, (system,))) == single[system]
        assert calls == {"eval_uZ": 1}
    calls.clear()
    assert list(complex_residual_reports(cw, grid, METHODS)) == single["complex"]
    assert calls == {"eval_complex_Q": 1, "complex_Z": 1}
    calls.clear()
    both = real_residual_reports(w, grid, ("fd4", "analytic", "fd2"))
    assert calls == {"eval_uZ": 1}
    assert list(both) == [single[s][METHODS.index(m)] for s in ("coupled", "factored")
                          for m in ("fd4", "analytic", "fd2")]
    calls.clear()
    reverse = real_residual_reports(w, grid, METHODS, ("factored", "coupled"))
    assert calls == {"eval_uZ": 1}
    assert list(reverse) == single["factored"] + single["coupled"]


def _whole_grid_run_report_verify(cfg: dict) -> list[dict]:
    grid = GridSpec()
    out = []
    for a in (float(x) for x in cfg["alphas"].split(",")):
        w = solve_real(float(cfg["v"]), a)
        out.append({system: relaxwave.cli._report_obj(ResidualReport(
            system, "analytic", grid, _whole_grid_report(system, grid, "analytic", w)))
            for system in ("coupled", "factored")})
    return out


def test_reports_never_read_stale_squares():
    # each report writes every square it reads: NaN left in the kept
    # buffer between calls changes nothing
    w = solve_real(0.24, 0.1, theta0=0.3)
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    grid = GridSpec(-12.0, 9.0, 137, -10.0, 14.0, 1201)
    calls = ((lambda: real_residual_reports(w, grid), w),
             (lambda: complex_residual_reports(cw, grid), cw),
             (lambda: real_residual_reports(w, grid, METHODS, ("factored",)), w))
    for call, wave in calls * 2:
        relaxwave.verify._SQUARES.buf.fill(np.nan)
        for rep in call():
            assert rep.equations == _whole_grid_report(rep.system, grid, rep.method, wave)
    cfg = {"v": "0.3", "alphas": "0.05, 0.4", "n_samples": "2"}
    real_residual_reports(w)  # shape the buffer for run_report's default grid
    relaxwave.verify._SQUARES.buf.fill(np.nan)
    report, code = relaxwave.cli.run_report(cfg)
    assert code == 0
    assert [e["verify"] for e in report["entries"]] == _whole_grid_run_report_verify(cfg)


def test_report_sequences_across_grids_equal_the_whole_grid_reference():
    # the kept squares buffer is replaced on a new grid shape, regrown for
    # more equations and reused, call by call
    w = solve_real(0.24, 0.1, theta0=0.3)
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    for grid in (GridSpec(), GridSpec(-12.0, 9.0, 137, -10.0, 14.0, 1201), SMALL_GRID):
        for call, wave in ((lambda: real_residual_reports(w, grid, METHODS, ("coupled",)), w),
                           (lambda: complex_residual_reports(cw, grid), cw),
                           (lambda: real_residual_reports(w, grid), w)):
            for rep in call():
                assert rep.equations == _whole_grid_report(rep.system, grid, rep.method, wave)
    cfg = {"v": "0.3", "alphas": "0.05, 0.4", "n_samples": "2"}
    report, code = relaxwave.cli.run_report(cfg)
    assert code == 0
    assert [e["verify"] for e in report["entries"]] == _whole_grid_run_report_verify(cfg)


def test_concurrent_reports_each_keep_their_own_squares():
    # threads on different grids never share a squares buffer
    w = solve_real(0.24, 0.1, theta0=0.3)
    grids = (SMALL_GRID, GridSpec(-8.0, 8.0, 97, -9.0, 7.0, 83))
    expected = [real_residual_reports(w, g) for g in grids]
    agree = []

    def work(i: int) -> None:
        for _ in range(4):
            agree.append(real_residual_reports(w, grids[i % 2]) == expected[i % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert agree == [True] * 24


def test_warm_analytic_report_keeps_its_squares_between_calls():
    # the squares go to the kept buffer, so a warm report allocates only its
    # row-block temporaries (2 whole-grid squares arrays alone are 1.38 MiB)
    w = solve_real(0.24, 0.1)
    real_residual_reports(w, GridSpec(), ("analytic",), ("coupled",))
    tracemalloc.start()
    try:
        real_residual_reports(w, GridSpec(), ("analytic",), ("coupled",))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_run_report_builds_each_alpha_s_analytic_bundles_once(monkeypatch):
    # coupled and factored entries come from one real_bundles pass per alpha
    # and equal the standalone reports
    cfg = {"v": "0.3", "alphas": "0.05, 0.4", "n_samples": "2"}
    grid = GridSpec()
    expect = []
    for a in (0.05, 0.4):
        w = solve_real(0.3, a)
        expect.append({"coupled": relaxwave.cli._report_obj(system19_residual(w, grid)),
                       "factored": relaxwave.cli._report_obj(
                           eq14_residual(w, grid, "analytic"))})
    points = Counter()

    def counted(wave, s, t, _fn=relaxwave.verify.real_bundles):
        points[wave.alpha] += np.broadcast(s, t).size
        return _fn(wave, s, t)

    monkeypatch.setattr(relaxwave.verify, "real_bundles", counted)
    report, code = relaxwave.cli.run_report(cfg)
    assert code == 0
    assert [e["verify"] for e in report["entries"]] == expect
    assert points == {0.05: grid.n_sigma * grid.n_tau, 0.4: grid.n_sigma * grid.n_tau}


def test_complex_companion_fd_residual_converges_at_nominal_order():
    # the companion equation closes exactly, so its FD residual is pure
    # truncation error, edge nodes (whose stencils reach the ghost ring)
    # included; same 20 percent rule as the manufactured self-test
    cw = make_complex_wave(1.0 + 0.5j, 0.1)

    def z_linf(n, method):
        grid = GridSpec(-10.0, 10.0, n, -10.0, 10.0, n)
        return system_eqq11_residual(cw, grid, method).equations[2].linf

    for method, expected in (("fd2", 4.0), ("fd4", 16.0)):
        ratio = z_linf(121, method) / z_linf(241, method)
        assert abs(ratio - expected) <= 0.2 * expected


def test_complex_system_real_reduction():
    real = make_complex_wave(1.2, 0.5, root=0)
    rep = system_eqq11_residual(real, grid=SMALL_GRID)
    assert rep.equations[1].linf == 0.0
    assert rep.equations[2].linf < 1e-12


def test_complex_system_requires_decay():
    cw = ComplexWave(k=1j, omega=0.5 + 0j, alpha=0.1)
    with pytest.raises(DomainError):
        system_eqq11_residual(cw, grid=SMALL_GRID)


def test_physical_operator_pointwise_polynomial():
    y, eta = 0.7, -0.3
    u, u_y, u_eta = y * y * eta, 2.0 * y * eta, y * y
    u_yy, u_yeta = 2.0 * eta, 2.0 * y
    got = physical_operator_pointwise(u, u_y, u_eta, u_yy, u_yeta, 0.0,
                                      include_cubic=False)
    # d_y(u_eta + u*u_y) + u = 2y + 6y**2*eta**2 + y**2*eta for u = y**2*eta
    assert got == pytest.approx(2.0 * y + 6.0 * y * y * eta * eta + u, abs=1e-10)
    full = physical_operator_pointwise(u, u_y, u_eta, u_yy, u_yeta, 0.25)
    assert full == pytest.approx(got + 5.0 * y ** 4 * eta ** 3 + 0.25 * u_y, abs=1e-10)


def operator_grid_error(n_y, n_eta):
    y = np.linspace(0.0, 3.0, n_y)
    eta = np.linspace(0.0, 2.0, n_eta)
    E, Y = np.meshgrid(eta, y, indexing="ij")
    U = np.sin(Y) * np.cos(E)
    res = physical_operator_grid(U, y, eta, 0.3)
    Ei, Yi = E[1:-1, 2:-2], Y[1:-1, 2:-2]
    u = np.sin(Yi) * np.cos(Ei)
    exact = physical_operator_pointwise(
        u, np.cos(Yi) * np.cos(Ei), -np.sin(Yi) * np.sin(Ei), -u,
        -np.cos(Yi) * np.sin(Ei), 0.3)
    return float(np.max(np.abs(res - exact)))


def test_physical_operator_grid_second_order():
    ratio = operator_grid_error(81, 41) / operator_grid_error(161, 81)
    assert 3.0 < ratio < 5.0


def test_physical_operator_grid_zero_and_validation():
    y = np.linspace(0.0, 3.0, 31)
    eta = np.linspace(0.0, 2.0, 11)
    assert np.max(np.abs(physical_operator_grid(np.zeros((11, 31)), y, eta, 0.5))) == 0.0
    with pytest.raises(DomainError):
        physical_operator_grid(np.zeros((31, 11)), y, eta, 0.5)
    with pytest.raises(DomainError):
        physical_operator_grid(np.zeros((2, 31)), y, np.linspace(0, 1, 2), 0.5)


def test_physical_frame_residual_of_single_valued_profile():
    w8 = solve_real(0.24, 0.8)
    p = profile(w8)
    rep = eq11_residual_physical(p, 0.8)
    assert rep.system == "physical"
    assert rep.equations[0].equation == "u-physical"
    # nonzero residual is the measured finding; its value is resolution-stable
    assert rep.equations[0].linf == pytest.approx(1.6805032, abs=1e-3)
    refined = eq11_residual_physical(p, 0.8, n_y=301, n_eta=49)
    rel = abs(refined.equations[0].linf - rep.equations[0].linf) / rep.equations[0].linf
    assert rel < 1e-4


@pytest.mark.parametrize("v,alpha", [(0.24, 0.8), (0.1, 0.5), (0.5, 2.0), (0.3, 1.0),
                                     (0.45, 3.0)])
def test_physical_frame_inversion_converges_in_a_few_newton_passes(monkeypatch, v, alpha):
    # a converged iterate lies on its own bracket end; the Newton solve must
    # accept it rather than bisect away from the root
    w = solve_real(v, alpha)
    p = profile(w)
    lo, hi = float(p.y.min()), float(p.y.max())
    y = np.linspace(0.7 * lo + 0.3 * hi, 0.3 * lo + 0.7 * hi, 205)
    eta = float(np.median(0.5 * (p.sigma - p.tau))) + np.linspace(-0.6, 0.6, 37)
    calls, final = [], []

    def counted(*a):
        calls.append(1)
        return real_bundles(*a)

    def kept(*a):
        final.append(eval_uZ(*a))
        return final[-1]

    monkeypatch.setattr(relaxwave.verify, "real_bundles", counted)
    monkeypatch.setattr(relaxwave.verify, "eval_uZ", kept)
    relaxwave.verify._resample_u_on_y_eta(w, p.C, y, eta)
    assert len(calls) <= 8
    _eta, Y = np.meshgrid(eta, y, indexing="ij")
    assert np.max(np.abs((p.C - final[-1][1]) - Y)) <= 1e-14 * np.max(np.abs(y))


def test_physical_frame_rejects_multivalued_profiles():
    p_loop = profile(solve_real(0.24, 0.1))
    with pytest.raises(DomainError, match="multivalued"):
        eq11_residual_physical(p_loop, 0.1)


def test_physical_frame_validation():
    p = profile(solve_real(0.24, 0.8))
    with pytest.raises(DomainError):
        eq11_residual_physical(p, 0.8, n_y=5)
    with pytest.raises(DomainError):
        eq11_residual_physical(p, 0.8, trim=0.5)
    with pytest.raises(DomainError):
        eq11_residual_physical(p, 0.8, eta_halfwidth=0.0)


def test_manufactured_selftest_passes():
    rep = manufactured_selftest()
    assert rep.passed
    assert rep.analytic_max_error < 1e-10
    assert rep.zero_residual_max == 0.0
    assert abs(rep.fd2_ratio - rep.fd2_expected) <= 0.2 * rep.fd2_expected
    assert abs(rep.fd4_ratio - rep.fd4_expected) <= 0.2 * rep.fd4_expected


def test_residual_linearity_in_u_given_Z():
    w = solve_real(0.24, 0.1)
    S, T = np.meshgrid(np.linspace(-4.0, 4.0, 21), np.linspace(-4.0, 4.0, 21),
                       indexing="ij")
    bu0, bz0 = real_bundles(w, S, T)
    bphi, _ = manufactured_bundles(S, T)
    r10, r20 = residuals_from_bundles(bu0, bz0, w.alpha)

    def delta(eps):
        pert = FieldBundle(f=bu0.f + eps * bphi.f, s=bu0.s + eps * bphi.s,
                           t=bu0.t + eps * bphi.t, ss=bu0.ss + eps * bphi.ss,
                           tt=bu0.tt + eps * bphi.tt)
        r1, r2 = residuals_from_bundles(pert, bz0, w.alpha)
        return (float(np.max(np.abs(r1 - r10))), float(np.max(np.abs(r2 - r20))))

    d6, d5 = delta(1e-6), delta(1e-5)
    # equation 1 is linear in u at fixed Z; equation 2 picks up a small
    # quadratic correction
    assert d5[0] / d6[0] == pytest.approx(10.0, rel=1e-6)
    assert d5[1] / d6[1] == pytest.approx(10.0, rel=1e-2)


def test_point_bundle_hits_roundoff():
    w = solve_real(0.24, 0.1)
    bu, _ = real_bundles(w, 0.7, -0.4)
    for order in (2, 4):
        pb = point_bundle(lambda s, t: eval_uZ(w, s, t)[0], 0.7, -0.4, order)
        assert pb.f == bu.f
        assert pb.s == pytest.approx(bu.s, abs=1e-10)
        assert pb.t == pytest.approx(bu.t, abs=1e-10)
        assert pb.ss == pytest.approx(bu.ss, abs=1e-10)
        assert pb.tt == pytest.approx(bu.tt, abs=1e-10)


def test_grid_and_method_validation():
    with pytest.raises(DomainError):
        GridSpec(sigma_min=5.0, sigma_max=-5.0)
    with pytest.raises(DomainError):
        GridSpec(n_sigma=1)
    with pytest.raises(DomainError):
        GridSpec(sigma_max=51.0)
    with pytest.raises(DomainError):
        system19_residual(solve_real(0.24, 0.1), method="spectral")
    for systems in (("coupled", "coupled"), ("physical",)):
        with pytest.raises(DomainError):
            real_residual_reports(solve_real(0.24, 0.1), SMALL_GRID, METHODS, systems)
    with pytest.raises(DomainError):
        complex_residual_reports(make_complex_wave(1.0 + 0.5j, 0.1), SMALL_GRID,
                                 ("analytic", "fd6"))
    with pytest.raises(DomainError):
        fd_bundle(lambda s, t: s, 0.0, 0.0, 0.1, 0.1, 3)
