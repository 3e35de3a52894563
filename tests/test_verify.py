"""Residual measurement machinery: analytic vs finite-difference derivative routes."""

from collections import Counter

import numpy as np
import pytest

from relaxwave import (
    DomainError,
    GridSpec,
    eq11_residual_physical,
    eq14_residual,
    make_complex_wave,
    manufactured_selftest,
    profile,
    solve_real,
    system19_point_residual,
    system19_residual,
    system_eqq11_residual,
)
from relaxwave.dispersion import ComplexWave
import relaxwave.verify
from relaxwave.soliton import (
    FieldBundle,
    complex_Z,
    eval_complex_Q,
    eval_uZ,
    real_bundles,
    sigma_tau_from_xi_zeta,
)
from relaxwave.verify import (
    METHODS,
    _grid_fd_bundles,
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
        got = _grid_fd_bundles(fields, SMALL_GRID, order)
        for g, part in zip(got, parts, strict=True):
            ref = fd_bundle(part, S, T, hs, ht, order)
            assert np.array_equal(g.f, ref.f)
            for name in ("s", "t", "ss", "tt"):
                a, b = getattr(g, name), getattr(ref, name)
                assert a.shape == b.shape == S.shape
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


@pytest.mark.parametrize("method", ("fd2", "fd4"))
def test_fd_grid_reports_evaluate_each_closed_form_once(monkeypatch, method):
    calls = Counter()
    for name in ("eval_uZ", "eval_complex_Q", "complex_Z"):
        def counted(*a, _fn=getattr(relaxwave.verify, name), _name=name):
            calls[_name] += 1
            return _fn(*a)
        monkeypatch.setattr(relaxwave.verify, name, counted)
    w = solve_real(0.24, 0.1)
    for report in (system19_residual, eq14_residual):
        calls.clear()
        report(w, SMALL_GRID, method)
        assert calls == {"eval_uZ": 1}
    calls.clear()
    system_eqq11_residual(make_complex_wave(1.0 + 0.5j, 0.1), SMALL_GRID, method)
    assert calls == {"eval_complex_Q": 1, "complex_Z": 1}


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
    with pytest.raises(DomainError):
        fd_bundle(lambda s, t: s, 0.0, 0.0, 0.1, 0.1, 3)
