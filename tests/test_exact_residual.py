"""Exact oracle for the central finding: the coupled-system residual of the
candidate one-soliton.

Every real closed-form field depends on ``(sigma, tau)`` only through
``theta = k*sigma - omega*tau + theta0``, apart from the ``(sigma+tau)/2`` in
``Z``.  With ``T = tanh(theta)``, ``d/dsigma = k*(1-T**2)*d/dT`` and
``d/dtau = -omega*(1-T**2)*d/dT``, so sympy derives the derivative bundles
and both residuals as exact polynomials in ``T``.  The float code is then
checked against those polynomials evaluated with mpmath at 50 digits: the
analytic bundles, the point residual and the exactness forcing (the negated
residual pair).  The fd2 and fd4 grid paths meet ``r1`` as well: node by
node, the ``u-factored`` residual of one row block converges to it at the
stencil's order.

Two more oracles live here.  The hodograph and auxiliary-field integrals
along fixed ``zeta`` are rational in ``E = exp(2*theta)``, so sympy integrates
them exactly; at 50 digits they fix the frozen quadrature constants of
``helpers.py`` and the float antiderivatives there.  And sympy differentiates
the manufactured pair of the verifier's self-test from its formulas, which
checks the hand-written forcing that the self-test's analytic path only
compares with itself.

Last, sympy puts symbolic fields into ``soliton.coupled_system`` itself.  One
Fourier mode of the linearized system grows at a rate ``lambda`` with
``lambda**2 - alpha*lambda + k**2 + 1 - i*alpha*k = 0``, whose two roots sum
to ``alpha``; and the ``Z`` equation is the balance law
``d/dsigma (Z_s + g) - d/dtau (Z_t - g)`` with ``g = u + u**2/2``.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
import sympy as sp

import relaxwave.verify
from relaxwave import GridSpec, real_residual_reports, solve_real, system19_point_residual
from relaxwave.soliton import coupled_system, real_bundles
from relaxwave.verify import (
    exactness_forcing,
    manufactured_forcing,
    manufactured_u,
    manufactured_Z,
)

from helpers import (
    PHI_GAP_ORIGIN,
    PHI_QUAD_ORIGIN,
    Y_GAP_ORIGIN,
    Y_QUAD_ORIGIN,
    hand_phi_quadrature,
    hand_y_quadrature,
)

k, om, al, T = sp.symbols("k omega alpha T")
BUNDLE = ("f", "s", "t", "ss", "tt")


@functools.cache
def symbolic():
    """Bundles of ``u`` and ``Z - (sigma+tau)/2``, and ``(r1, r2)``, in ``T``."""

    def d_s(f):
        return sp.expand(k * (1 - T**2) * sp.diff(f, T))

    def d_t(f):
        return sp.expand(-om * (1 - T**2) * sp.diff(f, T))

    def bundle(f, linear):
        # linear: the partials of the (sigma+tau)/2 part, first order only
        return {"f": f, "s": d_s(f) + linear, "t": d_t(f) + linear,
                "ss": d_s(d_s(f)), "tt": d_t(d_t(f))}

    bu = bundle(4 * (k + om)**2 * (T + 1), 0)
    bz = bundle(-2 * (k + om) * (T + 1), sp.Rational(1, 2))
    pi = bu["s"] + bu["t"]
    r1 = sp.expand(bu["ss"] - bu["tt"] - (bz["s"] + bz["t"]) * bu["f"] + al * pi)
    r2 = sp.expand(bz["ss"] - bz["tt"] + (bu["f"] + 1) * pi)
    terms = ((bu["ss"], bu["tt"], (bz["s"] + bz["t"]) * bu["f"], al * pi),
             (bz["ss"], bz["tt"], bu["f"] * pi, pi))
    return bu, bz, (r1, r2), terms


def test_residuals_are_the_stated_polynomials_in_tanh_theta():
    _bu, _bz, (r1, r2), _terms = symbolic()
    c = al * (k - om) + 2 * (k**2 - om**2) - 1
    assert sp.expand(r1 - 4 * (k + om)**2 * (-(k - om) * (al + 2 * k + 2 * om) * T**2
                                             - T + c)) == 0
    assert sp.expand(r2 - 4 * (k - om) * (k + om)**2 * (1 + 4 * (k + om)**2)
                     * (1 + T) * (1 - T**2)) == 0
    # On the dispersion branch (D = 1) the value at theta = 0 is -2*(k+omega)**2.
    D = 4 * (k**2 - om**2) + 2 * al * (k - om)
    assert sp.expand(r1.subs(T, 0) + 2 * (k + om)**2 - 2 * (k + om)**2 * (D - 1)) == 0
    # The T coefficient -4*(k+omega)**2 vanishes only at k = -omega (u = 0).
    assert sp.factor(sp.Poly(r1, T).coeff_monomial(T)) == -4 * (k + om)**2


WAVES = [(0.24, 0.1, 0.0), (0.24, 0.35164827554715933, 0.0), (0.24, 0.8, 0.0),
         (0.0, 0.0, 0.0), (-0.6, 1.7, 0.4), (0.9, 4.5, -1.3), (0.5, 0.05, 2.0)]


def sample_nodes(w, rng):
    """Corners and random nodes of the default grid plus nodes on theta lines
    through the pulse, every one inside ``[-15, 15]**2``."""
    nodes = [(-15.0, -15.0), (-15.0, 15.0), (15.0, -15.0), (15.0, 15.0), (0.0, 0.0)]
    nodes += [tuple(p) for p in rng.uniform(-15.0, 15.0, size=(12, 2))]
    for th in (-4.0, -2.0, -1.0, -0.5, 0.0, 0.3, 0.7, 1.5, 3.0):
        for tau in rng.uniform(-3.0, 3.0, size=2):
            sigma = (th - w.theta0 + w.omega * tau) / w.k
            if abs(sigma) <= 15.0:
                nodes.append((float(sigma), float(tau)))
    return nodes


@pytest.mark.parametrize("v,alpha,theta0", WAVES)
def test_analytic_bundles_and_point_residual_match_a_50_digit_oracle(v, alpha, theta0):
    w = solve_real(v, alpha, theta0=theta0)
    bu_sym, bz_sym, r_sym, terms_sym = symbolic()
    args = (k, om, al, T)
    exact_fields = [sp.lambdify(args, b[c], "mpmath") for b in (bu_sym, bz_sym) for c in BUNDLE]
    exact_residuals = [sp.lambdify(args, r, "mpmath") for r in r_sym]
    exact_terms = [[sp.lambdify(args, t, "mpmath") for t in ts] for ts in terms_sym]
    nodes = sample_nodes(w, np.random.default_rng(7))
    S = np.array([s for s, _ in nodes])
    Tau = np.array([t for _, t in nodes])
    bu, bz = real_bundles(w, S, Tau)
    got_fields = [getattr(b, c) for b in (bu, bz) for c in BUNDLE]
    got_residuals = list(zip(*(system19_point_residual(w, s, t, "analytic")
                               for s, t in nodes)))
    forcing = exactness_forcing(w)
    got_forcing = list(zip(*(tuple(float(g[0]) for g in forcing(np.array([s]), t))
                             for s, t in nodes)))

    with mpmath.workdps(50):
        kk, ww, aa = mpmath.mpf(w.k), mpmath.mpf(w.omega), mpmath.mpf(w.alpha)
        fields, residuals, scales = [], [], []
        for s, t in nodes:
            s, t = mpmath.mpf(s), mpmath.mpf(t)
            x = (kk, ww, aa, mpmath.tanh(kk * s - ww * t + mpmath.mpf(w.theta0)))
            fields.append([f(*x) for f in exact_fields])
            fields[-1][5] += (s + t) / 2  # Z itself, not only its theta part
            residuals.append([r(*x) for r in exact_residuals])
            scales.append([max(abs(term(*x)) for term in terms) for terms in exact_terms])
        # Each number is held to 1e-13 of the sup over the nodes of its own
        # kind: a bundle component's values, or an equation's largest term
        # (the pointwise analogue of a report's normalization).
        checks = [(got, ref, max(map(abs, ref)))
                  for got, ref in zip(got_fields, zip(*fields))]
        checks += [(got, ref, max(scale))
                   for got, ref, scale in zip(got_residuals, zip(*residuals), zip(*scales))]
        # the exactness forcing is the negated residual pair
        checks += [(got, [-r for r in ref], max(scale))
                   for got, ref, scale in zip(got_forcing, zip(*residuals), zip(*scales))]
        for j, (got, ref, scale) in enumerate(checks):
            err = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(got, ref))
            assert err <= 1e-13 * scale, (j, float(err / scale))


@pytest.mark.parametrize(("method", "least_order"), (("fd2", 1.9), ("fd4", 3.8)))
def test_fd_factored_grid_residual_converges_to_the_r1_polynomial(monkeypatch, method,
                                                                   least_order):
    # the u-factored residual that an fd2/fd4 report walks over, on a grid of
    # one row block, node by node against the stated r1 polynomial: the
    # equation is -r1, and the walk sums it negated, as r1 itself; its error
    # falls at least at the stencil's order when the spacing halves
    w = solve_real(0.24, 0.1, theta0=0.3)
    r1 = sp.lambdify((k, om, al, T), symbolic()[2][0], "numpy")
    totals = []

    def kept(bu, bz, alpha, systems, _fn=relaxwave.verify._real_equations):
        eqs = _fn(bu, bz, alpha, systems)
        totals.append(eqs[0][2])
        return eqs

    monkeypatch.setattr(relaxwave.verify, "_real_equations", kept)
    errors = []
    for n in (41, 81):
        grid = GridSpec(-6.0, 6.0, n, -6.0, 6.0, n)
        totals.clear()
        real_residual_reports(w, grid, (method,), ("factored",))
        (total,) = totals  # one row block
        S, Tau = np.meshgrid(*grid.axes(), indexing="ij")
        exact = r1(w.k, w.omega, w.alpha, np.tanh(w.k * S - w.omega * Tau + w.theta0))
        errors.append(float(np.max(np.abs(total - exact))))
    assert math.log2(errors[0] / errors[1]) >= least_order


E = sp.symbols("E", positive=True)


@functools.cache
def quadrature_antiderivatives():
    """``(I_y, I_phi)`` in ``E``, with ``y = zeta + I_y`` and ``phi = 1 + I_phi``.

    ``I_y`` integrates ``u + u**2/2`` and ``I_phi`` integrates
    ``-(u_s + u_t)*(1 + u)`` over ``xi`` along fixed ``zeta`` from far behind
    the pulse.  There ``theta = (k+omega)*xi + (omega-k)*zeta + theta0``; with
    ``e = exp(2*theta)``, ``1 + T = 2e/(1+e)``, ``sech(theta)**2 = 4e/(1+e)**2``
    and ``d xi = de/(2e*(k+omega))``, so both integrands are rational in ``e``
    and the far end is ``e = 0``.
    """
    e = sp.symbols("e", positive=True)
    A = 4 * (k + om)**2
    u = A * 2 * e / (1 + e)
    pi = A * (k - om) * 4 * e / (1 + e)**2
    dxi_de = 1 / (2 * e * (k + om))
    out = []
    for integrand in (u + u**2 / 2, -pi * (1 + u)):
        f = sp.cancel(integrand * dxi_de)
        anti = sp.integrate(f, (e, 0, E))
        assert sp.cancel(sp.diff(anti, E) - f.subs(e, E)) == 0
        out.append(anti)
    return tuple(out)


def test_quadrature_constants_and_antiderivatives_match_a_50_digit_oracle():
    # (v, alpha) = (0.24, 0.1), solved at 50 digits; the gaps are measured
    # against the closed forms -Z and Z_s + Z_t
    i_y, i_phi = (sp.lambdify((k, om, E), f, "mpmath") for f in quadrature_antiderivatives())
    bu, bz, _r, _terms = symbolic()
    z_theta = sp.lambdify((k, om, T), bz["f"], "mpmath")
    phi_local = sp.lambdify((k, om, T), bz["s"] + bz["t"], "mpmath")
    w = solve_real(0.24, 0.1)
    with mpmath.workdps(50):
        v, a = mpmath.mpf("0.24"), mpmath.mpf("0.1")
        # the positive root of 4*(1-v**2)*k**2 + 2*alpha*(1-v)*k - 1 = 0
        qa, qb = 4 * (1 - v**2), 2 * a * (1 - v)
        kk = (mpmath.sqrt(qb**2 + 4 * qa) - qb) / (2 * qa)
        ww = v * kk
        y0 = i_y(kk, ww, 1)  # theta = 0 at the origin: E = 1, T = 0
        phi0 = 1 + i_phi(kk, ww, 1)
        exact = {"Y_QUAD_ORIGIN": (Y_QUAD_ORIGIN, y0),
                 "Y_GAP_ORIGIN": (Y_GAP_ORIGIN, y0 + z_theta(kk, ww, 0)),
                 "PHI_QUAD_ORIGIN": (PHI_QUAD_ORIGIN, phi0),
                 "PHI_GAP_ORIGIN": (PHI_GAP_ORIGIN, phi0 - phi_local(kk, ww, 0))}
        for xi, zeta in ((0.0, 0.0), (0.7, -0.3), (-0.5, 0.4), (1.5, 0.0), (0.8, -0.2)):
            e2 = mpmath.exp(2 * ((kk + ww) * xi + (ww - kk) * zeta))
            exact[f"y({xi}, {zeta})"] = (hand_y_quadrature(w, xi, zeta),
                                         zeta + i_y(kk, ww, e2))
            exact[f"phi({xi}, {zeta})"] = (hand_phi_quadrature(w, xi, zeta),
                                           1 + i_phi(kk, ww, e2))
        errors = {name: float(abs(got - ref)) for name, (got, ref) in exact.items()}
    assert max(errors.values()) <= 1e-14, errors


sg, tu = sp.symbols("sigma tau", real=True)


@functools.cache
def manufactured_symbolic():
    """The manufactured pair and its coupled residual ``(r1, r2)``, by sympy.

    The pair is the formula of ``manufactured_u`` and ``manufactured_Z``;
    the residual is
    ``r1 = u_ss - u_tt - (Z_s + Z_t)*u + alpha*(u_s + u_t)``,
    ``r2 = Z_ss - Z_tt + (u + 1)*(u_s + u_t)``.
    """
    u = (sp.Rational(4, 5) * sp.exp(-sg**2 / 6)
         * sp.cos(sp.Rational(7, 10) * tu + sp.Rational(3, 10)))
    Z = (sg + tu) / 2 + sp.exp(-(sg - 1)**2 / 8) * sp.sin(sp.Rational(3, 5) * tu) / 2
    pi = sp.diff(u, sg) + sp.diff(u, tu)
    r1 = (sp.diff(u, sg, 2) - sp.diff(u, tu, 2) - (sp.diff(Z, sg) + sp.diff(Z, tu)) * u
          + al * pi)
    r2 = sp.diff(Z, sg, 2) - sp.diff(Z, tu, 2) + (u + 1) * pi
    return u, Z, r1, r2


def test_manufactured_forcing_is_the_coupled_residual_of_the_manufactured_pair():
    # pointwise on the self-test's 41x41 grid at its alpha; the self-test's
    # own analytic check compares the forcing with the same expression
    alpha = 0.3
    axis = np.linspace(-6.0, 6.0, 41)
    S, Tau = np.meshgrid(axis, axis, indexing="ij")
    got = (manufactured_u(S, Tau), manufactured_Z(S, Tau), *manufactured_forcing(S, Tau, alpha))
    exact = [sp.lambdify((sg, tu, al), f, "mpmath") for f in manufactured_symbolic()]
    worst = [0.0] * len(exact)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        for i, j in np.ndindex(S.shape):
            s, t = mpmath.mpf(S[i, j]), mpmath.mpf(Tau[i, j])
            for n, (g, f) in enumerate(zip(got, exact)):
                worst[n] = max(worst[n], float(abs(g[i, j] - f(s, t, a))))
    assert max(worst) <= 1e-13, worst


def symbolic_coupled_residual(u, Z, linearized=False):
    """``(r_u, r_Z)`` of ``soliton.coupled_system`` on sympy fields of ``(sg, tu)``."""
    d = sp.diff
    return coupled_system(u, d(u, sg) + d(u, tu), d(Z, sg) + d(Z, tu), d(u, sg, 2),
                          d(Z, sg, 2), al, utt=d(u, tu, 2), ztt=d(Z, tu, 2),
                          linearized=linearized)


lam = sp.symbols("lambda")


def growth_law_gaps():
    """What is left of the linearized residual of one Fourier mode once the
    growth law is taken off: ``u = exp(i*k*sigma + lambda*tau)`` and
    ``Z = (sigma+tau)/2 + c*u`` with ``c = (i*k + lambda)/(k**2 + lambda**2)``
    should leave ``r_Z = 0`` and ``r_u = -(lambda**2 - alpha*lambda + k**2 + 1
    - i*alpha*k)*u``."""
    u = sp.exp(sp.I * k * sg + lam * tu)
    Z = (sg + tu) / 2 + (sp.I * k + lam) / (k**2 + lam**2) * u
    r_u, r_z = symbolic_coupled_residual(u, Z, linearized=True)
    law = lam**2 - al * lam + k**2 + 1 - sp.I * al * k
    return sp.simplify(r_u + law * u), sp.simplify(r_z), law


def test_linearized_system19_grows_at_rate_alpha_over_two_at_least(monkeypatch):
    # each wavenumber k has two rates lambda, the roots of the law; they sum
    # to alpha, so for alpha > 0 one of them has Re lambda >= alpha/2, and a
    # run stepped forward in tau amplifies its error by e^(alpha*T/2) or more
    gap_u, gap_z, law = growth_law_gaps()
    assert (gap_u, gap_z) == (0, 0)
    assert sp.simplify(sum(sp.solve(law, lam)) - al) == 0

    import relaxwave.soliton

    original = relaxwave.soliton.coupled_u_parts

    def flipped(u, pi, phi, uss, alpha, *rest, **options):
        return original(u, pi, phi, uss, -alpha, *rest, **options)

    monkeypatch.setattr(relaxwave.soliton, "coupled_u_parts", flipped)
    assert growth_law_gaps()[0] != 0


def test_the_z_equation_of_system19_is_a_balance_law():
    # r_Z = d/dsigma (Z_s + g) - d/dtau (Z_t - g), with g = u + u**2/2, and
    # g = u when linearized
    u, Z = sp.Function("u")(sg, tu), sp.Function("Z")(sg, tu)
    for linearized, g in ((False, u + u**2 / 2), (True, u)):
        r_z = symbolic_coupled_residual(u, Z, linearized)[1]
        flux = sp.diff(sp.diff(Z, sg) + g, sg) - sp.diff(sp.diff(Z, tu) - g, tu)
        assert sp.expand(r_z - flux) == 0, linearized
