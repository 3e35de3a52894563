"""Shared hand-derived formulas, reference oracles and frozen constants for the suite.

The frozen numbers come from an independent 50-digit evaluation of the
closed forms, rounded to double precision.  Tests compare library output
against them with explicit tolerances; nothing here is recomputed through
the code under test.  The oracles at the end (the turning-point count, the
tau-pair rebuild of ``(u, Z)`` and the shifted-argument bilinear derivative)
take their own routes to what the package computes in closed form; the
last borrows only the package's Richardson table.  The grid-report
reference at the very end builds every part of every bundle on the whole
grid from the package's closed forms and stencils, and writes the
equations out by hand (the complex totals excepted): a grid report, which
builds only the parts its system reads, must equal it float for float.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

import relaxwave.verify
from relaxwave.errors import DomainError
from relaxwave.hirota import ExpAtom, TauFunction
from relaxwave.soliton import complex_bundles, complex_Z, eval_complex_Q, eval_uZ, real_bundles
from relaxwave.verify import (
    EquationResidual,
    _complex_equations,
    _richardson_diagonal,
    _stencil_bundle,
)

# Critical dissipative parameter v*sqrt(1+v)/(1-v) at v = 0.24 and v = 0.5.
CRIT_ALPHA_024 = 0.35164827554715928
CRIT_ALPHA_05 = 1.224744871391589

# Positive-branch wavenumber/frequency at (v, alpha) = (0.24, 0.1), the
# amplitude 4*(k+omega)**2, the slope product 4*(k+omega)*k and its
# singular phase arccosh(sqrt(s)), and the momentum peak.
K_024_01 = 0.49528668324109622
W_024_01 = 0.11886880397786309
A_024_01 = 1.5087478499246292
S_024_01 = 1.2167321370359913
THETA_SING_024_01 = 0.45018401627119606
PI0_024_01 = 0.56791966601159165

# Same quantities at (0.24, 0.8): the single-valued regime.
K_024_08 = 0.37842692189241975
S_024_08 = 0.71030639865633893

# At the critical alpha the wavenumber collapses to 1/(2*sqrt(1+v)).
K_024_CRIT = 0.44901325506693725

# Quadrature reconstructions at (xi, zeta) = (0, 0) for (0.24, 0.1):
# the profile-coordinate integral, the auxiliary-field integral, and the
# measured gaps against the local closed forms -Z and Z_s + Z_t (findings,
# held as regression anchors).  test_exact_residual.py derives both
# integrals exactly and checks these four numbers at 50 digits.
Y_QUAD_ORIGIN = 2.4186857460944861
Y_GAP_ORIGIN = 1.1903747716565674
PHI_QUAD_ORIGIN = -0.6222983825085088
PHI_GAP_ORIGIN = -1.1599401704348321

# Bilinear-line atom coefficients at (0.24, 0.1) with E = exp(2*theta):
# line 1 reduces to c1*E + c2*E**2 (c2 = -g for both dissipative-term
# readings), line 2 to a pure E**2 term; g = 8*(k+omega)**2.
G_024_01 = 3.0174956998492584
LINE1_E_SQUARED = -0.056147773387063069
LINE1_E_LINEAR = -0.45433573280927332
LINE2_E2 = -7.5701358491536412
LINE2_NORMALIZED = 1.662801275938823


def hand_residuals(w, sigma, tau):
    """Coupled-system residuals of the closed-form fields, written directly.

    Independent of the library's bundle plumbing: plain tanh/sech calculus,
    r1 = u_ss - u_tt - (Z_s + Z_t)*u + alpha*(u_s + u_t),
    r2 = Z_ss - Z_tt + (u + 1)*(u_s + u_t).
    """
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    k, om, a = w.k, w.omega, w.alpha
    th = k * sigma - om * tau + w.theta0
    T = np.tanh(th)
    S2 = 1.0 / np.cosh(th) ** 2
    A = 4.0 * (k + om) ** 2
    B = 2.0 * (k + om)
    r1 = (-2.0 * A * (k * k - om * om) * S2 * T
          - (1.0 - B * (k - om) * S2) * A * (T + 1.0)
          + a * A * (k - om) * S2)
    r2 = (2.0 * B * (k * k - om * om) * S2 * T
          + (A * (T + 1.0) + 1.0) * A * (k - om) * S2)
    return r1, r2


def hand_y_quadrature(w, xi, zeta):
    """Closed antiderivative of the profile-coordinate integral.

    integral of (u + u**2/2) d xi' from far behind the pulse along fixed
    zeta, with u = A*(tanh(theta)+1); the two elementary antiderivatives
    are A*(theta + log cosh + log 2) and (A**2/2)*(2*theta - tanh
    + 2*log cosh - 1 + 2*log 2).
    """
    k, om = w.k, w.omega
    A = 4.0 * (k + om) ** 2
    th = (k + om) * xi + (om - k) * zeta + w.theta0
    lc = np.log(np.cosh(th))
    i1 = th + lc + np.log(2.0)
    i2 = 2.0 * th - np.tanh(th) + 2.0 * lc - 1.0 + 2.0 * np.log(2.0)
    return zeta + (A * i1 + 0.5 * A * A * i2) / (k + om)


def hand_phi_quadrature(w, xi, zeta):
    """Closed antiderivative of the auxiliary-field integral.

    1 + integral of -(u_s + u_t)*(1 + u) d xi' with the momentum density
    A*(k-omega)*sech(theta)**2; antiderivatives of sech**2 and
    sech**2*(tanh+1) are elementary.
    """
    k, om = w.k, w.omega
    A = 4.0 * (k + om) ** 2
    th = (k + om) * xi + (om - k) * zeta + w.theta0
    T = np.tanh(th)
    i1 = T + 1.0
    i2 = 0.5 * T * T + T + 0.5
    return 1.0 - A * (k - om) * (i1 + A * i2) / (k + om)


def physical_operator_pointwise(u, u_y, u_eta, u_yy, u_yeta, alpha):
    """Physical-frame operator applied through the product-rule expansion.

    d_y[(d_eta + u*d_y + (u**2/2)*d_y) u] + alpha*u_y + u, expanded as
    u_yeta + (u_y**2 + u*u_yy) + (u*u_y**2 + u**2*u_yy/2) + alpha*u_y + u;
    the reference for the central-difference grid operator.
    """
    r = u_yeta + alpha * u_y + u
    r = r + u_y * u_y + u * u_yy
    return r + u * u_y * u_y + 0.5 * u * u * u_yy


def count_turning_points(dZdsigma: np.ndarray, tol: float = 1e-9) -> tuple[int, int]:
    """Count sign changes and degenerate touches of the profile slope.

    Returns ``(crossings, touches)``: a crossing is a strict sign change of
    ``dZ/dsigma`` along the samples, a touch a zero run (values within
    ``tol`` of zero) flanked by the same sign.  Loop profiles give ``(2, 0)``,
    cusps ``(0, 1)``, kinks ``(0, 0)``.
    """
    vals = np.asarray(dZdsigma, dtype=float)
    signs = np.where(np.abs(vals) <= tol, 0, np.sign(vals)).astype(int)
    # Compress consecutive runs of equal sign.
    runs: list[int] = []
    for s in signs:
        if not runs or runs[-1] != s:
            runs.append(int(s))
    crossings = 0
    touches = 0
    for i, s in enumerate(runs):
        if s != 0:
            if i > 0 and runs[i - 1] != 0 and runs[i - 1] != s:
                crossings += 1
            continue
        if 0 < i < len(runs) - 1:
            if runs[i - 1] == runs[i + 1]:
                touches += 1
            else:
                crossings += 1
    return crossings, touches


def tau_dsigma(f: TauFunction) -> TauFunction:
    """``d/dsigma`` of a sum of exponential atoms."""
    return TauFunction.from_atoms(ExpAtom(at.coeff * at.a, at.a, at.b) for at in f.atoms)


def tau_dtau(f: TauFunction) -> TauFunction:
    """``d/dtau`` of a sum of exponential atoms."""
    return TauFunction.from_atoms(ExpAtom(at.coeff * at.b, at.a, at.b) for at in f.atoms)


def u_from_tau_pair(pair, sigma, tau):
    """Field ``u = G/F`` evaluated pointwise."""
    return pair.G(sigma, tau) / pair.F(sigma, tau)


def Z_from_tau_pair(pair, sigma, tau):
    """Field ``Z = (sigma+tau)/2 + 2*(d_tau - d_sigma) log F`` evaluated pointwise."""
    F = pair.F(sigma, tau)
    logderiv = (tau_dtau(pair.F)(sigma, tau) - tau_dsigma(pair.F)(sigma, tau)) / F
    return 0.5 * (np.asarray(sigma, dtype=float) + np.asarray(tau, dtype=float)) \
        + 2.0 * logderiv


def d_op_fd(m: int, n: int, f, g, sigma: float, tau: float) -> float:
    """Evaluate ``D_sigma^m D_tau^n (f.g)`` at one point from the definition.

    Central differences in the shift variables at the steps ``0.25/2**i``,
    ``i = 0 .. 5``, with Richardson extrapolation; ``f`` and ``g`` may be
    :class:`TauFunction` instances or any callables of ``(sigma, tau)``.
    This route is independent of the closed-form atom rule of
    :func:`relaxwave.hirota.d_op` and is the oracle used to validate it.
    Orders ``m + n`` above 8 raise :class:`DomainError`, as in ``d_op``.

    The stencil term at shift ``(e, d)`` and its mirror at ``(-e, -d)`` carry
    coefficients that differ by the factor ``(-1)**(m+n)``; each mirrored pair
    is summed before it is scaled and added to the total.  For ``f is g`` the
    two products of a pair are the same floats in swapped order, so the
    identity ``D_sigma^m D_tau^n (f.f) = 0`` for odd ``m+n`` holds exactly in
    floating point, not only to round-off amplified by ``1/h**(m+n)``.
    """
    if m < 0 or n < 0 or m + n > 8:
        raise DomainError(f"unsupported derivative orders ({m}, {n})")
    cm = [(-1) ** j * comb(m, j) for j in range(m + 1)]
    cn = [(-1) ** j * comb(n, j) for j in range(n + 1)]
    sign = (-1) ** (m + n)

    def stencil(hh: float) -> float:
        total = 0.0
        for j in range(m + 1):
            e = (m / 2.0 - j) * hh
            for l in range(n + 1):
                mirror = (m - j, n - l)
                if (j, l) > mirror:
                    continue  # added together with its mirror term
                d = (n / 2.0 - l) * hh
                pair = float(f(sigma + e, tau + d)) * float(g(sigma - e, tau - d))
                if (j, l) < mirror:
                    pair += sign * (float(f(sigma - e, tau - d))
                                    * float(g(sigma + e, tau + d)))
                total += cm[j] * cn[l] * pair
        return total / hh ** (m + n)

    # Round-off grows as the step shrinks, so rather than trusting the deepest
    # extrapolation blindly, return the diagonal value whose agreement with its
    # predecessor is best (Ridders' stopping rule).
    diag = _richardson_diagonal([stencil(0.25 / 2.0 ** i) for i in range(6)], 4.0)
    best, err = diag[-1], abs(diag[-1] - diag[-2]) if len(diag) > 1 else 0.0
    for k in range(1, len(diag)):
        e = abs(diag[k] - diag[k - 1])
        if e <= err:
            best, err = diag[k], e
    return best


def _whole_grid_bundles(bundles, fields, grid, method):
    """Every part of every bundle on the whole grid: analytic bundles on its
    full mesh, or the stencils taken as slices of one evaluation on the
    ghost-padded mesh."""
    if method == "analytic":
        return bundles(*np.meshgrid(*grid.axes(), indexing="ij"))
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


def reference_equations(system, grid, method, wave):
    """``(name, total, terms)`` of every equation of ``system``, on the whole
    grid at once, written out by hand from bundles that hold every part."""
    if system == "complex":
        bqr, bqi, bz = _whole_grid_bundles(
            lambda s, t: complex_bundles(wave, s, t),
            lambda s, t: (*eval_complex_Q(wave, s, t), complex_Z(wave, s, t)), grid, method)
        r1, r2, r3 = (total for _name, total, _terms
                      in _complex_equations(bqr, bqi, bz, wave.alpha))
        phi = bz.s + bz.t
        pr, pi_ = bqr.s + bqr.t, bqi.s + bqi.t
        return (("Q_re", r1, [bqr.ss, -bqr.tt, phi * bqr.f, wave.alpha * pr]),
                ("Q_im", r2, [bqi.ss, -bqi.tt, phi * bqi.f, wave.alpha * pi_]),
                ("Z", r3, [bz.ss, -bz.tt, bqr.f * pr, bqi.f * pi_]))
    bu, bz = _whole_grid_bundles(lambda s, t: real_bundles(wave, s, t),
                                 lambda s, t: eval_uZ(wave, s, t), grid, method)
    pi = bu.s + bu.t
    if system == "coupled":
        r1 = bu.ss - bu.tt - (bz.s + bz.t) * bu.f + wave.alpha * pi
        r2 = bz.ss - bz.tt + (bu.f + 1.0) * pi
        return (("u", r1, [bu.ss, -bu.tt, -(bz.s + bz.t) * bu.f, wave.alpha * pi]),
                ("Z", r2, [bz.ss, -bz.tt, bu.f * pi, pi]))
    u_xz, u_zeta, phi = -(bu.ss - bu.tt), -pi, bz.s + bz.t
    r = u_xz + wave.alpha * u_zeta + phi * bu.f
    return (("u-factored", r, [u_xz, wave.alpha * u_zeta, phi * bu.f]),)


def reference_report(system, grid, method, wave):
    """The equations of a grid report, as the walk of ``relaxwave.verify``
    must give them whatever parts it builds: sup norms of the whole-grid
    arrays, and ``l2`` summed in the walk's order, one ``np.sum`` of the
    squares per row block, then ``math.fsum`` over blocks."""
    rows = max(1, relaxwave.verify._BLOCK_POINTS // grid.n_tau)
    return tuple(
        EquationResidual(name, float(np.max(np.abs(total))),
                         math.sqrt(math.fsum(np.sum(np.square(total[i0:i0 + rows]))
                                             for i0 in range(0, grid.n_sigma, rows))
                                   / total.size),
                         max(float(np.max(np.abs(t))) for t in terms))
        for name, total, terms in reference_equations(system, grid, method, wave))
