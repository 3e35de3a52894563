"""Independent residual measurement of the candidate closed-form solutions.

Every closed form in :mod:`relaxwave.soliton` is treated as a candidate: it
is substituted into the governing system it is claimed to solve and the
pointwise residual is measured, never assumed.  Derivatives can be taken
three ways (closed-form analytic, order-2 finite differences, order-4 finite
differences) so that any nonzero residual can be attributed to the formulas
rather than to the numerics.  On a grid the finite-difference steps are the
grid spacings: each closed form is evaluated once on the grid padded with
``order/2`` ghost nodes per side, and every stencil value is a slice of that
one evaluation.  A manufactured-solution self-test calibrates
the verifier itself: smooth fields with known forcing must reproduce that
forcing to round-off on the analytic path and converge at nominal order on
the finite-difference paths.

Measured facts worth knowing up front: the candidate one-soliton does not
annihilate the coupled characteristic system (its first-equation residual at
the origin is exactly -1/2 for ``v = 0``, ``alpha = 0``), and the complex
soliton satisfies only the reconstructed-companion equation of its system
exactly.  These residuals are reported as findings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .dispersion import ComplexWave, RealWave
from .errors import DomainError
from .soliton import (
    FieldBundle,
    ProfileSamples,
    complex_bundles,
    complex_Z,
    eval_complex_Q,
    eval_uZ,
    real_bundles,
    sigma_tau_from_xi_zeta,
)

__all__ = [
    "METHODS",
    "GridSpec",
    "EquationResidual",
    "ResidualReport",
    "SelftestReport",
    "residuals_from_bundles",
    "complex_residuals_from_bundles",
    "fd_bundle",
    "point_bundle",
    "system19_residual",
    "system19_point_residual",
    "eq14_residual",
    "phi_from_quadrature",
    "system_eqq11_residual",
    "physical_operator_grid",
    "physical_operator_pointwise",
    "eq11_residual_physical",
    "manufactured_u",
    "manufactured_Z",
    "manufactured_bundles",
    "manufactured_forcing",
    "manufactured_selftest",
]

METHODS = ("analytic", "fd2", "fd4")

_GRID_BOUND = 50.0


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid in the characteristic plane."""

    sigma_min: float = -15.0
    sigma_max: float = 15.0
    n_sigma: int = 301
    tau_min: float = -15.0
    tau_max: float = 15.0
    n_tau: int = 301

    def __post_init__(self) -> None:
        if not (self.sigma_min < self.sigma_max and self.tau_min < self.tau_max):
            raise DomainError("grid ranges must be nonempty")
        if self.n_sigma < 2 or self.n_tau < 2:
            raise DomainError("grid needs at least 2 points per axis")
        for v in (self.sigma_min, self.sigma_max, self.tau_min, self.tau_max):
            if abs(v) > _GRID_BOUND:
                raise DomainError(f"grid bounds must satisfy |coord| <= {_GRID_BOUND}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.sigma_min, self.sigma_max, self.n_sigma),
                np.linspace(self.tau_min, self.tau_max, self.n_tau))

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        sig, tau = self.axes()
        return np.meshgrid(sig, tau, indexing="ij")

    def spacings(self) -> tuple[float, float]:
        return ((self.sigma_max - self.sigma_min) / (self.n_sigma - 1),
                (self.tau_max - self.tau_min) / (self.n_tau - 1))


@dataclass(frozen=True)
class EquationResidual:
    """Sup and RMS norms of one equation's residual, with the sup norm of its
    largest constituent term as the scale reference."""

    equation: str
    linf: float
    l2: float
    normalization: float


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms of a system on a grid under one derivative method."""

    system: str
    method: str
    grid: GridSpec
    equations: tuple[EquationResidual, ...]


@dataclass(frozen=True)
class SelftestReport:
    """Outcome of the manufactured-solution calibration of the verifier."""

    passed: bool
    analytic_max_error: float
    zero_residual_max: float
    fd2_ratio: float
    fd4_ratio: float
    fd2_expected: float = 4.0
    fd4_expected: float = 16.0


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise DomainError(f"unknown derivative method {method!r}; expected one of {METHODS}")


def residuals_from_bundles(bu: FieldBundle, bz: FieldBundle, alpha: float):
    """Residual fields of the coupled characteristic system.

    Equation 1: ``u_ss - u_tt - (Z_s + Z_t)*u + alpha*(u_s + u_t)``;
    equation 2: ``Z_ss - Z_tt + (u + 1)*(u_s + u_t)``.
    """
    pi = bu.s + bu.t
    r1 = bu.ss - bu.tt - (bz.s + bz.t) * bu.f + alpha * pi
    r2 = bz.ss - bz.tt + (bu.f + 1.0) * pi
    return r1, r2


def complex_residuals_from_bundles(bqr: FieldBundle, bqi: FieldBundle,
                                   bz: FieldBundle, alpha: float):
    """Residual fields of the complex short-pulse system (three equations)."""
    pr = bqr.s + bqr.t
    pi_ = bqi.s + bqi.t
    phi = bz.s + bz.t
    r1 = bqr.ss - bqr.tt - phi * bqr.f + alpha * pr
    r2 = bqi.ss - bqi.tt - phi * bqi.f + alpha * pi_
    r3 = bz.ss - bz.tt + bqr.f * pr + bqi.f * pi_
    return r1, r2, r3


def _stencil_bundle(f0, s_shifts, t_shifts, hs: float, ht: float) -> FieldBundle:
    """Central-difference bundle from shifted field values.

    ``s_shifts[j - 1]`` is the pair ``(f(S + j*hs), f(S - j*hs))`` for
    ``j = 1 .. order/2`` and ``t_shifts`` the same in ``tau``; one pair per
    axis gives the order-2 stencil, two pairs the order-4 stencil.
    """
    if len(s_shifts) == 1:
        ((fp, fm),) = s_shifts
        ((tp, tm),) = t_shifts
        return FieldBundle(
            f=f0,
            s=(fp - fm) / (2.0 * hs),
            t=(tp - tm) / (2.0 * ht),
            ss=(fp - 2.0 * f0 + fm) / hs**2,
            tt=(tp - 2.0 * f0 + tm) / ht**2,
        )
    (fp, fm), (fp2, fm2) = s_shifts
    (tp, tm), (tp2, tm2) = t_shifts
    return FieldBundle(
        f=f0,
        s=(-fp2 + 8.0 * fp - 8.0 * fm + fm2) / (12.0 * hs),
        t=(-tp2 + 8.0 * tp - 8.0 * tm + tm2) / (12.0 * ht),
        ss=(-fp2 + 16.0 * fp - 30.0 * f0 + 16.0 * fm - fm2) / (12.0 * hs**2),
        tt=(-tp2 + 16.0 * tp - 30.0 * f0 + 16.0 * tm - tm2) / (12.0 * ht**2),
    )


def _stencil_half_width(order: int) -> int:
    if order not in (2, 4):
        raise DomainError(f"finite-difference order must be 2 or 4, got {order}")
    return order // 2


def fd_bundle(fn: Callable, S, T, hs: float, ht: float, order: int) -> FieldBundle:
    """Finite-difference derivative bundle of a callable field on given points."""
    steps = range(1, _stencil_half_width(order) + 1)
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    return _stencil_bundle(fn(S, T),
                           [(fn(S + j * hs, T), fn(S - j * hs, T)) for j in steps],
                           [(fn(S, T + j * ht), fn(S, T - j * ht)) for j in steps],
                           hs, ht)


def _grid_fd_bundles(fields: Callable, grid: GridSpec, order: int) -> tuple[FieldBundle, ...]:
    """Finite-difference bundles on ``grid`` of every field ``fields(S, T)`` returns.

    The steps are the grid spacings, so every stencil neighbour is a node of
    the grid padded with ``order/2`` ghost nodes per side.  ``fields`` is
    called once, on the open mesh of those padded axes (interior nodes
    bit-identical to :meth:`GridSpec.axes`), and each shifted stencil value
    is a slice of its output.  A neighbour ``S + j*hs`` and the grid node it
    stands for differ only by the round-off of the coordinates (at most 2
    ulps of the largest coordinate on the grids tried).
    """
    pad = _stencil_half_width(order)
    hs, ht = grid.spacings()
    ghosts = np.arange(1.0, pad + 1.0)
    axes = [np.concatenate((a[0] - h * ghosts[::-1], a, a[-1] + h * ghosts))
            for a, h in zip(grid.axes(), (hs, ht))]
    S, T = np.meshgrid(*axes, indexing="ij", sparse=True)
    ns, nt = grid.n_sigma, grid.n_tau
    steps = range(1, pad + 1)

    def at(F, i: int, j: int):
        # F shifted by i nodes in sigma and j in tau, on the unpadded grid
        return F[pad + i:pad + i + ns, pad + j:pad + j + nt]

    return tuple(
        _stencil_bundle(at(F, 0, 0), [(at(F, j, 0), at(F, -j, 0)) for j in steps],
                        [(at(F, 0, j), at(F, 0, -j)) for j in steps], hs, ht)
        for F in fields(S, T))


def _richardson(values: list[float], start: float, step: float = 4.0) -> float:
    table = list(values)
    fac = start
    while len(table) > 1:
        table = [(fac * table[i + 1] - table[i]) / (fac - 1.0)
                 for i in range(len(table) - 1)]
        fac *= step
    return table[0]


def point_bundle(fn: Callable, sigma: float, tau: float, order: int,
                 h0: float = 0.4, levels: int = 5) -> FieldBundle:
    """Richardson-extrapolated finite-difference bundle at a single point.

    Extrapolation over step halvings removes the truncation series, so the
    point values are limited only by round-off; this is what lets the
    finite-difference methods certify pointwise residuals to ``1e-10``.
    """
    start = 4.0 if order == 2 else 16.0
    seq = [fd_bundle(fn, sigma, tau, h0 / 2.0**i, h0 / 2.0**i, order)
           for i in range(levels)]
    return FieldBundle(
        f=float(np.asarray(seq[0].f)),
        s=_richardson([float(b.s) for b in seq], start),
        t=_richardson([float(b.t) for b in seq], start),
        ss=_richardson([float(b.ss) for b in seq], start),
        tt=_richardson([float(b.tt) for b in seq], start),
    )


def _real_field_bundles(w: RealWave, grid: GridSpec, method: str):
    if method == "analytic":
        S, T = grid.mesh()
        return real_bundles(w, S, T)
    order = 2 if method == "fd2" else 4
    return _grid_fd_bundles(lambda s, t: eval_uZ(w, s, t), grid, order)


def _entry(name: str, total: np.ndarray, terms: list[np.ndarray]) -> EquationResidual:
    linf = float(np.max(np.abs(total)))
    l2 = float(np.sqrt(np.mean(np.square(total))))
    norm = max(float(np.max(np.abs(t))) for t in terms)
    return EquationResidual(equation=name, linf=linf, l2=l2, normalization=norm)


def system19_residual(w: RealWave, grid: GridSpec = GridSpec(),
                      method: str = "analytic") -> ResidualReport:
    """Residual report of the candidate one-soliton in the coupled system.

    The ``fd2``/``fd4`` steps are the grid spacings; stencils at the edge
    nodes reach ``order/2`` ghost nodes outside the grid.
    """
    _check_method(method)
    bu, bz = _real_field_bundles(w, grid, method)
    r1, r2 = residuals_from_bundles(bu, bz, w.alpha)
    pi = bu.s + bu.t
    e1 = _entry("u", r1, [bu.ss, -bu.tt, -(bz.s + bz.t) * bu.f, w.alpha * pi])
    e2 = _entry("Z", r2, [bz.ss, -bz.tt, bu.f * pi, pi])
    return ResidualReport(system="coupled", method=method, grid=grid, equations=(e1, e2))


def system19_point_residual(w: RealWave, sigma: float, tau: float,
                            method: str = "analytic") -> tuple[float, float]:
    """Pointwise residual pair of the coupled system at ``(sigma, tau)``."""
    _check_method(method)
    if method == "analytic":
        bu, bz = real_bundles(w, sigma, tau)
    else:
        order = 2 if method == "fd2" else 4
        bu = point_bundle(lambda s, t: eval_uZ(w, s, t)[0], sigma, tau, order)
        bz = point_bundle(lambda s, t: eval_uZ(w, s, t)[1], sigma, tau, order)
    r1, r2 = residuals_from_bundles(bu, bz, w.alpha)
    return float(r1), float(r2)


def eq14_residual(w: RealWave, grid: GridSpec = GridSpec(),
                  method: str = "analytic") -> ResidualReport:
    """Residual of the factored-frame scalar equation for the candidate soliton.

    The equation lives in the rotated variables ``(xi, zeta)``; its
    derivatives are chain-ruled back through the linear map, giving
    ``-(u_ss - u_tt) - alpha*(u_s + u_t) + (Z_s + Z_t)*u``.  This equals the
    first coupled-system residual up to the constant Jacobian sign.  The
    ``fd2``/``fd4`` steps are the grid spacings, with ghost nodes at the edges.
    """
    _check_method(method)
    bu, bz = _real_field_bundles(w, grid, method)
    u_xz = -(bu.ss - bu.tt)
    u_zeta = -(bu.s + bu.t)
    phi = bz.s + bz.t
    r = u_xz + w.alpha * u_zeta + phi * bu.f
    e = _entry("u-factored", r, [u_xz, w.alpha * u_zeta, phi * bu.f])
    return ResidualReport(system="factored", method=method, grid=grid, equations=(e,))


def phi_from_quadrature(w: RealWave, xi: float, zeta: float,
                        theta_cut: float = 45.0) -> float:
    """Nonlocal auxiliary field ``phi = 1 + integral of u_zeta*(1+u) d xi'``.

    The integral runs along fixed ``zeta`` from far behind the pulse.  This
    is the independent route against the local ansatz ``phi = Z_s + Z_t``;
    for the candidate closed forms the two disagree and the gap is a
    measured finding.
    """
    kpw = w.k + w.omega
    if kpw <= 0.0:
        raise DomainError("quadrature requires k + omega > 0")

    def integrand(x: float) -> float:
        s, t = sigma_tau_from_xi_zeta(x, zeta)
        bu, _ = real_bundles(w, s, t)
        return float(-(bu.s + bu.t) * (1.0 + bu.f))

    xi_lower = (-theta_cut - w.theta0 - (w.omega - w.k) * zeta) / kpw
    if xi <= xi_lower:
        return 1.0
    val, _err = quad(integrand, xi_lower, xi, limit=200)
    return 1.0 + val


def system_eqq11_residual(cw: ComplexWave, grid: GridSpec = GridSpec(),
                          method: str = "analytic") -> ResidualReport:
    """Residual report of the complex soliton in the complex short-pulse system.

    The companion field is the quadrature reconstruction of
    :func:`relaxwave.soliton.complex_Z`; its own equation is satisfied by
    construction, the other two residuals are findings.  The ``fd2``/``fd4``
    steps are the grid spacings, with ghost nodes at the edges.
    """
    _check_method(method)
    if cw.k.real == 0.0 and (cw.k.real + cw.omega.real) != 0.0:
        raise DomainError("companion-field quadrature requires decaying |Q| (Re k != 0)")
    if method == "analytic":
        bqr, bqi, bz = complex_bundles(cw, *grid.mesh())
    else:
        order = 2 if method == "fd2" else 4
        bqr, bqi, bz = _grid_fd_bundles(
            lambda s, t: (*eval_complex_Q(cw, s, t), complex_Z(cw, s, t)), grid, order)
    r1, r2, r3 = complex_residuals_from_bundles(bqr, bqi, bz, cw.alpha)
    phi = bz.s + bz.t
    pr, pi_ = bqr.s + bqr.t, bqi.s + bqi.t
    e1 = _entry("Q_re", r1, [bqr.ss, -bqr.tt, phi * bqr.f, cw.alpha * pr])
    e2 = _entry("Q_im", r2, [bqi.ss, -bqi.tt, phi * bqi.f, cw.alpha * pi_])
    e3 = _entry("Z", r3, [bz.ss, -bz.tt, bqr.f * pr, bqi.f * pi_])
    return ResidualReport(system="complex", method=method, grid=grid,
                          equations=(e1, e2, e3))


def physical_operator_pointwise(u, u_y, u_eta, u_yy, u_yeta, alpha: float,
                                include_quadratic: bool = True,
                                include_cubic: bool = True):
    """Physical-frame operator applied through the product-rule expansion.

    ``d_y[(d_eta + u*d_y + (u**2/2)*d_y) u] + alpha*u_y + u`` with the
    convective terms individually switchable; with the cubic term off and
    ``alpha = 0`` this is the classic ``u_yeta + (u**2/2)_yy + u`` structure.
    """
    r = u_yeta + alpha * u_y + u
    if include_quadratic:
        r = r + u_y * u_y + u * u_yy
    if include_cubic:
        r = r + u * u_y * u_y + 0.5 * u * u * u_yy
    return r


def physical_operator_grid(U: np.ndarray, y_axis: np.ndarray, eta_axis: np.ndarray,
                           alpha: float, include_quadratic: bool = True,
                           include_cubic: bool = True) -> np.ndarray:
    """Physical-frame operator on gridded data ``U[i_eta, i_y]`` by central FD.

    The inner flux ``u_eta + (c2*u + c3*u**2/2)*u_y`` is formed first and
    differentiated in ``y`` as a whole.  Returns the residual on the interior
    index range ``[1:-1, 2:-2]``.
    """
    if U.shape != (eta_axis.size, y_axis.size):
        raise DomainError("U must be indexed as [eta, y]")
    if eta_axis.size < 3 or y_axis.size < 5:
        raise DomainError("physical-frame grid too small for central differences")
    hy = y_axis[1] - y_axis[0]
    he = eta_axis[1] - eta_axis[0]
    u_eta = (U[2:, :] - U[:-2, :]) / (2.0 * he)          # [1:-1] in eta
    u_y = (U[:, 2:] - U[:, :-2]) / (2.0 * hy)            # [1:-1] in y
    mid = U[1:-1, 1:-1]
    conv = np.zeros_like(mid)
    if include_quadratic:
        conv = conv + mid
    if include_cubic:
        conv = conv + 0.5 * mid * mid
    inner = u_eta[:, 1:-1] + conv * u_y[1:-1, :]
    d_inner = (inner[:, 2:] - inner[:, :-2]) / (2.0 * hy)
    core = U[1:-1, 2:-2]
    uy_core = u_y[1:-1, 1:-1]
    return d_inner + alpha * uy_core + core


def _resample_u_on_y_eta(w: RealWave, C: float, y_axis: np.ndarray,
                         eta_axis: np.ndarray) -> np.ndarray:
    """Invert the parametric map onto a regular (y, eta) patch.

    Along a fixed-``eta`` line, ``y(tau) = C - Z(tau + 2*eta, tau)`` is
    strictly decreasing for single-valued profiles; each target ``y`` is
    root-solved by Newton iterations safeguarded by bisection on a bracket
    that the bounded tanh bump guarantees analytically.
    """
    ETA, Y = np.meshgrid(eta_axis, y_axis, indexing="ij")
    bump = 4.0 * (w.omega + w.k)
    lo = -ETA - Y + C - 1e-9
    hi = lo + bump + 2e-9
    t = 0.5 * (lo + hi)
    for _ in range(80):
        _bu, bz = real_bundles(w, t + 2.0 * ETA, t)
        f = (C - bz.f) - Y
        if np.max(np.abs(f)) < 1e-12:
            break
        lo = np.where(f > 0.0, t, lo)
        hi = np.where(f > 0.0, hi, t)
        dy = -(bz.s + bz.t)
        step = np.where(dy != 0.0, f / np.where(dy != 0.0, dy, 1.0), 0.0)
        cand = t - step
        inside = (cand > lo) & (cand < hi)
        t = np.where(inside, cand, 0.5 * (lo + hi))
    u, _Z = eval_uZ(w, t + 2.0 * ETA, t)
    return np.asarray(u, dtype=float)


def eq11_residual_physical(samples: ProfileSamples, alpha: float,
                           n_y: int = 201, n_eta: int = 33,
                           trim: float = 0.15,
                           eta_halfwidth: float = 0.6) -> ResidualReport:
    """Physical-frame residual of a single-valued (kink) profile.

    The profile's wave is resampled onto a regular ``(y, eta)`` patch by
    root-solving the parametric map along fixed-``eta`` lines, then the
    physical-frame operator is applied by central differences.  The patch is
    padded with ghost nodes so the reported residual covers exactly the
    window ``[y_lo, y_hi] x [eta_mid +- eta_halfwidth]`` at every
    resolution, which makes refinement studies meaningful.

    Raises
    ------
    DomainError
        If the profile is multivalued in ``y`` (loop or cusp input).
    """
    dy = np.diff(samples.y)
    if not (np.all(dy > 0.0) or np.all(dy < 0.0)):
        raise DomainError("multivalued in y; verify in (sigma, tau) frame")
    if n_y < 7 or n_eta < 5:
        raise DomainError("physical-frame resampling needs n_y >= 7, n_eta >= 5")
    if not (0.0 <= trim < 0.45):
        raise DomainError("trim fraction must lie in [0, 0.45)")
    if eta_halfwidth <= 0.0:
        raise DomainError("eta_halfwidth must be positive")
    w = samples.wave
    span = float(samples.y.max() - samples.y.min())
    y_lo = float(samples.y.min()) + trim * span
    y_hi = float(samples.y.max()) - trim * span
    hy = (y_hi - y_lo) / (n_y - 1)
    he = 2.0 * eta_halfwidth / (n_eta - 1)
    eta_mid = float(np.median(0.5 * (samples.sigma - samples.tau)))
    y_pad = y_lo + hy * (np.arange(n_y + 4) - 2.0)
    eta_pad = (eta_mid - eta_halfwidth) + he * (np.arange(n_eta + 2) - 1.0)

    U = _resample_u_on_y_eta(w, samples.C, y_pad, eta_pad)
    res = physical_operator_grid(U, y_pad, eta_pad, alpha)
    grid = GridSpec(sigma_min=y_lo, sigma_max=float(y_pad[-3]), n_sigma=n_y,
                    tau_min=float(eta_pad[1]), tau_max=float(eta_pad[-2]),
                    n_tau=n_eta)
    e = _entry("u-physical", res, [res, np.atleast_1d(np.max(np.abs(U)))])
    return ResidualReport(system="physical", method="fd2", grid=grid, equations=(e,))


# ---------------------------------------------------------------------------
# Manufactured-solution self-test.

def manufactured_u(S, T):
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    return 0.8 * np.exp(-S * S / 6.0) * np.cos(0.7 * T + 0.3)


def manufactured_Z(S, T):
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    return 0.5 * (S + T) + 0.5 * np.exp(-np.square(S - 1.0) / 8.0) * np.sin(0.6 * T)


def manufactured_bundles(S, T) -> tuple[FieldBundle, FieldBundle]:
    """Closed-form derivative bundles of the manufactured smooth pair."""
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    g = np.exp(-S * S / 6.0)
    gp = -(S / 3.0) * g
    gpp = (S * S / 9.0 - 1.0 / 3.0) * g
    c = np.cos(0.7 * T + 0.3)
    cp = -0.7 * np.sin(0.7 * T + 0.3)
    cpp = -0.49 * c
    bu = FieldBundle(f=0.8 * g * c, s=0.8 * gp * c, t=0.8 * g * cp,
                     ss=0.8 * gpp * c, tt=0.8 * g * cpp)
    q = np.exp(-np.square(S - 1.0) / 8.0)
    qp = -((S - 1.0) / 4.0) * q
    qpp = (np.square(S - 1.0) / 16.0 - 0.25) * q
    sn = np.sin(0.6 * T)
    snp = 0.6 * np.cos(0.6 * T)
    snpp = -0.36 * sn
    bz = FieldBundle(f=0.5 * (S + T) + 0.5 * q * sn,
                     s=0.5 + 0.5 * qp * sn,
                     t=0.5 + 0.5 * q * snp,
                     ss=0.5 * qpp * sn,
                     tt=0.5 * q * snpp)
    return bu, bz


def manufactured_forcing(S, T, alpha: float):
    """Exact forcing that the manufactured pair induces in the coupled system."""
    bu, bz = manufactured_bundles(S, T)
    return residuals_from_bundles(bu, bz, alpha)


def manufactured_selftest(alpha: float = 0.3) -> SelftestReport:
    """Calibrate the verifier against fields whose residual is known exactly.

    The analytic path must reproduce the exact forcing to better than 1e-10,
    zero fields must give an exactly zero residual, and the two
    finite-difference paths must converge at their nominal orders (error
    ratios within 20 percent of 4 and 16 under step halving).
    """
    sig = np.linspace(-6.0, 6.0, 41)
    tau = np.linspace(-6.0, 6.0, 41)
    S, T = np.meshgrid(sig, tau, indexing="ij")
    F1, F2 = manufactured_forcing(S, T, alpha)

    bu, bz = manufactured_bundles(S, T)
    r1, r2 = residuals_from_bundles(bu, bz, alpha)
    analytic_err = max(float(np.max(np.abs(r1 - F1))), float(np.max(np.abs(r2 - F2))))

    zeros = np.zeros_like(S)
    zb = FieldBundle(f=zeros, s=zeros, t=zeros, ss=zeros, tt=zeros)
    z1, z2 = residuals_from_bundles(zb, zb, alpha)
    zero_max = max(float(np.max(np.abs(z1))), float(np.max(np.abs(z2))))

    def fd_error(order: int, h: float) -> float:
        b_u = fd_bundle(manufactured_u, S, T, h, h, order)
        b_z = fd_bundle(manufactured_Z, S, T, h, h, order)
        e1, e2 = residuals_from_bundles(b_u, b_z, alpha)
        return max(float(np.max(np.abs(e1 - F1))), float(np.max(np.abs(e2 - F2))))

    fd2_ratio = fd_error(2, 0.2) / fd_error(2, 0.1)
    fd4_ratio = fd_error(4, 0.4) / fd_error(4, 0.2)

    passed = (analytic_err < 1e-10 and zero_max == 0.0
              and 3.2 <= fd2_ratio <= 4.8 and 12.8 <= fd4_ratio <= 19.2)
    return SelftestReport(passed=passed, analytic_max_error=analytic_err,
                          zero_residual_max=zero_max, fd2_ratio=fd2_ratio,
                          fd4_ratio=fd4_ratio)
