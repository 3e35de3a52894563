"""Closed-form one-soliton fields, shape classification and profile sampling.

The candidate one-soliton of the coupled characteristic system is, with
phase ``theta = k*sigma - omega*tau + theta0``,

    u = 4*(omega+k)**2 * (tanh(theta) + 1),
    Z = (sigma+tau)/2 - 2*(omega+k) * (tanh(theta) + 1),

equivalently ``u = G/F`` and
``Z = (sigma+tau)/2 + 2*(d_tau - d_sigma) log F`` for the tau pair
``F = 1 + exp(2*theta)``, ``G = 8*(omega+k)**2 * exp(2*theta)`` of
:func:`relaxwave.hirota.tau_pair`.

The physical-frame profile is the parametric curve ``(y, u)`` with
``y = -Z + C``.  Its shape is governed by the turning points of ``y`` along
the profile: ``dZ/dsigma = (1 - 4*(omega+k)*k*sech(theta)**2)/2`` vanishes
twice (loop), once degenerately (cusp) or never (kink) according to whether
``4*(omega+k)*k`` exceeds, equals or falls below one, which is exactly the
``alpha_critical`` threshold of :mod:`relaxwave.dispersion`.

The complex variant is ``Q = A*sech(Re theta)*exp(i*Im theta)`` with
``A = 4*(Re k + Re omega)``.  Its companion field ``Z`` is not part of the
printed closed forms; it is reconstructed here by integrating the third
equation of the complex system in the traveling frame with decaying boundary
data (the integral of ``sech**2`` is elementary, so the quadrature closes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import ComplexWave, RealWave, alpha_critical
from .errors import DomainError

SHAPE_LOOP = "loop"
SHAPE_CUSP = "cusp"
SHAPE_KINK = "kink"

_MOMENTUM_SHAPE = {SHAPE_LOOP: "loop-like", SHAPE_CUSP: "cusp-like", SHAPE_KINK: "hump-like"}


def sech(x):
    """Overflow-safe ``1/cosh``."""
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


@dataclass(frozen=True)
class FieldBundle:
    """A field with its first and pure second partial derivatives on a grid."""

    f: np.ndarray
    s: np.ndarray
    t: np.ndarray
    ss: np.ndarray
    tt: np.ndarray


@dataclass(frozen=True)
class ShapeClass:
    """Shape verdict of a traveling profile.

    ``shape`` is one of ``"loop" | "cusp" | "kink"``; ``momentum_shape`` the
    matching descriptor of the momentum curve; ``singular_thetas`` the phase
    values where ``dZ/dsigma`` vanishes (two, one degenerate, or none).
    """

    shape: str
    momentum_shape: str
    singular_thetas: tuple[float, ...]
    alpha_critical: float


@dataclass(frozen=True)
class ProfileSamples:
    """Fixed-``tau`` samples of the parametric physical-frame profile.

    Rows share a single gauge constant ``C`` with ``y = -Z + C``; ``pi`` is
    the momentum density ``u_sigma + u_tau``.
    """

    wave: RealWave
    tau: float
    C: float
    sigma: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    Z: np.ndarray
    y: np.ndarray
    pi: np.ndarray
    dZdsigma: np.ndarray


def _phase(k: float, omega: float, theta0: float, sigma, tau):
    """``k*sigma - omega*tau + theta0`` on float arrays, the phase of every closed form."""
    return k * np.asarray(sigma, dtype=float) - omega * np.asarray(tau, dtype=float) + theta0


def theta(w: RealWave, sigma, tau):
    """Traveling phase ``k*sigma - omega*tau + theta0``."""
    return _phase(w.k, w.omega, w.theta0, sigma, tau)


def _z_field(sigma, tau, c: float, T):
    """Field ``Z = (sigma+tau)/2 - c*(T + 1)`` with ``T = tanh`` of the phase."""
    return 0.5 * (np.asarray(sigma, dtype=float) + np.asarray(tau, dtype=float)) \
        - c * (T + 1.0)


_PARTS = frozenset(("f", "s", "t", "ss", "tt"))  # every part of a FieldBundle


def _z_bundle(sigma, tau, c: float, k: float, omega: float, T, S2, parts) -> FieldBundle:
    """Bundle of :func:`_z_field` with ``T``, ``S2 = tanh``, ``sech**2`` of the
    phase ``k*sigma - omega*tau + theta0``; it serves the real and the complex wave.
    Only the parts named in ``parts`` are built; the others are None."""
    return FieldBundle(
        f=_z_field(sigma, tau, c, T) if "f" in parts else None,
        s=0.5 - c * k * S2 if "s" in parts else None,
        t=0.5 + c * omega * S2 if "t" in parts else None,
        ss=2.0 * c * k * k * S2 * T if "ss" in parts else None,
        tt=2.0 * c * omega * omega * S2 * T if "tt" in parts else None,
    )


def _uZ(w: RealWave, sigma, tau, T):
    # (u, Z) of eval_uZ from T = tanh(theta)
    return (4.0 * (w.omega + w.k) ** 2 * (T + 1.0),
            _z_field(sigma, tau, 2.0 * (w.omega + w.k), T))


def eval_uZ(w: RealWave, sigma, tau):
    """Closed-form ``(u, Z)`` of the candidate one-soliton."""
    return _uZ(w, sigma, tau, np.tanh(theta(w, sigma, tau)))


def real_bundles(w: RealWave, sigma, tau, *,
                 _reads=(_PARTS, _PARTS)) -> tuple[FieldBundle, FieldBundle]:
    """Analytic derivative bundles of ``(u, Z)`` (first and pure second partials);
    a report passes ``_reads``, the parts of each that it reads, and the rest are None."""
    th = theta(w, sigma, tau)
    T = np.tanh(th)
    S2 = sech(th) ** 2
    A = 4.0 * (w.omega + w.k) ** 2
    k, om = w.k, w.omega
    u_parts, z_parts = _reads
    bu = FieldBundle(
        f=A * (T + 1.0) if "f" in u_parts else None,
        s=A * k * S2 if "s" in u_parts else None,
        t=-A * om * S2 if "t" in u_parts else None,
        ss=-2.0 * A * k * k * S2 * T if "ss" in u_parts else None,
        tt=-2.0 * A * om * om * S2 * T if "tt" in u_parts else None,
    )
    return bu, _z_bundle(sigma, tau, 2.0 * (w.omega + w.k), k, om, T, S2, z_parts)


def coupled_u_parts(u, pi, phi, uss, alpha, utt=None, linearized=False):
    """``(u_ss - u_tt, phi*u, alpha*pi)``, the parts of :func:`coupled_system`'s equation ``u``."""
    return uss if utt is None else uss - utt, u if linearized else phi * u, alpha * pi


def coupled_system(u, pi, phi, uss, zss, alpha, utt=None, ztt=None,
                   linearized=False, terms=False):
    """Equations ``u``, ``u_ss - u_tt - phi*u + alpha*pi``, and ``Z``,
    ``Z_ss - Z_tt + (u + 1)*pi``, of the coupled characteristic system
    (system 19), with ``pi = u_s + u_t`` and ``phi = Z_s + Z_t``.
    ``linearized`` sets ``phi`` to its quiescent value 1 and drops ``u*pi``.
    Without ``utt``/``ztt`` their terms are left out, so the totals
    ``(r_u, r_Z)`` are the accelerations.  ``terms`` adds the parts of
    :func:`coupled_u_parts` and each equation's constituents, whose largest
    sup norm normalizes its report.
    """
    d, phi_u, api = parts = coupled_u_parts(u, pi, phi, uss, alpha, utt, linearized)
    r_u = d - phi_u + api
    r_z = (zss if ztt is None else zss - ztt) + (pi if linearized else (u + 1.0) * pi)
    if not terms:
        return r_u, r_z
    z_terms = (zss, ztt, pi) if linearized else (zss, ztt, u * pi, pi)
    return r_u, r_z, parts, ((uss, utt, phi_u, api), z_terms)


def _complex_phase(cw: ComplexWave, sigma, tau):
    """``Re theta`` and ``cos``/``sin`` of ``Im theta`` for the complex phase.

    ``Im theta = a - b`` with ``a = Im k*sigma + Im theta0`` and
    ``b = Im omega*tau``; its cosine and sine come from the angle-addition
    formulas on ``cos``/``sin`` of ``a`` and ``b``, so on an open mesh
    (``sigma`` of shape ``(n, 1)``, ``tau`` of shape ``(1, m)``) the
    trigonometric calls see ``n + m`` points and the full mesh only products.
    """
    thr = _phase(cw.k.real, cw.omega.real, cw.theta0.real, sigma, tau)
    a = cw.k.imag * np.asarray(sigma, dtype=float) + cw.theta0.imag
    b = cw.omega.imag * np.asarray(tau, dtype=float)
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    return thr, ca * cb + sa * sb, sa * cb - ca * sb


def eval_complex_Q(cw: ComplexWave, sigma, tau):
    """Real and imaginary parts of ``Q = A*sech(Re theta)*exp(i*Im theta)``.

    ``A = 4*(Re k + Re omega)``.  The arithmetic is real: ``cos``/``sin`` of
    ``Im theta`` come from 1-D factors by angle addition, which pays off on
    open meshes (``np.meshgrid(..., sparse=True)``), where those factors
    stay 1-D; full meshes give the same values at more cost.
    """
    thr, c, s = _complex_phase(cw, sigma, tau)
    mag = 4.0 * (cw.k.real + cw.omega.real) * sech(thr)
    return mag * c, mag * s


def _complex_zeta_coeff(cw: ComplexWave) -> float:
    # Traveling-frame integration constant of the companion field: the third
    # equation reduces to zeta'' = -(|Q|**2)' / (2*(Re k + Re omega)), and the
    # decaying-boundary antiderivative of A**2*sech**2 is elementary.
    s = cw.k.real + cw.omega.real
    if s == 0.0:
        return 0.0
    A = 4.0 * s
    return A * A / (2.0 * s)


def _check_decaying(cw: ComplexWave) -> None:
    if cw.k.real == 0.0 and (cw.k.real + cw.omega.real) != 0.0:
        raise DomainError("companion-field quadrature requires decaying |Q| (Re k != 0)")


def complex_Z(cw: ComplexWave, sigma, tau):
    """Companion field of the complex soliton, reconstructed by quadrature.

    The traveling-frame ansatz ``Z = (sigma+tau)/2 + zeta(Re theta)`` closes
    the third equation of the complex system; decaying boundary data and the
    requirement ``Z -> sigma/2`` behind the pulse fix both constants.

    Raises
    ------
    DomainError
        If ``Re k == 0`` while ``|Q|`` is nonzero, in which case ``|Q|`` does
        not decay along ``sigma`` and the quadrature has no decaying solution.
    """
    _check_decaying(cw)
    thr = _phase(cw.k.real, cw.omega.real, cw.theta0.real, sigma, tau)
    return _z_field(sigma, tau, _complex_zeta_coeff(cw), np.tanh(thr))


def complex_bundles(cw: ComplexWave, sigma, tau, *, _z_reads=_PARTS):
    """Analytic derivative bundles ``(Re Q, Im Q, Z)`` of the complex soliton.

    Each derivative of ``Q`` is ``(U + i*V)*exp(i*Im theta)`` with real
    ``U``, ``V`` built from ``sech``/``tanh`` of ``Re theta``; its parts are
    ``U*c - V*s`` and ``U*s + V*c`` with ``c``/``s`` from the angle addition
    of :func:`eval_complex_Q`, so no complex array is formed and open meshes
    are the inputs that gain.  The ``Z`` bundle depends on ``Re theta`` only;
    a report passes ``_z_reads``, the parts of it that its equations read.
    """
    kr, ki = cw.k.real, cw.k.imag
    wr, wi = cw.omega.real, cw.omega.imag
    thr, c, s = _complex_phase(cw, sigma, tau)
    S0 = sech(thr)
    T = np.tanh(thr)
    S0sq = S0 * S0
    A = 4.0 * (kr + wr)
    P0 = A * S0                # A*sech
    P1 = P0 * T                # -A*sech'
    P2 = P0 - 2.0 * P0 * S0sq  # A*sech''

    def parts(U, V):
        return U * c - V * s, U * s + V * c

    f = (P0 * c, P0 * s)
    d_s = parts(-kr * P1, ki * P0)
    d_t = parts(wr * P1, -wi * P0)
    d_ss = parts(kr * kr * P2 - ki * ki * P0, -2.0 * kr * ki * P1)
    d_tt = parts(wr * wr * P2 - wi * wi * P0, -2.0 * wr * wi * P1)
    bqr, bqi = (FieldBundle(f=f[i], s=d_s[i], t=d_t[i], ss=d_ss[i], tt=d_tt[i])
                for i in (0, 1))
    return bqr, bqi, _z_bundle(sigma, tau, _complex_zeta_coeff(cw), kr, wr, T, S0sq, _z_reads)


def singular_thetas(w: RealWave, tol: float = 1e-9) -> tuple[float, ...]:
    """Phase values where the profile slope ``dZ/dsigma`` vanishes.

    With ``s = 4*(omega+k)*k``: two roots ``+/- arccosh(sqrt(s))`` for
    ``s > 1``, a single degenerate root ``0.0`` for ``|s - 1| <= tol``, none
    for ``s < 1``.  ``tol`` must be finite and nonnegative.
    """
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"cusp tolerance tol must be finite and >= 0, got {tol}")
    s = 4.0 * (w.omega + w.k) * w.k
    if abs(s - 1.0) <= tol:
        return (0.0,)
    if s < 1.0:
        return ()
    r = math.acosh(math.sqrt(s))
    return (-r, r)


def classify(w: RealWave, tol: float = 1e-9) -> ShapeClass:
    """Classify the traveling profile as loop, cusp or kink.

    The verdict and the singular phase values both come from
    :func:`singular_thetas` with the same ``tol``: two roots make a loop, the
    degenerate root a cusp, none a kink.  ``alpha_critical`` is reported
    alongside.  Requires ``0 < v < 1``.
    """
    ac = alpha_critical(w.v)
    roots = singular_thetas(w, tol)
    shape = (SHAPE_KINK, SHAPE_CUSP, SHAPE_LOOP)[len(roots)]
    return ShapeClass(shape=shape, momentum_shape=_MOMENTUM_SHAPE[shape],
                      singular_thetas=roots, alpha_critical=ac)


def profile(w: RealWave, tau: float = 0.0, sigma_min: float = -15.0,
            sigma_max: float = 15.0, n: int = 601, C: float = 0.0) -> ProfileSamples:
    """Sample the parametric profile ``(y, u)`` at fixed ``tau``.

    ``y = -Z + C``; the returned rows also carry the momentum density
    ``u_sigma + u_tau`` and the slope factor ``dZ/dsigma``, whose zeros are
    the turning points of ``y``.  ``tau``, ``C`` and both sigma bounds must
    be finite.
    """
    for name, value in (("tau", tau), ("C", C), ("sigma_min", sigma_min),
                        ("sigma_max", sigma_max)):
        if not math.isfinite(value):
            raise DomainError(f"profile needs a finite {name}, got {value}")
    if not sigma_min < sigma_max:
        raise DomainError(f"need sigma_min < sigma_max, got [{sigma_min}, {sigma_max}]")
    if n < 2:
        raise DomainError(f"need at least 2 samples, got n={n}")
    sigma = np.linspace(sigma_min, sigma_max, n)
    th = theta(w, sigma, tau)
    S2 = sech(th) ** 2
    u, Z = _uZ(w, sigma, tau, np.tanh(th))
    return ProfileSamples(
        wave=w,
        tau=float(tau),
        C=float(C),
        sigma=sigma,
        theta=th,
        u=u,
        Z=Z,
        y=C - Z,
        pi=4.0 * (w.omega + w.k) ** 2 * (w.k - w.omega) * S2,
        dZdsigma=0.5 * (1.0 - 4.0 * (w.omega + w.k) * w.k * S2),
    )
