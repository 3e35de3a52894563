"""Traveling-wave dispersion relations of the reduced short-pulse models.

The real branch ties the wavenumber ``k`` and frequency ``omega`` of a
bounded traveling wave of speed ``v`` to the dissipative parameter ``alpha``
through ``4*(k**2 - omega**2) + 2*alpha*(k - omega) - 1 = 0`` with
``omega = k*v``.  The complex extension drops the factor of two:
``k**2 - omega**2 + alpha*(k - omega) - 1 = 0``, which factors as
``(k - omega)*(k + omega + alpha) = 1``.

``alpha_critical`` marks the dissipation level at which the traveling
profile switches between multivalued (loop) and single-valued (kink)
shapes; see :mod:`relaxwave.soliton` for the classifier built on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class RealWave:
    """A real traveling-wave mode: speed, dissipation, wavenumber, frequency.

    Instances produced by :func:`solve_real` satisfy the real dispersion
    relation to round-off and carry ``omega = k * v`` exactly as computed.
    The dataclass itself performs no validation so that hypothetical
    parameter combinations can be probed.
    """

    v: float
    alpha: float
    k: float
    omega: float
    theta0: float = 0.0


@dataclass(frozen=True)
class ComplexWave:
    """A complex traveling-wave mode of the complex dispersion branch."""

    k: complex
    omega: complex
    alpha: float
    theta0: complex = 0j


def alpha_critical(v: float) -> float:
    """Critical dissipative parameter ``v*sqrt(1+v)/(1-v)`` for ``0 < v < 1``.

    Below this value the traveling profile is a loop, at it a cusp, above it
    a kink.  Outside the open interval ``(0, 1)`` the loop/cusp/kink
    taxonomy does not apply and a :class:`DomainError` is raised.
    """
    if not 0.0 < v < 1.0:
        raise DomainError(f"shape classification requires 0 < v < 1, got v={v}")
    return v * math.sqrt(1.0 + v) / (1.0 - v)


def solve_real(v: float, alpha: float, theta0: float = 0.0) -> RealWave:
    """Solve the real dispersion relation for the positive-``k`` branch.

    ``k = 1 / (alpha*(1-v) + sqrt(alpha**2*(1-v)**2 + 4*(1-v**2)))`` and
    ``omega = k*v``.

    Raises
    ------
    DomainError
        If ``|v| >= 1``, ``alpha`` is negative or not finite, or ``theta0``
        is not finite.
    """
    if not -1.0 < v < 1.0:
        raise DomainError(f"wave speed must satisfy -1 < v < 1, got v={v}")
    if not alpha >= 0.0:
        raise DomainError(f"dissipative parameter must satisfy alpha >= 0, got {alpha}")
    if alpha == math.inf:
        raise DomainError(f"dissipative parameter must be finite, got {alpha}")
    if not math.isfinite(theta0):
        raise DomainError(f"phase offset theta0 must be finite, got {theta0}")
    b = alpha * (1.0 - v)
    k = 1.0 / (b + math.sqrt(b * b + 4.0 * (1.0 - v * v)))
    return RealWave(v=v, alpha=alpha, k=k, omega=k * v, theta0=theta0)


def real_dispersion_residual(k: float, omega: float, alpha: float) -> float:
    """Residual ``4*(k**2 - omega**2) + 2*alpha*(k - omega) - 1`` of a candidate pair."""
    return 4.0 * (k * k - omega * omega) + 2.0 * alpha * (k - omega) - 1.0


def complex_dispersion_residual(k: complex, omega: complex, alpha: float) -> complex:
    """Residual ``k**2 - omega**2 + alpha*(k - omega) - 1`` of the complex branch."""
    return k * k - omega * omega + alpha * (k - omega) - 1.0


def solve_complex_omega(k: complex, alpha: float) -> tuple[complex, complex]:
    """Both frequency roots of the complex dispersion relation for a given ``k``.

    The relation is quadratic in ``omega``:
    ``omega**2 + alpha*omega - (k**2 + alpha*k - 1) = 0``.  The two roots are
    returned ordered by descending real part of ``k + omega`` (ties broken by
    descending imaginary part of ``omega``); a double root is returned twice.
    """
    k = complex(k)
    disc = cmath.sqrt(alpha * alpha + 4.0 * (k * k + alpha * k - 1.0))
    roots = [(-alpha + disc) / 2.0, (-alpha - disc) / 2.0]
    roots.sort(key=lambda w: ((k + w).real, w.imag), reverse=True)
    return roots[0], roots[1]


def make_complex_wave(k: complex, alpha: float, root: int = 0,
                      theta0: complex = 0j) -> ComplexWave:
    """Build a :class:`ComplexWave` from ``k`` and one root of the frequency pair.

    ``root`` selects index 0 or 1 of :func:`solve_complex_omega`'s ordering.

    Raises
    ------
    DomainError
        If ``k`` or ``alpha`` is not finite, or ``root`` is not 0 or 1.
    """
    if not (cmath.isfinite(k) and math.isfinite(alpha)):
        raise DomainError(f"complex wave needs finite k and alpha, got k={k}, alpha={alpha}")
    if root not in (0, 1):
        raise DomainError(f"root index must be 0 or 1, got {root}")
    omega = solve_complex_omega(k, alpha)[root]
    return ComplexWave(k=complex(k), omega=omega, alpha=alpha, theta0=complex(theta0))
