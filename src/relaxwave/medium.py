"""Physical parameters of a relaxing barotropic medium and the coefficient
groups of its reduced evolution equations.

A medium whose pressure-density response lags behind the forcing carries two
sound speeds: perturbations much faster than the relaxation time see the
frozen speed ``v_f``, much slower ones the equilibrium speed ``v_e``.
Expanding the response around either limit yields one-dimensional model
equations whose coefficients are fixed combinations of the physical
constants.  This module evaluates those combinations, and the coordinate and
field scalings that cast the high-frequency equation into its two
dimensionless normal forms: one for a vanishing quadratic state coefficient
(pure cubic nonlinearity) and one for the general combined case.

All functions are pure: identical inputs give bit-identical outputs.  Units
are the caller's responsibility; everything downstream of the reductions is
dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "MediumParams",
    "HighFreqCoeffs",
    "LowFreqCoeffs",
    "ReducedParams",
    "high_freq_coeffs",
    "low_freq_coeffs",
    "reduce_swsp",
    "reduce_combined",
]


@dataclass(frozen=True)
class MediumParams:
    """Physical constants of a relaxing barotropic medium.

    Parameters
    ----------
    tau : float
        Relaxation time of the pressure response.  Must be positive.
    v_e : float
        Equilibrium sound speed, seen by perturbations much slower than the
        relaxation.  Must be positive.
    v_f : float
        Frozen sound speed, seen by perturbations much faster than the
        relaxation.  Must satisfy ``v_f >= v_e`` (a causality constraint).
    alpha_e, a_e : float
        Quadratic and cubic state coefficients of the low-frequency
        expansion.
    alpha_f, a_f : float
        Quadratic and cubic state coefficients of the high-frequency
        expansion.  ``a_f > 0`` is required by the pure-cubic reduction;
        ``alpha_f != 0`` by the combined reduction.

    Examples
    --------
    >>> m = MediumParams(tau=1.0, v_e=1.0, v_f=2.0)
    >>> high_freq_coeffs(m).beta_f
    1.5
    """

    tau: float
    v_e: float
    v_f: float
    alpha_e: float = 0.0
    a_e: float = 1.0
    alpha_f: float = 0.0
    a_f: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise DomainError(f"relaxation time tau must be finite and > 0, got {self.tau}")
        if not (math.isfinite(self.v_e) and self.v_e > 0.0):
            raise DomainError(f"equilibrium speed v_e must be finite and > 0, got {self.v_e}")
        if not (math.isfinite(self.v_f) and self.v_f >= self.v_e):
            raise DomainError(
                f"frozen speed v_f must be finite and >= v_e={self.v_e}, got {self.v_f}"
            )
        for name in ("alpha_e", "a_e", "alpha_f", "a_f"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"state coefficient {name} must be finite")


@dataclass(frozen=True)
class HighFreqCoeffs:
    """Linear coefficient group of the high-frequency (frozen) reduction.

    ``beta_f`` multiplies the lowest-order correction, ``gamma_f`` the next
    one.  Both are nonnegative for ``v_f >= v_e`` and vanish together exactly
    when the two sound speeds coincide.
    """

    beta_f: float
    gamma_f: float


@dataclass(frozen=True)
class LowFreqCoeffs:
    """Linear coefficient group of the low-frequency (equilibrium) reduction.

    ``beta_e`` is a diffusive coefficient (nonnegative for ``v_f >= v_e``);
    ``gamma_e`` is dispersive and changes sign at ``v_f**2 = 5*v_e**2``.
    """

    beta_e: float
    gamma_e: float


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless normal-form data produced by a high-frequency reduction.

    ``alpha`` is the single dissipative parameter that survives the scaling;
    ``y_scale``, ``eta_scale`` and ``p_scale`` map physical space, time and
    field amplitude onto the dimensionless variables of the normal form.
    """

    alpha: float
    y_scale: float
    eta_scale: float
    p_scale: float


def _check_finite(names_values: dict) -> None:
    for name, value in names_values.items():
        if not math.isfinite(value):
            raise DomainError(f"non-finite {name} computed from medium parameters")


def high_freq_coeffs(m: MediumParams) -> HighFreqCoeffs:
    """Coefficients of the high-frequency reduced equation.

    ``beta_f = (v_f**2 - v_e**2) / (tau * v_e**2 * v_f)`` and
    ``gamma_f = (v_f**4 - v_e**4) / (2 * tau**2 * v_e**4 * v_f**2)``.

    Raises
    ------
    DomainError
        If either coefficient overflows to a non-finite value.
    """
    beta_f = (m.v_f**2 - m.v_e**2) / (m.tau * m.v_e**2 * m.v_f)
    gamma_f = (m.v_f**4 - m.v_e**4) / (2.0 * m.tau**2 * m.v_e**4 * m.v_f**2)
    _check_finite({"beta_f": beta_f, "gamma_f": gamma_f})
    return HighFreqCoeffs(beta_f=beta_f, gamma_f=gamma_f)


def low_freq_coeffs(m: MediumParams) -> LowFreqCoeffs:
    """Coefficients of the low-frequency reduced equation.

    ``beta_e = v_e**2 * tau * (v_f**2 - v_e**2) / (2 * v_f**2)`` and
    ``gamma_e = v_e**3 * tau**2 * (v_f**2 - v_e**2) * (v_f**2 - 5*v_e**2)
    / (8 * v_f**4)``.
    """
    dv2 = m.v_f**2 - m.v_e**2
    beta_e = m.v_e**2 * m.tau * dv2 / (2.0 * m.v_f**2)
    gamma_e = m.v_e**3 * m.tau**2 * dv2 * (m.v_f**2 - 5.0 * m.v_e**2) / (8.0 * m.v_f**4)
    _check_finite({"beta_e": beta_e, "gamma_e": gamma_e})
    return LowFreqCoeffs(beta_e=beta_e, gamma_e=gamma_e)


def reduce_swsp(m: MediumParams) -> ReducedParams:
    """Scalings of the pure-cubic (short-pulse style) normal form.

    Applies when the quadratic high-frequency state coefficient vanishes.
    The dissipative parameter is ``alpha = beta_f * sqrt(1 / (6*gamma_f))``;
    the amplitude map is ``p = u / (v_f * sqrt(a_f))``.

    Raises
    ------
    DomainError
        If ``gamma_f <= 0`` or ``a_f <= 0``.
    """
    hf = high_freq_coeffs(m)
    if not hf.gamma_f > 0.0:
        raise DomainError(
            f"pure-cubic reduction requires gamma_f > 0, got gamma_f={hf.gamma_f}"
        )
    if not m.a_f > 0.0:
        raise DomainError(f"pure-cubic reduction requires a_f > 0, got a_f={m.a_f}")
    alpha = hf.beta_f * math.sqrt(1.0 / (6.0 * hf.gamma_f))
    y_scale = math.sqrt(hf.gamma_f / 6.0)
    eta_scale = math.sqrt(1.5 * hf.gamma_f) * m.v_f
    p_scale = 1.0 / (m.v_f * math.sqrt(m.a_f))
    out = ReducedParams(alpha=alpha, y_scale=y_scale, eta_scale=eta_scale, p_scale=p_scale)
    _check_finite({"alpha": alpha, "y_scale": y_scale, "eta_scale": eta_scale,
                   "p_scale": p_scale})
    return out


def reduce_combined(m: MediumParams) -> ReducedParams:
    """Scalings of the combined quadratic-plus-cubic normal form.

    Applies for a nonzero quadratic high-frequency state coefficient.  The
    dissipative parameter is
    ``alpha = (beta_f / (alpha_f * v_f)) * sqrt(3*a_f / (2*gamma_f))`` and
    the amplitude map is ``p = alpha_f * u / (3*a_f)``.  A negative
    ``alpha_f`` flips the sign of both ``alpha`` and ``p_scale``.

    Raises
    ------
    DomainError
        If ``gamma_f <= 0``, ``a_f <= 0`` or ``alpha_f == 0``.
    """
    hf = high_freq_coeffs(m)
    if not hf.gamma_f > 0.0:
        raise DomainError(
            f"combined reduction requires gamma_f > 0, got gamma_f={hf.gamma_f}"
        )
    if not m.a_f > 0.0:
        raise DomainError(f"combined reduction requires a_f > 0, got a_f={m.a_f}")
    if m.alpha_f == 0.0:
        raise DomainError("combined reduction requires alpha_f != 0")
    alpha = hf.beta_f / (m.alpha_f * m.v_f) * math.sqrt(1.5 * m.a_f / hf.gamma_f)
    y_scale = math.sqrt(1.5 * m.a_f * hf.gamma_f) / m.alpha_f
    eta_scale = math.sqrt(hf.gamma_f / (6.0 * m.a_f)) * m.alpha_f * m.v_f**2
    p_scale = m.alpha_f / (3.0 * m.a_f)
    out = ReducedParams(alpha=alpha, y_scale=y_scale, eta_scale=eta_scale, p_scale=p_scale)
    _check_finite({"alpha": alpha, "y_scale": y_scale, "eta_scale": eta_scale,
                   "p_scale": p_scale})
    return out
