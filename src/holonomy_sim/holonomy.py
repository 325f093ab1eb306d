"""Berry phases, gate matrices and the quality factor.

The cyclic drive theta = a*sin(2*pi*t/T), phi = 2*pi*t/T gives the
phase-carrying dark state a purely geometric phase

    gamma(a) = pi * [1 - J0(2a)]

independent of T.  J0 is computed here from its cosine integral
representation by the trapezoid rule on its periodic integrand, so that
every build of this package produces identical digits; 128 nodes are
exact to ~1e-15 for |x| <= 50.

The quality factor f = (1 - |dgamma|/pi) * |<D|U(T)|D>| scores a run: 1
iff the evolution is perfectly adiabatic and reproduces the ideal phase.
dgamma is always wrapped to (-pi, pi] first, so f stays in [0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import TWO_PI, GateKind, Schedule

BESSEL_MAX_ARG = 50.0

# sin(tau) at the 128 equally spaced nodes tau in [0, pi) of the J0 quadrature
_J0_SIN_NODES = np.sin(np.linspace(0.0, math.pi, 128, endpoint=False))


class PhaseUndefinedError(ValueError):
    """Raised when |<d|U|d>| is too small for the phase to mean anything."""


def bessel_j0(x: float) -> float:
    """J0(x) = (1/pi) * int_0^pi cos(x sin tau) dtau, |x| <= 50.

    The mean of cos(x sin tau) over 128 equally spaced tau in [0, pi): the
    trapezoid rule on a smooth periodic integrand converges spectrally (as
    in berry_numeric), to ~1e-15 absolute error over the admissible range.
    """
    if abs(x) > BESSEL_MAX_ARG:
        raise ValueError(f"|x| = {abs(x)} exceeds supported range {BESSEL_MAX_ARG}")
    return float(np.mean(np.cos(x * _J0_SIN_NODES)))


def berry_closed_form(a: float) -> float:
    """Geometric phase pi * [1 - J0(2a)] of the phase-carrying dark state."""
    if a < 0:
        raise ValueError(f"amplitude a must be >= 0, got {a}")
    return math.pi * (1.0 - bessel_j0(2.0 * a))


def berry_numeric(s: Schedule, n_points: int = 10_000) -> float:
    """Quadrature of int_0^T sin^2(theta(t)) * phi_dot(t) dt.

    Trapezoid on the periodic integrand converges spectrally, so even the
    minimum 100 points reproduces the closed form to rounding.
    """
    if n_points < 100:
        raise ValueError(f"n_points must be >= 100, got {n_points}")
    t = np.linspace(0.0, s.T, n_points + 1)
    integrand = np.sin(s.theta(t)) ** 2 * s.phi_dot(t)
    return float(np.trapezoid(integrand, t))


def wrap_angle(x: float) -> float:
    """Map an angle to the principal interval (-pi, pi]."""
    w = math.remainder(x, TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    return w


def extract_phase(u: np.ndarray, d: np.ndarray):
    """(arg, modulus) of <d|U|d> for a normalized state d.

    Raises PhaseUndefinedError when the modulus is below 1e-12 -- the
    returned argument would be numerical noise.
    """
    norm = float(np.linalg.norm(d))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized, got norm {norm}")
    amp = complex(np.vdot(d, u @ d))
    overlap = abs(amp)
    if overlap < 1e-12:
        raise PhaseUndefinedError(f"overlap {overlap:.3e} too small to define a phase")
    return math.atan2(amp.imag, amp.real), overlap


def quality_factor(gamma_ideal: float, gamma_measured: float, overlap_abs: float) -> float:
    """f = (1 - |dgamma|/pi) * overlap, dgamma wrapped to (-pi, pi]."""
    for name, value in (("gamma_ideal", gamma_ideal),
                        ("gamma_measured", gamma_measured),
                        ("overlap_abs", overlap_abs)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    dg = wrap_angle(gamma_measured - gamma_ideal)
    return (1.0 - abs(dg) / math.pi) * overlap_abs


@dataclass(frozen=True)
class HolonomyResult:
    gamma_ideal: float
    gamma_measured: float
    overlap_abs: float
    f: float


def evaluate_holonomy(u: np.ndarray, dark: np.ndarray, gamma_ideal: float) -> HolonomyResult:
    """Phase, overlap and quality factor of one propagated unitary."""
    gamma, overlap = extract_phase(u, dark)
    return HolonomyResult(gamma_ideal=gamma_ideal,
                          gamma_measured=wrap_angle(gamma),
                          overlap_abs=overlap,
                          f=quality_factor(gamma_ideal, gamma, overlap))


def gate_matrix(kind: GateKind, gamma: float) -> np.ndarray:
    """Logical gate realized by a cycle that imprints the phase gamma.

    PHASE  -> diag(1, e^{i gamma})            (the |0> branch stays at 0)
    XGATE  -> e^{i gamma/2} [[cos g/2, -i sin g/2], [-i sin g/2, cos g/2]]
              (sigma_x up to a global phase when gamma = pi)
    CPHASE -> diag(1, 1, 1, e^{i gamma})
    """
    if kind is GateKind.PHASE:
        return np.diag([1.0, np.exp(1j * gamma)]).astype(complex)
    if kind is GateKind.XGATE:
        half = gamma / 2.0
        return np.exp(1j * half) * np.array(
            [[math.cos(half), -1j * math.sin(half)],
             [-1j * math.sin(half), math.cos(half)]], dtype=complex)
    if kind is GateKind.CPHASE:
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * gamma)]).astype(complex)
    raise ValueError(f"no logical gate matrix for kind {kind}")
