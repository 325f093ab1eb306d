"""Time-ordered propagation under [1 + c(t)] H(t), lab and adiabatic frames.

Stepping is midpoint-sampled piecewise-constant exponentiation: each step
applies exp(-i * [1 + c(t_mid)] * H(t_mid) * dt), built by Hermitian
eigendecomposition so unitarity never drifts.  Step boundaries always
coincide with control-segment boundaries (square pulses are represented
without smearing) and with kick instants.  Delta kicks are applied as the
exact factors exp(-i * sign * area * H(tau)), never resolved in time.

The adiabatic frame evolves the amplitudes over the instantaneous
eigenbasis (D0, D1, B+, B-) of the phase-gate generator.  Because all
eigenvalue differences are constant, the control enters that frame only
through the integral C(t) -- the mechanism behind the control scheme's
insensitivity to pulse details.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import KickSchedule, validate_tiling
from .hamiltonians import GateSpec, Schedule, gate_hamiltonian
from .qcore import matexp_hermitian, matexp_hermitian_stack, unitarity_defect

# Auto step refinement: about this many steps per drive period when the
# policy does not pin max_step.  Calibrated so that halving the step at
# T=10 (no control) moves |<D1|U|D1>| by under 1e-6.
DEFAULT_STEPS_PER_PERIOD = 4096

MIN_SUBSTEPS = 20


@dataclass(frozen=True)
class StepPolicy:
    """How finely to chop each control segment.

    Every segment gets at least ``substeps_per_segment`` uniform steps
    (>= 20), refined further so no step exceeds ``max_step``.  max_step =
    None selects span / DEFAULT_STEPS_PER_PERIOD.
    """

    substeps_per_segment: int = MIN_SUBSTEPS
    max_step: float | None = None

    def __post_init__(self):
        if self.substeps_per_segment < MIN_SUBSTEPS:
            raise ValueError(f"substeps_per_segment must be >= {MIN_SUBSTEPS}, "
                             f"got {self.substeps_per_segment}")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")


@dataclass(frozen=True)
class PropagationResult:
    U: np.ndarray
    steps_taken: int
    unitarity_defect: float


def _step_grid(segments, kicks: KickSchedule | None, policy: StepPolicy):
    """Boundaries, per-step control values, and kick positions.

    Returns (bounds, cvals, kick_after) where bounds has one more entry
    than cvals and kick_after maps step index -> list of kick signs applied
    right after that step.
    """
    span = validate_tiling(segments)
    max_step = policy.max_step if policy.max_step is not None else span / DEFAULT_STEPS_PER_PERIOD
    edges = [0.0]
    for seg in segments:
        n = max(policy.substeps_per_segment, math.ceil(seg.length / max_step - 1e-9))
        edges.extend(seg.t_start + seg.length * (j + 1) / n for j in range(n))
    bounds = np.array(edges)
    bounds[-1] = span
    if kicks is not None and len(kicks.times):
        if kicks.times[0] <= 0.0 or kicks.times[-1] >= span:
            raise ValueError("kick instants must lie strictly inside (0, span)")
        bounds = np.unique(np.concatenate([bounds, np.asarray(kicks.times)]))

    mids = 0.5 * (bounds[1:] + bounds[:-1])
    starts = np.array([seg.t_start for seg in segments])
    seg_idx = np.clip(np.searchsorted(starts, mids, side="right") - 1, 0, len(segments) - 1)
    values = np.array([seg.value for seg in segments])
    cvals = values[seg_idx]

    kick_after: dict[int, list] = {}
    if kicks is not None:
        for tau, sign in zip(kicks.times, kicks.signs):
            pos = int(np.searchsorted(bounds, tau))
            kick_after.setdefault(pos - 1, []).append((tau, sign))
    return bounds, cvals, kick_after


def propagate_hamiltonian(h_of_t, segments, kicks: KickSchedule | None = None,
                          policy: StepPolicy | None = None) -> PropagationResult:
    """Generic engine: ordered product of midpoint-sampled step exponentials.

    ``h_of_t(t)`` must return the instantaneous Hermitian generator.  The
    control enters each step as the factor (1 + c) * dt on the exponent;
    kick factors exp(-i * sign * area * H(tau)) are inserted at their
    instants.
    """
    policy = policy or StepPolicy()
    if not segments:
        dim = h_of_t(0.0).shape[0]
        return PropagationResult(np.eye(dim, dtype=complex), 0, 0.0)
    bounds, cvals, kick_after = _step_grid(segments, kicks, policy)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    dts = np.diff(bounds)

    hs = np.stack([h_of_t(t) for t in mids])
    steps = matexp_hermitian_stack(hs, (1.0 + cvals) * dts)

    dim = hs.shape[1]
    u = np.eye(dim, dtype=complex)
    for k in range(len(mids)):
        u = steps[k] @ u
        for tau, sign in kick_after.get(k, ()):
            u = matexp_hermitian(h_of_t(tau), sign * kicks.area) @ u
    return PropagationResult(u, len(mids), unitarity_defect(u))


def propagate_lab(spec: GateSpec, segments, kicks: KickSchedule | None = None,
                  policy: StepPolicy | None = None) -> PropagationResult:
    """Lab-frame evolution of the gate generator under the control train."""
    return propagate_hamiltonian(lambda t: gate_hamiltonian(spec, t),
                                 segments, kicks, policy)


def adiabatic_hamiltonian(s: Schedule, t: float, C: float) -> np.ndarray:
    """Generator in the instantaneous eigenbasis (D0, D1, B+, B-).

    D0 decouples entirely.  D1 carries the Berry connection -phi_dot *
    sin^2(theta) on its diagonal and couples to the bright states through
    (theta_dot +- (i/2) phi_dot sin(2 theta)) e^{-+iC} / sqrt(2); the bright
    pair carries -(1/2) phi_dot cos^2(theta) on the diagonal and the
    e^{+-2iC} cross coupling.  The bright gauge is the closed form
    (sin(theta)|1> +- |2> + cos(theta) e^{-i phi}|3>)/sqrt(2), deterministic
    at every t.  The control appears only through C.
    """
    th = s.theta(t)
    thd = s.theta_dot(t)
    phd = s.phi_dot(t)
    g = (thd + 0.5j * phd * math.sin(2.0 * th)) / math.sqrt(2.0)
    bright = 0.5 * phd * math.cos(th) ** 2
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = -phd * math.sin(th) ** 2
    h[2, 2] = h[3, 3] = -bright
    h[1, 2] = g * np.exp(-1j * C)
    h[1, 3] = g * np.exp(1j * C)
    h[2, 1] = np.conj(h[1, 2])
    h[3, 1] = np.conj(h[1, 3])
    h[2, 3] = -bright * np.exp(2j * C)
    h[3, 2] = np.conj(h[2, 3])
    return h


def propagate_adiabatic(s: Schedule, segments,
                        policy: StepPolicy | None = None) -> PropagationResult:
    """Adiabatic-frame evolution; C(t) accumulated exactly per step.

    The (D1, D1) element of the result has the same modulus and phase as
    the lab-frame <D1(0)|U(T)|D1(0)> (dark states carry no dynamical
    phase), which is what the frame-equivalence checks compare.
    """
    policy = policy or StepPolicy()
    if not segments:
        return PropagationResult(np.eye(4, dtype=complex), 0, 0.0)
    bounds, cvals, _ = _step_grid(segments, None, policy)
    dts = np.diff(bounds)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    increments = (1.0 + cvals) * dts
    c_start = np.concatenate([[0.0], np.cumsum(increments)[:-1]])
    c_mid = c_start + 0.5 * increments

    hs = np.stack([adiabatic_hamiltonian(s, mids[k], c_mid[k]) for k in range(len(mids))])
    steps = matexp_hermitian_stack(hs, dts)
    u = np.eye(4, dtype=complex)
    for k in range(len(mids)):
        u = steps[k] @ u
    return PropagationResult(u, len(mids), unitarity_defect(u))
