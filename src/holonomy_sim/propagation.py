"""Time-ordered propagation under [1 + c(t)] H(t), lab and adiabatic frames.

Stepping is midpoint-sampled piecewise-constant exponentiation: each step
applies exp(-i * [1 + c(t_mid)] * H(t_mid) * dt).  Step boundaries always
coincide with control-segment boundaries (square pulses are represented
without smearing) and with kick instants.  Delta kicks are applied as the
exact factors exp(-i * sign * area * H(tau)), never resolved in time.

The lab frame is one array pipeline for every gate kind: the step grid,
the generators at all midpoints and kick instants, their exponentials in
the closed form that H^3 = s^2 H allows (no eigendecomposition), and a
pairwise time-ordered product, all as whole-stack numpy calls.  Kick
factors sit in the same stack as the steps, in time order.  The logical
kinds propagate their 3x3 lambda block, embedded into spec.dim at the end.

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

from .control import KickSchedule, Segments
from .hamiltonians import GateSpec, Schedule, gate_generators
from .qcore import (matexp_cubic_stack, matexp_hermitian_stack, ordered_product,
                    unitarity_defect)

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
        if self.max_step is not None and not 0 < self.max_step < math.inf:
            raise ValueError(f"max_step must be positive and finite, got {self.max_step}")


@dataclass(frozen=True)
class PropagationResult:
    U: np.ndarray
    steps_taken: int
    unitarity_defect: float


def _step_grid(segments: Segments, kicks: KickSchedule | None, policy: StepPolicy):
    """Boundaries, per-step exponents, and kick positions.

    Returns (bounds, exponents, kick_pos): bounds has one more entry than
    exponents, exponents[k] = (1 + c) * dt of step k, and kick_pos[i] is
    the index of the step that kick i precedes (its instant is
    bounds[kick_pos[i]]).  Raises ValueError when an exponent is not
    finite, i.e. when the control amplitude times dt overflows.
    """
    span = segments.span
    max_step = policy.max_step if policy.max_step is not None else span / DEFAULT_STEPS_PER_PERIOD
    edges = np.asarray(segments.edges)
    starts, lengths = edges[:-1], np.diff(edges)
    values = np.asarray(segments.values)
    counts = np.maximum(policy.substeps_per_segment,
                        np.ceil(lengths / max_step - 1e-9)).astype(int)
    # edge j+1 of a segment: t_start + length * (j + 1) / n, as one array
    first = np.cumsum(counts) - counts
    j_plus_1 = np.arange(1, counts.sum() + 1) - np.repeat(first, counts)
    bounds = np.concatenate([[0.0], np.repeat(starts, counts)
                             + np.repeat(lengths, counts) * j_plus_1 / np.repeat(counts, counts)])
    bounds[-1] = span
    kick_times = np.asarray(kicks.times if kicks is not None else (), dtype=float)
    if len(kick_times):
        if kick_times[0] <= 0.0 or kick_times[-1] >= span:
            raise ValueError("kick instants must lie strictly inside (0, span)")
        bounds = np.unique(np.concatenate([bounds, kick_times]))

    mids = 0.5 * (bounds[1:] + bounds[:-1])
    seg_idx = np.clip(np.searchsorted(starts, mids, side="right") - 1, 0, len(segments) - 1)
    exponents = (1.0 + values[seg_idx]) * np.diff(bounds)
    if not np.all(np.isfinite(exponents)):
        k = int(np.argmin(np.isfinite(exponents)))
        raise ValueError(f"step exponent (1 + c) * dt = {exponents[k]} at t = {mids[k]:.6g} "
                         f"is not finite: the control amplitude overflows")
    return bounds, exponents, np.searchsorted(bounds, kick_times)


def propagate_lab(spec: GateSpec, segments: Segments, kicks: KickSchedule | None = None,
                  policy: StepPolicy | None = None) -> PropagationResult:
    """Lab-frame evolution of the gate generator under the control train.

    Kick i contributes the factor exp(-i * sign_i * area * H(t_i)) right
    before the step that starts at its instant.
    """
    policy = policy or StepPolicy()
    bounds, exponents, kick_pos = _step_grid(segments, kicks, policy)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    if len(kick_pos):
        mids = np.insert(mids, kick_pos, kicks.times)
        exponents = np.insert(exponents, kick_pos,
                              kicks.area * np.asarray(kicks.signs, dtype=float))
    levels, s, hs = gate_generators(spec, mids)
    u = np.eye(spec.dim, dtype=complex)
    u[np.ix_(levels, levels)] = ordered_product(matexp_cubic_stack(hs, s, exponents))
    return PropagationResult(u, len(bounds) - 1, unitarity_defect(u))


def adiabatic_hamiltonian(s: Schedule, t, C) -> np.ndarray:
    """Generator in the instantaneous eigenbasis (D0, D1, B+, B-).

    D0 decouples entirely.  D1 carries the Berry connection -phi_dot *
    sin^2(theta) on its diagonal and couples to the bright states through
    (theta_dot +- (i/2) phi_dot sin(2 theta)) e^{-+iC} / sqrt(2); the bright
    pair carries -(1/2) phi_dot cos^2(theta) on the diagonal and the
    e^{+-2iC} cross coupling.  The bright gauge is the closed form
    (sin(theta)|1> +- |2> + cos(theta) e^{-i phi}|3>)/sqrt(2), deterministic
    at every t.  The control appears only through C.  Scalar t and C give
    one 4x4 matrix, arrays of n times and integrals an (n, 4, 4) stack.
    """
    th, thd, phd = s.theta(t), s.theta_dot(t), s.phi_dot(t)
    g = (thd + 0.5j * phd * np.sin(2.0 * th)) / math.sqrt(2.0)
    bright = 0.5 * phd * np.cos(th) ** 2
    h = np.zeros(np.shape(th) + (4, 4), dtype=complex)
    h[..., 1, 1] = -phd * np.sin(th) ** 2
    h[..., 2, 2] = h[..., 3, 3] = -bright
    h[..., 1, 2] = g * np.exp(-1j * C)
    h[..., 1, 3] = g * np.exp(1j * C)
    h[..., 2, 1] = np.conj(h[..., 1, 2])
    h[..., 3, 1] = np.conj(h[..., 1, 3])
    h[..., 2, 3] = -bright * np.exp(2j * C)
    h[..., 3, 2] = np.conj(h[..., 2, 3])
    return h


def propagate_adiabatic(s: Schedule, segments: Segments,
                        policy: StepPolicy | None = None) -> PropagationResult:
    """Adiabatic-frame evolution; C(t) accumulated exactly per step.

    The (D1, D1) element of the result has the same modulus and phase as
    the lab-frame <D1(0)|U(T)|D1(0)> (dark states carry no dynamical
    phase), which is what the frame-equivalence checks compare.
    """
    policy = policy or StepPolicy()
    bounds, increments, _ = _step_grid(segments, None, policy)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    c_start = np.concatenate([[0.0], np.cumsum(increments)[:-1]])
    c_mid = c_start + 0.5 * increments
    hs = adiabatic_hamiltonian(s, mids, c_mid)
    u = ordered_product(matexp_hermitian_stack(hs, np.diff(bounds)))
    return PropagationResult(u, len(mids), unitarity_defect(u))
