"""Time-ordered propagation under [1 + c(t)] H(t), lab and adiabatic frames.

Stepping is midpoint-sampled piecewise-constant exponentiation: each step
applies exp(-i * [1 + c(t_mid)] * H(t_mid) * dt).  Step boundaries always
coincide with control-segment boundaries (square pulses are represented
without smearing) and with kick instants.  Delta kicks are applied as the
exact factors exp(-i * sign * area * H(tau)), never resolved in time.

The lab frame is one array pipeline for every gate kind and for a batch
of trains that share their segment edges and kick instants (the
realizations of one sweep point): one step grid, the generators at all
midpoints and kick instants, their exponentials in the closed form that
H^3 = s^2 H allows (no eigendecomposition) for every train's exponents,
and a pairwise time-ordered product, all as whole-array numpy calls.
Kick factors sit in the same stack as the steps, in time order.  The
factor axis is processed in aligned blocks of CHUNK factors, so memory is
bounded by one block while U stays bit-identical to one reduction over
the whole stack.  The logical kinds propagate their 3x3 lambda block,
embedded into spec.dim at the end.

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

from .control import MAX_STEPS, KickSchedule, Segments
from .hamiltonians import GateSpec, Schedule, gate_generators
from .qcore import (matexp_cubic_stack, matexp_hermitian_stack, ordered_product,
                    unitarity_defect)

# Auto step refinement: about this many steps per drive period when the
# policy does not pin max_step.  Calibrated so that halving the step at
# T=10 (no control) moves |<D1|U|D1>| by under 1e-6.
DEFAULT_STEPS_PER_PERIOD = 4096

MIN_SUBSTEPS = 20

# Factors per block of the chunked time-ordered product.  A power of two,
# so the blocks align with the pairwise reduction tree (see _chunked_product).
CHUNK = 1024


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


def _kick_times(kicks: KickSchedule | None) -> tuple:
    return kicks.times if kicks is not None else ()


def _step_grid(segments: Segments, kicks: KickSchedule | None, policy: StepPolicy):
    """Step boundaries, the segment of every step, and kick positions.

    Returns (bounds, seg_idx, kick_pos): step k runs from bounds[k] to
    bounds[k + 1] inside segment seg_idx[k], and kick_pos[i] is the index
    of the step that kick i precedes (its instant is bounds[kick_pos[i]]).
    Only the segment edges and the kick instants enter, so one grid serves
    every train that shares them.  Raises ValueError, before allocating,
    when the steps and kicks together exceed MAX_STEPS.
    """
    span = segments.span
    max_step = policy.max_step if policy.max_step is not None else span / DEFAULT_STEPS_PER_PERIOD
    edges = np.asarray(segments.edges)
    starts, lengths = edges[:-1], np.diff(edges)
    kick_times = np.asarray(_kick_times(kicks), dtype=float)
    with np.errstate(over="ignore"):  # an overflowing count is inf, rejected below
        counts = np.maximum(policy.substeps_per_segment, np.ceil(lengths / max_step - 1e-9))
    total = counts.sum() + len(kick_times)
    if not total <= MAX_STEPS:
        raise ValueError(f"the run needs {total:.0f} steps and kicks, above the cap "
                         f"MAX_STEPS = {MAX_STEPS}")
    counts = counts.astype(int)
    # edge j+1 of a segment: t_start + length * (j + 1) / n, as one array
    first = np.cumsum(counts) - counts
    j_plus_1 = np.arange(1, counts.sum() + 1) - np.repeat(first, counts)
    bounds = np.concatenate([[0.0], np.repeat(starts, counts)
                             + np.repeat(lengths, counts) * j_plus_1 / np.repeat(counts, counts)])
    bounds[-1] = span
    if len(kick_times):
        if kick_times[0] <= 0.0 or kick_times[-1] >= span:
            raise ValueError("kick instants must lie strictly inside (0, span)")
        bounds = np.unique(np.concatenate([bounds, kick_times]))
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    seg_idx = np.clip(np.searchsorted(starts, mids, side="right") - 1, 0, len(segments) - 1)
    return bounds, seg_idx, np.searchsorted(bounds, kick_times)


def _step_exponents(segments: Segments, seg_idx: np.ndarray, widths: np.ndarray,
                    mids: np.ndarray) -> np.ndarray:
    """(1 + c) * dt of every step of one train on a shared grid.

    Raises ValueError when an exponent is not finite, i.e. when the control
    amplitude times dt overflows.
    """
    with np.errstate(over="ignore"):
        exponents = (1.0 + np.asarray(segments.values)[seg_idx]) * widths
    if not np.all(np.isfinite(exponents)):
        k = int(np.argmin(np.isfinite(exponents)))
        raise ValueError(f"step exponent (1 + c) * dt = {exponents[k]} at t = {mids[k]:.6g} "
                         f"is not finite: the control amplitude overflows")
    return exponents


def _chunked_product(spec: GateSpec, ts: np.ndarray, taus: np.ndarray):
    """Time-ordered product of exp(-i * taus[b, k] * H(ts[k])) over k, per row b.

    Returns (levels, (B, d, d) products).  The factor axis is walked in
    aligned blocks of CHUNK: each block builds its generators, checks them
    and squares them once for all B rows, and is reduced to one factor per
    row; the block factors are then reduced once more.  Because CHUNK is a
    power of two, this performs exactly the multiplications of the pairwise
    tree of :func:`ordered_product` over the whole stack (an aligned block
    of 2^m factors is its first m levels), so the result is bit-identical
    while only one block of complex matrices is ever in memory.
    """
    blocks = []
    for start in range(0, len(ts), CHUNK):
        levels, s, hs = gate_generators(spec, ts[start:start + CHUNK])
        blocks.append(ordered_product(matexp_cubic_stack(hs, s, taus[:, start:start + CHUNK])))
    return levels, ordered_product(np.stack(blocks, axis=1))


def propagate_lab_batch(spec: GateSpec, trains, policy: StepPolicy | None = None) -> list:
    """Lab-frame evolution of the gate generator under several control trains.

    trains is a sequence of (segments, kicks) pairs with equal segment
    edges and equal kick instants -- the realizations of one sweep point
    differ only in their amplitudes.  The step grid and the generators are
    built once for all of them; each train adds only its row of step
    exponents (1 + c) * dt and kick exponents sign * area.  Kick i
    contributes the factor exp(-i * sign_i * area * H(t_i)) right before
    the step that starts at its instant.  Returns one PropagationResult per
    pair, in order; each is bit-identical to propagating that train alone.
    """
    policy = policy or StepPolicy()
    trains = list(trains)
    if not trains:
        raise ValueError("need at least one (segments, kicks) train")
    segments, kicks = trains[0]
    for other, other_kicks in trains[1:]:
        if other.edges != segments.edges or _kick_times(other_kicks) != _kick_times(kicks):
            raise ValueError("trains of one batch must share their segment edges and "
                             "kick times")
    bounds, seg_idx, kick_pos = _step_grid(segments, kicks, policy)
    widths = np.diff(bounds)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    taus = np.stack([_step_exponents(segs, seg_idx, widths, mids) for segs, _ in trains])
    if len(kick_pos):
        mids = np.insert(mids, kick_pos, kicks.times)
        taus = np.insert(taus, kick_pos, [k.area * np.asarray(k.signs, dtype=float)
                                          for _, k in trains], axis=1)
    levels, blocks = _chunked_product(spec, mids, taus)
    results = []
    for block in blocks:
        u = np.eye(spec.dim, dtype=complex)
        u[np.ix_(levels, levels)] = block
        results.append(PropagationResult(u, len(widths), unitarity_defect(u)))
    return results


def propagate_lab(spec: GateSpec, segments: Segments, kicks: KickSchedule | None = None,
                  policy: StepPolicy | None = None) -> PropagationResult:
    """Lab-frame evolution under one control train: a batch of one."""
    return propagate_lab_batch(spec, [(segments, kicks)], policy)[0]


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
    bounds, seg_idx, _ = _step_grid(segments, None, policy)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    increments = _step_exponents(segments, seg_idx, np.diff(bounds), mids)
    c_start = np.concatenate([[0.0], np.cumsum(increments)[:-1]])
    c_mid = c_start + 0.5 * increments
    hs = adiabatic_hamiltonian(s, mids, c_mid)
    u = ordered_product(matexp_hermitian_stack(hs, np.diff(bounds)))
    return PropagationResult(u, len(mids), unitarity_defect(u))
