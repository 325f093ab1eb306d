"""Control functions c(t) that accelerate the adiabatic passage.

The dynamics only sees the running integral C(t) = int_0^t [1 + c(s)] ds,
so very different pulse shapes (strong positive squares, zero-mean
alternating squares, even delta kicks) act identically whenever their
integrals agree modulo 2*pi.  This module generates the piecewise-constant
trains and delta-kick schedules, and computes their integrals and areas.

Randomness is drawn from numpy's PCG64 seeded through SeedSequence, one
fresh uniform r per (on-)segment in time order, so a (kind, J, dt, p, seed,
T) tuple always reproduces the same train bit for bit.

RNG_DESCRIPTION documents the exact scheme for run manifests.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

RNG_DESCRIPTION = ("numpy PCG64 via SeedSequence(seed); sweep realization k of grid "
                   "point j uses SeedSequence([master_seed, j, k])")


class ControlKind(enum.Enum):
    NO_CONTROL = "no_control"
    POSITIVE_SQUARE = "positive_square"
    ZERO_ENERGY_ALTERNATING = "zero_energy_alternating"
    DELTA_KICK_POSITIVE = "delta_kick_positive"
    DELTA_KICK_ALTERNATING = "delta_kick_alternating"


SQUARE_KINDS = (ControlKind.POSITIVE_SQUARE, ControlKind.ZERO_ENERGY_ALTERNATING)
KICK_KINDS = (ControlKind.DELTA_KICK_POSITIVE, ControlKind.DELTA_KICK_ALTERNATING)


@dataclass(frozen=True)
class PulseTrain:
    """Description of a control train.

    J is the pulse amplitude, dt the half-period of the square pattern
    (or the kick spacing for delta kinds), p in [0, 2] the randomness of
    the per-segment amplitude J*(1 - p*(1/2 - r)) with r uniform in [0, 1).
    For delta-kick kinds p/2 is the relative jitter of the kick spacing.
    """

    kind: ControlKind
    J: float = 0.0
    dt: float = 0.0
    p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.J < math.inf:
            raise ValueError(f"amplitude J must be finite and >= 0, got {self.J}")
        if not 0.0 <= self.p <= 2.0:
            raise ValueError(f"randomness p must lie in [0, 2], got {self.p}")
        if not math.isfinite(self.dt):
            raise ValueError(f"half-period dt must be finite, got {self.dt}")
        if self.kind is not ControlKind.NO_CONTROL and self.dt <= 0:
            raise ValueError(f"half-period dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class ControlSegment:
    t_start: float
    t_end: float
    value: float

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError(f"empty segment [{self.t_start}, {self.t_end}]")

    @property
    def length(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class KickSchedule:
    """Delta kicks: ascending instants in (0, T), signs +-1, per-kick area."""

    times: tuple
    signs: tuple
    area: float = math.pi

    def __post_init__(self):
        if len(self.times) != len(self.signs):
            raise ValueError("times and signs must have equal length")
        if not all(math.isfinite(t) for t in self.times):
            raise ValueError("kick times must be finite")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("kick times must be strictly ascending")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")
        if not math.isfinite(self.area):
            raise ValueError(f"kick area must be finite, got {self.area}")


def _amplitude(J: float, p: float, rng: np.random.Generator) -> float:
    return J * (1.0 - p * (0.5 - rng.random()))


def generate_segments(train: PulseTrain, T: float) -> tuple:
    """Tile [0, T] with the train's piecewise-constant c(t).

    POSITIVE_SQUARE alternates [on, off] segments of length dt (duty 50%),
    a fresh random amplitude per on-segment.  ZERO_ENERGY_ALTERNATING flips
    the sign each segment, fresh amplitude per segment.  NO_CONTROL and the
    delta-kick kinds give a single zero segment (kicks live in a
    KickSchedule, not in segments).
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if train.kind in SQUARE_KINDS and train.dt >= T:
        raise ValueError(f"dt {train.dt} must be smaller than T {T}")
    if train.kind is ControlKind.NO_CONTROL or train.kind in KICK_KINDS:
        return (ControlSegment(0.0, T, 0.0),)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(train.seed)))
    segments = []
    k = 0
    while True:
        t0 = k * train.dt
        if t0 >= T * (1.0 - 1e-12):
            break
        t1 = min((k + 1) * train.dt, T)
        if train.kind is ControlKind.POSITIVE_SQUARE:
            value = _amplitude(train.J, train.p, rng) if k % 2 == 0 else 0.0
        else:
            value = _amplitude(train.J, train.p, rng) * (-1.0) ** k
        segments.append(ControlSegment(t0, t1, value))
        k += 1
    return tuple(segments)


def validate_tiling(segments, T: float | None = None, tol: float = 1e-12) -> float:
    """Check the segments cover [0, T] without gaps or overlap; return T."""
    if not segments:
        raise ValueError("empty segment list")
    if abs(segments[0].t_start) > tol:
        raise ValueError(f"segments must start at 0, got {segments[0].t_start}")
    for a, b in zip(segments, segments[1:]):
        if abs(a.t_end - b.t_start) > tol:
            raise ValueError(f"gap or overlap at t={a.t_end} vs {b.t_start}")
    span = segments[-1].t_end
    if T is not None and abs(span - T) > tol * max(1.0, T):
        raise ValueError(f"segments span {span}, expected {T}")
    return span


def integral_C(segments, t: float) -> float:
    """C(t) = int_0^t [1 + c(s)] ds, exact for piecewise-constant c."""
    span = validate_tiling(segments)
    tol = 1e-9 * max(span, 1.0)
    if t < -tol or t > span + tol:
        raise ValueError(f"time {t} outside tiled range [0, {span}]")
    t = min(max(t, 0.0), span)
    total = 0.0
    for seg in segments:
        if t >= seg.t_end:
            total += (1.0 + seg.value) * seg.length
        else:
            total += (1.0 + seg.value) * max(t - seg.t_start, 0.0)
            break
    return total


def mean_control(segments, kicks: KickSchedule | None = None) -> float:
    """(1/T) * int c dt over the tiled span, including off intervals."""
    span = validate_tiling(segments)
    return net_area(segments, kicks) / span


def net_area(segments, kicks: KickSchedule | None = None) -> float:
    """int c dt -- the net energy-cost proxy.  Delta kicks add sign*area each."""
    total = sum(seg.value * seg.length for seg in segments)
    if kicks is not None:
        total += kicks.area * sum(kicks.signs)
    return total


def resonance_condition(J: float, dt: float, tol: float = 1e-6):
    """Whether J*dt sits within tol of 2*pi*n; returns (is_resonant, nearest n >= 1)."""
    if J <= 0 or dt <= 0:
        raise ValueError("J and dt must be positive")
    n = max(1, round(J * dt / TWO_PI))
    return abs(J * dt - TWO_PI * n) <= tol, n


def make_kicks(kind: ControlKind, T: float, interval: float, seed: int = 0,
               jitter: float = 0.0, area: float = math.pi) -> KickSchedule:
    """Kick instants on a jittered grid i*interval, i = 1, 2, ... inside (0, T).

    jitter in [0, 1] displaces each instant by uniform(-1/2, 1/2) * jitter *
    interval, which keeps the times strictly ascending.  Signs are all +1
    for the positive kind and alternate starting at +1 for the zero-energy
    kind.
    """
    if kind not in KICK_KINDS:
        raise ValueError(f"not a delta-kick kind: {kind}")
    if not 0.0 < interval < T:
        raise ValueError(f"interval must lie in (0, T), got {interval}")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must lie in [0, 1], got {jitter}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    times = []
    i = 1
    while True:
        t = i * interval
        if t >= T * (1.0 - 1e-12):
            break
        if jitter > 0.0:
            t += interval * jitter * (rng.random() - 0.5)
        if 0.0 < t < T:
            times.append(t)
        i += 1
    if kind is ControlKind.DELTA_KICK_POSITIVE:
        signs = tuple(1 for _ in times)
    else:
        signs = tuple((-1) ** i for i in range(len(times)))
    return KickSchedule(tuple(times), signs, area)
