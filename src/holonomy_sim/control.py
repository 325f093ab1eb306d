"""Control functions c(t) that accelerate the adiabatic passage.

The dynamics only sees the running integral C(t) = int_0^t [1 + c(s)] ds,
so very different pulse shapes (strong positive squares, zero-mean
alternating squares, even delta kicks) act identically whenever their
integrals agree modulo 2*pi.  This module lays out every train as one
Segments -- piecewise-constant values over edges, plus delta kicks -- and
computes its integral and areas.

Randomness is drawn from numpy's PCG64 seeded through SeedSequence, one
fresh uniform r per (on-)segment in time order, so a (kind, J, dt, p, seed,
T) tuple always reproduces the same train bit for bit.

RNG_DESCRIPTION documents the exact scheme for run manifests.
"""
from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import TWO_PI

# Cap on the segments, kicks or propagation steps of one run: about 0.5 GB of
# float64 grid arrays, far above the ~4e4 steps per run of the shipped configs.
MAX_STEPS = 10**7

# Area of every delta kick.  exp(-i pi H) = exp(+i pi H) = I - 2 H^2 on the
# integer spectrum {-1, 0, 1} of the logical generators, so a kick's sign
# never changes the gate, only the net area it adds: propagation applies
# every kick as that one exact factor and reads no sign, which enters only
# net_area and integral_C.
KICK_AREA = math.pi

# |J*dt - 2*pi*n| below which a dt-sweep row counts as resonant.
RESONANCE_TOL = 1e-6

RNG_DESCRIPTION = ("numpy PCG64 via SeedSequence(seed); sweep realization k of grid "
                   "point j uses SeedSequence([master_seed, j, k])")


class ControlKind(enum.Enum):
    NO_CONTROL = "no_control"
    POSITIVE_SQUARE = "positive_square"
    ZERO_ENERGY_ALTERNATING = "zero_energy_alternating"
    DELTA_KICK_POSITIVE = "delta_kick_positive"
    DELTA_KICK_ALTERNATING = "delta_kick_alternating"


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
        if not math.isfinite(self.J * (1.0 + self.p / 2.0)):
            raise ValueError(f"largest amplitude J*(1 + p/2) of J = {self.J}, p = {self.p} "
                             f"is not finite")
        if not math.isfinite(self.dt):
            raise ValueError(f"half-period dt must be finite, got {self.dt}")
        if self.kind is not ControlKind.NO_CONTROL and self.dt <= 0:
            raise ValueError(f"half-period dt must be positive, got {self.dt}")
        if self.seed < 0:
            raise ValueError(f"control seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Segments:
    """The realized c(t) of a train: piecewise-constant values plus delta kicks.

    values[k] holds on [edges[k], edges[k + 1]]; the edges start at 0 and
    ascend strictly, so they tile [0, span] with no gap or overlap.  Kick i
    adds a delta of area kick_signs[i] * KICK_AREA at kick_times[i]; the
    instants ascend strictly inside (0, span) and the signs are +-1.
    Segments(edges, values) has no kicks.  Every number is finite, and all
    fields are stored as tuples, so equal trains compare and hash equal.
    """

    edges: tuple
    values: tuple
    kick_times: tuple = ()
    kick_signs: tuple = ()

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        times = np.asarray(self.kick_times, dtype=float)
        signs = np.asarray(self.kick_signs)
        if (edges.ndim != 1 or values.ndim != 1 or not len(values)
                or len(edges) != len(values) + 1):
            raise ValueError(f"need n + 1 edges for n >= 1 values, got "
                             f"{np.shape(edges)} edges and {np.shape(values)} values")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(values))):
            raise ValueError("segment edges and values must be finite")
        if edges[0] != 0.0:
            raise ValueError(f"segments must start at 0, got {edges[0]}")
        if not np.all(edges[1:] > edges[:-1]):
            raise ValueError("segment edges must ascend strictly")
        if times.ndim != 1 or signs.shape != times.shape:
            raise ValueError(f"kick times and signs must have equal length, got "
                             f"{np.shape(times)} times and {np.shape(signs)} signs")
        if not np.all(np.isfinite(times)):
            raise ValueError("kick times must be finite")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("kick times must be strictly ascending")
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("kick signs must be +-1")
        if len(times) and not (0.0 < times[0] and times[-1] < edges[-1]):
            raise ValueError("kick instants must lie strictly inside (0, span)")
        object.__setattr__(self, "edges", tuple(edges.tolist()))
        object.__setattr__(self, "values", tuple(values.tolist()))
        object.__setattr__(self, "kick_times", tuple(times.tolist()))
        object.__setattr__(self, "kick_signs", tuple(signs.astype(int).tolist()))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def span(self) -> float:
        return self.edges[-1]


def _multiples_below(step: float, T: float, first: int) -> np.ndarray:
    """k * step for k = first, first + 1, ... while below T * (1 - 1e-12).

    Raises ValueError, before allocating, when more than MAX_STEPS could fit.
    """
    count = np.floor(T / step) + 2  # inf when T / step overflows
    if not count <= MAX_STEPS:
        raise ValueError(f"T = {T:g} in steps of {step:g} needs {count:.6g} grid points, "
                         f"above the cap MAX_STEPS = {MAX_STEPS}")
    grid = np.arange(first, int(count)) * step
    return grid[grid < T * (1.0 - 1e-12)]


def generate_segments(train: PulseTrain, T: float) -> Segments:
    """The train's realized c(t) over [0, T]: the one layout of every kind.

    POSITIVE_SQUARE alternates [on, off] segments of length dt (duty 50%),
    a fresh random amplitude per on-segment.  ZERO_ENERGY_ALTERNATING flips
    the sign each segment, fresh amplitude per segment.  Edge k is k*dt, the
    last one min(n*dt, T).  NO_CONTROL is a single zero segment, and the
    delta-kick kinds are that segment plus the kicks of _make_kicks at
    spacing dt with jitter p/2, seeded by train.seed.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if train.kind is ControlKind.NO_CONTROL:
        return Segments((0.0, T), (0.0,))
    if train.dt >= T:
        raise ValueError(f"dt {train.dt} must be smaller than T {T}")
    if train.kind in KICK_KINDS:
        return Segments((0.0, T), (0.0,),
                        *_make_kicks(train.kind, T, train.dt, train.seed, train.p / 2.0))

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(train.seed)))
    starts = _multiples_below(train.dt, T, 0)
    n = len(starts)
    if train.kind is ControlKind.POSITIVE_SQUARE:
        values = np.zeros(n)
        values[0::2] = train.J * (1.0 - train.p * (0.5 - rng.random((n + 1) // 2)))
    else:
        values = train.J * (1.0 - train.p * (0.5 - rng.random(n)))
        values[1::2] *= -1.0
    return Segments(np.append(starts, min(n * train.dt, T)), values)


def integral_C(segments: Segments, t: float) -> float:
    """C(t) = int_0^t [1 + c(s)] ds, exact; a kick at an instant <= t adds sign*KICK_AREA."""
    span = segments.span
    tol = 1e-9 * max(span, 1.0)
    if not -tol <= t <= span + tol:
        raise ValueError(f"time {t} outside tiled range [0, {span}]")
    t = min(max(t, 0.0), span)
    edges = np.asarray(segments.edges)
    covered = np.clip(t - edges[:-1], 0.0, np.diff(edges))
    kicked = bisect.bisect_right(segments.kick_times, t)
    smooth = sum(((1.0 + np.asarray(segments.values)) * covered).tolist())
    return smooth + KICK_AREA * sum(segments.kick_signs[:kicked])


def mean_control(segments: Segments) -> float:
    """(1/T) * int c dt over the tiled span, including off intervals and kicks."""
    return net_area(segments) / segments.span


def net_area(segments: Segments) -> float:
    """int c dt -- the net energy-cost proxy.  Delta kicks add sign*KICK_AREA each."""
    total = sum((np.asarray(segments.values) * np.diff(segments.edges)).tolist())
    return total + KICK_AREA * sum(segments.kick_signs)


def resonance_condition(J: float, dt: float):
    """Whether J*dt sits within RESONANCE_TOL of 2*pi*n.

    Returns (is_resonant, nearest n >= 1).
    """
    if J <= 0 or dt <= 0:
        raise ValueError("J and dt must be positive")
    n = max(1, round(J * dt / TWO_PI))
    return abs(J * dt - TWO_PI * n) <= RESONANCE_TOL, n


def _make_kicks(kind: ControlKind, T: float, interval: float, seed: int, jitter: float):
    """(times, signs) of kicks on a jittered grid i*interval, i = 1, 2, ... inside (0, T).

    jitter in [0, 1] displaces each instant by uniform(-1/2, 1/2) * jitter *
    interval, which keeps the times strictly ascending.  Signs are all +1
    for the positive kind and alternate starting at +1 for the zero-energy
    kind.
    """
    times = _multiples_below(interval, T, 1)
    if jitter > 0.0:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        times = times + interval * jitter * (rng.random(len(times)) - 0.5)
    times = times[(0.0 < times) & (times < T)]
    if kind is ControlKind.DELTA_KICK_POSITIVE:
        return times, np.ones(len(times), dtype=int)
    return times, (-1) ** np.arange(len(times))
