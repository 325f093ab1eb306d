"""Control functions c(t) that accelerate the adiabatic passage.

The dynamics only sees the running integral C(t) = int_0^t [1 + c(s)] ds,
so very different pulse shapes (strong positive squares, zero-mean
alternating squares, even delta kicks) act identically whenever their
integrals agree modulo 2*pi.  This module generates the piecewise-constant
trains (as Segments: edges plus values) and delta-kick schedules, and
computes their integrals and areas.

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

# Cap on the segments, kicks or propagation steps of one run: about 0.5 GB of
# float64 grid arrays, far above the ~4e4 steps per run of the shipped configs.
MAX_STEPS = 10**7

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
        if not math.isfinite(self.J * (1.0 + self.p / 2.0)):
            raise ValueError(f"largest amplitude J*(1 + p/2) of J = {self.J}, p = {self.p} "
                             f"is not finite")
        if not math.isfinite(self.dt):
            raise ValueError(f"half-period dt must be finite, got {self.dt}")
        if self.kind is not ControlKind.NO_CONTROL and self.dt <= 0:
            raise ValueError(f"half-period dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class Segments:
    """Piecewise-constant c(t): values[k] on [edges[k], edges[k + 1]].

    The edges start at 0 and ascend strictly, so they tile [0, span] with
    no gap or overlap; every edge and value is finite.  Both fields are
    stored as tuples of floats, so equal trains compare and hash equal.
    """

    edges: tuple
    values: tuple

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if (edges.ndim != 1 or values.ndim != 1 or not len(values)
                or len(edges) != len(values) + 1):
            raise ValueError(f"need n + 1 edges for n >= 1 values, got "
                             f"{np.shape(edges)} edges and {np.shape(values)} values")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(values))):
            raise ValueError("segment edges and values must be finite")
        if edges[0] != 0.0:
            raise ValueError(f"segments must start at 0, got {edges[0]}")
        with np.errstate(over="ignore"):  # an overflowing step is -inf or +inf
            ascending = np.all(np.diff(edges) > 0.0)
        if not ascending:
            raise ValueError("segment edges must ascend strictly")
        object.__setattr__(self, "edges", tuple(edges.tolist()))
        object.__setattr__(self, "values", tuple(values.tolist()))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def span(self) -> float:
        return self.edges[-1]


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
    """Tile [0, T] with the train's piecewise-constant c(t).

    POSITIVE_SQUARE alternates [on, off] segments of length dt (duty 50%),
    a fresh random amplitude per on-segment.  ZERO_ENERGY_ALTERNATING flips
    the sign each segment, fresh amplitude per segment.  NO_CONTROL and the
    delta-kick kinds give a single zero segment (kicks live in a
    KickSchedule, not in segments).  Edge k is k*dt, the last one min(n*dt, T).
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if train.kind in SQUARE_KINDS and train.dt >= T:
        raise ValueError(f"dt {train.dt} must be smaller than T {T}")
    if train.kind is ControlKind.NO_CONTROL or train.kind in KICK_KINDS:
        return Segments((0.0, T), (0.0,))

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
    """C(t) = int_0^t [1 + c(s)] ds, exact for piecewise-constant c."""
    span = segments.span
    tol = 1e-9 * max(span, 1.0)
    if not -tol <= t <= span + tol:
        raise ValueError(f"time {t} outside tiled range [0, {span}]")
    t = min(max(t, 0.0), span)
    edges = np.asarray(segments.edges)
    covered = np.clip(t - edges[:-1], 0.0, np.diff(edges))
    return sum(((1.0 + np.asarray(segments.values)) * covered).tolist())


def mean_control(segments: Segments, kicks: KickSchedule | None = None) -> float:
    """(1/T) * int c dt over the tiled span, including off intervals."""
    return net_area(segments, kicks) / segments.span


def net_area(segments: Segments, kicks: KickSchedule | None = None) -> float:
    """int c dt -- the net energy-cost proxy.  Delta kicks add sign*area each."""
    total = sum((np.asarray(segments.values) * np.diff(segments.edges)).tolist())
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
    times = _multiples_below(interval, T, 1)
    if jitter > 0.0:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        times = times + interval * jitter * (rng.random(len(times)) - 0.5)
    times = times[(0.0 < times) & (times < T)]
    if kind is ControlKind.DELTA_KICK_POSITIVE:
        signs = np.ones(len(times), dtype=int)
    else:
        signs = (-1) ** np.arange(len(times))
    return KickSchedule(tuple(times.tolist()), tuple(signs.tolist()), area)
