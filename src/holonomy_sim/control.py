"""Control functions c(t) that accelerate the adiabatic passage.

The dynamics only sees the running integral C(t) = int_0^t [1 + c(s)] ds,
so very different pulse shapes (strong positive squares, zero-mean
alternating squares, even delta kicks) act identically whenever their
integrals agree modulo 2*pi.  This module lays out every train as a
Segments -- piecewise-constant values over edges, plus delta kicks -- and
computes its integral and areas.  A job of trains that share their edges
and kick instants (the realizations of a sweep job) is one Segments too:
the layout is built and validated once, and the values form one (rows, n)
matrix, with one row of kick signs per train; one train is the one-row
case, stored with (n,) values.

Randomness is drawn from numpy's PCG64 seeded through SeedSequence, one
fresh uniform r per (on-)segment in time order, so a (kind, J, dt, p, seed,
T) tuple always reproduces the same train bit for bit, alone or as a row
of a job.

RNG_DESCRIPTION documents the exact scheme for run manifests.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

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


@dataclass(frozen=True, eq=False)
class Segments:
    """The realized c(t) of one train, or of a job of trains on one layout.

    The layout is the edges and the kick instants: values[..., k] holds on
    [edges[k], edges[k + 1]]; the edges start at 0 and ascend strictly, so
    they tile [0, span] with no gap or overlap, and the kick instants
    ascend strictly inside (0, span).  One train has values of shape (n,)
    and kick_signs of shape (m,): kick i adds a delta of area kick_signs[i]
    * KICK_AREA at kick_times[i].  A job has a (rows, n) value matrix and a
    (rows, m) sign matrix, one row per train.  Segments(edges, values) has
    no kicks.  Every number is finite, the signs are +-1, and all fields
    are stored as read-only arrays (the signs as ints); segments compare
    equal when their fields have equal shapes and values.
    """

    edges: np.ndarray
    values: np.ndarray
    kick_times: np.ndarray = ()
    kick_signs: np.ndarray = ()

    def __post_init__(self):
        edges = np.array(self.edges, dtype=float)
        values = np.array(self.values, dtype=float)
        times = np.array(self.kick_times, dtype=float)
        signs = np.array(self.kick_signs)
        if not signs.size:  # no kicks: an empty row of signs per train
            signs = signs.reshape(values.shape[:-1] + (0,))
        if (edges.ndim != 1 or values.ndim not in (1, 2) or not values.size
                or len(edges) != values.shape[-1] + 1):
            raise ValueError(f"need n + 1 edges for n >= 1 values, got "
                             f"{np.shape(edges)} edges and {values.shape[-1:]} values")
        if not (np.isfinite(edges).all() and np.isfinite(values).all()):
            raise ValueError("segment edges and values must be finite")
        if edges[0] != 0.0:
            raise ValueError(f"segments must start at 0, got {edges[0]}")
        if not (edges[1:] > edges[:-1]).all():
            raise ValueError("segment edges must ascend strictly")
        if times.ndim != 1 or signs.shape != values.shape[:-1] + times.shape:
            raise ValueError(f"kick times and signs must have equal length, got "
                             f"{np.shape(times)} times and {signs.shape[-1:]} signs")
        if not np.isfinite(times).all():
            raise ValueError("kick times must be finite")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("kick times must be strictly ascending")
        if not ((signs == 1) | (signs == -1)).all():
            raise ValueError("kick signs must be +-1")
        if len(times) and not (0.0 < times[0] and times[-1] < edges[-1]):
            raise ValueError("kick instants must lie strictly inside (0, span)")
        for name, array in (("edges", edges), ("values", values), ("kick_times", times),
                            ("kick_signs", signs.astype(int, copy=False))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, Segments):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __len__(self) -> int:
        return self.values.shape[-1]

    @property
    def span(self) -> float:
        return float(self.edges[-1])


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


def _rng(seed: int) -> np.random.Generator:
    """The generator of a train's draws: PCG64 seeded through SeedSequence(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _layout(train: PulseTrain):
    """What the edges and kick instants of train over a given T depend on."""
    if train.kind is ControlKind.NO_CONTROL:
        return None
    if train.kind in KICK_KINDS:  # the jitter p/2 of the instants is seeded
        return "kicks", train.dt, train.p, train.seed if train.p else 0
    return "squares", train.dt


def generate_segments(trains: PulseTrain | list, T: float) -> Segments:
    """The realized c(t) over [0, T] of one train, or of a job of trains on one layout.

    trains is one PulseTrain, which gives values of shape (n,) and kick
    signs of shape (m,), or a sequence of trains that share their edges and
    kick instants, which gives one row of values and signs per train: they
    may differ in J, in the seed and kind of a square train, and in the
    kind of a kick train, whose instants are seeded only when p > 0.  The
    layout is built once, from the first train, and validated once, with
    the values, by Segments; each train draws its values from its own seed,
    so a row has the bits of its train alone.

    POSITIVE_SQUARE alternates [on, off] segments of length dt (duty 50%),
    a fresh random amplitude per on-segment.  ZERO_ENERGY_ALTERNATING flips
    the sign each segment, fresh amplitude per segment.  Edge k is k*dt, the
    last one min(n*dt, T).  NO_CONTROL is a single zero segment, and the
    delta-kick kinds are that segment plus the kicks of _kick_times at
    spacing dt with jitter p/2, seeded by train.seed: all +1 for the
    positive kind, alternating from +1 for the zero-energy kind.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    rows = [trains] if isinstance(trains, PulseTrain) else list(trains)
    if not rows:
        raise ValueError("need at least one train")
    first = rows[0]
    if any(_layout(train) != _layout(first) for train in rows[1:]):
        raise ValueError("trains of one job must share their segment edges and kick times")
    if first.kind is not ControlKind.NO_CONTROL and first.dt >= T:
        raise ValueError(f"dt {first.dt} must be smaller than T {T}")
    edges, times = np.array([0.0, T]), np.empty(0)
    if first.kind in KICK_KINDS:
        times = _kick_times(T, first.dt, first.seed, first.p / 2.0)
    elif first.kind is not ControlKind.NO_CONTROL:
        starts = _multiples_below(first.dt, T, 0)
        edges = np.append(starts, min(len(starts) * first.dt, T))
    n = len(edges) - 1
    values = np.zeros((len(rows), n))
    signs = np.ones((len(rows), len(times)), dtype=int)
    for row, sign, train in zip(values, signs, rows):
        if train.kind is ControlKind.DELTA_KICK_ALTERNATING:
            sign[1::2] = -1
        elif train.kind is ControlKind.POSITIVE_SQUARE:
            row[0::2] = train.J * (1.0 - train.p * (0.5 - _rng(train.seed).random((n + 1) // 2)))
        elif train.kind is ControlKind.ZERO_ENERGY_ALTERNATING:
            row[:] = train.J * (1.0 - train.p * (0.5 - _rng(train.seed).random(n)))
            row[1::2] *= -1.0
    if isinstance(trains, PulseTrain):
        values, signs = values[0], signs[0]
    return Segments(edges, values, times, signs)


def integral_C(segments: Segments, t: float):
    """C(t) = int_0^t [1 + c(s)] ds, exact; a kick at an instant <= t adds sign*KICK_AREA.

    A float for one train, a list of one per row for a job (see net_area).
    """
    span = segments.span
    tol = 1e-9 * max(span, 1.0)
    if not -tol <= t <= span + tol:
        raise ValueError(f"time {t} outside tiled range [0, {span}]")
    t = min(max(t, 0.0), span)
    edges = segments.edges
    covered = np.clip(t - edges[:-1], 0.0, np.diff(edges))
    kicked = np.searchsorted(segments.kick_times, t, side="right")
    return _per_train((1.0 + segments.values) * covered, segments.kick_signs[..., :kicked])


def mean_control(segments: Segments):
    """(1/T) * int c dt over the tiled span, including off intervals and kicks.

    A float for one train, a list of one per row for a job (see net_area).
    """
    areas = net_area(segments)
    span = segments.span
    return areas / span if segments.values.ndim == 1 else [a / span for a in areas]


def net_area(segments: Segments):
    """int c dt -- the net energy-cost proxy.  Delta kicks add sign*KICK_AREA each.

    A float for one train, a list of one per row for a job.
    """
    return _per_train(segments.values * np.diff(segments.edges), segments.kick_signs)


def _per_train(smooth: np.ndarray, signs: np.ndarray):
    """sum(smooth) + KICK_AREA * sum(signs) of one train, or a list of them, one
    per row of a job: sequential float sums and exact integer ones, so a row
    has the bits of its train alone."""
    kicks = signs.sum(axis=-1).tolist()
    if smooth.ndim == 1:
        return sum(smooth.tolist()) + KICK_AREA * kicks
    return [sum(a) + KICK_AREA * s for a, s in zip(smooth.tolist(), kicks)]


def resonance_condition(J: float, dt: float):
    """Whether J*dt sits within RESONANCE_TOL of 2*pi*n.

    Returns (is_resonant, nearest n >= 1).
    """
    if J <= 0 or dt <= 0:
        raise ValueError("J and dt must be positive")
    n = max(1, round(J * dt / TWO_PI))
    return abs(J * dt - TWO_PI * n) <= RESONANCE_TOL, n


def _kick_times(T: float, interval: float, seed: int, jitter: float) -> np.ndarray:
    """Kick instants on a jittered grid i*interval, i = 1, 2, ... inside (0, T).

    jitter in [0, 1] displaces each instant by uniform(-1/2, 1/2) * jitter *
    interval, which keeps the times strictly ascending.
    """
    times = _multiples_below(interval, T, 1)
    if jitter > 0.0:
        times = times + interval * jitter * (_rng(seed).random(len(times)) - 0.5)
    return times[(0.0 < times) & (times < T)]
