"""Time-ordered propagation under [1 + c(t)] H(t), lab and adiabatic frames.

Stepping is midpoint-sampled piecewise-constant exponentiation: each step
applies exp(-i * [1 + c(t_mid)] * H(t_mid) * dt).  Step boundaries always
coincide with control-segment boundaries (square pulses are represented
without smearing) and with kick instants.  A train is one control.Segments,
kicks included; its delta kicks are applied as the exact factors
exp(-+i * pi * H(tau)) = I - 2 H(tau)^2 (control.KICK_AREA = pi), never
resolved in time.  The two signs give the same factor on the spectrum
{-1, 0, 1}, so a kick's sign is not read here: it enters only the areas
of control (net_area, integral_C).

The lab frame is one array pipeline for every gate kind and for a batch
of trains that share their segment edges and kick instants (the
realizations of a sweep job, see experiments): one step grid, the lambda
couplings (x, y) of the generator at all midpoints and kick instants, the
exponentials of their 3x3 blocks in the closed form that H^3 = H allows
(no eigendecomposition) for every distinct row of exponents, and a
pairwise time-ordered product, all as whole-array numpy calls.  The
exponentials stay in qcore's plane memory (entry (i, j) of every factor
one contiguous array) up to the product, so each product level is three
whole-plane multiply-adds, not one small matmul per factor.  Kick factors
sit in the same stack as the steps, in time order.  The factor instants
and exponents are laid out in one pass into the arrays the product reads
(see _factors): the step bounds are built in place, the kick instants
merged in by one sort, and every kick instant doubled, so that the
midpoints and widths of that one array are the instants and widths of all
factors, a kick spanning no time.  One search per segment start splits
the instants into segments, and (1 + c) * dt is the segment values
repeated over them and multiplied by the widths in place; without kicks
nothing is copied.  The factor axis is processed in aligned blocks of a
power-of-two width (see _block_width), so memory is bounded by one block
while U stays bit-identical to one reduction over the whole stack.  Each
block stops its reduction part way (see _top_depth), and the nodes of all
blocks finish the tree together.  The blocks of a batch write into one
workspace allocated once per batch (see _chunked_product), so no block
allocates a stack of its own.  Trains of a batch with equal segment
values (the J = 0 realizations of a sweep, or one kick layout under two
sign patterns) are propagated once.  The product is embedded into
spec.dim at the end.

The adiabatic frame evolves the amplitudes over the instantaneous
eigenbasis (D0, D1, B+, B-) of the phase-gate generator.  Because all
eigenvalue differences are constant, the control enters that frame only
through the integral C(t) -- the mechanism behind the control scheme's
insensitivity to pulse details.  It takes trains without kicks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import KICK_AREA, MAX_STEPS, Segments
from .hamiltonians import GateSpec, Schedule, gate_generators
from .qcore import (_matrices, lambda_work_size, matexp_hermitian_stack, matexp_lambda_stack,
                    ordered_product, unitarity_defect)

# Auto step refinement: about this many steps per drive period when the
# policy does not pin max_step.  Calibrated so that halving the step at
# T=10 (no control) moves |<D1|U|D1>| by under 1e-6.
DEFAULT_STEPS_PER_PERIOD = 4096

MIN_SUBSTEPS = 20

# The block widths of the chunked time-ordered product; _block_width
# states the rule.  Measured on the sweeps: a 32-row batch in 1024-wide
# blocks peaks about 9 MiB higher and runs slower, while the 10-row batches
# of a dt sweep run slower in narrower blocks.  The 1-row cphase bench gate
# (20,000 factors, 2 cores) runs about a fifth faster in 2048-wide blocks
# than in 1024 at the same peak RSS; 4096 is faster still but peaks about
# 1 MiB higher.
CHUNK = 1024
CHUNK_FULL_ROWS = 16

# Entries (rows times nodes per row) at which a block of _chunked_product
# stops its pairwise reduction; the nodes of all blocks then finish the
# tree together.  Each level of the product costs a few numpy calls, so the
# levels below this width are nearly all call overhead when run per block.
# Measured in-process on the bench kick pair (one row of 24,094 factors)
# and cphase gate (20,000): 16 to 256 ran 5-10% faster than reducing every
# block to one node, and 1024 ran slower than that on the kick pair and on
# the 29-row mean-control batch.
TOP_NODES = 64


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


def _bounds(segments: Segments, policy: StepPolicy):
    """Step boundaries with the kick instants merged in, and the position of every kick.

    Returns (bounds, kick_pos): step k runs from bounds[k] to bounds[k + 1],
    and kick i sits at bounds[kick_pos[i]], right before the step that
    starts there.  Only the segment edges and the kick instants enter, so
    one grid serves every train that shares them.  Raises ValueError,
    before allocating, when the steps and kicks together exceed MAX_STEPS.
    """
    span = segments.span
    max_step = policy.max_step if policy.max_step is not None else span / DEFAULT_STEPS_PER_PERIOD
    edges = np.asarray(segments.edges)
    starts, lengths = edges[:-1], np.diff(edges)
    # an overflowing count, or one over a max_step that underflowed to 0, is
    # inf, rejected below
    with np.errstate(over="ignore", divide="ignore"):
        counts = np.maximum(policy.substeps_per_segment, np.ceil(lengths / max_step - 1e-9))
    total = counts.sum() + len(segments.kick_times)
    if not total <= MAX_STEPS:
        raise ValueError(f"the run needs {total:.0f} steps and kicks, above the cap "
                         f"MAX_STEPS = {MAX_STEPS}")
    counts = counts.astype(int)
    # edge j+1 of a segment: t_start + length * (j + 1) / n, built in place in
    # bounds[1:] so that at most one other full-length array is alive
    bounds = np.empty(counts.sum() + 1)
    bounds[0] = 0.0
    offsets = bounds[1:]
    # j + 1 as floats: ones whose running sum drops back to 1 at each segment start
    first = np.cumsum(counts) - counts
    offsets.fill(1.0)
    offsets[first[1:]] = 1.0 - counts[:-1]
    np.cumsum(offsets, out=offsets)
    with np.errstate(over="ignore"):  # length * (j + 1) passes the float range for a huge span
        offsets *= np.repeat(lengths, counts)
    offsets /= np.repeat(counts, counts)
    huge = np.flatnonzero(np.isinf(offsets))
    if len(huge):
        seg = np.searchsorted(first, huge, side="right") - 1
        offsets[huge] = lengths[seg] * ((huge - first[seg] + 1) / counts[seg])
    offsets += np.repeat(starts, counts)
    bounds[-1] = span
    kick_times = np.fromiter(segments.kick_times, float, len(segments.kick_times))
    if len(kick_times):
        # one sort, dropping exact duplicates (a kick on a step bound) as np.unique does
        bounds = np.concatenate((bounds, kick_times))
        bounds.sort()
        new = bounds[1:] != bounds[:-1]
        if not new.all():
            bounds = bounds[np.concatenate(([True], new))]
    return bounds, np.searchsorted(bounds, kick_times)


def _midpoints(bounds: np.ndarray) -> np.ndarray:
    """0.5 * (bounds[k] + bounds[k + 1]) of every step, formed in place."""
    mids = np.add(bounds[1:], bounds[:-1])
    mids *= 0.5
    return mids


def _segment_counts(segments: Segments, ts: np.ndarray) -> np.ndarray:
    """How many of the ascending instants ts lie in each segment.

    An instant belongs to the last segment that starts at or before it,
    the rule np.searchsorted(starts, ts, side="right") - 1 applies to each
    instant; since ts ascends, one search per segment start finds the same
    split.  The bounds a segment is cut into can end an ulp off its edge,
    and a kick on the edge then leaves a sliver of one segment's steps on
    the other side, so the counts are read off the instants, not off the
    number of steps each segment was cut into.
    """
    ends = np.searchsorted(ts, segments.edges[1:-1])
    return np.diff(ends, prepend=0, append=len(ts))


def _step_exponents(values, counts: np.ndarray, widths: np.ndarray,
                    ts: np.ndarray) -> np.ndarray:
    """(1 + c) * dt at every instant of ts, one row per tuple of segment values.

    counts[s] consecutive instants lie in segment s (see _segment_counts)
    and widths holds their dt.  Every row comes from one (rows, segments)
    matrix of segment values, repeated into the result and multiplied by
    the widths in place.  Raises ValueError when an exponent is not
    finite, i.e. when the control amplitude times dt overflows.
    """
    exponents = np.repeat(1.0 + np.array(values), counts, axis=1)
    with np.errstate(over="ignore"):
        exponents *= widths
    if not np.all(np.isfinite(exponents)):
        b, k = np.unravel_index(np.argmin(np.isfinite(exponents)), exponents.shape)
        raise ValueError(f"step exponent (1 + c) * dt = {exponents[b, k]} at "
                         f"t = {ts[k]:.6g} is not finite: the control amplitude overflows")
    return exponents


def _factors(train: Segments, values: list, policy: StepPolicy):
    """Instants and exponents of every factor of a batch, and its number of steps.

    train gives the segment edges and kick instants, values one tuple of
    segment values per row.  Returns (ts, taus, kicks, steps): factor k
    sits at ts[k] with exponent taus[b, k] in row b.  The steps contribute
    their midpoints and (1 + c) * dt, and kick i its instant and KICK_AREA
    in every row, right before the step that starts at that instant;
    kicks holds the indices of the kick factors.  ts and taus are
    allocated once at their final length: the midpoints and widths of one
    array of bounds in which every kick instant appears twice, and the
    exponents repeated from the segment values and multiplied in place.
    """
    bounds, kick_pos = _bounds(train, policy)
    steps = len(bounds) - 1
    kicks = kick_pos + np.arange(len(kick_pos))
    if len(kicks):
        # every kick instant twice: the kick factor spans no time, and its
        # midpoint 0.5 * (t + t) is t exactly for any t a Schedule accepts
        reps = np.ones(len(bounds), dtype=np.intp)
        reps[kick_pos] = 2
        bounds = np.repeat(bounds, reps)
    ts, widths = _midpoints(bounds), np.diff(bounds)
    del bounds
    taus = _step_exponents(values, _segment_counts(train, ts), widths, ts)
    taus[:, kicks] = KICK_AREA
    return ts, taus, kicks, steps


def _block_width(rows: int) -> int:
    """Factors per row in one block of _chunked_product for a batch of rows.

    The largest power of two w with rows * w <= 4 * CHUNK (128 at 32 rows),
    and at least 1.  Up to CHUNK_FULL_ROWS rows it is held between CHUNK
    and 2 * CHUNK: 2048 for 1 and 2 rows, 1024 for 3 to 16.  Every width
    is a power of two, so the blocks align with the pairwise reduction tree.
    """
    width = 1 << max(0, (4 * CHUNK // rows).bit_length() - 1)
    if rows <= CHUNK_FULL_ROWS:
        return min(max(width, CHUNK), 2 * CHUNK)
    return width


def _top_depth(rows: int, width: int) -> int:
    """Levels of the pairwise tree that one block of _chunked_product reduces.

    A block of width factors per row stops at the largest power of two of
    nodes per row with rows * nodes <= TOP_NODES (at least 1), so its
    levels run on planes of at least about TOP_NODES entries.
    """
    nodes = min(width, 1 << max(0, (TOP_NODES // rows).bit_length() - 1))
    return (width // nodes).bit_length() - 1


def _chunked_product(spec: GateSpec, ts: np.ndarray, taus: np.ndarray, kicks=()):
    """Time-ordered product of exp(-i * taus[b, k] * H(ts[k])) over k, per row b.

    kicks holds the ascending indices of the factors that are pi pulses
    (see matexp_lambda_stack), none by default.  Returns (levels, (B, d, d)
    products).  The factor axis is walked in aligned blocks of
    _block_width(B): each block builds its couplings, exponentiates them for
    all B rows, and is reduced _top_depth levels, to about TOP_NODES / B
    nodes per row.  The nodes of all blocks are then
    reduced together, the top of the tree.  Because the width is a power of
    two, this performs exactly the multiplications of the pairwise tree of
    :func:`ordered_product` over the whole stack (an aligned block of 2^m
    factors is its first m levels), so the result is bit-identical while
    only one block of complex matrices is ever in memory.

    The blocks share one workspace, allocated here once per batch: the
    exponentials, one spare buffer and the nodes.  The spare holds the
    couplings (x as contiguous floats at its front, then y) and the closed
    form's temporaries until the exponentials exist, then the product
    levels and their term; the top of the tree
    runs in the exponentials, the spare and the nodes' own memory.  A short
    last block uses the front of each buffer, every entry of which it
    writes before reading.
    """
    rows, n = taus.shape
    kicks = np.asarray(kicks, dtype=int)
    width = _block_width(rows)
    depth = _top_depth(rows, width)
    w, n_nodes = min(width, n), -(-n >> depth)
    top = 9 * rows * ((n_nodes + 1) // 2)
    exps = np.empty(max(9 * rows * w, top), dtype=complex)
    spare = np.empty(max((w + 1) // 2 + w + lambda_work_size(w, rows * w), 9 * rows * w, top),
                     dtype=complex)
    flat = np.empty(9 * rows * n_nodes, dtype=complex)
    nodes = _stack(flat, rows, n_nodes)
    for start in range(0, n, width):
        m = min(width, n - start)
        lo, hi = np.searchsorted(kicks, (start, start + m))
        half = (m + 1) // 2
        levels, x, y = gate_generators(spec, ts[start:start + m],
                                       out=(spare[:half].view(float)[:m], spare[half:half + m]))
        us = matexp_lambda_stack(x, y, taus[:, start:start + m], out=_stack(exps, rows, m),
                                 work=spare[half + m:], pi_pulses=kicks[lo:hi] - start)
        # the levels alternate between the spare's front and the spent exponentials
        odd = 9 * rows * half
        at = start >> depth
        ordered_product(us, out=nodes[:, at:at + (-(-m >> depth))],
                        work=(spare[:odd], exps, spare[odd:]), depth=depth)
    return levels, ordered_product(nodes, work=(exps, flat, spare))


def _stack(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """(*shape, 3, 3) matrices held as planes (3, 3, *shape) at the front of a flat buffer."""
    return _matrices(buffer[:9 * math.prod(shape)].reshape((3, 3) + shape))


def propagate_lab_batch(spec: GateSpec, trains, policy: StepPolicy | None = None) -> list:
    """Lab-frame evolution of the gate generator under several control trains.

    trains is a sequence of Segments with equal edges and equal kick
    instants -- the realizations of a sweep job differ only in their random
    amplitudes and in J.  The step grid and the couplings are built once
    for all of them, and each distinct tuple of segment values adds one row
    of step exponents (1 + c) * dt: trains with equal values share a row.
    Kick i contributes the factor exp(-i * pi * H(t_i)) = I - 2 H(t_i)^2,
    exactly and whatever its sign (see matexp_lambda_stack), right before
    the step that starts at its instant; the signs enter only the areas of
    control.  Returns one PropagationResult per train, in order; each is
    bit-identical to propagating that train alone.
    """
    policy = policy or StepPolicy()
    trains = list(trains)
    if not trains:
        raise ValueError("need at least one train")
    first = trains[0]
    if any(t.edges != first.edges or t.kick_times != first.kick_times for t in trains[1:]):
        raise ValueError("trains of one batch must share their segment edges and kick times")
    rows = {}
    index = [rows.setdefault(t.values, len(rows)) for t in trains]
    ts, taus, kicks, steps = _factors(first, list(rows), policy)
    levels, products = _chunked_product(spec, ts, taus, kicks)
    results = []
    for row in index:
        u = np.eye(spec.dim, dtype=complex)
        u[np.ix_(levels, levels)] = products[row]
        results.append(PropagationResult(u, steps, unitarity_defect(u)))
    return results


def propagate_lab(spec: GateSpec, segments: Segments,
                  policy: StepPolicy | None = None) -> PropagationResult:
    """Lab-frame evolution under one control train: a batch of one."""
    return propagate_lab_batch(spec, [segments], policy)[0]


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
    """Adiabatic-frame evolution of a train without kicks; C(t) accumulated exactly per step.

    The (D1, D1) element of the result has the same modulus and phase as
    the lab-frame <D1(0)|U(T)|D1(0)> (dark states carry no dynamical
    phase), which is what the frame-equivalence checks compare.
    """
    if segments.kick_times:
        raise ValueError("the adiabatic frame takes no delta kicks")
    policy = policy or StepPolicy()
    bounds, _ = _bounds(segments, policy)
    mids, widths = _midpoints(bounds), np.diff(bounds)
    increments = _step_exponents([segments.values], _segment_counts(segments, mids),
                                 widths, mids)[0]
    c_start = np.concatenate([[0.0], np.cumsum(increments)[:-1]])
    c_mid = c_start + 0.5 * increments
    hs = adiabatic_hamiltonian(s, mids, c_mid)
    u = ordered_product(matexp_hermitian_stack(hs, widths))
    return PropagationResult(u, len(mids), unitarity_defect(u))
