"""Time-ordered propagation under [1 + c(t)] H(t), lab and adiabatic frames.

Stepping is midpoint-sampled piecewise-constant exponentiation: each step
applies exp(-i * [1 + c(t_mid)] * H(t_mid) * dt).  Step boundaries always
coincide with control-segment boundaries (square pulses are represented
without smearing) and with kick instants.  A train is one control.Segments,
kicks included, and so is a job of trains on one layout, whose values are
a (rows, n) matrix; its delta kicks are applied as the exact factors
exp(-+i * pi * H(tau)) = I - 2 H(tau)^2 (control.KICK_AREA = pi), never
resolved in time.  The two signs give the same factor on the spectrum
{-1, 0, 1}, so a kick's sign is not read here: it enters only the areas
of control (net_area, integral_C).

The lab frame is one array pipeline for every gate kind and for a batch
of trains that share their segment edges and kick instants (the
realizations of a sweep job, see experiments): one step grid, the lambda
couplings (x, y) of the generator at all midpoints and kick instants, the
exponentials of their 3x3 blocks in the closed form that H^3 = H allows
(no eigendecomposition), and a pairwise time-ordered product, all as
whole-array numpy calls on qcore's planes.  Kick factors sit among the
steps, in time order.  _factors lays out the factor instants and widths
in one pass, the one grid of both frames: every kick instant is merged
into the step bounds twice, so the midpoints and widths of that one array
are those of all factors (a kick spans no time).  The grid holds no
control value.  The control enters only through (1 + c) * dt, which each
call of the product forms for its own factors from the segment values,
so no array of rows times factors exponents is built.

The product is segment first: each control segment's factors (its steps
and the kicks inside it) are reduced by the pairwise tree to one node, and
each train's segment nodes by the pairwise tree in time order (see
_chunked_product).  This association depends only on the segment edges
and kick instants, which every train of a batch shares, so each train's U
is bit-identical to its propagation alone, while a segment is reduced once
per distinct value the batch's trains hold on it: the off segments of a
positive square train are 0 in every realization, and trains with equal
values throughout (the J = 0 realizations of a sweep, or one kick layout
under two sign patterns) are one row.  A one-segment train (no control,
delta kicks) keeps the whole stack's tree.  Every tree holds its factors
or nodes in qcore's tree order, one contiguous multiply a level, and
the full pieces of a long segment share their smaller levels' multiplies.
The distinct products are embedded into spec.dim as one stack.

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
from .hamiltonians import GateSpec, Schedule, _couplings
from .qcore import (_closed_form, _planes, matexp_hermitian_stack, ordered_product, tree_order,
                    tree_product, unitarity_defect)

# Auto step refinement: about this many steps per drive period when the
# policy does not pin max_step.  Calibrated so that halving the step at
# T=10 (no control) moves |<D1|U|D1>| by under 1e-6.
DEFAULT_STEPS_PER_PERIOD = 4096

MIN_SUBSTEPS = 20

# One call of the product takes at most BLOCK entries (rows times factors)
# and WIDTH factors a row; 288 workspace bytes an entry set the peak.  On 2
# cores (numpy 2.4.6, under _BUFSIZE), the 29-row mean-control job runs 10%
# faster at 10,240 entries than at 4096 and 4% faster than at 16,384, the dt
# sweep 13% and 5%; one row runs 10-25% faster at a WIDTH of 4096 than at
# 2048, and 8192 was mixed (the kick pair 7% faster, the mean-control job
# and sweep no faster).
BLOCK = 10240
WIDTH = 4096

# The product runs under a ufunc buffer of _BUFSIZE elements, set by
# propagate_lab_batch and restored on exit.  numpy copies the operands of a
# multiply through its buffer on every call when their contiguous run is
# shorter than about a third of the buffer: the plane blocks of a _matmul
# level, up to 2730 products at the default 8192, 170 here.  That copy
# nearly doubled the cost of a 3x3 product on most levels of one-row calls.
# 256-768 ran equally fast; 16 and 4096 lose most of the gain.
_BUFSIZE = 512


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
    kick_times = segments.kick_times
    if not len(kick_times):
        return bounds, np.zeros(0, dtype=np.intp)
    # one merge: a stable argsort finds the two ascending runs and merges them
    # in linear time, a kick on a step bound right after it, and the merge
    # order marks where the kicks went
    merged = np.concatenate((bounds, kick_times))
    order = np.argsort(merged, kind="stable")
    kick_pos = np.flatnonzero(order >= len(bounds))
    bounds = merged[order]
    # exact duplicates (a kick on a step bound) are dropped as np.unique does,
    # and every kick moves back by the duplicates before it: its position is
    # then that of np.searchsorted(bounds, kick_times)
    dup = np.flatnonzero(bounds[1:] == bounds[:-1])
    if len(dup):
        kick_pos -= np.searchsorted(dup, kick_pos)
        bounds = np.delete(bounds, dup + 1)
    return bounds, kick_pos


def _factors(train: Segments, policy: StepPolicy):
    """The factor grid of a layout: instants, widths, kicks, segment counts and steps.

    Returns (ts, widths, kicks, counts, steps): factor k sits at ts[k] and
    spans widths[k], kicks holds the indices of the kick factors, and
    counts[s] consecutive factors lie in segment s.  A step gives its
    midpoint and dt, and kick i its instant and width 0, right before the
    step that starts at that instant.  ts and widths are the midpoints and
    widths of one array of bounds in which every kick instant appears
    twice.  An instant belongs to the last segment that starts at or
    before it; since ts ascends, one search per segment start finds the
    split.  The bounds a segment is cut into can end an ulp off its edge,
    and a kick on the edge then leaves a sliver of one segment's steps on
    the other side, so the counts are read off the instants, not off the
    number of steps each segment was cut into.  No control value enters:
    one grid serves every train of a job, and both frames.
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
    ts = np.add(bounds[1:], bounds[:-1])
    ts *= 0.5
    widths = np.diff(bounds)
    del bounds
    counts = np.diff(np.searchsorted(ts, train.edges[1:-1]), prepend=0, append=len(ts))
    return ts, widths, kicks, counts, steps


def _check_exponents(values: np.ndarray, ts: np.ndarray, widths: np.ndarray,
                     counts: np.ndarray):
    """Raise ValueError when a step exponent (1 + values[r, s]) * widths[k] is not finite.

    Rounding is monotone, so a row's exponents on a segment are all
    finite exactly when the one at the segment's widest factor is: the
    check reads (rows, segments) products, and only a failing one is
    searched for the first factor, in row order, at which the control
    amplitude times dt overflows.
    """
    firsts = np.cumsum(counts) - counts
    with np.errstate(over="ignore"):
        top = (1.0 + values) * np.maximum.reduceat(widths, firsts)
    if not np.isfinite(top).all():
        r, s = np.unravel_index(np.argmin(np.isfinite(top)), top.shape)
        with np.errstate(over="ignore"):
            exponents = (1.0 + values[r, s]) * widths[firsts[s]:firsts[s] + counts[s]]
        k = np.argmin(np.isfinite(exponents))
        raise ValueError(f"step exponent (1 + c) * dt = {exponents[k]} at "
                         f"t = {ts[firsts[s] + k]:.6g} is not finite: the control "
                         f"amplitude overflows")


def _budget(m: int) -> int:
    """The most entries (rows times factors) one call of _chunked_product takes for m rows."""
    return min(BLOCK, WIDTH * m)


def _piece(m: int) -> int:
    """The factors of a full piece of a segment with m rows: at most half of _budget(m)."""
    return 1 << (_budget(m) // (2 * m)).bit_length() - 1


def _chunked_product(spec: GateSpec, ts: np.ndarray, widths: np.ndarray, values: np.ndarray,
                     kicks=(), counts=None, share=None):
    """Time-ordered product of exp(-i * tau[r, k] * H(ts[k])) over k, segment first.

    The factors fall into consecutive segments of counts[s] factors (one
    segment by default), and row r holds values[r, s] on segment s, so its
    exponents there are tau[r, k] = (1 + values[r, s]) * widths[k].  kicks
    holds the ascending indices of the factors that are pi pulses, whose
    exponent is KICK_AREA in every row (see matexp_lambda_stack), none by
    default.  share[r, s] is the first row that holds row r's value on
    segment s (r itself by default).  Returns (levels, (R, d, d)
    products), one per row of values.  The exponents are not checked (see
    _check_exponents).

    Each segment is reduced by tree_product once for each of its k_s
    distinct rows, and each row's segment nodes in time order, in aligned
    groups of the largest power of two of segments whose nodes (rows times
    segments) fit one call's _budget(rows), or of all of them: a group's
    nodes are those of the tree over the segments.  A segment is cut from
    its start into pieces of _piece(k_s) factors, the last one ragged:
    reduced in full, each is a node of the segment's tree, and a segment's
    piece nodes reduce to its own node with its bits.  The pieces of a
    group of one length and one k_s run together, in calls of at most
    _budget(k_s) entries, or a call each if full; then, for several,
    only down to the level at which all of them fit one piece, and those
    levels, as lanes, are one tree_product to the piece nodes, each with
    its own tree's pairs.  A call forms its half exponents tau / 2 in
    tree_order (factor, piece, row): the widths of its factors times half
    of 1 + c of each piece's distinct values, read from a (segments, rows)
    table that holds a segment's values in the order of the rows that first
    hold them; halving is exact, so they have the bits of 0.5 tau.  It
    writes its nodes where the next tree reads them: at the segment's
    place in its group, or the piece's in its segment.  The calls share
    one workspace, grown to the largest: the exponentials and a spare
    buffer that holds, as floats, the couplings x, Re y and Im y and the
    temporaries of the couplings and the closed form, then both for
    tree_product's work.
    """
    rows, segments = values.shape
    n = len(ts)
    counts = np.array([n]) if counts is None else np.asarray(counts)
    firsts = np.cumsum(counts) - counts
    # half of 1 + c on each segment of each row, so that no pass halves the exponents
    half_table = 0.5 * (1.0 + values).T
    if share is None:
        share = np.broadcast_to(np.arange(rows)[:, None], (rows, segments))
    own = share == np.arange(rows)[:, None]
    if not own.all():  # each segment's distinct values first, in row order
        half_table = np.take_along_axis(half_table, np.argsort(~own.T, axis=1, kind="stable"),
                                        axis=1)
    k = own.sum(axis=0)
    sizes = np.array([0] + [_piece(m) for m in range(1, rows + 1)])
    many = -(-counts // sizes[k])
    span = min(1 << (segments - 1).bit_length(),
               1 << max(1, _budget(rows) // rows).bit_length() - 1)
    bases = np.arange(0, segments, span)
    # the nodes of a group, at their tree positions: one per segment, then
    # the pieces of each segment of several
    slots = np.add.reduceat(np.where(many > 1, many + 1, 1), bases).max()
    nodes = np.empty((3, 3, slots, rows), dtype=complex)
    top = np.empty((3, 3, len(bases), rows), dtype=complex)
    # one allocation, grown as the calls need it: glibc's malloc then keeps it on
    # the heap from job to job (two halves, or a first one sized for a group of
    # nodes and then grown, were trimmed and faulted in by every job)
    exps = spare = np.empty(0, dtype=complex)

    def workspace(rows, factors):
        """The exponentials and the spare buffer: work for rows rows of factors."""
        nonlocal exps, spare
        if len(exps) < 9 * rows * factors:
            exps = spare = None  # freed before the larger pair is allocated
            exps, spare = np.split(np.empty(18 * rows * factors, dtype=complex), 2)
        return exps, spare

    is_kick = np.bincount(kicks, minlength=n) > 0 if len(kicks) else None
    # group at of the top tree holds the segments from base on
    for at, base in enumerate(bases[tree_order(len(bases))]):
        segs = base + tree_order(min(span, segments - base))
        several = np.flatnonzero(many[segs] > 1)
        # the group's pieces at their nodes: segment and index in it, those of
        # a segment of several after all, where it holds their reduced node
        seg = np.concatenate([segs] + [np.full(many[segs[j]], segs[j]) for j in several])
        index = np.concatenate([np.zeros(len(segs), dtype=int)]
                               + [tree_order(many[segs[j]]) for j in several])
        size, first = sizes[k[seg]], firsts[seg]
        start = first + index * size
        length = np.minimum(size, first + counts[seg] - start)
        length[several] = 0
        keys = length * (rows + 1) + k[seg]
        classes = ([np.arange(len(seg))] if (keys == keys[0]).all() else
                   [np.flatnonzero(keys == cls) for cls in sorted(set(keys[length > 0].tolist()))])
        for pieces in classes:
            m, width = int(k[seg[pieces[0]]]), int(length[pieces[0]])
            per = 1 if width == sizes[m] else _budget(m) // (m * width)
            per = -(-len(pieces) // -(-len(pieces) // per))  # nearly equal calls
            # straight into the nodes if they are consecutive and the rows all differ
            direct = m == rows and pieces[-1] - pieces[0] == len(pieces) - 1
            out = (nodes[:, :, pieces[0]:pieces[-1] + 1] if direct
                   else np.empty((3, 3, len(pieces), m), dtype=complex))
            # several full pieces, a call each, are reduced in their calls only down
            # to the level at which all of them fit one piece, then as lanes of one tree
            stop = max(1, width >> (len(pieces) - 1).bit_length()) if per == 1 < len(pieces) else 1
            lanes = np.empty((3, 3, stop, len(pieces), m), dtype=complex) if stop > 1 else out
            for i in range(0, len(pieces), per):
                part = pieces[i:i + per]
                c, w = len(part), len(part) * width
                cols = (tree_order(width)[:, None] + start[part]).ravel()
                exps, spare = workspace(m * c, width)
                # spare as floats: the couplings x, Re y and Im y, then the
                # temporaries of them and of the closed form (5 w + 2 w m of 18 w m)
                x, yr, yi = spare.view(float)[:3 * w].reshape(3, w, 1)
                work = spare.view(float)[3 * w:]
                levels = _couplings(spec, ts[cols], (x[:, 0], yr[:, 0], yi[:, 0]), work)
                # the half exponents, the widths times half of 1 + c, in place:
                # several rows' widths repeated first, so that the inner loop
                # runs over all c m values of the call, not over the m of a piece
                half = widths[cols] if m == 1 else np.repeat(widths[cols], m)
                np.multiply(half.reshape(width, c * m), half_table[seg[part], :m].reshape(c * m),
                            out=half.reshape(width, c * m))
                half = half.reshape(w, m)
                pulses = None
                if is_kick is not None:
                    pulses = np.flatnonzero(is_kick[cols])
                    half[pulses] = 0.5 * KICK_AREA
                _closed_form(x, yr, yi, half, exps[:9 * m * w].reshape(3, 3, w, m), work, pulses)
                del x, yr, yi, work  # views of the workspace, which a later call may grow
                tree_product(exps[:9 * m * w].reshape(3, 3, width, c, m), lanes[..., i:i + c, :],
                             (exps, spare), stop)
            if stop > 1:
                tree_product(lanes, out, (exps, spare))
            if not direct:  # row r reads node rank[r, j] of the m of piece j
                j, on = np.arange(len(pieces)), seg[pieces]
                rank = (np.cumsum(own[:, on], axis=0) - 1)[share[:, on], j]
                nodes[:, :, pieces] = out[:, :, j[:, None], rank.T]
        for j, end in zip(several, len(segs) + np.cumsum(many[segs[several]])):
            # the piece nodes of a segment reduced to its own
            tree_product(nodes[:, :, end - many[segs[j]]:end], nodes[:, :, j],
                         workspace(rows, many[segs[j]]))
        tree_product(nodes[:, :, :len(segs)], top[:, :, at], workspace(rows, len(segs)))
    products = np.empty((rows, 3, 3), dtype=complex)
    tree_product(top, _planes(products), workspace(rows, len(bases)))
    return levels, products


def _shared_values(values: np.ndarray):
    """For (rows, segments) values, the first row holding each row's value on each segment.

    Values are compared as numbers, so 0.0 and -0.0 are one value: both give
    the exponents dt.  A stable sort of each column starts each run of one
    value at its first row.  None when no two rows hold one value on a segment.
    """
    ranked = np.sort(values, axis=0)
    new = np.concatenate((np.ones((1, values.shape[1]), dtype=bool), ranked[1:] != ranked[:-1]))
    if new.all():
        return None
    order = np.argsort(values, axis=0, kind="stable")
    # the sorted position of each run's start, carried down the run
    runs = np.maximum.accumulate(np.where(new, np.arange(len(values))[:, None], 0), axis=0)
    share = np.empty_like(order)
    np.put_along_axis(share, order, np.take_along_axis(order, runs, axis=0), axis=0)
    return share


def propagate_lab_batch(spec: GateSpec, segments: Segments,
                        policy: StepPolicy | None = None) -> list:
    """Lab-frame evolution of the gate generator under a job of control trains.

    segments is one layout -- segment edges and kick instants -- with a
    (rows, n) matrix of segment values, one row per train (the realizations
    of a sweep job differ only in their random amplitudes and in J), or one
    train's (n,) values.  The step grid is built once for all of them, and
    trains with equal values share one row of the product, whose calls
    form their step exponents (1 + c) * dt.  The product is segment first
    (see the module docstring): on each segment, rows that hold one value
    share its exponentials and its node (see _shared_values).  Kick i
    contributes the factor exp(-i * pi * H(t_i)) = I - 2 H(t_i)^2, exactly
    and whatever its sign (see matexp_lambda_stack), right before the step
    that starts at its instant; the signs enter only the areas of control.
    The product runs under a ufunc buffer of _BUFSIZE elements, and the
    caller's buffer size is back in place on return or raise.  The
    distinct products are embedded into spec.dim and their unitarity
    defects taken as one stack.  Returns one PropagationResult per train,
    in order; each is bit-identical to propagating that train alone.
    """
    policy = policy or StepPolicy()
    values = segments.values.reshape(-1, len(segments))
    # rows compare as numbers: -0.0 + 0.0 is 0.0, and no value is NaN
    rows = {}
    index = [rows.setdefault(row.tobytes(), len(rows)) for row in values + 0.0]
    distinct = values[[index.index(r) for r in range(len(rows))]]
    ts, widths, kicks, counts, steps = _factors(segments, policy)
    _check_exponents(distinct, ts, widths, counts)
    with np.errstate():  # numpy restores the caller's buffer size on exit
        np.setbufsize(_BUFSIZE)
        levels, products = _chunked_product(spec, ts, widths, distinct, kicks, counts,
                                            _shared_values(distinct))
    us = np.tile(np.eye(spec.dim, dtype=complex), (len(products), 1, 1))
    levels = np.array(levels)
    us[:, levels[:, None], levels] = products
    defects = unitarity_defect(us).tolist()
    return [PropagationResult(u, steps, defects[row]) for u, row in zip(us[index], index)]


def propagate_lab(spec: GateSpec, segments: Segments,
                  policy: StepPolicy | None = None) -> PropagationResult:
    """Lab-frame evolution under one control train: a batch of one."""
    if segments.values.ndim != 1:
        raise ValueError("propagate_lab takes one train; propagate a job with "
                         "propagate_lab_batch")
    return propagate_lab_batch(spec, segments, policy)[0]


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
    if len(segments.kick_times):
        raise ValueError("the adiabatic frame takes no delta kicks")
    if segments.values.ndim != 1:
        raise ValueError("the adiabatic frame takes one train")
    ts, widths, _, counts, steps = _factors(segments, policy or StepPolicy())
    _check_exponents(segments.values[None], ts, widths, counts)
    increments = np.repeat(1.0 + segments.values, counts)
    increments *= widths
    c_start = np.concatenate([[0.0], np.cumsum(increments)[:-1]])
    c_mid = c_start + 0.5 * increments
    hs = adiabatic_hamiltonian(s, ts, c_mid)
    u = ordered_product(matexp_hermitian_stack(hs, widths))
    return PropagationResult(u, steps, unitarity_defect(u))
