import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holonomy_sim import propagation, qcore
from holonomy_sim.control import (KICK_AREA, MAX_STEPS, ControlKind, PulseTrain, Segments,
                                  generate_segments)
from holonomy_sim.experiments import config_from_dict, realization_seed
from holonomy_sim.hamiltonians import (DFS_INDICES, GateKind, GateSpec, Schedule,
                                       dark_states, exchange_hamiltonian, gate_generators,
                                       gate_hamiltonian, project_dfs, total_z)
from holonomy_sim.holonomy import berry_closed_form, evaluate_holonomy
from holonomy_sim.propagation import (DEFAULT_STEPS_PER_PERIOD, StepPolicy, _bounds,
                                      _chunked_product, _factors, _piece, _shared_values,
                                      adiabatic_hamiltonian, propagate_adiabatic, propagate_lab,
                                      propagate_lab_batch)
from holonomy_sim.qcore import (hermiticity_defect, matexp_hermitian_stack, matexp_lambda_stack,
                                ordered_product, unitarity_defect)

from conftest import closed_form_planes, matexp_hermitian

A_REF = 0.7605
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
NO_CONTROL = PulseTrain(ControlKind.NO_CONTROL)


def dark_amplitude(spec, result):
    d = dark_states(spec, 0.0)[-1]
    return complex(np.vdot(d, result.U @ d))


def kick_train(kind, T, interval, seed=0, jitter=0.0):
    """A delta-kick train laid out by generate_segments, jitter p/2 = jitter."""
    return generate_segments(PulseTrain(kind, dt=interval, p=2.0 * jitter, seed=seed), T)


def with_signs(train, signs):
    """train with its kick signs replaced."""
    return replace(train, kick_signs=tuple(signs))


def job(trains):
    """The trains, which share their layout, as one Segments: their values
    and kick signs as the rows of its matrices."""
    first = trains[0]
    return Segments(first.edges, [t.values for t in trains], first.kick_times,
                    [t.kick_signs for t in trains])


def loop_bounds(segments, policy):
    """Step boundaries built one edge at a time, as a reference for _bounds."""
    span = segments.span
    max_step = policy.max_step or span / DEFAULT_STEPS_PER_PERIOD
    edges = [0.0]
    for t0, t1 in zip(segments.edges, segments.edges[1:]):
        n = max(policy.substeps_per_segment, math.ceil((t1 - t0) / max_step - 1e-9))
        edges.extend(t0 + (t1 - t0) * (j + 1) / n for j in range(n))
    edges[-1] = span
    return sorted(set(edges) | set(segments.kick_times))


def segment_of(train, mids):
    """The segment of every midpoint, by searchsorted over the segment starts."""
    seg_idx = np.searchsorted(train.edges[:-1], mids, side="right") - 1
    return np.clip(seg_idx, 0, len(train) - 1)


def inserted_factors(train, values, policy):
    """(ts, widths, taus, kicks, steps) of the factors built step by step, as
    the reference of _factors and of the exponents the product forms.

    The edge-by-edge bounds of loop_bounds without the kicks, an np.unique
    merge of the kick instants, every midpoint's segment by searchsorted
    over the segment starts, and the kick factors, of width 0 and exponent
    KICK_AREA, put in by np.insert."""
    max_step = policy.max_step or train.span / DEFAULT_STEPS_PER_PERIOD
    bounds = [0.0]
    for t0, t1 in zip(train.edges, train.edges[1:]):
        n = max(policy.substeps_per_segment, math.ceil((t1 - t0) / max_step - 1e-9))
        bounds.extend(t0 + (t1 - t0) * (j + 1) / n for j in range(n))
    bounds[-1] = train.span
    kick_times = np.asarray(train.kick_times, dtype=float)
    bounds = np.array(bounds)
    if len(kick_times):
        bounds = np.unique(np.concatenate([bounds, kick_times]))
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    steps = (1.0 + np.take(np.array(values), segment_of(train, mids), axis=1)) * np.diff(bounds)
    kick_pos = np.searchsorted(bounds, kick_times)
    return (np.insert(mids, kick_pos, kick_times), np.insert(np.diff(bounds), kick_pos, 0.0),
            np.insert(steps, kick_pos, KICK_AREA, axis=1),
            kick_pos + np.arange(len(kick_pos)), len(mids))


def sequential_reference(spec, segments, policy):
    """Step-by-step eigh propagation: one matexp_hermitian per step and kick."""
    bounds = loop_bounds(segments, policy)
    kick_at = dict(zip(segments.kick_times, segments.kick_signs))
    u = np.eye(spec.dim, dtype=complex)
    for t0, t1 in zip(bounds, bounds[1:]):
        if t0 in kick_at:
            u = matexp_hermitian(gate_hamiltonian(spec, t0), kick_at[t0] * KICK_AREA) @ u
        mid = 0.5 * (t0 + t1)
        c = next(v for t, v in zip(segments.edges[-2::-1], segments.values[::-1])
                 if t <= mid)
        u = matexp_hermitian(gate_hamiltonian(spec, mid), (1.0 + c) * (t1 - t0)) @ u
    return u


@pytest.mark.parametrize("spec", [GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
                                  GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0)),
                                  GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))],
                         ids=lambda spec: spec.kind.value)
def test_closed_form_step_matches_eigh_exponential(spec, rng):
    ts = rng.uniform(0.0, 1.0, size=8)
    taus = np.concatenate([rng.uniform(-3.0, 3.0, size=6), [math.pi, -math.pi]])
    levels, x, y = gate_generators(spec, ts)
    steps = matexp_lambda_stack(x, y, taus)
    for t, tau, step in zip(ts, taus, steps):
        full = np.eye(spec.dim, dtype=complex)
        full[np.ix_(levels, levels)] = step
        expected = matexp_hermitian(gate_hamiltonian(spec, t), tau)
        assert np.max(np.abs(full - expected)) <= 1e-13


def test_cphase_run_with_control_matches_sequential_reference():
    spec = GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))
    train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=50.0, dt=0.05, p=1.0, seed=3)
    segments = generate_segments(train, 1.0)
    policy = StepPolicy(max_step=1.0 / 512)
    u = propagate_lab(spec, segments, policy=policy).U
    reference = sequential_reference(spec, segments, policy)
    assert np.max(np.abs(u - reference)) <= 1e-10
    # the coupled block is (5, 9, 13); every other level is left exactly alone
    rest = [i for i in range(16) if i not in (5, 9, 13)]
    np.testing.assert_array_equal(u[np.ix_(rest, rest)], np.eye(13))
    assert np.all(u[np.ix_(rest, [5, 9, 13])] == 0)
    assert np.all(u[np.ix_([5, 9, 13], rest)] == 0)


def test_kicked_phase_run_matches_sequential_reference():
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    train = kick_train(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 0.02, seed=5, jitter=0.4)
    policy = StepPolicy(max_step=1.0 / 1024)
    u = propagate_lab(spec, train, policy=policy).U
    assert np.max(np.abs(u - sequential_reference(spec, train, policy))) <= 1e-10


def test_step_grid_bounds_match_edge_by_edge_construction():
    segments = Segments((0.0, 0.3, 0.35, 1.0), (2.0, -1.0, 0.0))
    kicks = kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.07, seed=2, jitter=0.5)
    kicked = replace(segments, kick_times=kicks.kick_times, kick_signs=kicks.kick_signs)
    for policy in (StepPolicy(), StepPolicy(substeps_per_segment=33, max_step=0.003)):
        for train in (segments, kicked):
            bounds, kick_pos = _bounds(train, policy)
            np.testing.assert_array_equal(bounds, loop_bounds(train, policy))
            # the steps' midpoints and widths are those of the bounds, to the
            # bit, and the kicks' instants and widths their times and 0
            ts, widths, kicks, counts, _ = _factors(train, policy)
            assert np.array_equal(np.delete(ts, kicks), 0.5 * (bounds[1:] + bounds[:-1]))
            assert np.array_equal(np.delete(widths, kicks), np.diff(bounds))
            assert np.array_equal(ts[kicks], train.kick_times) and not widths[kicks].any()
            # every factor lies inside the segment it is counted in
            seg_all = np.repeat(np.arange(len(train)), counts)
            np.testing.assert_array_equal(seg_all, segment_of(train, ts))
            seg_idx = np.delete(seg_all, kicks)
            edges = np.asarray(train.edges)
            assert np.all(edges[seg_idx] <= bounds[:-1])
            assert np.all(bounds[1:] <= edges[seg_idx + 1])
            np.testing.assert_array_equal(bounds[kick_pos], train.kick_times)


def test_kick_positions_are_those_of_searchsorted_in_the_merged_bounds():
    # kicks between bounds, on step bounds (the duplicate is dropped), on a
    # segment edge and on consecutive bounds; and the full-size kick layout,
    # whose 9,999 kicks meet 15 step bounds
    segments = Segments((0.0, 0.3, 0.35, 1.0), (2.0, -1.0, 0.0))
    policy = StepPolicy()
    on = loop_bounds(segments, policy)
    kick_times = sorted({0.01, on[5], on[6], 0.3, 0.301, on[-2], 0.5 * (on[7] + on[8])})
    kicked = Segments(segments.edges, segments.values, tuple(kick_times), (1,) * len(kick_times))
    full = generate_segments(PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=1e-4), 1.0)
    for train, dropped in ((kicked, 4), (full, 15)):
        bounds, kick_pos = _bounds(train, policy)
        assert np.all(bounds[1:] > bounds[:-1])
        assert len(bounds) == len(_bounds(Segments(train.edges, train.values), policy)[0]) \
            + len(train.kick_times) - dropped
        assert kick_pos.dtype == np.intp
        np.testing.assert_array_equal(kick_pos, np.searchsorted(bounds, train.kick_times,
                                                                side="left"))
    # no kicks: no positions
    assert _bounds(segments, policy)[1].shape == (0,)


def test_step_grid_stays_finite_for_a_span_near_the_float_limit():
    # length * (j + 1) would overflow here; every edge must still be finite and increasing
    span = 2.8e307
    bounds, _ = _bounds(Segments((0.0, span), (0.0,)), StepPolicy())
    assert len(bounds) == DEFAULT_STEPS_PER_PERIOD + 1
    assert np.all(np.isfinite(bounds)) and np.all(np.diff(bounds) > 0)
    assert bounds[-1] == span
    u = propagate_lab(GateSpec(GateKind.PHASE, Schedule(A_REF, span)),
                      Segments((0.0, span), (0.0,))).U
    assert np.all(np.isfinite(u))


@pytest.mark.parametrize("T", [1e308, math.inf, 0.0, -1.0, math.nan])
def test_schedule_rejects_a_period_whose_phase_overflows(T):
    with pytest.raises(ValueError, match="period T must be positive"):
        Schedule(A_REF, T)


def test_step_grid_rejects_runs_above_the_cap():
    segments = Segments((0.0, 1.0), (0.0,))
    with pytest.raises(ValueError, match="needs 100000000 steps and kicks"):
        _bounds(segments, StepPolicy(max_step=1e-8))
    with pytest.raises(ValueError, match="needs inf steps"):
        _bounds(Segments((0.0, 1e300), (0.0,)), StepPolicy(max_step=1e-300))
    # kicks count toward the cap too
    kicked = Segments((0.0, 1.0), (0.0,), (0.25, 0.5, 0.75), (1, 1, 1))
    with pytest.raises(ValueError, match="above the cap MAX_STEPS"):
        _bounds(kicked, StepPolicy(max_step=1.0 / (MAX_STEPS - 2)))


@st.composite
def factor_batches(draw):
    """A train with one or many segments, kicks at random instants, on step
    bounds and on segment edges, a policy, and 1 or 29 rows of values."""
    many = draw(st.sampled_from([1, 40]))
    lengths = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=many))
    edges = tuple(np.concatenate([[0.0], np.cumsum(lengths)]).tolist())
    span = edges[-1]
    policy = draw(st.sampled_from([StepPolicy(), StepPolicy(max_step=span / 997),
                                   StepPolicy(substeps_per_segment=33, max_step=span / 2500)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_bounds = loop_bounds(Segments(edges, (0.0,) * len(lengths)), policy)[1:-1]
    kicks = rng.uniform(0.0, span, size=draw(st.integers(0, 60))).tolist()
    kicks += rng.choice(on_bounds, size=draw(st.integers(0, 10))).tolist()
    kicks += list(edges[1:-1])[:draw(st.integers(0, len(edges) - 2))]
    kicks = sorted({t for t in kicks if 0.0 < t < span})
    rows = draw(st.sampled_from([1, 29]))
    values = [tuple(rng.uniform(-5.0, 60.0, size=len(lengths)).tolist()) for _ in range(rows)]
    train = Segments(edges, values[0], tuple(kicks), (1,) * len(kicks))
    return train, values, policy


@settings(max_examples=60, deadline=None)
@given(factor_batches())
def test_factor_stack_is_bit_identical_to_the_inserted_construction(batch):
    train, values, policy = batch
    ts, widths, kicks, counts, steps = _factors(train, policy)
    ref_ts, ref_widths, ref_taus, ref_kicks, ref_steps = inserted_factors(train, values, policy)
    assert steps == ref_steps
    np.testing.assert_array_equal(counts, np.bincount(segment_of(train, ts),
                                                      minlength=len(train)))
    np.testing.assert_array_equal(kicks, ref_kicks)
    # the uint64 views also compare the signs of zeros
    assert np.array_equal(ts.view(np.uint64), ref_ts.view(np.uint64))
    assert np.array_equal(widths.view(np.uint64), ref_widths.view(np.uint64))
    # the exponents the product forms, widths times 1 + c of each factor's segment
    taus = np.repeat(1.0 + np.array(values), counts, axis=1) * widths
    taus[:, kicks] = KICK_AREA
    assert np.array_equal(taus.view(np.uint64), ref_taus.view(np.uint64))


def shared_grid_batches(T):
    """Batches of trains with equal edges and kick times: three seeded
    realizations of each square kind, and one kick schedule under both signs."""
    batches = [[generate_segments(PulseTrain(kind, J=J, dt=0.05, p=1.0, seed=seed), T)
                for seed in (1, 2, 3)]
               for kind, J in ((ControlKind.POSITIVE_SQUARE, 40.0),
                               (ControlKind.ZERO_ENERGY_ALTERNATING, 60.0))]
    pos = kick_train(ControlKind.DELTA_KICK_POSITIVE, T, 0.07, seed=2, jitter=0.5)
    alt = with_signs(pos, ((-1) ** i for i in range(len(pos.kick_times))))
    batches.append([pos, alt])
    return batches


@pytest.mark.parametrize("spec", [GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
                                  GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0)),
                                  GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))],
                         ids=lambda spec: spec.kind.value)
def test_batch_is_bit_identical_to_one_run_per_train(spec):
    for batch in shared_grid_batches(1.0):
        results = propagate_lab_batch(spec, job(batch))
        assert len(results) == len(batch)
        for train, result in zip(batch, results):
            alone = propagate_lab(spec, train)
            assert np.array_equal(result.U, alone.U)
            assert result.steps_taken == alone.steps_taken
            assert result.unitarity_defect == alone.unitarity_defect


def test_batch_rejects_trains_on_different_grids():
    # a job's layout is built once, from its first train
    a = PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.05)
    b = PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.04)
    kicks = PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.1, p=0.5, seed=1)
    for batch in ([a, b], [kicks, replace(kicks, seed=2)], [kicks, NO_CONTROL],
                  [a, replace(kicks, kind=ControlKind.DELTA_KICK_ALTERNATING, dt=0.05)]):
        with pytest.raises(ValueError, match="share their segment edges and kick times"):
            generate_segments(batch, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        generate_segments([], 1.0)
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    with pytest.raises(ValueError, match="propagate_lab takes one train"):
        propagate_lab(spec, generate_segments([a, replace(a, seed=3)], 1.0))


def test_trains_with_equal_values_share_one_row(monkeypatch):
    spec = GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))

    def train(J, seed):
        return generate_segments(
            PulseTrain(ControlKind.POSITIVE_SQUARE, J=J, dt=0.05, p=1.0, seed=seed), 1.0)

    # at J = 0 every seed gives the same all-zero values, and -0.0 is 0.0
    zero = train(0.0, 3)
    batch = [train(0.0, 1), train(40.0, 1), train(0.0, 2), train(40.0, 1), train(40.0, 2),
             zero, replace(zero, values=-zero.values)]
    assert np.signbit(batch[-1].values).all()
    rows = []
    chunked = propagation._chunked_product

    def spy(spec, ts, widths, values, *args):
        rows.append(len(values))
        return chunked(spec, ts, widths, values, *args)

    monkeypatch.setattr(propagation, "_chunked_product", spy)
    results = propagate_lab_batch(spec, job(batch))
    assert rows == [3]
    for segments, result in zip(batch, results):
        alone = propagate_lab(spec, segments)
        assert np.array_equal(result.U, alone.U)
        assert result.unitarity_defect == alone.unitarity_defect
    assert not np.shares_memory(results[0].U, results[2].U)


# 1 to 2048 factors of a 3-row batch are one piece, 1023 to 1025 the old
# piece size's edge; 2049, 3077 and 6149 are pieces of _piece(3) = 2048 and a
# ragged last piece of 1, 1029 and 5
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2047, 2048, 2049, 3077, 6149])
def test_chunked_product_is_bit_identical_to_whole_stack(n, rng):
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    ts = np.sort(rng.uniform(0.0, 1.0, size=n))
    widths, values = rng.uniform(0.0, 0.05, size=n), rng.uniform(-2.0, 2.0, size=(3, 1))
    taus = (1.0 + values) * widths
    levels, products = _chunked_product(spec, ts, widths, values)
    _, x, y = gate_generators(spec, ts)
    assert levels == (1, 2, 3) and products.shape == (3, 3, 3)
    assert np.array_equal(products, ordered_product(matexp_lambda_stack(x, y, taus)))
    for row, product in zip(taus, products):
        assert np.array_equal(product, ordered_product(matexp_lambda_stack(x, y, row)))


@pytest.mark.parametrize("pieces, extra", [(1, -1), (1, 0), (1, 1), (3, 5)],
                         ids=["w-1", "w", "w+1", "3w+5"])
@pytest.mark.parametrize("rows", [1, 2])
def test_narrow_batches_in_wide_pieces_are_bit_identical_to_whole_stack(rows, pieces, extra,
                                                                         rng):
    n = pieces * _piece(rows) + extra
    spec = GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))
    ts = np.sort(rng.uniform(0.0, 1.0, size=n))
    widths, values = rng.uniform(0.0, 0.05, size=n), rng.uniform(-2.0, 2.0, size=(rows, 1))
    taus = (1.0 + values) * widths
    _, products = _chunked_product(spec, ts, widths, values)
    _, x, y = gate_generators(spec, ts)
    assert np.array_equal(products, ordered_product(matexp_lambda_stack(x, y, taus)))


@pytest.mark.parametrize("rows", [1, 2, 3, 17, 32])
def test_pieces_of_one_segment_are_bit_identical_to_whole_stack(rows, rng):
    # three full pieces and a ragged last piece of 37; pi pulses sit on both
    # sides of the piece edges and in the last piece
    width = _piece(rows)
    n = 3 * width + 37
    spec = GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))
    ts = np.sort(rng.uniform(0.0, 1.0, size=n))
    widths, values = rng.uniform(0.0, 0.05, size=n), rng.uniform(-2.0, 2.0, size=(rows, 1))
    kicks = np.unique(np.concatenate([[width - 1, width, 2 * width, n - 1],
                                      rng.choice(n, size=8, replace=False)]))
    taus = (1.0 + values) * widths
    taus[:, kicks] = KICK_AREA
    _, products = _chunked_product(spec, ts, widths, values, kicks)
    _, x, y = gate_generators(spec, ts)
    assert np.array_equal(products,
                          ordered_product(matexp_lambda_stack(x, y, taus, pi_pulses=kicks)))


@pytest.mark.parametrize("rows", [1, 2, 3, 32])
def test_short_last_piece_reads_no_stale_workspace_entries(rows, rng, monkeypatch):
    # every buffer starts as NaN (a complex one in both parts), and the full
    # pieces before the short one leave their own numbers behind: a piece
    # that read an entry it had not written would carry either into the product
    n = 2 * _piece(rows) + 3
    spec = GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0))
    ts = np.sort(rng.uniform(0.0, 1.0, size=n))
    widths, values = rng.uniform(0.0, 0.05, size=n), rng.uniform(-2.0, 2.0, size=(rows, 1))
    _, x, y = gate_generators(spec, ts)
    whole = ordered_product(matexp_lambda_stack(x, y, (1.0 + values) * widths))
    empty = np.empty

    def poisoned(*args, **kwargs):
        buffer = empty(*args, **kwargs)
        buffer.fill(complex(np.nan, np.nan) if buffer.dtype == complex else np.nan)
        return buffer

    monkeypatch.setattr(np, "empty", poisoned)
    _, products = _chunked_product(spec, ts, widths, values)
    assert np.array_equal(products, whole)


@pytest.mark.parametrize("n", [256, 1500])
@pytest.mark.parametrize("rows", [16, 17, 32, 40])
def test_wide_batches_are_bit_identical_to_whole_stack(rows, n, rng):
    # 256 factors are one piece, ragged for 16 or 17 rows and full for 32 or
    # 40; 1500 take pieces of _piece(rows) factors (512 or 256) and a ragged
    # last piece
    spec = GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0))
    ts = np.sort(rng.uniform(0.0, 1.0, size=n))
    widths, values = rng.uniform(0.0, 0.05, size=n), rng.uniform(-2.0, 2.0, size=(rows, 1))
    taus = (1.0 + values) * widths
    _, products = _chunked_product(spec, ts, widths, values)
    _, x, y = gate_generators(spec, ts)
    assert np.array_equal(products, ordered_product(matexp_lambda_stack(x, y, taus)))


def exact_kicks(x, y):
    """I - 2 H^2 of the lambda couplings x and y, (n, 3, 3): the pi pulse, either
    sign, in the closed form's real arithmetic with b = -2 and sin dropped."""
    return closed_form_planes(x, y, np.zeros(len(x)), np.full(len(x), -2.0))


def stack_with_exact_kicks(spec, segments, policy):
    """(levels, instants, stack) of the train's factors: closed-form steps at
    the midpoints and exact, sign-free kick factors in between."""
    bounds, kick_pos = _bounds(segments, policy)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    steps = (1.0 + np.asarray(segments.values)[segment_of(segments, mids)]) * np.diff(bounds)
    ts = np.insert(mids, kick_pos, segments.kick_times)
    levels, x, y = gate_generators(spec, ts)
    factor_pos = kick_pos + np.arange(len(kick_pos))
    stack = matexp_lambda_stack(x, y, np.insert(steps, kick_pos, 0.0))
    stack[factor_pos] = exact_kicks(x[factor_pos], y[factor_pos])
    return levels, ts, stack


def segment_first(train, ts, stack):
    """The product of a factor stack at the instants ts, segment by segment:
    each segment's factors reduced with ordered_product, then the segment
    nodes with ordered_product.  An instant belongs to the last segment that
    starts at or before it."""
    seg = segment_of(train, ts)
    nodes = [ordered_product(stack[seg == s]) for s in range(len(train))]
    return ordered_product(np.array(nodes))


def kick_places(segments, policy):
    """(segment, place in it) of each kick factor of the train."""
    _, _, kicks, counts, _ = _factors(segments, policy)
    firsts = np.cumsum(counts) - counts
    seg = np.searchsorted(firsts, kicks, side="right") - 1
    return seg, kicks - firsts[seg], counts


def test_kicks_in_a_segment_of_its_own_length_match_the_segment_first_reference():
    # three kicks split three steps and add their own factors: 106 in their
    # segment, which a call apart from the 100-factor segments reduces
    spec = GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0))
    segments = generate_segments(
        PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.05, p=1.0, seed=1), 1.0)
    segments = replace(segments, kick_times=(0.5112, 0.5116, 0.5121), kick_signs=(1, -1, 1))
    policy = StepPolicy(max_step=1.0 / 2000)
    seg, _, counts = kick_places(segments, policy)
    assert (seg == 10).all() and counts[10] == 106 and (np.delete(counts, 10) == 100).all()
    levels, ts, stack = stack_with_exact_kicks(spec, segments, policy)
    u = propagate_lab(spec, segments, policy).U
    assert np.array_equal(u[np.ix_(levels, levels)], segment_first(segments, ts, stack))


def test_kicks_straddling_a_piece_edge_of_a_long_segment_match_the_segment_first_reference():
    # two segments of 8000 steps: each runs in pieces of _piece(1), and these
    # kicks sit on both sides of the first piece edge of the first one
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    segments = generate_segments(
        PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.5, p=1.0, seed=1), 1.0)
    segments = replace(segments, kick_times=(0.2555, 0.2558, 0.2561, 0.2564),
                       kick_signs=(1, -1, -1, 1))
    policy = StepPolicy(max_step=1.0 / 16_000)
    seg, place, counts = kick_places(segments, policy)
    assert (seg == 0).all() and place[0] < _piece(1) <= place[-1] < counts[0]
    levels, ts, stack = stack_with_exact_kicks(spec, segments, policy)
    u = propagate_lab(spec, segments, policy).U
    assert np.array_equal(u[np.ix_(levels, levels)], segment_first(segments, ts, stack))


def test_one_segment_kick_train_matches_the_whole_stack():
    # a train without control is one segment, whose tree is the whole stack's
    spec = GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))
    segments = kick_train(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 1e-3, seed=3, jitter=0.4)
    policy = StepPolicy(max_step=1.0 / 16_000)
    levels, _, stack = stack_with_exact_kicks(spec, segments, policy)
    assert len(segments) == 1 and len(stack) > 4 * _piece(1)
    u = propagate_lab(spec, segments, policy).U
    assert np.array_equal(u[np.ix_(levels, levels)], ordered_product(stack))


def shared_segment_batches():
    """(spec, trains, policy) batches whose trains share some segments and
    differ on others, with kicks inside segments and a short last segment,
    and a batch shaped like a dt sweep job, whose trains share none."""
    edges = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.97, 1.0)
    rng = np.random.default_rng(7)
    on = rng.uniform(5.0, 60.0, size=(4, 11))
    off = np.arange(11) % 2 == 1
    values = np.where(off, 0.0, on)
    values[1, 2] = values[0, 2]           # rows 0 and 1 share segment 2
    values[2] = values[0]                 # row 2 is row 0 but for two segments
    values[2, [4, 10]] = [3.0, -0.5]
    values[3] = 0.0                       # a J = 0 row
    hand = [Segments(edges, tuple(v), (0.15, 0.55, 0.9850), (1, -1, 1)) for v in values]
    # a thinned mean-control job: J = 0 realizations and off segments shared
    generated = [generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=J, dt=0.05,
                                              p=0.5, seed=seed), 1.0)
                 for J in (0.0, 40.0, 80.0) for seed in (1, 2)]
    # unshared rows over segments of odd length (21, 23 and 59 factors), and
    # one of 2505 factors whose kicks sit across the edge of its first piece
    # of _piece(3) = 2048 factors
    lengths = np.resize([0.0042, 0.0046], 112)
    edges = tuple(np.concatenate([[0.0], 0.5 + np.cumsum(np.concatenate([[0.0], lengths]))]))
    edges = edges[:-1] + (1.0,)
    values = np.random.default_rng(8).uniform(-1.0, 1.0, size=(3, len(edges) - 1))
    dt_job = [Segments(edges, tuple(v), (0.4086, 0.4097, 0.4101), (1, -1, 1)) for v in values]
    return [(GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)), hand,
             StepPolicy(max_step=1.0 / 3000)),
            (GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0)), hand, StepPolicy()),
            (GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0)), generated, StepPolicy()),
            (GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)), dt_job,
             StepPolicy(substeps_per_segment=21, max_step=1.0 / 5000))]


def reference_product(spec, train, policy):
    """(levels, segment-first product) of one train from the test-local factors."""
    ts, _, taus, kicks, _ = inserted_factors(train, [train.values], policy)
    levels, x, y = gate_generators(spec, ts)
    return levels, segment_first(train, ts, matexp_lambda_stack(x, y, taus[0], pi_pulses=kicks))


@pytest.mark.parametrize("case", range(4))
def test_shared_segments_are_bit_identical_to_each_train_alone(case):
    spec, trains, policy = shared_segment_batches()[case]
    results = propagate_lab_batch(spec, job(trains), policy)
    for train, result in zip(trains, results):
        alone = propagate_lab(spec, train, policy).U
        assert np.array_equal(result.U.view(np.uint64), alone.view(np.uint64))
        levels, reference = reference_product(spec, train, policy)
        assert np.array_equal(result.U[np.ix_(levels, levels)].view(np.uint64),
                              reference.view(np.uint64))


@pytest.mark.parametrize("case", range(4))
def test_shared_segments_agree_with_the_whole_stack_tree(case):
    spec, trains, policy = shared_segment_batches()[case]
    for train, result in zip(trains, propagate_lab_batch(spec, job(trains), policy)):
        ts, _, taus, kicks, _ = inserted_factors(train, [train.values], policy)
        levels, x, y = gate_generators(spec, ts)
        whole = ordered_product(matexp_lambda_stack(x, y, taus[0], pi_pulses=kicks))
        np.testing.assert_allclose(result.U[np.ix_(levels, levels)], whole, rtol=0, atol=1e-13)


def counted_exponentials(monkeypatch):
    """Spy on the closed-form kernel the lab frame calls: a list that
    collects the exponentials of each call."""
    counted = []
    closed_form = propagation._closed_form

    def spy(x, yr, yi, half, *args, **kwargs):
        counted.append(half.size)
        return closed_form(x, yr, yi, half, *args, **kwargs)

    monkeypatch.setattr(propagation, "_closed_form", spy)
    return counted


@pytest.mark.parametrize("case", range(4))
def test_each_segment_is_exponentiated_once_per_distinct_value(case, monkeypatch):
    spec, trains, policy = shared_segment_batches()[case]
    ts, _, _, counts, _ = _factors(trains[0], policy)
    distinct = [len(set(values)) for values in zip(*(t.values for t in trains))]
    counted = counted_exponentials(monkeypatch)
    propagate_lab_batch(spec, job(trains), policy)
    assert sum(counted) == sum(k * m for k, m in zip(distinct, counts))
    # fewer than a row each exactly where some segment has fewer values than trains
    assert (sum(counted) < len(trains) * len(ts)) == (min(distinct) < len(trains))


def test_values_with_one_first_exponent_do_not_share_a_kick_split_segment(monkeypatch):
    # the kick at 0.3001 splits a step of the first segment in two; v and w
    # give one exponent (1 + v) * dt on its first step, not on the halves
    edges, kick = (0.0, 0.5, 1.0), (0.3001,)
    policy = StepPolicy(max_step=1.0 / 600)
    probe = Segments(edges, (0.0, 0.0), kick, (1,))
    _, widths, kicks, counts, _ = _factors(probe, policy)
    widths = np.delete(widths[:counts[0]], kicks)
    halves = widths[~np.isclose(widths, widths[0])]
    assert len(halves) == 2
    # adjacent floats 1 + v < 1 + w, whose products with the first width round alike
    ones = 1.3 + np.arange(2000) * np.spacing(1.3)
    i = next(i for i in range(len(ones) - 1)
             if ones[i] * widths[0] == ones[i + 1] * widths[0]
             and (ones[i] * halves != ones[i + 1] * halves).any())
    v, w = ones[i] - 1.0, ones[i + 1] - 1.0
    trains = [Segments(edges, (v, 2.0), kick, (1,)), Segments(edges, (w, 2.0), kick, (-1,))]
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    counted = counted_exponentials(monkeypatch)
    results = propagate_lab_batch(spec, job(trains), policy)
    assert sum(counted) == 2 * counts[0] + counts[1]
    monkeypatch.undo()
    for train, result in zip(trains, results):
        assert np.array_equal(result.U.view(np.uint64),
                              propagate_lab(spec, train, policy).U.view(np.uint64))


@pytest.mark.parametrize("kind", list(GateKind))
def test_long_segments_in_a_batch_are_bit_identical_to_each_train_alone(kind):
    # segments of about 5000, 2500, 10,000 and 2500 steps: the first three
    # run in pieces (of 4096 factors for one or two distinct values, 2048 for
    # three), the first shared by every train, the third by two of three;
    # kicks sit in both, and across the first piece edge of the third
    edges = (0.0, 0.25, 0.375, 0.875, 1.0)
    kicks = (0.1, 0.2, 0.5795, 0.5797, 0.5801, 0.95)
    values = [(3.0, 10.0, 7.0, 0.0), (3.0, 11.0, 7.0, -2.0), (3.0, 12.0, 8.0, 0.0)]
    trains = [Segments(edges, v, kicks, (1, -1, 1, 1, -1, 1)) for v in values]
    spec = GateSpec(kind, Schedule(A_REF, 1.0))
    policy = StepPolicy(max_step=1.0 / 20_000)
    seg, place, counts = kick_places(trains[0], policy)
    assert counts[2] > 2 * _piece(2)
    assert place[seg == 2].min() < _piece(2) < place[seg == 2].max()
    for train, result in zip(trains, propagate_lab_batch(spec, job(trains), policy)):
        alone = propagate_lab(spec, train, policy).U
        assert np.array_equal(result.U.view(np.uint64), alone.view(np.uint64))
        levels, reference = reference_product(spec, train, policy)
        assert np.array_equal(result.U[np.ix_(levels, levels)], reference)


def tree_sizes(monkeypatch):
    """Spy on the lab frame's tree_product: a list of (factors, lanes...) per call."""
    sizes = []
    tree_product = propagation.tree_product

    def spy(p, out, work):
        sizes.append(p.shape[2:])
        return tree_product(p, out, work)

    monkeypatch.setattr(propagation, "tree_product", spy)
    return sizes


@pytest.mark.parametrize("kind", [ControlKind.POSITIVE_SQUARE,
                                  ControlKind.ZERO_ENERGY_ALTERNATING])
def test_a_job_of_more_nodes_than_a_call_takes_is_bit_identical_to_each_train_alone(
        kind, monkeypatch):
    # 40 rows x 300 segments are 12,000 nodes, above BLOCK: groups of 256 and
    # 44 segments.  The off segments of the positive trains are one value,
    # shared by every row; each segment of 40 values is a full piece of
    # _piece(40) = 256 factors and a ragged 2
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    trains = [generate_segments(PulseTrain(kind, J=40.0 + j, dt=1.0 / 300, p=1.0, seed=j), 1.0)
              for j in range(40)]
    policy = StepPolicy(substeps_per_segment=258)
    assert len(trains[0]) == 300 and 40 * 300 > propagation.BLOCK and _piece(40) == 256
    sizes = tree_sizes(monkeypatch)
    results = propagate_lab_batch(spec, job(trains), policy)
    assert sizes[-1] == (2, 40)  # the tree over the two groups' nodes
    monkeypatch.undo()
    for train, result in zip(trains, results):
        alone = propagate_lab(spec, train, policy).U
        assert np.array_equal(result.U.view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("rows", [1, 2])
def test_full_pieces_of_long_segments_fill_a_call_each_and_keep_the_bits(rows, monkeypatch):
    # two segments of 10,000 steps, each two full pieces of _piece(rows) =
    # 4096 factors and a ragged last one: each full piece is one call's
    # tree, and the two ragged pieces share one.  Kicks sit on both sides
    # of every full piece's edges
    edges = (0.0, 0.5, 1.0)
    kicks = (0.2046, 0.2048, 0.4093, 0.4095, 0.7046, 0.7048, 0.9093, 0.9095)
    values = [(3.0, 7.0), (4.0, -1.0)][:rows]
    signs = [(1, -1, -1, 1, 1, 1, -1, -1), (-1, -1, 1, 1, 1, -1, -1, 1)]
    trains = [Segments(edges, v, kicks, s) for v, s in zip(values, signs)]
    spec = GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0))
    policy = StepPolicy(max_step=1.0 / 20_000)
    seg, place, counts = kick_places(trains[0], policy)
    width = _piece(rows)
    assert width == 4096 and (counts > 2 * width).all() and (counts < 3 * width).all()
    for s in range(2):
        np.testing.assert_array_equal(place[seg == s], [4092, 4097, 8188, 8193])
    sizes = tree_sizes(monkeypatch)
    results = propagate_lab_batch(spec, job(trains), policy)
    assert sizes.count((width, 1, rows)) == 4 and (counts[0] - 2 * width, 2, rows) in sizes
    monkeypatch.undo()
    for train, result in zip(trains, results):
        alone = propagate_lab(spec, train, policy).U
        assert np.array_equal(result.U.view(np.uint64), alone.view(np.uint64))
        levels, reference = reference_product(spec, train, policy)
        assert np.array_equal(result.U[np.ix_(levels, levels)], reference)


def full_kick_pair():
    """(spec, pair) of the full-size kick comparison: the positive and the
    alternating train of 9,999 jittered kicks over T = 10."""
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 10.0))
    return spec, generate_segments([PulseTrain(kind, dt=0.001, p=0.5, seed=0)
                                    for kind in (ControlKind.DELTA_KICK_POSITIVE,
                                                 ControlKind.DELTA_KICK_ALTERNATING)], 10.0)


def test_full_size_kick_comparison_takes_at_most_80_multiplies(monkeypatch):
    # T = 10 and 9,999 jittered kicks: one segment of 24,094 factors in 5
    # full pieces of 4096 and one of 3614, a call and a tree each (75
    # multiplies).  Pieces of 2048, a tree each, took 136, and 66 when their
    # smaller levels shared one tree
    spec, segments = full_kick_pair()
    assert len(segments) == 1 and len(segments.kick_times) == 9999
    calls = []
    matmul = qcore._matmul

    def spy(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(qcore, "_matmul", spy)
    positive, alternating = propagate_lab_batch(spec, segments)
    assert positive.steps_taken + len(segments.kick_times) == 24_094
    assert len(calls) <= 80
    assert np.array_equal(positive.U, alternating.U)


def buffer_jobs():
    """(spec, job, policy): a multi-row positive-square job whose trains share
    their off segments, and a kick pair, the positive and alternating trains."""
    spec, trains, policy = shared_segment_batches()[2]
    kicks = generate_segments([PulseTrain(kind, dt=0.01, p=0.5, seed=0)
                               for kind in (ControlKind.DELTA_KICK_POSITIVE,
                                            ControlKind.DELTA_KICK_ALTERNATING)], 1.0)
    return [(spec, job(trains), policy),
            (GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)), kicks, StepPolicy())]


@pytest.mark.parametrize("case", range(2), ids=["shared-segments", "kick-pair"])
def test_results_do_not_depend_on_the_callers_ufunc_buffer(case):
    # the product runs under a ufunc buffer of its own and restores the
    # caller's: every U keeps its bits whatever size the caller set
    spec, segments, policy = buffer_jobs()[case]
    bits = []
    for size in (16, 8192, 65536):
        with np.errstate():
            np.setbufsize(size)
            results = propagate_lab_batch(spec, segments, policy)
            assert np.getbufsize() == size
        bits.append(np.array([result.U for result in results]).view(np.uint64))
    assert len(bits[0]) == len(segments.values) > 1
    for other in bits[1:]:
        assert np.array_equal(other, bits[0])


def test_an_overflowing_job_leaves_the_callers_ufunc_buffer():
    # steps of 2.5 time units: the largest float amplitude overflows
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 100.0))
    segments = Segments((0.0, 50.0, 100.0), (0.0, sys.float_info.max), (), ())
    for size in (16, 65536):
        with np.errstate():
            np.setbufsize(size)
            with pytest.raises(ValueError, match="not finite"):
                propagate_lab(spec, segments, StepPolicy(max_step=10.0))
            assert np.getbufsize() == size


def test_shared_values_point_at_the_first_row_of_each_value():
    values = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 3.0], [5.0, 1.0, 2.0], [0.0, 4.0, 3.0]])
    np.testing.assert_array_equal(_shared_values(values),
                                  [[0, 0, 0], [0, 0, 1], [2, 0, 0], [0, 3, 1]])
    # no value held by two rows on one segment: no sharing map
    assert _shared_values(values[[0, 2]] + [[0.0], [1.0]]) is None
    assert _shared_values(values[:1]) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda rows: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 40.0]), min_size=rows, max_size=rows)
    | st.lists(st.floats(-50.0, 50.0), min_size=rows, max_size=rows).map(
        lambda column: column[:1] * rows if column[-1] > 25.0 else column),
    min_size=1, max_size=5)))
def test_shared_values_match_a_loop_over_rows(columns):
    # columns of signed zeros and repeats, of distinct floats, and all-equal ones
    values = np.array(columns).T
    rows, segments = values.shape
    expected = np.array([[min(q for q in range(r + 1) if values[q, s] == values[r, s])
                          for s in range(segments)] for r in range(rows)])
    share = _shared_values(values)
    if (expected == np.arange(rows)[:, None]).all():
        assert share is None
    else:
        np.testing.assert_array_equal(share, expected)


def test_long_run_memory_stays_bounded():
    # 200,000 steps: the whole complex step stack alone would be ~29 MiB
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    segments = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=1e-4), 1.0)
    tracemalloc.start()
    try:
        result = propagate_lab(spec, segments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.steps_taken == 200_000
    assert peak < 32 * 2 ** 20


def traced_peak(run):
    """run() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_size_kick_comparison_peaks_below_2_25_mib():
    # one call's workspace of 4096 one-row factors for both trains, which
    # share the segment's one value: traced at 1.84 MiB (numpy 2.4.6); 2.25
    # MiB leaves about a fifth of margin
    spec, segments = full_kick_pair()
    results, peak = traced_peak(lambda: propagate_lab_batch(spec, segments))
    assert np.array_equal(results[0].U, results[1].U)
    assert peak < 2.25 * 2 ** 20


def test_densest_job_of_the_shipped_dt_sweep_peaks_below_7_mib():
    # the dt = 0.005 job of configs/dt_zero_energy.json: 10 rows of 2000
    # segments of 20 steps, traced at 5.63 MiB (numpy 2.4.6); 7 MiB leaves
    # about a quarter of margin
    cfg = config_from_dict(json.loads((CONFIG_DIR / "dt_zero_energy.json").read_text()))
    train = replace(cfg.control, dt=cfg.grid[0])
    segments = generate_segments([replace(train, seed=realization_seed(cfg.master_seed, 0, k))
                                  for k in range(cfg.realizations)], cfg.gate.schedule.T)
    assert segments.values.shape == (10, 2000)
    results, peak = traced_peak(lambda: propagate_lab_batch(cfg.gate, segments, cfg.policy))
    assert [result.steps_taken for result in results] == [40_000] * 10
    assert peak < 7 * 2 ** 20


def test_step_grid_of_a_long_run_peaks_below_10_mib():
    # 200,000 steps: the bounds take 1.5 MiB and peak at 3.36 MiB traced
    segments = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=1e-4), 1.0)
    tracemalloc.start()
    try:
        bounds, _ = _bounds(segments, StepPolicy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bounds) == 200_001
    assert peak < 10 * 2 ** 20


def test_factor_stack_of_a_long_run_peaks_below_6_mib():
    # 200,000 steps: the midpoints and widths it returns take 3.05 MiB and
    # the grid peaks at 4.58 MiB traced; 6 MiB leaves about a quarter of margin
    segments = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=1e-4), 1.0)
    tracemalloc.start()
    try:
        ts, widths, _, _, steps = _factors(segments, StepPolicy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == len(ts) == len(widths) == 200_000
    assert peak < 6 * 2 ** 20


@pytest.mark.parametrize("overflows", [False, True], ids=["just-finite", "just-overflowing"])
def test_overflowing_control_is_rejected(overflows):
    # a finite amplitude over long steps: (1 + c) * dt overflows.  The kick
    # splits a step of the second segment, whose steps are uneven, and the
    # amplitude is the largest one whose exponent at the widest of them is
    # finite, or the next float: the check per segment rejects exactly the
    # amplitudes of which some step's exponent overflows
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1000.0))
    probe = Segments((0.0, 437.1, 1000.0), (0.0, 0.0), (730.0,), (1,))
    policy = StepPolicy(max_step=100.0)
    _, widths, kicks, counts, _ = _factors(probe, policy)
    steps = np.delete(widths, kicks)[counts[0]:]
    widest = float(steps.max())
    assert steps.min() < widest / 2
    c = sys.float_info.max / widest
    while math.isfinite((1.0 + c) * widest):
        c = math.nextafter(c, math.inf)
    if not overflows:
        c = math.nextafter(c, 0.0)
    segments = replace(probe, values=(0.0, c))
    if overflows:
        with pytest.raises(ValueError, match="not finite"):
            propagate_lab(spec, segments, policy=policy)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(propagate_lab(spec, segments, policy=policy).unitarity_defect)


def test_adiabatic_limit_recovers_dark_state_and_phase(rng):
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 100.0))
    result = propagate_lab(spec, generate_segments(NO_CONTROL, 100.0))
    amp = dark_amplitude(spec, result)
    assert abs(amp) >= 0.99
    # slow cycling leaves only the geometric phase, pi/2 at this amplitude
    assert abs(np.angle(amp) - berry_closed_form(A_REF)) <= 0.05


def test_unitarity_defect_stays_tiny_on_long_runs():
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 10.0))
    policy = StepPolicy(max_step=10.0 / 100_000)
    result = propagate_lab(spec, generate_segments(NO_CONTROL, 10.0), policy=policy)
    assert result.steps_taken == 100_000
    assert result.unitarity_defect <= 1e-9


def test_step_boundaries_align_with_segments():
    # an odd segment layout still tiles: per-segment substep counts differ
    segments = Segments((0.0, 0.3, 1.0), (2.0, 0.0))
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    result = propagate_lab(spec, segments)
    assert result.unitarity_defect <= 1e-10


@pytest.mark.parametrize("j12, j13", [(1.0, 0.7), (0.3, 2.7), (1.0, 0.0), (0.0, 2.0)])
def test_exchange_model_evolution_stays_in_the_dfs_as_the_scaled_block(j12, j13):
    # one drive period of the 16-dim exchange model, exponentiated by eigh, is
    # the evolution of its 4-dim DFS block: the lambda couplings at theta0 =
    # atan2(j13, j12) in closed form with exponents s * tau, s = hypot(j12, j13),
    # and the decoupled level 0 -- why the lambda block is the only model propagated
    n = 64
    varphis = 2 * math.pi * (np.arange(n) + 0.5) / n
    taus = np.full(n, 1.0 / n)
    hs = exchange_hamiltonian(j12, j13, varphis)
    u = ordered_product(matexp_hermitian_stack(hs, taus))
    assert unitarity_defect(u) <= 1e-12
    z = total_z()
    assert np.max(np.abs(u @ z - z @ u)) <= 1e-12
    assert max(project_dfs(h)[1] for h in hs) <= 1e-13
    s, theta0 = math.hypot(j12, j13), math.atan2(j13, j12)
    x = np.full(n, math.sin(theta0))
    y = math.cos(theta0) * np.exp(-1j * varphis)
    block_u = np.eye(4, dtype=complex)
    block_u[1:, 1:] = ordered_product(matexp_lambda_stack(x, y, s * taus))
    idx = list(DFS_INDICES)
    outside = [i for i in range(16) if i not in DFS_INDICES]
    np.testing.assert_allclose(u[np.ix_(idx, idx)], block_u, atol=1e-12)
    assert np.max(np.abs(u[np.ix_(outside, idx)])) <= 1e-12


def test_policy_validation():
    with pytest.raises(ValueError, match="substeps"):
        StepPolicy(substeps_per_segment=5)
    with pytest.raises(ValueError, match="max_step"):
        StepPolicy(max_step=0.0)


@pytest.mark.parametrize("max_step", [math.nan, math.inf, -math.inf])
def test_policy_rejects_non_finite_max_step(max_step):
    with pytest.raises(ValueError, match="max_step must be positive and finite"):
        StepPolicy(max_step=max_step)


class TestAdiabaticHamiltonian:
    def test_hermitian_at_random_arguments(self, rng):
        s = Schedule(A_REF, 1.0)
        for _ in range(100):
            t = rng.uniform(0, 1.0)
            c = rng.uniform(0, 200.0)
            assert hermiticity_defect(adiabatic_hamiltonian(s, t, c)) <= 1e-14

    def test_entries_at_cycle_start(self):
        s = Schedule(A_REF, 1.0)
        c = 1.7
        h = adiabatic_hamiltonian(s, 0.0, c)
        # theta(0) = 0: dark diagonal vanishes, bright diagonal = -phi_dot/2
        thd = s.theta_dot(0.0)
        phd = s.phi_dot(0.0)
        assert h[0, 0] == 0.0 and h[1, 1] == 0.0
        assert h[2, 2] == pytest.approx(-phd / 2)
        expected = thd / math.sqrt(2.0) * np.exp(-1j * c)
        np.testing.assert_allclose(h[1, 2], expected, atol=1e-14)
        np.testing.assert_allclose(h[1, 3], np.conj(expected), atol=1e-14)

    def test_stack_matches_per_entry_build(self, rng):
        s = Schedule(A_REF, 1.0)
        ts = rng.uniform(0, 1.0, size=50)
        cs = rng.uniform(0, 200.0, size=50)
        stack = adiabatic_hamiltonian(s, ts, cs)
        assert stack.shape == (50, 4, 4)
        entries = np.stack([adiabatic_hamiltonian(s, t, c) for t, c in zip(ts, cs)])
        assert np.max(np.abs(stack - entries)) <= 1e-15

    def test_decoupled_level_stays_zero_row(self, rng):
        s = Schedule(1.3, 2.0)
        h = adiabatic_hamiltonian(s, rng.uniform(0, 2.0), rng.uniform(0, 50.0))
        assert np.all(h[0, :] == 0) and np.all(h[:, 0] == 0)


class TestFrameEquivalence:
    def test_no_control_T10(self):
        s = Schedule(A_REF, 10.0)
        spec = GateSpec(GateKind.PHASE, s)
        segments = generate_segments(NO_CONTROL, 10.0)
        lab = propagate_lab(spec, segments)
        adiab = propagate_adiabatic(s, segments)
        amp_lab = dark_amplitude(spec, lab)
        amp_ad = adiab.U[1, 1]
        assert abs(abs(amp_lab) - abs(amp_ad)) <= 1e-6
        # dark states carry no dynamical phase, so the phases agree too
        assert abs(np.angle(amp_lab) - np.angle(amp_ad)) <= 1e-5

    def test_strong_positive_square_control_T1(self):
        s = Schedule(A_REF, 1.0)
        spec = GateSpec(GateKind.PHASE, s)
        train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=200.0, dt=0.005, p=0.0)
        segments = generate_segments(train, 1.0)
        lab = propagate_lab(spec, segments)
        adiab = propagate_adiabatic(s, segments)
        diff = abs(abs(dark_amplitude(spec, lab)) - abs(adiab.U[1, 1]))
        assert diff <= 1e-4


def test_adiabatic_frame_rejects_a_kick_train():
    train = kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.1)
    with pytest.raises(ValueError, match="takes no delta kicks"):
        propagate_adiabatic(Schedule(A_REF, 1.0), train)


def test_adiabatic_frame_sees_control_only_through_C():
    """Identical c(t) under different segment tilings gives identical U."""
    s = Schedule(A_REF, 1.0)
    one = Segments((0.0, 1.0), (5.0,))
    split = Segments((0.0, 0.5, 1.0), (5.0, 5.0))
    policy_one = StepPolicy(substeps_per_segment=40, max_step=0.025)
    policy_split = StepPolicy(substeps_per_segment=20, max_step=0.025)
    u1 = propagate_adiabatic(s, one, policy_one).U
    u2 = propagate_adiabatic(s, split, policy_split).U
    assert np.max(np.abs(u1 - u2)) <= 1e-10


def test_quality_factor_insensitive_to_micro_shape():
    """Equal C at every dt boundary, different shapes inside: f agrees to 1e-3."""
    s = Schedule(A_REF, 1.0)
    spec = GateSpec(GateKind.PHASE, s)
    dt, J = 0.005, 200.0
    n = int(round(1.0 / dt))
    edges = np.arange(2 * n + 1) * (dt / 2.0)
    on = np.repeat(np.arange(n) % 2 == 0, 2)
    # flat: [J, J]; burst: [2J, 0] -- same integral over each dt window
    flat = np.where(on, J, 0.0)
    burst = np.where(on & (np.arange(2 * n) % 2 == 0), 2 * J, 0.0)
    gamma_ideal = berry_closed_form(A_REF)
    dark = dark_states(spec, 0.0)[-1]
    fs = []
    for segs in (Segments(edges, flat), Segments(edges, burst)):
        result = propagate_lab(spec, segs)
        fs.append(evaluate_holonomy(result.U, dark, gamma_ideal).f)
    assert abs(fs[0] - fs[1]) <= 1e-3


class TestKicks:
    def test_positive_and_alternating_kicks_agree_exactly_even_count(self):
        self._check_kick_equivalence(interval=0.2)   # 4 kicks

    def test_positive_and_alternating_kicks_agree_exactly_odd_count(self):
        self._check_kick_equivalence(interval=0.1)   # 9 kicks

    @staticmethod
    def _check_kick_equivalence(interval):
        spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
        pos = kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, interval)
        alt = with_signs(pos, ((-1) ** i for i in range(len(pos.kick_times))))
        u_pos = propagate_lab(spec, pos).U
        u_alt = propagate_lab(spec, alt).U
        assert np.max(np.abs(u_pos - u_alt)) <= 1e-10

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda kind: kind.value)
    def test_positive_and_alternating_kicks_give_bit_identical_u(self, kind):
        spec = GateSpec(kind, Schedule(A_REF, 1.0))
        pos = kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.03, seed=5, jitter=0.6)
        alt = kick_train(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 0.03, seed=5, jitter=0.6)
        assert np.array_equal(pos.kick_times, alt.kick_times)
        assert not np.array_equal(pos.kick_signs, alt.kick_signs)
        u_pos, u_alt = propagate_lab(spec, pos).U, propagate_lab(spec, alt).U
        assert np.array_equal(u_pos.view(np.uint64), u_alt.view(np.uint64))

    def test_empty_kick_schedule_is_no_op(self):
        spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
        segments = generate_segments(NO_CONTROL, 1.0)
        plain = propagate_lab(spec, segments).U
        with_empty = propagate_lab(spec, Segments(segments.edges, segments.values, (), ())).U
        np.testing.assert_array_equal(plain, with_empty)

    def test_kick_outside_span_rejected(self):
        segments = generate_segments(NO_CONTROL, 1.0)
        with pytest.raises(ValueError, match="inside"):
            replace(segments, kick_times=(1.5,), kick_signs=(1,))

    def test_kicks_accelerate_the_passage(self):
        """pi kicks push a nonadiabatic run toward the ideal holonomy."""
        spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
        segments = generate_segments(NO_CONTROL, 1.0)
        dark = dark_states(spec, 0.0)[-1]
        gamma = berry_closed_form(A_REF)
        bare = evaluate_holonomy(propagate_lab(spec, segments).U, dark, gamma).f
        kicks = kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.02)
        kicked = evaluate_holonomy(propagate_lab(spec, kicks).U, dark, gamma).f
        assert kicked > bare + 0.3


def test_step_halving_changes_dark_amplitude_below_1e6():
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 10.0))
    segments = generate_segments(NO_CONTROL, 10.0)
    coarse = propagate_lab(spec, segments)  # default ~4096 steps
    fine = propagate_lab(spec, segments, policy=StepPolicy(max_step=10.0 / 8192))
    diff = abs(abs(dark_amplitude(spec, coarse)) - abs(dark_amplitude(spec, fine)))
    assert diff <= 1e-6


def test_resonant_alternating_control_reaches_strong_positive_value():
    """dt -> small at J*dt = 2*pi matches a large constant positive control."""
    T = 10.0
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, T))
    dark = dark_states(spec, 0.0)[-1]
    gamma = berry_closed_form(A_REF)
    dt = 0.005
    J = 2 * math.pi / dt
    alt = generate_segments(
        PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=J, dt=dt, p=0.0), T)
    f_alt = evaluate_holonomy(propagate_lab(spec, alt).U, dark, gamma).f
    constant = Segments((0.0, T), (J,))
    f_big = evaluate_holonomy(propagate_lab(spec, constant).U, dark, gamma).f
    assert abs(f_alt - f_big) <= 1e-2
    assert f_alt > 0.99
