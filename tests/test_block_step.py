"""The batch engine's block step against dense references, and its live-row
bookkeeping.

The block step measures one event on a set of state rows through the event's
range factor V (P = V V^dag).  Each check here rebuilds the same step from
the full D x D embedded projector, with supports that are out of order
(2, 0), non-contiguous (1, 4) and wrapping around a ring (6, 7, 0).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import basis_ring, hadamard_ring, two_qubit_chain
from qlll.instance import QlllInstance, basis_projector, event_table, random_rank_projector
from qlll.quantum import (
    _event_weights,
    _measure_rows,
    _range_factor,
    run_trajectory_batch,
)
from qlll.tensor import embed, make_rng, nonzero_states

TOL = 1e-12
N = 8
SUPPORTS = [(2, 0), (1, 4), (6, 7, 0)]


def projector_off_ones(k: int, rank: int, rng) -> np.ndarray:
    """Random rank-r projector on k qubits whose range is orthogonal to the
    all-ones basis state."""
    dim = 2 ** k - 1
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(g)
    v = np.zeros((2 ** k, rank), dtype=complex)
    v[:dim] = q
    return v @ v.conj().T


def all_ones_on(qudits) -> np.ndarray:
    """Mask of the register's basis states with every listed qubit at 1."""
    idx = np.arange(2 ** N)
    return np.all([(idx >> (N - 1 - q)) & 1 == 1 for q in qudits], axis=0)


def full_factor(inst, i) -> np.ndarray:
    """The range factor V of event i on every local basis state, zero off
    its nonzero states."""
    f = _range_factor(event_table(inst), i)
    local = inst.projectors[i].local_matrix
    keep = nonzero_states(local)
    v = np.zeros((local.shape[0], f.v.shape[1]), dtype=complex)
    v[slice(None) if keep is None else keep] = f.v
    return v


def random_rows(rng, count: int, mask=None) -> np.ndarray:
    rows = rng.normal(size=(count, 2 ** N)) + 1j * rng.normal(size=(count, 2 ** N))
    if mask is not None:
        rows[:, ~mask] = 0.0
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rank=st.sampled_from([1, 2]),
    which=st.sampled_from(range(len(SUPPORTS))),
    off_ones=st.booleans(),
)
@example(seed=7, rank=1, which=2, off_ones=True)
@example(seed=7, rank=2, which=0, off_ones=True)
@example(seed=7, rank=2, which=1, off_ones=False)
def test_block_step_matches_dense(seed, rank, which, off_ones):
    # off_ones: P is exactly zero on the all-ones state, so the weight reads
    # only the other states; otherwise P is dense and the whole block is read
    rng = make_rng(seed)
    make = projector_off_ones if off_ones else (
        lambda k, r, g: random_rank_projector(2 ** k, r, g))
    inst = QlllInstance.build(N, 2, [(sup, make(len(sup), rank, rng)) for sup in SUPPORTS])
    assert not inst.is_commuting()
    proj = inst.projectors[which]
    p = embed(proj.local_matrix, proj.qudits, inst.shape)

    v = full_factor(inst, which)
    assert v.shape == (2 ** len(proj.qudits), rank)
    assert np.abs(v @ v.conj().T - proj.local_matrix).max() <= TOL

    # rows with every event qubit at 1 have no amplitude in P's range; rows
    # close to P's kernel have a small weight that is not 0
    zero = all_ones_on(proj.qudits)
    near = random_rows(rng, 4) @ (np.eye(2 ** N) - p).T + 1e-4 * random_rows(rng, 4)
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    states = np.vstack([random_rows(rng, 20), near, random_rows(rng, 8, zero)])
    dense = np.abs(states @ p.T) ** 2
    weights = dense.sum(axis=1)
    events = event_table(inst)
    every = np.arange(states.shape[0])
    assert np.abs(_event_weights(states, every, events)[:, which] - weights).max() <= TOL
    # every event on a subset of rows, out of order, as the freeze sweep
    # reads its live rows
    some = every[::-3]
    each = [embed(e.local_matrix, e.qudits, inst.shape) for e in inst.projectors]
    dense_some = np.stack([(np.abs(states[some] @ q.T) ** 2).sum(axis=1) for q in each], axis=1)
    assert np.abs(_event_weights(states, some, events) - dense_some).max() <= TOL
    flat = weights == 0.0
    assert flat[24:].all() == off_ones
    assert (weights[20:24] > 0).all() and (weights[20:24] < 1e-6).all()

    out = states.copy()
    hit = _measure_rows(out, every, events.plan(which), _range_factor(events, which), rng)
    assert not hit[flat].any()
    assert np.array_equal(out[flat], states[flat])
    sat = ~hit
    expect = (states[sat] - states[sat] @ p.T) / np.sqrt(1.0 - weights[sat])[:, None]
    assert np.abs(out[sat] - expect).max() <= TOL
    plan = events.plan(which)
    for row in out[hit]:
        assert abs(np.linalg.norm(row) - 1.0) <= TOL
        block = plan.to_front(row[None])
        assert np.count_nonzero(np.abs(block).sum(axis=1)) == 1


def test_range_factor_rejects_inexact_projector():
    # idempotent within the instance tolerance, but 1e-11 off a projector
    inst = QlllInstance.build(1, 2, [((0,), np.diag([1.0 + 1e-11, 0.0]))])
    with pytest.raises(ValueError, match="range factor misses"):
        _range_factor(event_table(inst), 0)


def basis_chain():
    """Commuting and satisfiable: rows settle and the freeze sweep drops them."""
    p11 = basis_projector(4, [3])
    return QlllInstance.build(3, 2, [((0, 1), p11), ((1, 2), p11), ((2,), basis_projector(2, [0]))])


@pytest.mark.parametrize("make, stop", [
    (two_qubit_chain, None), (two_qubit_chain, 1), (two_qubit_chain, 2),
    (two_qubit_chain, 3), (basis_chain, None), (basis_chain, 2),
])
def test_live_rows_bookkeeping(make, stop):
    inst = make()
    horizons = (0, 3, 10, 40, 60)
    kwargs = dict(n_traj=400, max_steps=60, record_first=3,
                  stop_after_violations=stop, horizons=horizons)
    batch = run_trajectory_batch(inst, seed=13, **kwargs)
    counts = batch.violations
    if stop is not None:
        assert (counts <= stop).all()
        assert (counts == stop).any()
    snaps = [batch.horizon_violations[h] for h in horizons]
    assert not snaps[0].any()
    for lo, hi in zip(snaps, snaps[1:]):
        assert (hi >= lo).all()
    assert np.array_equal(snaps[-1], counts)
    # first_labels holds the first min(count, 3) ids, then -1 padding
    recorded = (batch.first_labels >= 0).sum(axis=1)
    assert np.array_equal(recorded, np.minimum(counts, 3))
    assert ((batch.first_labels >= 0) == (np.arange(3) < recorded[:, None])).all()
    again = run_trajectory_batch(inst, seed=13, **kwargs)
    assert np.array_equal(again.violations, counts)
    assert np.array_equal(again.first_labels, batch.first_labels)
    for h in horizons:
        assert np.array_equal(again.horizon_violations[h], batch.horizon_violations[h])


def test_stop_after_violations_must_be_positive():
    with pytest.raises(ValueError, match="must be positive"):
        run_trajectory_batch(two_qubit_chain(), seed=1, n_traj=4, max_steps=4,
                             stop_after_violations=0)


def test_rank_zero_event_reads_nothing():
    # a zero projector has no nonzero local state: its factor has no columns
    # and every row's weight is exactly 0, through the step and the sweep
    zero, q1 = np.zeros((2, 2)), np.diag([0.0, 1.0])
    inst = QlllInstance.build(2, 2, [((0,), zero), ((1,), q1)])
    assert full_factor(inst, 0).shape == (2, 0)
    batch = run_trajectory_batch(inst, seed=2, n_traj=50, max_steps=40, record_first=2)
    assert batch.violations.any()
    assert np.isin(batch.first_labels, [-1, 1]).all()
    states = np.eye(4, dtype=complex)
    weights = _event_weights(states, np.arange(4), event_table(inst))
    assert np.array_equal(weights, [[0, 0], [0, 1], [0, 0], [0, 1]])


@pytest.mark.parametrize("make", [hadamard_ring, basis_ring])
@pytest.mark.parametrize("count", [1, 400])
def test_gather_of_every_row_is_bit_identical(make, count):
    """rows None reads every row without copying them first: the same bits
    as the explicit index, for the dense events of the Hadamard-turned ring
    (whole front blocks) and the basis ring's (positions)."""
    rng = np.random.default_rng(count)
    states = rng.normal(size=(count, 2 ** 8)) + 1j * rng.normal(size=(count, 2 ** 8))
    every = np.arange(count)
    table = event_table(make())
    for i in range(table.m):
        plan, pos = table.plan(i), table.block(i).pos
        want = plan.to_front(states[every]) if pos is None else plan.gather(states, every, pos)
        assert np.array_equal(plan.gather(states, None, pos), want)
    assert np.array_equal(_event_weights(states, None, table), _event_weights(states, every, table))
