"""Dense pure-state simulation of the measure-and-resample process.

The process starts from a uniformly random computational basis state (a pure
unraveling of the maximally mixed state), repeatedly picks one bad-event
projector uniformly at random and measures it.  A violated outcome is appended
to the execution log and the event's qudits are resampled: they are collapsed
in the computational basis and then overwritten with fresh uniform basis
values.  Averaged over trajectories this implements the trace-out-and-refill
channel on the event's support.

One step serves every engine.  The block step _measure_rows measures one
event on a set of rows of a (B, D) state array, and _refill_rows collapses and
refills its violated rows in place; a single trajectory is a block of one row.
The step costs what its rows need:

- layout: a block of rows is laid out with the event's qudits leading across
  the whole block, as a (d^k, B * rest) matrix (tensor.LocalPlan), so one
  2-D matrix product applies the event to every row.
- factor: each event is measured through its range factor V (P = V V^dag),
  factored from P on the local basis states K where it is nonzero and
  checked against it at 1e-12.  A row's weight |V^dag psi|^2 reads only the
  amplitudes at K's register positions, and P psi = V (V^dag psi) is
  written there only, for rows that change.
- zero-weight rule: a satisfied row of weight exactly 0 already equals
  (I - P) psi / sqrt(1 - 0) and is not written back.
- per instance: layouts, K and its positions come from the instance's event
  table (instance.event_table), which the density channels (oracles) read
  too; the factors are kept on that table, so every run shares them.
- live rows: run_trajectory_batch keeps an index of the rows still running,
  draws one id per live row each step and groups the rows by id with one
  stable argsort, a radix sort on ids cast to the narrowest unsigned type;
  the groups' hits fill one mask, from which the step's counts and first
  labels are updated once; rows leave the index when they reach
  stop_after_violations or when the freeze sweep finds their total
  bad-event weight, read through the same range factors, negligible.

Every engine checks its rows for unit norm (_check_norm).  Entry points:

- run_quantum_solver: one trajectory with its own seed, log and optional
  outcome trace; it stops measuring once every event weight on its state
  (_event_weights, the squared weights _measure_rows reads) is exactly 0.
- run_exact_solver: solver for commuting families that measures the events
  cyclically in id order and succeeds once every event in a row comes out
  satisfied; one trajectory, like the above.  A success reports
  kernel_weight, read through the range factors.
- run_trajectory_batch: many trajectories at once.  Statistically equivalent
  to run_quantum_solver but consumes randomness in a different order, so
  individual trajectories differ for the same seed.
- run_converger: run for a uniformly random number of steps and average
  violation probabilities and ground-space overlap over samples.  Samples
  run as rows of one block, each stopping at its own time, and draw from one
  random stream per call.

_measure_rows is the only code that measures an event; _event_weights and
_kernel_weight read weights through the same range factors without
measuring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import config
from .errors import InvariantError
from .instance import QlllInstance, event_table, spectral_report
from .logs import ExecutionLog
from .tensor import EventTable, LocalPlan, make_rng


class _Factor(NamedTuple):
    """An event's range factor V (P = V V^dag) as v = V and vh = V^dag on
    the local basis states where P is nonzero, and pos, their register
    positions (tensor.EventBlock; None when that is every local state)."""

    v: np.ndarray
    vh: np.ndarray
    pos: np.ndarray | None


def _range_factor(events: EventTable, i: int) -> _Factor:
    """Event i's range factor, from the table's P on its nonzero states and
    checked against it at 1e-12; built on first use and kept on the table.
    P is zero off those states, so a state with no amplitude on them has
    weight exactly 0."""
    f = events.factors.get(i)
    if f is None:
        b = events.block(i)
        evals, evecs = np.linalg.eigh(b.p)
        v = evecs[:, evals > 0.5]
        drift = float(np.abs(v @ v.conj().T - b.p).max(initial=0.0))
        if drift > 1e-12:
            raise ValueError(
                f"projector {i}: range factor misses the matrix by {drift:.3e}"
            )
        f = events.factors[i] = _Factor(
            np.ascontiguousarray(v), np.ascontiguousarray(v.conj().T), b.pos
        )
    return f


def _basis_states(rng, B: int, n: int, d: int) -> np.ndarray:
    """B uniformly random computational basis states as a (B, d^n) array."""
    digits = rng.integers(0, d, size=(B, n))
    powers = d ** np.arange(n - 1, -1, -1)
    states = np.zeros((B, d ** n), dtype=complex)
    states[np.arange(B), digits @ powers] = 1.0
    return states


def _refill_rows(states, rows, post: np.ndarray, plan: LocalPlan, rng) -> None:
    """Collapse the event's qudits of states[rows] in the basis, then refill
    them with fresh uniform values, in place.

    post is the C-contiguous (r, B, rest) stack of the B normalised rows,
    event qudits leading, on r local basis states that hold all of their
    amplitude.
    """
    B, rest = rows.size, plan.rest_dim
    f = post.view(np.float64)
    probs = np.vecdot(f, f)
    cum = np.cumsum(probs, axis=0)
    draws = rng.random(B) * cum[-1]
    s = np.minimum((cum <= draws).sum(axis=0), post.shape[0] - 1)
    picked = s * B + np.arange(B)
    row = post.reshape(-1, rest)[picked] / np.sqrt(probs.reshape(-1)[picked])[:, None]
    fresh = rng.integers(0, plan.d, size=(B, plan.k)) @ plan.local_powers
    states[rows] = 0.0
    states[rows[:, None], plan.index[fresh]] = row


def _row_weights(c: np.ndarray, B: int, rest: int) -> np.ndarray:
    """Squared norm per row of a (r, B * rest) block, by one vecdot on its
    rows laid out as (B, r * rest); that layout copies only when r > 1."""
    f = c.view(np.float64).reshape(c.shape[0], B, 2 * rest).transpose(1, 0, 2).reshape(B, -1)
    return np.vecdot(f, f)


def _measure_rows(states, rows, plan: LocalPlan, factor: _Factor, rng) -> np.ndarray:
    """Measure one event on states[rows] in place; returns the violated mask.

    A row's weight is w = |V^dag psi|^2 with P = V V^dag, read from the
    amplitudes on the states where V is nonzero.  Satisfied rows become
    (I - P) psi / sqrt(1 - w), except rows of weight exactly 0, which
    already are and are not written back; violated rows become
    P psi / sqrt(w), built from V^dag psi, and are collapsed and refilled on
    the event's qudits.
    """
    B, rest = rows.size, plan.rest_dim
    x = plan.gather(states, rows, factor.pos)
    c = factor.vh @ x
    w = _row_weights(c, B, rest)
    hit = rng.random(B) < w
    if not w.any():  # no row changes
        return hit
    r = c.shape[0]
    c = c.reshape(r, B, rest)
    # a row that hits has w > 0: the rows left with w > 0 are satisfied
    sat = ((w > 0.0) ^ hit).nonzero()[0]
    if sat.size:
        # satisfied: w <= draw <= 1 - 2^-53, so 1 - w >= 2^-53 and never vanishes
        root = np.sqrt(1.0 - w[sat])[:, None]
        block = x.reshape(-1, B, rest).take(sat, axis=1)
        block -= (factor.v @ c.take(sat, axis=1).reshape(r, -1)).reshape(block.shape)
        block /= root
        if factor.pos is not None:
            # V is zero off the gathered states: the rest of a row only rescales
            states[rows[sat]] /= root
        plan.scatter(states, rows[sat], block, factor.pos)
    vio = hit.nonzero()[0]
    if vio.size:
        post = (factor.v @ c.take(vio, axis=1).reshape(r, -1)).reshape(-1, vio.size, rest)
        post /= np.sqrt(w[vio])[:, None]
        _refill_rows(states, rows[vio], post, plan, rng)
    return hit


def _groups(ids: np.ndarray):
    """(id, positions) for each distinct id in increasing id order, from one
    stable argsort (a radix sort on ids of 16 bits or fewer); the positions
    of one id stay in increasing order."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    cuts = (np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [ids.size]):
        yield int(sorted_ids[lo]), order[lo:hi]


def _event_weights(states, rows, events: EventTable) -> np.ndarray:
    """(B, m) array of |P_i psi|^2 for every row psi of states[rows] (None: all)."""
    out = np.empty((len(states) if rows is None else rows.size, events.m))
    for i in range(events.m):
        plan, f = events.plan(i), _range_factor(events, i)
        c = f.vh @ plan.gather(states, rows, f.pos)
        out[:, i] = _row_weights(c, len(out), plan.rest_dim)
    return out


def _kernel_weight(states, events: EventTable) -> np.ndarray:
    """Squared norm of every row after projecting out each event in turn;
    for a commuting family this is the overlap with the common kernel.
    Each (I - P) psi is x - V (V^dag x) on the event's nonzero states x."""
    cur = states.copy()
    rows = np.arange(cur.shape[0])
    for i in range(events.m):
        plan, f = events.plan(i), _range_factor(events, i)
        x = plan.gather(cur, None, f.pos)
        x -= f.v @ (f.vh @ x)
        plan.scatter(cur, rows, x, f.pos)
    f = cur.view(np.float64)
    return np.vecdot(f, f)


def _check_norm(states: np.ndarray) -> None:
    """Raise when any row of a (B, D) state array is off unit norm."""
    f = states.view(np.float64)
    drift = float(abs(np.vecdot(f, f) - 1.0).max())
    if not drift <= config.NORM_TOL:  # NaN fails too
        raise InvariantError(f"state norm drifted by {drift:.3e}", drift)


@dataclass(frozen=True)
class Trajectory:
    """Final state of one run plus its execution log.

    outcome_trace, when recorded, lists (projector id, violated) for every
    step; the log entries are exactly the violated steps of the trace.
    """

    state: np.ndarray
    log: ExecutionLog
    outcome_trace: tuple | None


def run_quantum_solver(
    inst: QlllInstance,
    seed: int,
    max_steps: int | None = None,
    record_outcomes: bool = False,
) -> Trajectory:
    """Run one trajectory of the uniform measure-and-resample process.

    Every config.BATCH_FREEZE_EVERY steps the run checks whether it has
    settled: every event weight _event_weights reads is exactly 0.  A
    settled run stops measuring, since _measure_rows reads the same squared
    weights, so every later step would be satisfied with weight 0 and change
    neither the state nor the log; the log still reports
    total_steps = max_steps.  A run that records its outcome trace never
    stops early, because the trace lists every step.
    """
    inst.shape.check_budget(config.STATE_BUDGET_D)
    m = inst.m
    if max_steps is None:
        max_steps = config.QUANTUM_STEPS_PER_PROJECTOR * m
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    rng = make_rng(seed)
    events = event_table(inst)
    states = _basis_states(rng, 1, inst.shape.n, inst.shape.d)
    row = np.arange(1)
    entries = []
    trace = [] if record_outcomes else None
    steps = max_steps if m > 0 else 0
    for step in range(steps):
        i = int(rng.integers(0, m))
        violated = bool(_measure_rows(states, row, events.plan(i), _range_factor(events, i), rng)[0])
        _check_norm(states)
        if violated:
            entries.append((step, i))
        if trace is not None:
            trace.append((i, violated))
        elif (step + 1) % config.BATCH_FREEZE_EVERY == 0:
            if not _event_weights(states, row, events).any():
                break  # the steps left change neither the state nor the log
    log = ExecutionLog(tuple(entries), total_steps=steps, seed=seed)
    return Trajectory(states[0], log, tuple(trace) if trace is not None else None)


@dataclass
class TrajectoryBatch:
    """Aggregate statistics from run_trajectory_batch.

    violations[b] is the number of violated outcomes trajectory b saw,
    first_labels[b] the ids of its first record_first violations (-1 padded),
    horizon_violations[h] the per-trajectory counts after h steps.
    """

    violations: np.ndarray
    first_labels: np.ndarray | None
    horizon_violations: dict


def run_trajectory_batch(
    inst: QlllInstance,
    seed: int,
    n_traj: int,
    max_steps: int,
    *,
    record_first: int = 0,
    stop_after_violations: int | None = None,
    horizons: tuple = (),
) -> TrajectoryBatch:
    """Run many trajectories at once on a (n_traj, D) amplitude array.

    Rows that reached stop_after_violations, or whose total bad-event weight
    has dropped to (numerical) zero, are frozen: they leave the live-row index
    and keep their counts, which makes long horizons cheap on converging
    instances.  Each step draws one id per live row.
    """
    shape = inst.shape
    shape.check_budget(config.STATE_BUDGET_D)
    if n_traj < 1:
        raise ValueError("n_traj must be positive")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if n_traj * shape.dim > config.BATCH_STATE_ENTRIES:
        raise ValueError(
            f"batch of {n_traj} states of dimension {shape.dim} exceeds the "
            f"{config.BATCH_STATE_ENTRIES} amplitude budget; split into chunks"
        )
    if stop_after_violations is not None and stop_after_violations < 1:
        raise ValueError("stop_after_violations must be positive")
    for h in horizons:
        if not 0 <= h <= max_steps:
            raise ValueError(f"horizon {h} outside [0, {max_steps}]")

    m = inst.m
    rng = make_rng(seed)
    violations = np.zeros(n_traj, dtype=np.int64)
    first = None
    if record_first:
        # signed, wide enough for the largest id m - 1 and the -1 padding
        dtype = np.promote_types(np.int16, np.min_scalar_type(-max(m, 1)))
        first = np.full((n_traj, record_first), -1, dtype=dtype)
    horizon_set = set(horizons)
    snapshots = {}
    if 0 in horizon_set:
        snapshots[0] = violations.copy()

    states = _basis_states(rng, n_traj, shape.n, shape.d)
    events = event_table(inst)
    live = np.arange(n_traj if m > 0 else 0)
    id_type = np.min_scalar_type(m - 1)  # unsigned for m >= 1: _groups radix-sorts it

    for step in range(max_steps):
        if live.size == 0:
            break
        ids = rng.integers(0, m, size=live.size).astype(id_type)
        hit = np.empty(live.size, dtype=bool)
        for i, at in _groups(ids):
            hit[at] = _measure_rows(states, live[at], events.plan(i), _range_factor(events, i), rng)
        vrows = live[hit]
        if first is not None:
            slot = violations[vrows]
            fill = slot < record_first
            first[vrows[fill], slot[fill]] = ids[hit][fill]
        violations[vrows] += 1
        if stop_after_violations is not None:
            live = live[violations[live] < stop_after_violations]
        if (step + 1) % config.BATCH_FREEZE_EVERY == 0 and live.size:
            weight = _event_weights(states, live, events).sum(axis=1)
            live = live[weight >= config.BATCH_FREEZE_TOL]
        if (step + 1) in horizon_set:
            snapshots[step + 1] = violations.copy()

    for h in horizon_set:
        if h not in snapshots:
            snapshots[h] = violations.copy()

    _check_norm(states)
    return TrajectoryBatch(
        violations=violations,
        first_labels=first,
        horizon_violations=snapshots,
    )


@dataclass(frozen=True)
class ConvergerResult:
    """Averages over trajectories stopped at a uniformly random time."""

    mean_violation_prob: np.ndarray
    ground_overlap: float


def _ground_overlap_fn(inst: QlllInstance, events: EventTable):
    """Returns states -> per-row overlap with the common kernel of all events."""
    if inst.is_commuting():
        return lambda states: _kernel_weight(states, events)
    p0 = spectral_report(inst).p0
    return lambda states: (states.conj() * (states @ p0.T)).sum(axis=1).real


def run_converger(
    inst: QlllInstance, seed: int, t: int, samples: int
) -> ConvergerResult:
    """Average the process over samples runs of uniformly random length.

    Each sample runs the measure-and-resample process for tau steps with tau
    drawn uniformly from {0, ..., t}, then contributes its violation
    probabilities <psi|Pi_i|psi> and ground overlap <psi|P0|psi>.
    """
    inst.shape.check_budget(config.STATE_BUDGET_D)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if samples < 1:
        raise ValueError("samples must be positive")
    m = inst.m
    events = event_table(inst)
    overlap = _ground_overlap_fn(inst, events)

    rng = make_rng(seed)
    taus = rng.integers(0, t + 1, size=samples)
    chunk = max(1, config.BATCH_STATE_ENTRIES // inst.shape.dim)  # rows within the batch budget
    acc = np.zeros(m)
    acc_ground = 0.0
    id_type = np.min_scalar_type(m - 1)  # unsigned for m >= 1: _groups radix-sorts it
    for lo in range(0, samples, chunk):
        tau = taus[lo:lo + chunk]
        states = _basis_states(rng, tau.size, inst.shape.n, inst.shape.d)
        for step in range(int(tau.max()) if m else 0):
            live = np.flatnonzero(tau > step)
            ids = rng.integers(0, m, size=live.size).astype(id_type)
            for i, at in _groups(ids):
                _measure_rows(states, live[at], events.plan(i), _range_factor(events, i), rng)
        _check_norm(states)
        acc += _event_weights(states, None, events).sum(axis=0)
        acc_ground += float(overlap(states).sum())
    return ConvergerResult(
        mean_violation_prob=np.clip(acc / samples, 0.0, 1.0),
        ground_overlap=min(max(acc_ground / samples, 0.0), 1.0),
    )


@dataclass(frozen=True)
class ExactSolverConfig:
    """Parameters of the cyclic-order solver for commuting families.

    p controls the failure budget (success probability at least 1 - 1/p)
    and m_prime upper-bounds the certificate sum x_i / (1 - x_i).
    """

    p: int
    m_prime: float

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError("p must be an integer >= 2")
        if self.m_prime < 0:
            raise ValueError("m_prime must be nonnegative")

    def iteration_cap(self, m: int) -> int:
        return math.ceil((m + 1) * (self.p * self.m_prime + 1))


@dataclass(frozen=True)
class ExactRunResult:
    success: bool
    trajectory: Trajectory
    kernel_weight: float | None


def run_exact_solver(
    inst: QlllInstance, cfg: ExactSolverConfig, seed: int
) -> ExactRunResult:
    """Measure events cyclically in id order until all pass in a row.

    A violated outcome resamples the event and resets the pass counter; the
    counter reaching m ends the run in success, whose kernel_weight (overlap
    with the common kernel; None on failure) is checked to be 1 within 1e-8.
    Past ceil((m+1)(p*m_prime+1)) iterations the run ends in failure.
    """
    inst.shape.check_budget(config.STATE_BUDGET_D)
    m = inst.m
    if not inst.is_commuting():
        raise ValueError("the exact solver requires a commuting family")

    events = event_table(inst)
    rng = make_rng(seed)
    states = _basis_states(rng, 1, inst.shape.n, inst.shape.d)
    row = np.arange(1)
    cap = cfg.iteration_cap(m)
    entries = []
    consecutive = 0
    it = 0
    while it < cap and consecutive < m:
        i = it % m
        violated = _measure_rows(states, row, events.plan(i), _range_factor(events, i), rng)[0]
        _check_norm(states)
        if violated:
            entries.append((it, i))
            consecutive = 0
        else:
            consecutive += 1
        it += 1
    success = consecutive == m
    weight = float(_kernel_weight(states, events)[0]) if success else None
    if success and weight < 1.0 - 1e-8:
        raise InvariantError(
            f"successful run left the common kernel (weight {weight:.3e})", weight
        )
    log = ExecutionLog(tuple(entries), total_steps=it, seed=seed)
    return ExactRunResult(success, Trajectory(states[0], log, None), weight)
