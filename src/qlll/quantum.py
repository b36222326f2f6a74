"""Dense pure-state simulation of the measure-and-resample process.

The process starts from a uniformly random computational basis state (a pure
unraveling of the maximally mixed state), repeatedly picks one bad-event
projector uniformly at random and measures it.  A violated outcome is appended
to the execution log and the event's qudits are resampled: they are collapsed
in the computational basis and then overwritten with fresh uniform basis
values.  Averaged over trajectories this implements the trace-out-and-refill
channel on the event's support.

One collapse-and-refill step, _refill_rows, serves every engine.  The block
step _measure_rows measures one event on a set of rows of a (B, D) state
array and refills the violated rows through it.

Entry points:

- run_quantum_solver: one trajectory, scalar reference implementation with a
  per-trajectory seed, log and optional outcome trace.  Its satisfied branch
  is a scalar fast path; its violated branch refills through _refill_rows.
- run_exact_solver: cyclic-order solver for commuting families that succeeds
  once every event in a row comes out satisfied; scalar, like the above.
- run_trajectory_batch: many trajectories at once on the block step.
  Statistically equivalent to the scalar path but consumes randomness in a
  different order, so individual trajectories differ for the same seed.
- run_converger: run for a uniformly random number of steps and average
  violation probabilities and ground-space overlap over samples.  Samples
  run as rows of the block step, each stopping at its own time, and draw
  from one random stream per call.
- tau_check: witness-tree pass/fail experiment (resample the vertex support,
  then measure the transposed projector, deepest vertices first).  Samples
  run as rows that visit the vertices together, from one stream per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .instance import QlllInstance, spectral_report
from .logs import ExecutionLog
from .tensor import LocalPlan, make_rng
from .witness import WitnessTree

NORM_TOL = 1e-10


def _events(inst: QlllInstance):
    """Per-event axis plans and local projector matrices."""
    n, d = inst.shape.n, inst.shape.d
    plans = [LocalPlan(n, d, p.qudits) for p in inst.projectors]
    return plans, [p.local_matrix for p in inst.projectors]


def _basis_states(rng, B: int, n: int, d: int) -> np.ndarray:
    """B uniformly random computational basis states as a (B, d^n) array."""
    digits = rng.integers(0, d, size=(B, n))
    powers = d ** np.arange(n - 1, -1, -1)
    states = np.zeros((B, d ** n), dtype=complex)
    states[np.arange(B), digits @ powers] = 1.0
    return states


def _refill_rows(post: np.ndarray, plan: LocalPlan, rng) -> np.ndarray:
    """Collapse the event axis of each row in the basis, then refill it fresh.

    post is a (B, dk, rest) stack of normalised blocks with the event's
    qudits leading.  Returns the new stack.
    """
    B = post.shape[0]
    probs = (np.abs(post) ** 2).sum(axis=2)
    cum = np.cumsum(probs, axis=1)
    draws = rng.random(B) * cum[:, -1]
    s = np.minimum((cum <= draws[:, None]).sum(axis=1), plan.dk - 1)
    picked = np.arange(B)
    row = post[picked, s, :] / np.sqrt(probs[picked, s])[:, None]
    fresh = rng.integers(0, plan.d, size=(B, plan.k)) @ plan.local_powers
    out = np.zeros_like(post)
    out[picked, fresh, :] = row
    return out


def _check_outcome(prob: float) -> None:
    """Raise before renormalising by a vanishing outcome probability."""
    if prob < 1e-28:
        raise RuntimeError(
            f"measurement outcome with vanishing probability {prob:.3e}"
        )


def _measure_rows(states, rows, plan: LocalPlan, local, rng) -> np.ndarray:
    """Measure one event on states[rows] in place; returns the violated mask.

    Satisfied rows are renormalised; violated rows are collapsed and refilled
    on the event's qudits.
    """
    arr = plan.to_front_batch(states[rows])
    proj = np.matmul(local, arr)
    amp = np.clip((np.abs(proj) ** 2).sum(axis=(1, 2)), 0.0, 1.0)
    hit = rng.random(rows.size) < amp
    sat = ~hit
    if sat.any():
        remainder = 1.0 - amp[sat]
        _check_outcome(float(remainder.min()))
        keep = (arr[sat] - proj[sat]) / np.sqrt(remainder)[:, None, None]
        states[rows[sat]] = plan.from_front_batch(keep)
    if hit.any():
        post = proj[hit] / np.sqrt(amp[hit])[:, None, None]
        states[rows[hit]] = plan.from_front_batch(_refill_rows(post, plan, rng))
    return hit


def _event_weights(states, plans, locals_) -> np.ndarray:
    """(B, m) array of |P_i psi|^2 for every row psi of states."""
    out = np.empty((states.shape[0], len(plans)))
    for i, (plan, local) in enumerate(zip(plans, locals_)):
        proj = np.matmul(local, plan.to_front_batch(states))
        out[:, i] = (np.abs(proj) ** 2).sum(axis=(1, 2))
    return out


def _kernel_weight(states, plans, locals_) -> np.ndarray:
    """Squared norm of every row after projecting out each event in turn;
    for a commuting family this is the overlap with the common kernel."""
    cur = states
    for plan, local in zip(plans, locals_):
        arr = plan.to_front_batch(cur)
        cur = plan.from_front_batch(arr - np.matmul(local, arr))
    return (np.abs(cur) ** 2).sum(axis=1)


def _measure_and_patch(state, plan, local, rng):
    """Measure one event; on violation resample its qudits.

    Returns (violated, new flat state).
    """
    arr = plan.to_front(state)
    proj = local @ arr
    amp = min(max(float(np.vdot(proj, proj).real), 0.0), 1.0)
    if rng.random() < amp:
        post = proj[None] / math.sqrt(amp)
        return True, plan.from_front(_refill_rows(post, plan, rng)[0])
    remainder = 1.0 - amp
    _check_outcome(remainder)
    post = (arr - proj) / math.sqrt(remainder)
    return False, plan.from_front(post)


def _check_norm(states: np.ndarray) -> None:
    """Raise when the state, or any row of a batch, is off unit norm."""
    if states.ndim == 1:
        drift = abs(float(np.vdot(states, states).real) - 1.0)
    else:
        drift = float(np.abs((np.abs(states) ** 2).sum(axis=1) - 1.0).max())
    if drift > NORM_TOL:
        raise RuntimeError(f"state norm drifted by {drift:.3e}")


def _chunk_rows(dim: int) -> int:
    """Rows per block that keep a (rows, dim) array within the batch budget."""
    return max(1, config.BATCH_STATE_ENTRIES // dim)


@dataclass(frozen=True)
class Trajectory:
    """Final state of one run plus its execution log.

    outcome_trace, when recorded, lists (projector id, violated) for every
    step; the log entries are exactly the violated steps of the trace.
    """

    state: np.ndarray
    log: ExecutionLog
    outcome_trace: tuple | None
    rng_seed: int | None


def run_quantum_solver(
    inst: QlllInstance,
    seed: int,
    max_steps: int | None = None,
    record_outcomes: bool = False,
) -> Trajectory:
    """Run one trajectory of the uniform measure-and-resample process."""
    inst.shape.check_budget(config.state_budget_d())
    m = inst.m
    if max_steps is None:
        max_steps = config.QUANTUM_STEPS_PER_PROJECTOR * m
    rng = make_rng(seed)
    plans, locals_ = _events(inst)
    state = _basis_states(rng, 1, inst.shape.n, inst.shape.d)[0]
    entries = []
    trace = [] if record_outcomes else None
    steps = max_steps if m > 0 else 0
    for step in range(steps):
        i = int(rng.integers(0, m))
        violated, state = _measure_and_patch(state, plans[i], locals_[i], rng)
        _check_norm(state)
        if trace is not None:
            trace.append((i, violated))
        if violated:
            entries.append((step, i))
    log = ExecutionLog(tuple(entries), total_steps=steps, seed=seed)
    return Trajectory(state, log, tuple(trace) if trace is not None else None, seed)


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
    seed: int
    n_traj: int
    max_steps: int


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
    has dropped to (numerical) zero, are frozen and skipped; frozen rows keep
    their counts, which makes long horizons cheap on converging instances.
    """
    shape = inst.shape
    shape.check_budget(config.state_budget_d())
    if n_traj < 1:
        raise ValueError("n_traj must be positive")
    if n_traj * shape.dim > config.BATCH_STATE_ENTRIES:
        raise ValueError(
            f"batch of {n_traj} states of dimension {shape.dim} exceeds the "
            f"{config.BATCH_STATE_ENTRIES} amplitude budget; split into chunks"
        )
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
    plans, locals_ = _events(inst)
    active = np.full(n_traj, m > 0)

    for step in range(max_steps):
        if not active.any():
            break
        ids = rng.integers(0, m, size=n_traj)
        act_idx = np.flatnonzero(active)
        act_ids = ids[act_idx]
        for i in np.unique(act_ids):
            rows = act_idx[act_ids == i]
            vrows = rows[_measure_rows(states, rows, plans[i], locals_[i], rng)]
            if first is not None:
                slot = violations[vrows]
                fill = slot < record_first
                first[vrows[fill], slot[fill]] = i
            violations[vrows] += 1
            if stop_after_violations is not None:
                done = violations[vrows] >= stop_after_violations
                active[vrows[done]] = False

        if (step + 1) % config.BATCH_FREEZE_EVERY == 0 and active.any():
            act = np.flatnonzero(active)
            weight = _event_weights(states[act], plans, locals_).sum(axis=1)
            active[act[weight < config.BATCH_FREEZE_TOL]] = False

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
        seed=seed,
        n_traj=n_traj,
        max_steps=max_steps,
    )


def tau_check(
    tree: WitnessTree, inst: QlllInstance, seed: int, samples: int
) -> float:
    """Estimate the pass rate of the witness-tree check experiment.

    Each sample starts from a uniform basis state and visits the vertices
    deepest level first.  At a vertex with label i the qudits of event i are
    resampled fresh, then the transpose of the event's projector is measured;
    the sample fails on a satisfied outcome.  The pass rate converges to the
    product of the relative dimensions of the vertex labels.
    """
    inst.shape.check_budget(config.state_budget_d())
    if samples < 1:
        raise ValueError("samples must be positive")
    for lab in tree.labels:
        if not 0 <= lab < inst.m:
            raise ValueError(f"tree label {lab} outside instance range")
    depths = tree.depths()
    order = sorted(range(len(tree.labels)), key=lambda v: (-depths[v], v))
    plans, locals_ = _events(inst)
    transposed = [local.T for local in locals_]

    rng = make_rng(seed)
    n, d = inst.shape.n, inst.shape.d
    chunk = _chunk_rows(inst.shape.dim)
    passes = 0
    for lo in range(0, samples, chunk):
        states = _basis_states(rng, min(chunk, samples - lo), n, d)
        live = np.arange(states.shape[0])
        for v in order:
            if live.size == 0:
                break
            lab = tree.labels[v]
            plan = plans[lab]
            arr = _refill_rows(plan.to_front_batch(states[live]), plan, rng)
            proj = np.matmul(transposed[lab], arr)
            amp = np.clip((np.abs(proj) ** 2).sum(axis=(1, 2)), 0.0, 1.0)
            hit = rng.random(live.size) < amp
            live = live[hit]
            post = proj[hit] / np.sqrt(amp[hit])[:, None, None]
            states[live] = plan.from_front_batch(post)
        passes += live.size
    return passes / samples


@dataclass(frozen=True)
class ConvergerResult:
    """Averages over trajectories stopped at a uniformly random time."""

    mean_violation_prob: np.ndarray
    ground_overlap: float
    samples: int
    t: int
    seed: int


def _ground_overlap_fn(inst: QlllInstance, plans, locals_):
    """Returns states -> per-row overlap with the common kernel of all events."""
    if inst.is_commuting():
        return lambda states: _kernel_weight(states, plans, locals_)
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
    inst.shape.check_budget(config.state_budget_d())
    if t < 0:
        raise ValueError("t must be nonnegative")
    if samples < 1:
        raise ValueError("samples must be positive")
    m = inst.m
    plans, locals_ = _events(inst)
    overlap = _ground_overlap_fn(inst, plans, locals_)

    rng = make_rng(seed)
    taus = rng.integers(0, t + 1, size=samples)
    chunk = _chunk_rows(inst.shape.dim)
    acc = np.zeros(m)
    acc_ground = 0.0
    for lo in range(0, samples, chunk):
        tau = taus[lo:lo + chunk]
        states = _basis_states(rng, tau.size, inst.shape.n, inst.shape.d)
        for step in range(int(tau.max()) if m else 0):
            live = np.flatnonzero(tau > step)
            ids = rng.integers(0, m, size=live.size)
            for i in np.unique(ids):
                _measure_rows(states, live[ids == i], plans[i], locals_[i], rng)
        acc += _event_weights(states, plans, locals_).sum(axis=0)
        acc_ground += float(overlap(states).sum())
    return ConvergerResult(
        mean_violation_prob=np.clip(acc / samples, 0.0, 1.0),
        ground_overlap=min(max(acc_ground / samples, 0.0), 1.0),
        samples=samples,
        t=t,
        seed=seed,
    )


@dataclass(frozen=True)
class ExactSolverConfig:
    """Parameters of the cyclic-order solver for commuting families.

    p controls the failure budget (success probability at least 1 - 1/p),
    m_prime upper-bounds the certificate sum x_i / (1 - x_i), and fixed_order
    is the cyclic order in which events are measured.
    """

    p: int
    m_prime: float
    fixed_order: tuple

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError("p must be an integer >= 2")
        if self.m_prime < 0:
            raise ValueError("m_prime must be nonnegative")
        object.__setattr__(self, "fixed_order", tuple(self.fixed_order))

    def iteration_cap(self, m: int) -> int:
        return math.ceil((m + 1) * (self.p * self.m_prime + 1))


@dataclass(frozen=True)
class ExactRunResult:
    success: bool
    trajectory: Trajectory


def run_exact_solver(
    inst: QlllInstance, cfg: ExactSolverConfig, seed: int
) -> ExactRunResult:
    """Measure events in a fixed cyclic order until all pass in a row.

    A violated outcome resamples the event and resets the pass counter; the
    counter reaching m ends the run in success, whose final state then lies
    in the common kernel of all events (verified to 1e-8).  The iteration
    budget is ceil((m+1)(p*m_prime+1)); exceeding it ends the run in failure.
    """
    inst.shape.check_budget(config.state_budget_d())
    m = inst.m
    if sorted(cfg.fixed_order) != list(range(m)):
        raise ValueError("fixed_order must be a permutation of the event ids")
    if not inst.is_commuting():
        raise ValueError("the exact solver requires a commuting family")

    plans, locals_ = _events(inst)
    rng = make_rng(seed)
    state = _basis_states(rng, 1, inst.shape.n, inst.shape.d)[0]
    cap = cfg.iteration_cap(m)
    entries = []
    consecutive = 0
    it = 0
    while it < cap:
        if consecutive == m:
            break
        i = cfg.fixed_order[it % m] if m else 0
        violated, state = _measure_and_patch(state, plans[i], locals_[i], rng)
        _check_norm(state)
        if violated:
            entries.append((it, i))
            consecutive = 0
        else:
            consecutive += 1
        it += 1
    success = consecutive == m
    if success and m > 0:
        if _kernel_weight(state[None], plans, locals_)[0] < 1.0 - 1e-8:
            raise RuntimeError("successful run left the common kernel")
    log = ExecutionLog(tuple(entries), total_steps=it, seed=seed)
    return ExactRunResult(success, Trajectory(state, log, None, seed))
