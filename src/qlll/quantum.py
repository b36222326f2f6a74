"""Dense pure-state simulation of the measure-and-resample process.

The process starts from a uniformly random computational basis state (a pure
unraveling of the maximally mixed state), repeatedly picks one bad-event
projector uniformly at random and measures it.  A violated outcome is appended
to the execution log and the event's qudits are resampled: they are collapsed
in the computational basis and then overwritten with fresh uniform basis
values.  Averaged over trajectories this implements the trace-out-and-refill
channel on the event's support.

Entry points:

- run_quantum_solver: one trajectory, scalar reference implementation.
- run_trajectory_batch: many trajectories at once on (B, D) state arrays.
  Statistically equivalent to the scalar path but consumes randomness in a
  different order, so individual trajectories differ for the same seed.
- tau_check: witness-tree pass/fail experiment (resample the vertex support,
  then measure the transposed projector, deepest vertices first).
- run_converger: run for a uniformly random number of steps and average
  violation probabilities and ground-space overlap over samples.
- run_exact_solver: cyclic-order solver for commuting families that succeeds
  once every event in a row comes out satisfied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .instance import QlllInstance
from .logs import ExecutionLog
from .tensor import LocalPlan, kernel_projector, make_rng, spawn_rng
from .witness import WitnessTree

NORM_TOL = 1e-10


def _plans(inst: QlllInstance) -> list:
    n, d = inst.shape.n, inst.shape.d
    return [LocalPlan(n, d, p.qudits) for p in inst.projectors]


def _random_basis_state(rng, n: int, d: int) -> np.ndarray:
    digits = rng.integers(0, d, size=n)
    powers = d ** np.arange(n - 1, -1, -1)
    state = np.zeros(d ** n, dtype=complex)
    state[int(digits @ powers)] = 1.0
    return state


def _resample_front(post: np.ndarray, plan: LocalPlan, rng) -> np.ndarray:
    """Collapse the leading (event) axis in the basis, then refill it fresh.

    post is a normalised (dk, rest) block.  Returns the new block.
    """
    probs = (np.abs(post) ** 2).sum(axis=1)
    total = probs.sum()
    cum = np.cumsum(probs)
    s = int(np.searchsorted(cum, rng.random() * total, side="right"))
    s = min(s, plan.dk - 1)
    row = post[s] / math.sqrt(probs[s])
    digits = rng.integers(0, plan.d, size=plan.k)
    fresh = int(digits @ plan.local_powers)
    out = np.zeros_like(post)
    out[fresh] = row
    return out


def _measure_and_patch(state, plan, local, rng):
    """Measure one event; on violation resample its qudits.

    Returns (violated, new flat state).
    """
    arr = plan.to_front(state)
    proj = local @ arr
    amp = min(max(float(np.vdot(proj, proj).real), 0.0), 1.0)
    if rng.random() < amp:
        post = proj / math.sqrt(amp)
        return True, plan.from_front(_resample_front(post, plan, rng))
    remainder = 1.0 - amp
    if remainder < 1e-28:
        raise RuntimeError("measurement outcome with vanishing probability")
    post = (arr - proj) / math.sqrt(remainder)
    return False, plan.from_front(post)


def _check_norm(state: np.ndarray) -> None:
    drift = abs(float(np.vdot(state, state).real) - 1.0)
    if drift > NORM_TOL:
        raise RuntimeError(f"state norm drifted by {drift:.3e}")


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
    stop_after_violations: int | None = None,
) -> Trajectory:
    """Run one trajectory of the uniform measure-and-resample process."""
    inst.shape.check_budget(config.state_budget_d())
    m = inst.m
    if max_steps is None:
        max_steps = config.QUANTUM_STEPS_PER_PROJECTOR * m
    rng = make_rng(seed)
    plans = _plans(inst)
    locals_ = [p.local_matrix for p in inst.projectors]
    state = _random_basis_state(rng, inst.shape.n, inst.shape.d)
    entries = []
    trace = [] if record_outcomes else None
    steps_done = 0
    if m > 0:
        for step in range(max_steps):
            i = int(rng.integers(0, m))
            violated, state = _measure_and_patch(state, plans[i], locals_[i], rng)
            _check_norm(state)
            if trace is not None:
                trace.append((i, violated))
            if violated:
                entries.append((step, i))
            steps_done = step + 1
            if (
                stop_after_violations is not None
                and len(entries) >= stop_after_violations
            ):
                break
    log = ExecutionLog(tuple(entries), total_steps=steps_done, seed=seed)
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
    states: np.ndarray | None
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
    keep_states: bool = False,
    freeze_settled: bool = True,
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
    d, n = shape.d, shape.n
    violations = np.zeros(n_traj, dtype=np.int64)
    first = (
        np.full((n_traj, record_first), -1, dtype=np.int16) if record_first else None
    )
    horizon_set = set(horizons)
    snapshots = {}
    if 0 in horizon_set:
        snapshots[0] = violations.copy()

    digits = rng.integers(0, d, size=(n_traj, n))
    powers = d ** np.arange(n - 1, -1, -1)
    states = np.zeros((n_traj, shape.dim), dtype=complex)
    states[np.arange(n_traj), digits @ powers] = 1.0

    plans = _plans(inst)
    locals_ = [p.local_matrix for p in inst.projectors]
    active = np.ones(n_traj, dtype=bool)
    if m == 0:
        active[:] = False

    for step in range(max_steps):
        if not active.any():
            break
        ids = rng.integers(0, m, size=n_traj)
        act_idx = np.flatnonzero(active)
        for i in range(m):
            rows = act_idx[ids[act_idx] == i]
            if rows.size == 0:
                continue
            plan, local = plans[i], locals_[i]
            arr = plan.to_front_batch(states[rows])
            proj = np.matmul(local, arr)
            amp = np.clip((np.abs(proj) ** 2).sum(axis=(1, 2)), 0.0, 1.0)
            hit = rng.random(rows.size) < amp

            sat = ~hit
            if sat.any():
                denom = np.sqrt(np.maximum(1.0 - amp[sat], 1e-300))
                keep = (arr[sat] - proj[sat]) / denom[:, None, None]
                states[rows[sat]] = plan.from_front_batch(keep)

            if hit.any():
                post = proj[hit] / np.sqrt(amp[hit])[:, None, None]
                probs = (np.abs(post) ** 2).sum(axis=2)
                cum = np.cumsum(probs, axis=1)
                draws = rng.random(post.shape[0]) * cum[:, -1]
                s = np.minimum((cum <= draws[:, None]).sum(axis=1), plan.dk - 1)
                picked = np.arange(post.shape[0])
                row = post[picked, s, :] / np.sqrt(probs[picked, s])[:, None]
                fresh_digits = rng.integers(0, d, size=(post.shape[0], plan.k))
                fresh = fresh_digits @ plan.local_powers
                out = np.zeros_like(post)
                out[picked, fresh, :] = row
                states[rows[hit]] = plan.from_front_batch(out)

                vrows = rows[hit]
                if first is not None:
                    slot = violations[vrows]
                    fill = slot < record_first
                    first[vrows[fill], slot[fill]] = i
                violations[vrows] += 1
                if stop_after_violations is not None:
                    done = violations[vrows] >= stop_after_violations
                    active[vrows[done]] = False

        if (
            freeze_settled
            and (step + 1) % config.BATCH_FREEZE_EVERY == 0
            and active.any()
        ):
            act = np.flatnonzero(active)
            weight = np.zeros(act.size)
            for i in range(m):
                arr = plans[i].to_front_batch(states[act])
                proj = np.matmul(locals_[i], arr)
                weight += (np.abs(proj) ** 2).sum(axis=(1, 2))
            active[act[weight < config.BATCH_FREEZE_TOL]] = False

        if (step + 1) in horizon_set:
            snapshots[step + 1] = violations.copy()

    for h in horizon_set:
        if h not in snapshots:
            snapshots[h] = violations.copy()

    sample = states[: min(n_traj, 64)]
    norms = (np.abs(sample) ** 2).sum(axis=1)
    if np.abs(norms - 1.0).max() > NORM_TOL:
        raise RuntimeError("batch state norms drifted")

    return TrajectoryBatch(
        violations=violations,
        first_labels=first,
        horizon_violations=snapshots,
        states=states if keep_states else None,
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
    plans = _plans(inst)
    transposed = [p.local_matrix.T for p in inst.projectors]

    rng = make_rng(seed)
    passes = 0
    for _ in range(samples):
        state = _random_basis_state(rng, inst.shape.n, inst.shape.d)
        ok = True
        for v in order:
            lab = tree.labels[v]
            plan = plans[lab]
            arr = plan.to_front(state)
            arr = _resample_front(arr, plan, rng)
            proj = transposed[lab] @ arr
            amp = min(max(float(np.vdot(proj, proj).real), 0.0), 1.0)
            if rng.random() < amp:
                state = plan.from_front(proj / math.sqrt(amp))
            else:
                ok = False
                break
        if ok:
            passes += 1
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
    """Returns state -> overlap with the common kernel of all events."""
    if inst.is_commuting():
        def overlap(state):
            cur = state
            for plan, local in zip(plans, locals_):
                arr = plan.to_front(cur)
                cur = plan.from_front(arr - local @ arr)
            return float(np.vdot(cur, cur).real)

        return overlap

    inst.shape.check_budget(config.DENSITY_BUDGET_D)
    total = np.zeros((inst.shape.dim, inst.shape.dim), dtype=complex)
    for i in range(inst.m):
        total += inst.embedded(i)
    p0 = kernel_projector(total)

    def overlap(state):
        return float(np.vdot(state, p0 @ state).real)

    return overlap


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
    plans = _plans(inst)
    locals_ = [p.local_matrix for p in inst.projectors]
    overlap = _ground_overlap_fn(inst, plans, locals_)

    master = make_rng(seed)
    taus = master.integers(0, t + 1, size=samples)
    acc = np.zeros(m)
    acc_ground = 0.0
    for idx in range(samples):
        rng = spawn_rng(seed, idx)
        state = _random_basis_state(rng, inst.shape.n, inst.shape.d)
        for _ in range(int(taus[idx])):
            if m == 0:
                break
            i = int(rng.integers(0, m))
            _, state = _measure_and_patch(state, plans[i], locals_[i], rng)
        for i in range(m):
            arr = plans[i].to_front(state)
            proj = locals_[i] @ arr
            acc[i] += float(np.vdot(proj, proj).real)
        acc_ground += overlap(state)
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

    plans = _plans(inst)
    locals_ = [p.local_matrix for p in inst.projectors]
    rng = make_rng(seed)
    state = _random_basis_state(rng, inst.shape.n, inst.shape.d)
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
        cur = state
        for plan, local in zip(plans, locals_):
            arr = plan.to_front(cur)
            cur = plan.from_front(arr - local @ arr)
        if float(np.vdot(cur, cur).real) < 1.0 - 1e-8:
            raise RuntimeError("successful run left the common kernel")
    log = ExecutionLog(tuple(entries), total_steps=it, seed=seed)
    return ExactRunResult(success, Trajectory(state, log, None, seed))
