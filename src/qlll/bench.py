"""Experiment harness joining the exact machinery to Monte Carlo runs.

Four families of checks live here: exact iteration of the averaged
measure-and-refresh channel, trajectory audits of the expected-violation
bound, the two-qubit family whose pair-occurrence probability beats the
naive product bound, and occurrence-probability reports for witness
structures.  Instance corpora for the acceptance suite sit at the bottom.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .classical import (
    classical_intersection_graph,
    expected_resamples_bound,
    instance_from_dimacs,
)
from .errors import InvariantError
from .instance import (
    LovaszCertificate,
    QlllInstance,
    basis_projector,
    certificate_from_x,
    check_lovasz,
    find_certificate,
    intersection_graph,
    random_rank_projector,
    spectral_report,
)
from .oracles import ChannelSet, build_channels, sequence_operator
from .quantum import run_quantum_solver, run_trajectory_batch
from .tensor import make_rng, psd_violation
# looked up here by the benchmark's tracer (perfbench/tracing.py)
from .tensor import embed, partial_trace  # noqa: F401
from .witness import expected_violations_bound, label_intersection, occurs_in_log

# the pair event weights multiply to (1/2) * (1/2)
PAIR_PRODUCT_BOUND = 0.25
# positive root of 10 a^2 + 3 a - 9: where the closed form crosses 1/4
VIOLATION_THRESHOLD = 0.15 * (math.sqrt(41.0) - 1.0)
# value of the closed form as a tends to 1 from below
LIMIT_AT_ONE = 37.0 / 144.0


def _check_density(rho, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix must be {dim} x {dim}")
    if (bad := psd_violation(rho)) is not None:
        if bad.test == "hermitian":
            raise ValueError(f"density matrix must be Hermitian (asymmetry {bad.value:.3e})")
        raise ValueError(f"density matrix must be positive semidefinite (eigenvalue {bad.value:.3e})")
    if (drift := abs(np.trace(rho).real - 1.0)) > config.DENSITY_TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace (|tr rho - 1| = {drift:.3e})")
    return rho


@dataclass(frozen=True)
class ConvergenceSeries:
    """Trajectory of the averaged measure-and-refresh channel.

    steps[k] is the iteration count, ground_overlap[k] the weight inside
    the common kernel, violation_probs[k, i] the chance event i is seen
    violated; rho_final is the last iterate.
    """

    steps: np.ndarray
    ground_overlap: np.ndarray
    violation_probs: np.ndarray
    rho_final: np.ndarray

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=int)
        if (np.diff(steps) <= 0).any():
            raise ValueError("steps must increase strictly")
        if (
            len(self.ground_overlap) != len(steps)
            or len(self.violation_probs) != len(steps)
        ):
            raise ValueError("series arrays disagree on length")
        tol = config.SERIES_VALUE_TOL
        for arr in (self.ground_overlap, self.violation_probs):
            arr = np.asarray(arr, dtype=float)
            if not -tol <= arr.min() <= arr.max() <= 1.0 + tol:
                raise ValueError("recorded probabilities must lie in [0, 1]")


def _readout(chans: ChannelSet, p0, rho) -> tuple:
    """tr(p0 rho) and the array of tr(P_i rho) over the events.

    tr(p0 rho) = <p0, rho> for Hermitian p0: elementwise, no matrix
    product; each tr(P_i rho) reads only the entries of rho on P_i's
    nonzeros (ChannelSet.measure_trace), with no dense projector.
    """
    ground = float(np.vdot(p0, rho).real)
    viols = np.array([chans.measure_trace(i, rho).real for i in range(chans.m)])
    return ground, viols


def cp_map_iterate(
    inst: QlllInstance, rho0, t_max: int, stop_overlap: float | None = None
) -> ConvergenceSeries:
    """Iterate the average of the per-event patch channels, exactly.

    One application measures a uniformly chosen event, keeps the satisfied
    branch, and replaces the violated branch's qudits with the maximally
    mixed state.  The ground overlap never decreases along the iteration;
    a decrease past the tolerance raises InvariantError.  With
    ``stop_overlap`` the iteration ends early, at the first iterate whose
    ground overlap is at least that value.
    """
    chans = build_channels(inst)
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    rho = _check_density(rho0, inst.shape.dim)
    p0 = spectral_report(inst).p0
    every = frozenset(range(inst.m))
    ground, viols = _readout(chans, p0, rho)
    overlaps = [ground]
    rows = [viols]
    for _ in range(t_max):
        if stop_overlap is not None and ground >= stop_overlap:
            break
        rho = chans.continue_step(rho, every)
        ground, viols = _readout(chans, p0, rho)
        if ground < overlaps[-1] - config.OVERLAP_MONOTONE_TOL:
            raise InvariantError(
                f"ground overlap decreased from {overlaps[-1]} to {ground}",
                overlaps[-1] - ground,
            )
        overlaps.append(ground)
        rows.append(viols)
    return ConvergenceSeries(
        np.arange(len(overlaps)), np.array(overlaps), np.array(rows), rho
    )


def series_to_csv(series: ConvergenceSeries) -> str:
    """One row per iteration: t, ground overlap, worst violation chance."""
    lines = ["t,ground_overlap,worst_violation_prob"]
    worst = np.asarray(series.violation_probs).max(axis=1)
    for k, t in enumerate(series.steps):
        lines.append(
            f"{int(t)},{series.ground_overlap[k]:.12g},{worst[k]:.12g}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CounterexampleInstance:
    """Two qubits, three events: one per qubit plus an entangled one.

    good_projectors are the satisfied subspaces (ranks 2, 2, 3); the built
    instance measures their complements.  For a above VIOLATION_THRESHOLD
    the chance that the two single-qubit events open the violation log
    exceeds the product of their weights.
    """

    a: float
    b: float
    psi: np.ndarray
    good_projectors: tuple
    instance: QlllInstance

    def __post_init__(self):
        if abs(self.a + self.b - 1.0) > 1e-12:
            raise ValueError("parameters must satisfy a + b = 1")
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-12:
            raise ValueError("the entangled vector must be normalized")
        dim = self.instance.shape.dim
        ranks = []
        for i, good in enumerate(self.good_projectors):
            if np.abs(good @ good - good).max() > 1e-12:
                raise ValueError("good subspaces must be projectors")
            if np.abs(self.instance.embedded(i) - (np.eye(dim) - good)).max() > 1e-12:
                raise ValueError("events must complement the good subspaces")
            ranks.append(round(np.trace(good).real))
        if tuple(ranks) != (2, 2, 3):
            raise ValueError(f"good subspace ranks must be (2, 2, 3), got {ranks}")


def make_counterexample(a: float) -> CounterexampleInstance:
    if not 0.0 < a <= 1.0:
        raise ValueError("parameter a must lie in (0, 1]")
    b = 1.0 - a
    psi = np.zeros(4)
    psi[0], psi[3] = math.sqrt(a), math.sqrt(b)
    psi_perp = np.zeros(4)
    psi_perp[0], psi_perp[3] = math.sqrt(b), -math.sqrt(a)
    keep0 = np.diag([1.0, 0.0])
    goods = (
        np.kron(keep0, np.eye(2)),
        np.kron(np.eye(2), keep0),
        np.outer(psi, psi) + basis_projector(4, [1, 2]),
    )
    flip = np.diag([0.0, 1.0])
    inst = QlllInstance.build(
        2,
        2,
        [((0,), flip), ((1,), flip), ((0, 1), np.outer(psi_perp, psi_perp))],
    )
    return CounterexampleInstance(a, b, psi, goods, inst)


def counterexample_analytic(a: float) -> dict:
    """Closed form for the chance the two single-qubit events open the log
    (in either order), with the scales it is measured against."""
    if not 0.0 < a <= 1.0:
        raise ValueError("parameter a must lie in (0, 1]")
    if a == 1.0:
        pr = 1.0 / 9.0
    else:
        b = 1.0 - a
        pr = (
            1.0 / 9.0
            + 7.0 * a / (24.0 * (1.0 + a))
            + b * (11.0 + 12.0 * a) / (144.0 * (1.0 + a) ** 2)
        )
    return {
        "a": a,
        "pr_tau": pr,
        "bound": PAIR_PRODUCT_BOUND,
        "threshold": VIOLATION_THRESHOLD,
        "limit": LIMIT_AT_ONE,
        "violates_bound": pr > PAIR_PRODUCT_BOUND,
    }


def counterexample_exact(a: float) -> float:
    """Pair-opening probability through the outcome operators: both orders of
    the first two violations, summed.  Valid on all of (0, 1]."""
    cx = make_counterexample(a)
    chans = build_channels(cx.instance)
    return float(
        sequence_operator(cx.instance, (0, 1), chans).probability
        + sequence_operator(cx.instance, (1, 0), chans).probability
    )


def counterexample_audit(
    a: float, trajectories: int, seed, max_steps: int = 4096
) -> dict:
    """Three routes to the pair-opening probability: the closed form, the
    exact outcome operators of both orders, and a trajectory frequency.

    The closed form branches at a = 1, so the audit sticks to the interior
    where all three routes measure the same expression.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("audit needs a strictly inside (0, 1)")
    if trajectories < 1:
        raise ValueError("trajectories must be positive")
    cx = make_counterexample(a)
    analytic = counterexample_analytic(a)
    exact = counterexample_exact(a)
    batch = run_trajectory_batch(
        cx.instance,
        seed,
        trajectories,
        max_steps,
        record_first=2,
        stop_after_violations=2,
    )
    first = batch.first_labels
    forward = (first[:, 0] == 0) & (first[:, 1] == 1)
    backward = (first[:, 0] == 1) & (first[:, 1] == 0)
    mc = float((forward | backward).sum()) / trajectories
    p = analytic["pr_tau"]
    sigma = math.sqrt(max(p * (1.0 - p), 1e-30) / trajectories)
    residual = abs(exact - p)
    exact_pass = residual <= config.EXACT_MATCH_TOL
    mc_pass = abs(mc - p) <= 3.0 * sigma
    return {
        "a": a,
        "trajectories": trajectories,
        "seed": seed,
        "max_steps": max_steps,
        "analytic": p,
        "exact": exact,
        "monte_carlo": mc,
        "exact_residual": residual,
        "exact_pass": bool(exact_pass),
        "mc_sigma": sigma,
        "mc_pass": bool(mc_pass),
        "bound": PAIR_PRODUCT_BOUND,
        "violates_bound": bool(exact > PAIR_PRODUCT_BOUND),
        "pass": bool(exact_pass and mc_pass),
    }


def violation_audit(
    inst: QlllInstance,
    cert: LovaszCertificate,
    trajectories: int,
    max_steps: int,
    seed,
) -> dict:
    """Mean observed violations against sum x/(1-x), at two horizons.

    The second horizon is a tenth of the first (when that is shorter).  The
    bound holds for every horizon, so the audit passes when each mean is
    within it at 3 sigma; the count may still grow between the horizons.
    """
    if trajectories < 2:
        raise ValueError("audit needs at least two trajectories")
    if not check_lovasz(inst, cert).ok:
        raise ValueError("certificate does not cover the instance")
    bound = expected_violations_bound(cert)
    early = max(1, max_steps // 10)
    request = (early,) if early < max_steps else ()
    batch = run_trajectory_batch(
        inst, seed, trajectories, max_steps, horizons=request
    )
    counts_by_h = {int(h): np.asarray(c, dtype=float)
                   for h, c in batch.horizon_violations.items()}
    counts_by_h[int(max_steps)] = np.asarray(batch.violations, dtype=float)
    entries = []
    for h in sorted(counts_by_h):
        counts = counts_by_h[h]
        mean = float(counts.mean())
        sigma = float(counts.std(ddof=1) / math.sqrt(trajectories))
        entries.append(
            {
                "steps": h,
                "mean": mean,
                "sigma": sigma,
                "within_bound": bool(mean <= bound + 3.0 * sigma),
            }
        )
    return {
        "bound": float(bound),
        "trajectories": trajectories,
        "max_steps": int(max_steps),
        "seed": seed,
        "horizons": entries,
        "pass": all(e["within_bound"] for e in entries),
    }


@dataclass(frozen=True)
class ConjectureReport:
    """Occurrence probability of one witness structure next to the product
    of its event weights and the gap-scaled variant.  Evidence only; no
    field asserts that either comparison holds in general."""

    mode: str
    sense: str
    probability: float
    sigma: float
    product_bound: float
    ratio: float
    gap_bound: float | None
    gap_ratio: float | None
    samples: int
    seed: int | None

    def __post_init__(self):
        if not -config.SERIES_VALUE_TOL <= self.probability <= 1.0 + config.SERIES_VALUE_TOL:
            raise ValueError("occurrence probability must lie in [0, 1]")
        if self.product_bound <= 0.0:
            raise ValueError("product bound must be positive")


def conjecture_test(
    inst: QlllInstance,
    structure,
    mode: str,
    budget: int,
    seed=2026,
    max_steps: int = 128,
) -> ConjectureReport:
    """Estimate how often a witness structure occurs in the violation log.

    Exact mode enumerates every id sequence of the structure's size and
    sums the outcome-operator weights of windows that rebuild it, i.e.
    occurrence within the first violations ("first-window").  Monte Carlo
    mode counts occurrences anywhere in full trajectory logs ("full-log").
    The structure may be a witness tree or a resample DAG.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    labels = tuple(structure.labels)
    if not labels:
        raise ValueError("structure needs at least one vertex")
    for lab in labels:
        if not 0 <= lab < inst.m:
            raise ValueError(f"label {lab} has no event")
    rel = inst.relative_dimensions()
    product_bound = float(np.prod([rel[lab] for lab in labels]))
    if product_bound <= 0.0:
        raise ValueError("structure labels a zero-rank event")
    gap = spectral_report(inst).gap
    if gap < config.GAP_VACUOUS_TOL:
        gap_bound = None
    else:
        gap_bound = product_bound / (inst.m * gap) ** len(labels)
    intersects = label_intersection(intersection_graph(inst))

    if mode == "exact":
        if len(labels) > config.SEQUENCE_MAX_LEN:
            raise ValueError(
                f"exact mode handles at most {config.SEQUENCE_MAX_LEN} vertices"
            )
        total = inst.m ** len(labels)
        if total > budget:
            raise ValueError(
                f"exact mode needs {total} sequences, budget is {budget}"
            )
        chans = build_channels(inst)
        probability = 0.0
        for seq in itertools.product(range(inst.m), repeat=len(labels)):
            if occurs_in_log(structure, seq, intersects):
                probability += sequence_operator(inst, seq, chans).probability
        sigma, sense, samples, used_seed = 0.0, "first-window", total, None
    elif mode == "monte-carlo":
        if budget < 1:
            raise ValueError("monte-carlo mode needs a positive budget")
        child_seeds = make_rng(seed).integers(0, 2**63 - 1, size=budget)
        hits = 0
        for child in child_seeds:
            traj = run_quantum_solver(inst, int(child), max_steps=max_steps)
            hits += occurs_in_log(structure, traj.log, intersects)
        probability = hits / budget
        sigma = math.sqrt(probability * (1.0 - probability) / budget)
        sense, samples, used_seed = "full-log", budget, seed
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return ConjectureReport(
        mode=mode,
        sense=sense,
        probability=float(probability),
        sigma=float(sigma),
        product_bound=product_bound,
        ratio=float(probability / product_bound),
        gap_bound=gap_bound,
        gap_ratio=None if gap_bound is None else float(probability / gap_bound),
        samples=samples,
        seed=used_seed,
    )


def convergence_metrics(rho, inst: QlllInstance) -> dict:
    """Worst per-event violation probability ("weak") and the weight
    outside the common kernel ("strong").

    The two are tied: the gap times the strong metric can never exceed the
    average violation probability, and that relation is re-checked here on
    every call.
    """
    rho = _check_density(rho, inst.shape.dim)
    rep = spectral_report(inst)
    ground, viols = _readout(build_channels(inst), rep.p0, rho)
    weak = float(viols.max())
    strong = 1.0 - ground
    gap = rep.gap
    if gap >= config.GAP_VACUOUS_TOL:
        ceiling = float(viols.mean()) / gap
        if strong > ceiling + config.SLACK_TOL:
            raise RuntimeError(
                "weight outside the kernel exceeds its energy ceiling: "
                f"{strong} > {ceiling}"
            )
    return {"weak": weak, "strong": strong}


def _random_event(rng, n: int, dense: bool = False) -> tuple:
    """One event on one or two of n qubits: its support, then a rank up to
    half the local dimension, then a basis projector on that many distinct
    local states, or a random projector of that rank when dense."""
    k = int(rng.integers(1, min(2, n) + 1))
    qudits = tuple(sorted(int(q) for q in rng.choice(n, size=k, replace=False)))
    dim = 2**k
    rank = int(rng.integers(1, dim // 2 + 1))
    if dense:
        return qudits, random_rank_projector(dim, rank, rng)
    states = [int(s) for s in rng.choice(dim, size=rank, replace=False)]
    return qudits, basis_projector(dim, states)


def certified_commuting_corpus(
    count: int, seed, *, epsilon: float = 0.0, max_events: int = 4
):
    """Random diagonal-event instances on two or three qubits, paired with
    verified certificates.

    Draws are retried until the fixed-point search certifies the instance,
    so every returned pair passes check_lovasz at the requested epsilon.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = make_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("corpus generation keeps failing certification")
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, max_events + 1))
        inst = QlllInstance.build(n, 2, [_random_event(rng, n) for _ in range(m)])
        cert = find_certificate(inst, epsilon)
        if cert is None:
            continue
        out.append((inst, cert))
    return out


def random_instance_corpus(count: int, seed):
    """Mixed bag for bound sweeps: alternating diagonal-event instances and
    dense random-projector ones, with two or three qubits and one to five
    events."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = make_rng(seed)
    out = []
    for idx in range(count):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 6))
        events = [_random_event(rng, n, dense=idx % 2 == 1) for _ in range(m)]
        out.append(QlllInstance.build(n, 2, events))
    return out


def chain_cnf(clauses: int, seed) -> str:
    """DIMACS text for a 3-SAT chain: clause i uses variables 2i+1, 2i+2,
    2i+3 (1-based), so consecutive clauses share exactly one variable."""
    if clauses < 1:
        raise ValueError("need at least one clause")
    rng = make_rng(seed)
    nvars = 2 * clauses + 1
    lines = [f"p cnf {nvars} {clauses}"]
    for i in range(clauses):
        base = (2 * i + 1, 2 * i + 2, 2 * i + 3)
        signs = rng.integers(0, 2, size=3)
        lits = [v if s else -v for v, s in zip(base, signs)]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def chain_cnf_corpus(count: int, seed, *, clauses: int = 5):
    """Chain formulas paired with the uniform x = 0.2 certificate.

    Every clause is violated with chance 1/8 and has at most two
    neighbours, so 0.2 * 0.8^2 = 0.128 covers it; the pairing is verified
    before anything is returned."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        text = chain_cnf(clauses, int(rng.integers(2**63 - 1)))
        inst = instance_from_dimacs(text)
        cert = certificate_from_x(
            (0.2,) * inst.m, 0.0, classical_intersection_graph(inst)
        )
        expected_resamples_bound(inst, cert)  # raises if not covered
        out.append((inst, cert))
    return out
