"""Exact outcome operators for the measure-and-resample process.

The process measures a uniformly chosen bad-event projector each step.  For a
fixed instance the unnormalized state reached when the first few violations
come out in a prescribed order is an exact linear-algebra object: the sum of
a geometric operator series, computed as one linear solve.  This module
computes those operators on dense D x D operators and checks every operator
identity and inequality the analysis rests on.

All routes here are exact up to a stated solver tolerance; nothing is
sampled.  The channels apply each event on its own qudits (ChannelSet), so
the outcome operators are computed on any instance within the density
budget (D <= 2048 by default).

Conventions: channels, and the maps of the lemma suite, act on D x D
operators.  The continue channel T averages the complement sandwiches
(1/m) sum_i (I - P_i) rho (I - P_i); its geometric series diverges on
states the process never leaves, which is why every sum here is sandwiched
by a measurement first; every such sum is a linear solve.

sequence_operator and partial_dag_channel_bound run one stage loop
(_stage_state): a stage sums the measured iterates of its start, then
refreshes its id.  For a stage that absorbs nothing the measurement
annihilates the common kernel P0 of the events, so
sum_t measure(a, T^t s) / m = measure(a, X) / m with (I - T) X =
s - P0 s P0.  T is self-adjoint and positive in the Hilbert-Schmidt inner
product, so X comes from conjugate gradients (_krylov_solve), one continue
step per iteration, about sqrt(kappa) steps where the series takes kappa;
the stop rule and the error it implies on a measured trace are in its
docstring.  The halting operators, identity (i) of verify_cp_identities
and stage 0 read one kept solve from I/D.  The lemma suite's
pseudo-inverses are solves of the same loop (_cg_solve) on other
Hilbert-Schmidt positive maps with the same kernel.

Where the step patches absorbed ids (absorbing stages,
traced_continuation_bound) it is not self-adjoint, and the sum is a GMRES
solve (_absorbed_solve).  Every continue step runs as m local channels
summed into one array.

Both solves check their start Hermitian PSD (_check_series_start).  The
process gap the bounds scale by is spectral_report(inst).gap.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import config
from .errors import InvariantError
from .instance import QlllInstance, event_table, intersection_graph, spectral_report
from .tensor import (
    EventBlock,
    LocalPlan,
    make_rng,
    min_slack,
    partial_trace,
    psd_violation,
    refill_mixed,
    sandwich_local,
)
# looked up here by the benchmark's tracer (perfbench/tracing.py)
from .tensor import embed  # noqa: F401
from .witness import build_partial_resample_dag, dag_probability, label_intersection


@dataclass(frozen=True)
class OutcomeOperator:
    """Unnormalized state paired with the probability of reaching it.

    The operator is p * rho for the (sub-normalized) branch of the process
    described by ``provenance``; its trace is the branch probability.
    """

    operator: np.ndarray
    probability: float
    provenance: tuple

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        object.__setattr__(self, "operator", op)
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"outcome operator must be square, got {op.shape}")
        if (bad := psd_violation(op)) is not None:
            if bad.test == "finite":
                raise ValueError("outcome operator has a NaN or infinite entry")
            if bad.test == "hermitian":
                raise ValueError(f"outcome operator is not Hermitian ({bad.value:.2e})")
            raise ValueError(f"outcome operator has eigenvalue {bad.value:.2e} < 0")
        tr = np.trace(op)
        if not abs(tr - self.probability) <= config.DENSITY_TRACE_TOL:
            raise ValueError(
                f"probability {self.probability} does not match trace {tr}"
            )
        if not -config.SERIES_VALUE_TOL <= self.probability <= 1 + config.SERIES_VALUE_TOL:
            raise ValueError(f"probability {self.probability} outside [0, 1]")


def _outcome(op: np.ndarray, provenance: tuple) -> OutcomeOperator:
    op = (op + op.conj().T) / 2
    return OutcomeOperator(op, float(np.trace(op).real), provenance)


class ChannelSet:
    """The per-id channels of one process step, applied locally.

    Every sandwich and refresh acts on its event's qudits only, at
    O(D^2 d^k) per application for a k-local event; no dense embedded
    projector is kept.  Each event's layout, nonzero local basis states K,
    their register positions, complement and trace read are on its one
    record, its EventBlock in the instance's event table (event_table),
    shared with the state-vector step and every other channel set.  An event
    whose local matrix P is zero off some local states reads and writes only
    the register rows and columns of K, addressed by position: P op on the
    rows op[pos], op P on the columns (at their flat positions) and P op P
    on their crossing give the measurement, the complement
    op - P op - op P + P op P and the patch (complement plus the block's
    trace over the event, refilled maximally mixed at the positions
    plan.index gives every local state) in one pass.  An all-zero event has
    an empty K and changes nothing.  An event nonzero on every local state
    runs as layout sandwiches.  Every sum over the continue iterates from
    I/D reads mixed_solve, one conjugate-gradient solve made on first
    request and kept.
    """

    def __init__(self, inst: QlllInstance):
        inst.shape.check_budget(config.DENSITY_BUDGET_D)
        self.instance = inst
        self.shape = inst.shape
        self.m = inst.m
        self._events = event_table(inst)
        self._blocks = [self._events.block(i) for i in range(self.m)]
        self._block_count = sum(b.pos is not None for b in self._blocks)
        self._mixed = None
        self._halting = None

    def _block_terms(self, b: EventBlock, op: np.ndarray):
        """cols, the flat positions of op's entries in the columns of K,
        (D, rest * |K|); op P on those columns; and P op P on the rows and
        columns of K, (|K|, rest, rest * |K|), at flat positions
        cols[b.pos].  rest is in register order.  Columns go through flat
        positions because a gather from the raveled operator is much cheaper
        than fancy indexing along its second axis."""
        k, rest, D = b.p.shape[0], b.plan.rest_dim, self.shape.dim
        cols = np.arange(0, D * D, D)[:, None] + b.pos.T.ravel()
        right = (op.reshape(-1)[cols].reshape(D * rest, k) @ b.p).reshape(D, rest * k)
        both = (b.p @ right[b.pos].reshape(k, rest * rest * k)).reshape(k, rest, rest * k)
        return cols, right, both

    def measure(self, i: int, op: np.ndarray) -> np.ndarray:
        b = self._blocks[i]
        if b.pos is None:
            return sandwich_local(b.p, op, b.p, b.plan)
        out = np.zeros(np.shape(op), dtype=complex)
        cols, _, both = self._block_terms(b, np.asarray(op))
        out.reshape(-1, copy=False)[cols[b.pos]] = both
        return out

    def measure_trace(self, i: int, op: np.ndarray) -> complex:
        """tr(P_i op) = sum_{a,b,r} P_i[b, a] op[(a, r), (b, r)], read from
        the at most D d^k entries of op that meet a nonzero of P_i; equal
        to tr(measure(i, op))."""
        at, weights = self._blocks[i].trace_read
        return op.take(at) @ weights

    def measure_all(self, ids, op: np.ndarray) -> np.ndarray:
        """Measure the listed ids one after another; for mutually disjoint
        events, the measurement of their joint violation."""
        for i in ids:
            op = self.measure(i, op)
        return op

    def complement(self, i: int, op: np.ndarray) -> np.ndarray:
        b = self._blocks[i]
        if b.pos is None:
            return sandwich_local(b.comp, op, b.comp, b.plan)
        op = np.asarray(op)
        out = op.astype(complex, order="C")
        self._add_block_changes(b, op, out, False)
        return out

    def patch(self, i: int, op: np.ndarray) -> np.ndarray:
        """Absorb one id's violation: keep the satisfied branch, resample the rest."""
        b = self._blocks[i]
        if b.pos is None:
            return self.complement(i, op) + self.refresh(i, self.measure(i, op))
        op = np.asarray(op)
        out = op.astype(complex, order="C")
        self._add_block_changes(b, op, out, True)
        return out

    def _add_block_changes(self, b: EventBlock, op, out, absorbed: bool):
        """out += complement(op) - op, plus refresh(measure(op)) when
        absorbed, for an event with nonzero states K; out is C-contiguous
        and complex.  The complement is op - P op - op P + P op P, every
        term read and written at K's register positions only.  op need not
        be Hermitian, so op P is never (P op)^dag."""
        k, rest, D = b.p.shape[0], b.plan.rest_dim, self.shape.dim
        cols, right, both = self._block_terms(b, op)
        right[b.pos] -= both
        flat = out.reshape(-1, copy=False)
        out[b.pos] -= (b.p @ op[b.pos].reshape(k, rest * D)).reshape(k, rest, D)
        flat[cols] -= right
        if absorbed:
            # the violated branch's trace over the event, on every local state
            index = b.plan.index
            reduced = np.trace(both.reshape(k, rest, rest, k), axis1=0, axis2=3)
            flat[index[:, :, None] * D + index[:, None, :]] += reduced / b.plan.dk

    def continue_step(self, op: np.ndarray, absorbed: frozenset = frozenset()) -> np.ndarray:
        """One step that did not end the stage: ids in ``absorbed`` are
        patched (a violation resamples them and the process goes on), the
        rest contribute their satisfied branch.  Runs as m channels on the
        events' own qudits, summed into one array; with every id absorbed
        this is the averaged patch channel."""
        op = np.ascontiguousarray(op)
        # each event with a nonzero block adds op and its changes on the block
        out = np.multiply(op, self._block_count, dtype=complex)
        for i, b in enumerate(self._blocks):
            if b.pos is not None:
                self._add_block_changes(b, op, out, i in absorbed)
            else:
                out += self.patch(i, op) if i in absorbed else self.complement(i, op)
        out /= self.m
        return out

    def refresh(self, i: int, op: np.ndarray) -> np.ndarray:
        return self._refill(self._blocks[i].plan, op)

    def refresh_set(self, ids, op: np.ndarray) -> np.ndarray:
        """Trace out the union of the listed supports, refill maximally mixed."""
        qudits = sorted({q for i in ids for q in self.instance.projectors[i].qudits})
        return self._refill(self._events.layout(tuple(qudits)), op)

    def _refill(self, plan: LocalPlan, op: np.ndarray) -> np.ndarray:
        return refill_mixed(partial_trace(op, plan.qudits, self.shape), plan)

    def mixed_solve(self) -> np.ndarray:
        """X = sum_t T^t(I/D) less its fixed part, from one
        :func:`_krylov_solve`, made on first request and kept."""
        if self._mixed is None:
            D = self.shape.dim
            self._mixed = _krylov_solve(self, np.eye(D) / D, "halting operators")
        return self._mixed

    def halting_operators(self) -> list:
        """Halting operator of every id, measure(a, X) / m for X the kept
        solve from I/D; kept."""
        if self._halting is None:
            x = self.mixed_solve()
            self._halting = [
                _outcome(self.measure(a, x) / self.m, ("halt", a))
                for a in range(self.m)
            ]
        return self._halting


def build_channels(inst: QlllInstance) -> ChannelSet:
    return ChannelSet(inst)


def _check_series_start(start: np.ndarray, context: str) -> None:
    """Every solve start is built in this module, so one that is not
    finite Hermitian PSD is an internal fault: InvariantError with max|start|,
    the measured asymmetry or the least eigenvalue."""
    if (bad := psd_violation(start)) is not None:
        if bad.test == "finite":
            raise InvariantError(f"{context}: series start has a NaN or infinite entry", bad.value)
        if bad.test == "hermitian":
            raise InvariantError(f"{context}: series start is not Hermitian (asymmetry {bad.value:.3e})", bad.value)
        raise InvariantError(f"{context}: series start has eigenvalue {bad.value:.3e} < 0", bad.value)


def _krylov_solve(channels: ChannelSet, start, context: str) -> np.ndarray:
    """X = sum_t T^t b, b = start - P0 start P0, by conjugate gradients on
    (I - T) X = b (:func:`_cg_solve`).

    T is the continue step with nothing absorbed and P0 the common-kernel
    projector of the instance's spectral report.  In the Hilbert-Schmidt
    inner product <X, Y> = tr(X^dag Y), T is self-adjoint and positive
    with norm at most 1, and its fixed points are the operators P0 Y P0,
    to which b is orthogonal.  So I - T is positive definite on b's side
    and the solve needs one continue step per iteration.  A sandwich
    L s L with L P0 = 0, such as a measurement, then has
    sum_t L T^t(start) L = L X L: the P0 start P0 part is fixed by T and
    killed by the sandwich.

    For c L s L with L a rank-k projector, the error on its trace is
    c |<L, (I - T)^+ r>| <= c sqrt(k) ||r|| / mu, for r the final residual
    and mu the least eigenvalue of I - T on b's side.  mu >= eps / 2 for
    eps the least nonzero eigenvalue of H = (1/m) sum_i P_i, since
    <Y, (I - T) Y> >= (<Y, H Y> + <Y, Y H>) / 2.  The measurements
    P_i s P_i / m together have trace tr(H x) = tr(b) - tr(r), within
    sqrt(D) ||r|| of tr(b).
    """
    return _cg_solve(channels, lambda y: y - channels.continue_step(y), start, context)


def _finite(value, what: str, context: str):
    """value, or InvariantError carrying it when it is NaN or infinite."""
    if not np.isfinite(value):
        raise InvariantError(f"{context}: {what} is {value} (not finite)", value)
    return value


def _cg_solve(channels: ChannelSet, apply, start, context: str) -> np.ndarray:
    """A^+ b for b = start - P0 start P0, by conjugate gradients from zero.

    A, the map ``apply`` on D x D operators, must be self-adjoint and
    positive semidefinite in the Hilbert-Schmidt inner product, with kernel
    the operators P0 Y P0, for P0 the common-kernel projector of the
    instance's spectral report; b is orthogonal to that kernel, so A is
    positive definite on b's side.  P0 is only as exact as the spectral
    report's zero cut.  The start is checked Hermitian PSD.

    Stop rule: ||r|| <= SERIES_TRACE_TOL ||b|| in the Hilbert-Schmidt norm,
    for r = b - A x, checked again on the true operator after the loop
    (one more application of A).

    Raises InvariantError, carrying the measured value, when <p, A p> or
    ||r||^2 is NaN or infinite, when <p, A p> <= 0 for a search direction p
    (A is not positive), when SERIES_MAX_TERMS iterations pass without
    meeting the stop, or when the true residual misses it.
    """
    s = np.asarray(start, dtype=complex)
    _check_series_start(s, context)
    p0 = spectral_report(channels.instance).p0
    b = s - p0 @ s @ p0
    size = np.linalg.norm(b)
    stop = config.SERIES_TRACE_TOL * size
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rr = np.vdot(r, r).real
    for it in range(config.SERIES_MAX_TERMS + 1):
        if rr <= stop * stop:
            break
        if it == config.SERIES_MAX_TERMS:
            rel = np.sqrt(rr) / size
            raise InvariantError(
                f"{context}: conjugate gradients did not converge within "
                f"{config.SERIES_MAX_TERMS} iterations (relative residual "
                f"{rel:.3e} > {config.SERIES_TRACE_TOL:.0e})",
                rel,
            )
        ap = apply(p)
        curvature = _finite(np.vdot(p, ap).real, "conjugate gradients: <p, A p>", context)
        if curvature <= 0:
            raise InvariantError(
                f"{context}: the solved map is not positive: <p, A p> = {curvature:.3e}",
                curvature,
            )
        alpha = rr / curvature
        x += alpha * p
        r -= alpha * ap
        rr, last = _finite(np.vdot(r, r).real, "conjugate gradients: ||r||^2", context), rr
        p = r + (rr / last) * p
    true = np.linalg.norm(b - apply(x))
    if not true <= stop:  # NaN fails too
        rel = true / size
        raise InvariantError(
            f"{context}: conjugate gradients met the stop on the recurrence, "
            f"but the true relative residual is {rel:.3e} > "
            f"{config.SERIES_TRACE_TOL:.0e}",
            rel,
        )
    return x


def _gmres_solve(apply, rhs, context: str) -> np.ndarray:
    """A^-1 b for the map A = ``apply`` on D x D operators, which need not
    be self-adjoint, by restarted GMRES from zero (Saad & Schultz 1986):
    Arnoldi with modified Gram-Schmidt in the Hilbert-Schmidt inner product
    and a least-squares solve on the Hessenberg matrix per step.  The basis
    holds at most BATCH_STATE_ENTRIES // D^2 operators; a full basis, or a
    cycle that meets the stop on its recurrence, restarts from the true
    residual.  Stop rule: ||b - A x|| <= SERIES_TRACE_TOL ||b||, met on the
    true operator.  Raises InvariantError, carrying the true relative
    residual, once SERIES_MAX_TERMS applications of A miss it, and carrying
    the value, at the first NaN or infinite residual or Arnoldi norm."""
    b = np.asarray(rhs, dtype=complex)
    size = np.linalg.norm(b)
    stop = config.SERIES_TRACE_TOL * size
    width = max(1, config.BATCH_STATE_ENTRIES // b.size)
    x, r, steps = np.zeros_like(b), b, 0
    while _finite(beta := np.linalg.norm(r), "GMRES: ||b - A x||", context) > stop:
        if steps >= config.SERIES_MAX_TERMS:
            raise InvariantError(
                f"{context}: GMRES did not converge within {steps} steps (relative "
                f"residual {beta / size:.3e} > {config.SERIES_TRACE_TOL:.0e})", beta / size
            )
        basis, h = [r / beta], np.zeros((1, 0), dtype=complex)
        for j in range(min(width, config.SERIES_MAX_TERMS - steps)):
            steps += 1
            w = apply(basis[j])
            h = np.pad(h, ((0, 1), (0, 1)))
            for i, v in enumerate(basis):
                h[i, j] = np.vdot(v, w)
                w -= h[i, j] * v
            h[j + 1, j] = _finite(np.linalg.norm(w), "GMRES: the Arnoldi norm", context)
            e = beta * np.eye(j + 2)[0]
            y = np.linalg.lstsq(h, e, rcond=None)[0]
            if np.linalg.norm(h @ y - e) <= stop or not h[j + 1, j]:
                break
            basis.append(w / h[j + 1, j])
        x += sum(c * v for c, v in zip(y, basis))
        r = b - apply(x)
    return x


def _absorbed_solve(ch: ChannelSet, ids, absorbed, start, context: str) -> np.ndarray:
    """Sum measure_all(ids, S^t start) / m over t >= 0, S the continue step
    with ``absorbed`` patched, as X / m for (I - S) X = measure_all(ids,
    start) by :func:`_gmres_solve`.  The callers need a commuting instance
    and absorbed ids that miss every measured id, so the measurement
    commutes with S; it kills the measured id's own complement term, so S
    shrinks a measured operator's trace norm by at least (m - 1) / m and
    I - S is invertible there.  The start is checked Hermitian PSD."""
    _check_series_start(start, context)
    rhs = ch.measure_all(ids, start)
    return _gmres_solve(lambda y: y - ch.continue_step(y, absorbed), rhs, context) / ch.m


def _check_id(inst: QlllInstance, a: int) -> int:
    a = operator.index(a)
    if not 0 <= a < inst.m:
        raise ValueError(f"projector id {a} outside 0..{inst.m - 1}")
    return a


def halting_operator(
    inst: QlllInstance, a: int, channels: ChannelSet | None = None
) -> OutcomeOperator:
    """Unnormalized state when the first violation is projector ``a``.

    Its trace is the probability that the process, started maximally mixed,
    halts first on that projector.
    """
    a = _check_id(inst, a)
    ch = channels if channels is not None else build_channels(inst)
    return ch.halting_operators()[a]


def _stage_state(ch: ChannelSet, ids, absorbed_sets, context: str) -> np.ndarray:
    """Unnormalized state after the stages ``ids`` from I/D: stage i sums
    the measured iterates until ids[i] comes out, absorbing the ids in
    absorbed_sets[i], then refreshes ids[i].

    A stage that absorbs nothing is one conjugate-gradient solve; stage 0
    starts from I/D and reads the channel set's kept solve.  A stage that
    absorbs ids is one GMRES solve (:func:`_absorbed_solve`).
    """
    D = ch.shape.dim
    state = np.eye(D, dtype=complex) / D
    for pos, (a, absorbed) in enumerate(zip(ids, absorbed_sets)):
        stage = f"{context} stage {pos}"
        if absorbed:
            acc = _absorbed_solve(ch, (a,), absorbed, state, stage)
        else:
            x = ch.mixed_solve() if pos == 0 else _krylov_solve(ch, state, stage)
            acc = ch.measure(a, x) / ch.m
        state = ch.refresh(a, acc)
    return state


def sequence_operator(
    inst: QlllInstance, ids, channels: ChannelSet | None = None
) -> OutcomeOperator:
    """Unnormalized state after the first ``len(ids)`` violations are exactly
    ``ids`` in order, each followed by its resampling refresh."""
    ids = tuple(_check_id(inst, a) for a in ids)
    if len(ids) > config.SEQUENCE_MAX_LEN:
        raise ValueError(
            f"sequence of {len(ids)} ids exceeds the cap {config.SEQUENCE_MAX_LEN}"
        )
    ch = channels if channels is not None else build_channels(inst)
    state = _stage_state(ch, ids, [frozenset()] * len(ids), f"sequence {ids}")
    return _outcome(state, ("sequence",) + ids)


def _report_entry(lemma, *, passed, residual=None, slack_min=None, seeds=(), skipped=False, detail=None):
    entry = {
        "lemma": lemma,
        "pass": passed,
        "residual": residual,
        "slack_min": slack_min,
        "seeds": list(seeds),
        "skipped": skipped,
    }
    if detail is not None:
        entry["detail"] = detail
    return entry


def _disjoint_groups(inst: QlllInstance):
    """Every group of one to three mutually disjoint events."""
    graph = intersection_graph(inst)
    groups = [(i,) for i in range(inst.m)]
    for size in (2, 3):
        for combo in combinations(range(inst.m), size):
            if all(b not in graph.gamma(a) for a, b in combinations(combo, 2)):
                groups.append(combo)
    return groups


def verify_cp_identities(inst: QlllInstance, seed: int = 2026) -> dict:
    """Check the channel identities the outcome-operator algebra relies on.

    Parts needing a disjoint pair are skipped (not failed) when the instance
    has none.  The commuting-instance precondition is enforced.
    """
    if not inst.is_commuting():
        raise ValueError("channel identity checks need a verified commuting instance")
    ch = build_channels(inst)
    D = inst.shape.dim
    m = inst.m
    groups = _disjoint_groups(inst)
    pairs = [g for g in groups if len(g) == 2]
    rng = make_rng(seed)
    inputs = []
    for _ in range(10):
        g = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        inputs.append(g / np.linalg.norm(g))

    parts = []

    # (i) sandwiched series bound for groups of mutually disjoint projectors;
    # every group's sum starts at I/D, so all read the channel set's one
    # solve from I/D, the one the halting operators read
    eye = np.eye(D) / D
    x = ch.mixed_solve()
    slack = min(
        (
            min_slack(ch.measure_all(g, x) / m, ch.measure_all(g, eye) / len(g))
            for g in groups
        ),
        default=np.inf,
    )
    parts.append(_report_entry(
        "sandwich-series-group-bound", passed=slack > -config.SLACK_TOL, slack_min=slack
    ))

    # (ii) refresh after measure on the maximally mixed state is a rescaling
    # by the event's relative dimension
    rel = inst.relative_dimensions()
    resid = 0.0
    for a in range(m):
        want = rel[a] * eye
        resid = max(resid, np.abs(ch.refresh(a, ch.measure(a, eye)) - want).max())
    parts.append(_report_entry(
        "refresh-after-measure", passed=resid < config.EQUALITY_TOL, residual=resid
    ))

    # (iii) measuring twice equals measuring once
    resid = 0.0
    for a in range(m):
        for op in inputs:
            once = ch.measure(a, op)
            resid = max(resid, np.abs(ch.measure(a, once) - once).max())
    parts.append(_report_entry(
        "measure-idempotent", passed=resid < config.EQUALITY_TOL, residual=resid,
        seeds=[seed],
    ))

    # (iv)-(vi) need a disjoint pair
    def pair_part(lemma, check):
        if not pairs:
            return _report_entry(lemma, passed=None, skipped=True)
        resid = 0.0
        for a, b in pairs:
            for op in inputs:
                resid = max(resid, check(a, b, op))
        return _report_entry(
            lemma, passed=resid < config.EQUALITY_TOL, residual=resid, seeds=[seed]
        )

    # pair_part reads every input of one pair in a row: one product per pair
    @functools.lru_cache(maxsize=1)
    def joint(a, b):
        return inst.embedded(a) @ inst.embedded(b)

    def measure_order(a, b, op):
        ab = ch.measure(a, ch.measure(b, op))
        ba = ch.measure(b, ch.measure(a, op))
        both = joint(a, b) @ op @ joint(a, b).conj().T
        return max(np.abs(ab - ba).max(), np.abs(ab - both).max())

    def refresh_order(a, b, op):
        ab = ch.refresh(a, ch.refresh(b, op))
        ba = ch.refresh(b, ch.refresh(a, op))
        both = ch.refresh_set((a, b), op)
        return max(np.abs(ab - ba).max(), np.abs(ab - both).max())

    def mixed_order(a, b, op):
        return np.abs(
            ch.measure(a, ch.refresh(b, op)) - ch.refresh(b, ch.measure(a, op))
        ).max()

    parts.append(pair_part("measure-disjoint-commute", measure_order))
    parts.append(pair_part("refresh-disjoint-commute", refresh_order))
    parts.append(pair_part("measure-refresh-commute", mixed_order))

    # (vii) measurement commutes with the continue channel; checked on the
    # single-step generator, the summed series then commutes term by term
    resid = 0.0
    for a in range(m):
        for op in inputs:
            resid = max(resid, np.abs(
                ch.measure(a, ch.continue_step(op))
                - ch.continue_step(ch.measure(a, op))
            ).max())
    parts.append(_report_entry(
        "measure-continuation-commute", passed=resid < config.EQUALITY_TOL, residual=resid,
        seeds=[seed], detail="generator-level check",
    ))

    overall = all(e["pass"] for e in parts if not e["skipped"])
    return {"pass": overall, "parts": parts, "seeds": [seed]}


def first_violation_gap_bound(
    inst: QlllInstance, a: int, channels: ChannelSet | None = None
) -> dict:
    """Both first-violation bounds: dimensional, and scaled by the gap."""
    a = _check_id(inst, a)
    halt = halting_operator(inst, a, channels)
    D = inst.shape.dim
    p = inst.embedded(a)
    plain = min_slack(halt.operator, p / D)
    report = {
        "id": a,
        "probability": halt.probability,
        "dimension_bound": {"pass": plain > -config.SLACK_TOL, "slack_min": plain},
    }
    gap = spectral_report(inst).gap
    if gap < config.GAP_VACUOUS_TOL:
        report["gap_bound"] = {
            "pass": None, "slack_min": None, "vacuous": True, "gap": gap,
        }
    else:
        slack = min_slack(halt.operator, p / (inst.m * gap * D))
        report["gap_bound"] = {
            "pass": slack > -config.SLACK_TOL, "slack_min": slack,
            "vacuous": False, "gap": gap,
        }
    return report


def shortclaim_suite(inst: QlllInstance, product_ids) -> dict:
    """Check the operator lemmas behind the first-violation bound.

    The instance projectors must all commute; ``product_ids`` selects the k
    projectors whose product Pi plays the distinguished role.  The lemmas
    read the maps A(X) = q X + X q, for q = sum_i P_i, and
    B(X) = sum_i P_i X P_i on D x D operators.  A and A - B are
    self-adjoint and positive semidefinite in the Hilbert-Schmidt inner
    product, with kernel the operators P0 X P0, so each pseudo-inverse
    applied to an operator is one :func:`_cg_solve`.  A - B is applied as
    A(X) - B(X), not as the continue step it equals m (I - T), so
    halting-route-agreement compares two routes.  q^+ comes from one
    eigendecomposition of q, cut as the spectral report cuts its kernel.
    """
    ids = tuple(_check_id(inst, i) for i in product_ids)
    if not ids or len(set(ids)) != len(ids):
        raise ValueError("product ids must be a nonempty set without repeats")
    if not inst.is_commuting():
        raise ValueError("the lemma suite needs a verified commuting instance")
    ch = build_channels(inst)
    D = inst.shape.dim
    k = len(ids)
    eye = np.eye(D, dtype=complex)
    q = sum(inst.embedded(i) for i in range(inst.m))
    prod = ch.measure_all(ids, eye)
    if (drift := float(np.abs(prod @ prod - prod).max())) > config.IDEMPOTENT_TOL:
        raise InvariantError(f"product of the selected projectors is not a projector ({drift:.3e})", drift)
    ev, vecs = np.linalg.eigh(q)
    keep = ev >= config.KERNEL_EIG_TOL * max(1.0, float(ev[-1]))
    q_plus = (vecs[:, keep] / ev[keep]) @ vecs[:, keep].conj().T

    def a_map(x):
        return q @ x + x @ q

    def b_map(x):
        return sum(ch.measure(i, x) for i in range(inst.m))

    def a_solve(y, what):
        return _cg_solve(ch, a_map, y, f"lemma suite {ids}: A^+ {what}")

    lemmas = []
    slack = min_slack(ch.measure_all(ids, q_plus), prod / k)
    lemmas.append(_report_entry(
        "sum-pinv-product-bound", passed=slack > -config.SLACK_TOL, slack_min=slack
    ))

    a_eye = a_solve(eye, "I")
    resid = float(np.abs(a_eye - q_plus / 2).max())
    lemmas.append(_report_entry(
        "pair-sum-pinv-identity", passed=resid < config.RESIDUAL_TOL, residual=resid
    ))

    slack = min_slack(ch.measure_all(ids, a_eye), prod / (2 * k))
    lemmas.append(_report_entry(
        "measured-pinv-bound", passed=slack > -config.SLACK_TOL, slack_min=slack
    ))

    # B(I) = q
    resid = float(np.abs(ch.measure_all(ids, a_solve(q, "q")) - prod / 2).max())
    lemmas.append(_report_entry(
        "measured-pinv-measured-identity", passed=resid < config.RESIDUAL_TOL,
        residual=resid,
    ))

    slack, w = np.inf, b_map(a_eye)
    for t in range(1, 4):
        if t > 1:
            w = b_map(a_solve(w, f"decay step {t}"))
        slack = min(slack, min_slack(w, q / 2 ** t))
    lemmas.append(_report_entry(
        "repeated-measure-decay", passed=slack > -config.SLACK_TOL, slack_min=slack
    ))

    main = ch.measure_all(ids, _cg_solve(
        ch, lambda x: a_map(x) - b_map(x), eye, f"lemma suite {ids}: (A - B)^+ I"
    ))
    slack = min_slack(main, (0.5 + 0.5 / k) * prod)
    lemmas.append(_report_entry(
        "first-violation-product-bound", passed=slack > -config.SLACK_TOL,
        slack_min=slack,
    ))

    if k == 1:
        halt = halting_operator(inst, ids[0], ch)
        resid = float(np.abs(main / D - halt.operator).max())
        lemmas.append(_report_entry(
            "halting-route-agreement", passed=resid < config.RESIDUAL_TOL,
            residual=resid,
        ))

    overall = all(e["pass"] for e in lemmas)
    return {"k": k, "ids": list(ids), "pass": overall, "lemmas": lemmas}


def _validate_gap_sets(inst, ids, gap_sets, intersects):
    if len(gap_sets) != len(ids):
        raise ValueError("need one gap set per relevant id")
    sets = []
    for i, raw in enumerate(gap_sets):
        gap = frozenset(_check_id(inst, x) for x in raw)
        for x, later in product(gap, ids[i:]):
            if x == later or intersects(x, later):
                raise ValueError(f"gap id {x} intersects the later relevant id {later}")
        sets.append(gap)
    return sets


def partial_dag_channel_bound(inst: QlllInstance, relevant_ids, irrelevant_sets) -> dict:
    """Exact probability that the relevant violations are ``relevant_ids``.

    Violations of ids in the per-gap sets are absorbed (their qudits
    resampled, the process continues) rather than ending the stage; such ids
    must be disjoint from every remaining relevant id.  The probability is
    checked against the removal-order weight of the relevant-sequence DAG
    times the product of relative dimensions.
    """
    ids = tuple(_check_id(inst, a) for a in relevant_ids)
    if not ids:
        raise ValueError("need at least one relevant id")
    if not inst.is_commuting():
        raise ValueError("the partial-sequence bound needs a commuting instance")
    intersects = label_intersection(intersection_graph(inst))
    dag, kept = build_partial_resample_dag(ids, intersects)
    if kept != ids:
        raise ValueError(
            f"sequence {ids} is not fully relevant; kept subsequence is {kept}"
        )
    sets = _validate_gap_sets(inst, ids, irrelevant_sets, intersects)

    state = _stage_state(build_channels(inst), ids, sets, f"partial sequence {ids}")
    prob = float(np.trace(state).real)
    weight = float(dag_probability(dag, ids))
    rel = inst.relative_dimensions()
    bound = weight * float(np.prod([rel[a] for a in ids]))
    return {
        "relevant": list(ids),
        "gap_sizes": [len(g) for g in sets],
        "probability": prob,
        "dag_weight": weight,
        "bound": bound,
        "pass": prob <= bound + config.SLACK_TOL,
        "margin": bound - prob,
    }


def traced_continuation_bound(inst: QlllInstance, set_ids, gap_ids) -> dict:
    """Partial-trace form of the series bound with absorbed ids.

    After tracing out the absorbed ids' qudits, the sandwiched series against
    the gap-patched continuation stays below 1/k times the plain measurement.
    """
    ids = tuple(_check_id(inst, a) for a in set_ids)
    if not ids or len(set(ids)) != len(ids):
        raise ValueError("need distinct set ids")
    if not inst.is_commuting():
        raise ValueError("the traced bound needs a commuting instance")
    intersects = label_intersection(intersection_graph(inst))
    for a, b in combinations(ids, 2):
        if intersects(a, b):
            raise ValueError(f"set ids {a} and {b} must be disjoint")
    gap = tuple(_check_id(inst, x) for x in gap_ids)
    # absorbed before the first set id, so disjoint from every set id
    _validate_gap_sets(inst, ids, [gap] + [()] * (len(ids) - 1), intersects)

    ch = build_channels(inst)
    eye = np.eye(inst.shape.dim) / inst.shape.dim
    acc = _absorbed_solve(ch, ids, frozenset(gap), eye, f"traced bound {ids}")
    rhs = ch.measure_all(ids, eye) / len(ids)
    qudits = sorted({q for x in gap for q in inst.projectors[x].qudits})
    if qudits:
        acc = partial_trace(acc, qudits, inst.shape)
        rhs = partial_trace(rhs, qudits, inst.shape)
    slack = min_slack(acc, rhs)
    return {
        "set": list(ids),
        "gap": list(gap),
        "slack_min": slack,
        "pass": slack > -config.EQUALITY_TOL,
    }
