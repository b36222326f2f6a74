"""Resample-until-satisfied solver over independent discrete variables.

Events are stored as explicit truth tables: the set of local assignments
(aligned to the event's sorted variable list) that violate the event.  The
solver draws an initial uniform assignment, then repeatedly resamples the
variables of the lowest-id violated event until nothing is violated or the
resample budget runs out.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import config
from .instance import IntersectionGraph, LovaszCertificate, _check_lovasz, support_graph
from .logs import ExecutionLog
from .tensor import make_rng
from .witness import expected_violations_bound


@dataclass(frozen=True)
class ClassicalEvent:
    id: int
    vars: tuple
    violating: frozenset  # local assignments, aligned to sorted vars

    def __post_init__(self):
        raw = tuple(int(v) for v in self.vars)
        if len(set(raw)) != len(raw):
            raise ValueError("event variables repeat")
        if not raw:
            raise ValueError("event must depend on at least one variable")
        if any(len(a) != len(raw) for a in self.violating):
            raise ValueError("violating assignment arity mismatch")
        order = sorted(range(len(raw)), key=lambda i: raw[i])
        object.__setattr__(self, "vars", tuple(raw[i] for i in order))
        fixed = frozenset(
            tuple(int(a[i]) for i in order) for a in self.violating
        )
        object.__setattr__(self, "violating", fixed)


@dataclass(frozen=True)
class ClassicalInstance:
    domains: tuple  # domain size per variable
    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(int(d) for d in self.domains))
        object.__setattr__(self, "events", tuple(self.events))
        if any(d < 1 for d in self.domains):
            raise ValueError("variable domains must be positive")
        for i, ev in enumerate(self.events):
            if ev.id != i:
                raise ValueError("event ids must be 0..m-1 in order")
            if any(v >= len(self.domains) for v in ev.vars):
                raise ValueError(f"event {i} references an unknown variable")
            for a in ev.violating:
                if any(
                    not 0 <= val < self.domains[v] for v, val in zip(ev.vars, a)
                ):
                    raise ValueError(f"event {i} violating assignment out of range")

    @property
    def m(self) -> int:
        return len(self.events)

    @functools.cached_property
    def _plan(self) -> _ResamplePlan:
        """What solve_classical reads per event; built on first use and kept."""
        return _ResamplePlan(self)


def event_probability(inst: ClassicalInstance, i: int) -> float:
    """Chance a uniform assignment violates event i."""
    ev = inst.events[i]
    total = math.prod(inst.domains[v] for v in ev.vars)
    return len(ev.violating) / total


def classical_intersection_graph(inst: ClassicalInstance) -> IntersectionGraph:
    return support_graph(ev.vars for ev in inst.events)


@dataclass(frozen=True)
class ClassicalRunResult:
    assignment: tuple
    log: ExecutionLog
    exhausted: bool


class _ResamplePlan:
    """What the solver reads per event, built once per instance.

    read[i] maps an assignment list to event i's local key (a tuple, or the
    bare value for a one-variable event), keys[i] holds the violating keys
    in that form, and gamma_plus[i] lists the events whose status a resample
    of event i can change: the event itself and its neighbours, in id order.
    """

    def __init__(self, inst: ClassicalInstance):
        events = inst.events
        self.domains = np.array(inst.domains, dtype=np.int64)
        # events with equal domain lists share one read-only array
        local = [tuple(inst.domains[v] for v in ev.vars) for ev in events]
        shared = {key: np.array(key, dtype=np.int64) for key in set(local)}
        for arr in shared.values():
            arr.setflags(write=False)
        self.event_domains = tuple(shared[key] for key in local)
        self.read = tuple(itemgetter(*ev.vars) for ev in events)
        self.keys = tuple(
            frozenset(a[0] for a in ev.violating) if len(ev.vars) == 1
            else ev.violating
            for ev in events
        )
        self.gamma_plus = classical_intersection_graph(inst).gamma_plus_sorted


def solve_classical(
    inst: ClassicalInstance, seed, max_resamples: int | None = None
) -> ClassicalRunResult:
    """One seeded run; deterministic in the seed.

    All randomness comes from a single counter-based generator: the initial
    assignment consumes one draw per variable in id order, and each resample
    consumes one draw per event variable in id order.

    Violated event ids sit in a min-heap with lazy deletion, so the lowest
    violated id is found without a scan; after a resample only the events in
    Gamma+(hit) can change status (Moser-Tardos), so only those are read
    again.
    """
    if max_resamples is None:
        max_resamples = config.CLASSICAL_DEFAULT_BUDGET
    if max_resamples < 0:
        raise ValueError(f"max_resamples must be nonnegative, got {max_resamples}")
    plan = inst._plan
    read, keys, gamma_plus = plan.read, plan.keys, plan.gamma_plus
    rng = make_rng(seed)
    # on Philox one bounded draw per array entry equals one scalar draw per
    # domain, value for value, so the vector calls keep the stream of the
    # scalar loop
    assignment = rng.integers(plan.domains).tolist()
    violated = [read[i](assignment) in keys[i] for i in range(inst.m)]
    heap = [i for i, bad in enumerate(violated) if bad]  # sorted, so a heap
    entries = []
    for step in range(max_resamples):
        while heap and not violated[heap[0]]:
            heapq.heappop(heap)
        if not heap:
            return ClassicalRunResult(
                tuple(assignment), ExecutionLog(tuple(entries), step, seed), False
            )
        hit = heap[0]
        entries.append((step, hit))
        values = rng.integers(plan.event_domains[hit]).tolist()
        for v, value in zip(inst.events[hit].vars, values):
            assignment[v] = value
        for j in gamma_plus[hit]:
            now = read[j](assignment) in keys[j]
            if now and not violated[j]:
                heapq.heappush(heap, j)
            violated[j] = now
    return ClassicalRunResult(
        tuple(assignment),
        ExecutionLog(tuple(entries), max_resamples, seed),
        any(violated),
    )


def expected_resamples_bound(
    inst: ClassicalInstance, cert: LovaszCertificate
) -> float:
    """expected_violations_bound after verifying, through the instance
    module's Lovasz check, that the certificate covers the event
    probabilities."""
    if len(cert.x) != inst.m:
        raise ValueError("certificate length does not match the instance")
    probs = np.array([event_probability(inst, i) for i in range(inst.m)])
    check = _check_lovasz(cert, classical_intersection_graph(inst), probs)
    if not check.ok:
        i = int(np.argmin(check.slacks >= -config.LOVASZ_SLACK_TOL))
        raise ValueError(
            f"certificate does not cover event {i}: "
            f"{probs[i]} > {(1.0 - cert.epsilon) * cert.x_prime[i]}"
        )
    return expected_violations_bound(cert)


def _columns(raw: str):
    """(column, text) of every whitespace-separated token of a line."""
    at = 0
    for tok in raw.split():
        at = raw.index(tok, at)
        yield at + 1, tok
        at += len(tok)


def _bad_token(raw: str):
    """Column and text of the first token of a line that int() rejects."""
    for col, tok in _columns(raw):
        try:
            int(tok)
        except ValueError:
            return col, tok


def _header_counts(lineno: int, raw: str):
    """The header's variable and clause counts, each with its column."""
    tokens = list(_columns(raw))
    if len(tokens) != 4 or tokens[1][1] != "cnf":
        raise ValueError(f"bad DIMACS header: {raw.strip()}")
    counts = []
    for (col, tok), what in zip(tokens[2:], ("variable", "clause")):
        try:
            value = int(tok)
        except ValueError:
            value = -1
        if value < 0:
            raise ValueError(
                f"line {lineno} column {col}: {what} count {tok!r} is not a"
                " nonnegative integer"
            )
        counts.append((value, col))
    return counts


def instance_from_dimacs(text: str) -> ClassicalInstance:
    """Parse DIMACS CNF; each clause becomes one event over boolean
    variables, violated exactly when every literal is false.

    A clause before the header, a missing header, a clause token that
    int() rejects (a second header line among them), a header count that is
    not a nonnegative integer and a clause count that differs from the
    number of clauses are reported with line and column.  The header itself
    is checked after the clause tokens, and its clause count last.
    """
    header = None
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if header is None:
            if not line.startswith("p"):
                col = len(raw) - len(raw.lstrip()) + 1
                raise ValueError(
                    f"line {lineno} column {col}: expected the"
                    " 'p cnf <vars> <clauses>' header before any clause"
                )
            header = (lineno, raw)
            continue
        try:
            tokens.extend(map(int, line.split()))
        except ValueError:
            col, tok = _bad_token(raw)
            raise ValueError(
                f"line {lineno} column {col}: clause token {tok!r} is not an integer"
            ) from None
    if header is None:
        raise ValueError("line 1 column 1: missing 'p cnf' header")
    (nvars, _), (nclauses, clauses_col) = _header_counts(*header)

    events = []
    clause = []
    for tok in tokens:
        if tok != 0:
            clause.append(tok)
            continue
        if not clause:
            continue
        want = {}  # var -> value making the literal false
        impossible = False
        for lit in clause:
            v = abs(lit) - 1
            if v >= nvars:
                raise ValueError(f"literal {lit} outside declared variables")
            val = 0 if lit > 0 else 1
            if want.setdefault(v, val) != val:
                impossible = True
        varlist = tuple(sorted(want))
        violating = (
            frozenset() if impossible else frozenset({tuple(want[v] for v in varlist)})
        )
        events.append(ClassicalEvent(len(events), varlist, violating))
        clause = []
    if clause:
        raise ValueError("unterminated clause in DIMACS input")
    if len(events) != nclauses:
        raise ValueError(
            f"line {header[0]} column {clauses_col}: header declares {nclauses}"
            f" clauses, the input has {len(events)}"
        )
    return ClassicalInstance((2,) * nvars, tuple(events))
