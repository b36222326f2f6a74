import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlll import config
from qlll.bench import chain_cnf
from qlll.classical import (
    ClassicalRunResult,
    ClassicalEvent,
    ClassicalInstance,
    classical_intersection_graph,
    event_probability,
    expected_resamples_bound,
    instance_from_dimacs,
    solve_classical,
)
from qlll.instance import LovaszCertificate, certificate_from_x
from qlll.logs import ExecutionLog
from qlll.tensor import make_rng


def or_clause(vid, a, b):
    """Event for the clause (x_a or x_b): violated only when both are 0."""
    return ClassicalEvent(vid, (a, b), frozenset({(0, 0)}))


def test_event_validation():
    with pytest.raises(ValueError):
        ClassicalEvent(0, (1, 1), frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        ClassicalEvent(0, (0, 1), frozenset({(0,)}))  # arity mismatch
    ev = ClassicalEvent(0, (1, 0), frozenset({(0, 1)}))
    # variable lists are canonicalised to sorted order, assignments follow
    assert ev.vars == (0, 1)
    assert ev.violating == frozenset({(1, 0)})


def test_instance_validation():
    with pytest.raises(ValueError):
        ClassicalInstance((2, 2), (or_clause(1, 0, 1),))  # ids must be 0..m-1
    with pytest.raises(ValueError):
        ClassicalInstance((2,), (or_clause(0, 0, 1),))  # var out of range
    with pytest.raises(ValueError):
        ClassicalInstance((2, 2), (ClassicalEvent(0, (0, 1), frozenset({(0, 2)})),))


def test_event_probability():
    inst = ClassicalInstance((2, 2), (or_clause(0, 0, 1),))
    assert event_probability(inst, 0) == 0.25
    triv = ClassicalInstance((2,), (ClassicalEvent(0, (0,), frozenset()),))
    assert event_probability(triv, 0) == 0.0
    tern = ClassicalInstance(
        (3,), (ClassicalEvent(0, (0,), frozenset({(0,), (2,)})),)
    )
    assert event_probability(tern, 0) == pytest.approx(2 / 3)


def test_solve_zero_events():
    inst = ClassicalInstance((2, 2, 2), ())
    result = solve_classical(inst, seed=1)
    assert not result.exhausted
    assert len(result.log) == 0
    assert all(v in (0, 1) for v in result.assignment)


def test_solve_satisfies_all_events():
    inst = ClassicalInstance(
        (2, 2, 2),
        (or_clause(0, 0, 1), or_clause(1, 1, 2), or_clause(2, 0, 2)),
    )
    for seed in range(50):
        result = solve_classical(inst, seed=seed)
        assert not result.exhausted
        for ev in inst.events:
            local = tuple(result.assignment[v] for v in ev.vars)
            assert local not in ev.violating


def test_solve_deterministic():
    inst = ClassicalInstance(
        (2, 2, 2), (or_clause(0, 0, 1), or_clause(1, 1, 2))
    )
    a = solve_classical(inst, seed=7)
    b = solve_classical(inst, seed=7)
    assert a.assignment == b.assignment
    assert a.log.entries == b.log.entries


def test_solve_lowest_id_first():
    # both events are violated by every assignment of a dummy variable,
    # so the first log entry must be event 0
    always = frozenset({(0,), (1,)})
    inst = ClassicalInstance(
        (2,), (ClassicalEvent(0, (0,), always), ClassicalEvent(1, (0,), always))
    )
    result = solve_classical(inst, seed=3, max_resamples=10)
    assert result.exhausted
    assert len(result.log) == 10
    assert result.log.labels()[0] == 0
    steps = [s for s, _ in result.log.entries]
    assert steps == sorted(steps)


def test_single_clause_mean_resamples():
    # Pr(violate) = 1/4, so the resample count is geometric with mean 1/3
    inst = ClassicalInstance((2, 2), (or_clause(0, 0, 1),))
    n = 20_000
    counts = np.array([len(solve_classical(inst, seed=s).log) for s in range(n)])
    mean = counts.mean()
    sigma = counts.std(ddof=1) / np.sqrt(n)
    assert abs(mean - 1 / 3) < 3 * sigma + 1e-9


def test_two_disjoint_clauses_mean_resamples():
    inst = ClassicalInstance(
        (2, 2, 2, 2), (or_clause(0, 0, 1), or_clause(1, 2, 3))
    )
    n = 20_000
    counts = np.array([len(solve_classical(inst, seed=s).log) for s in range(n)])
    mean = counts.mean()
    sigma = counts.std(ddof=1) / np.sqrt(n)
    assert abs(mean - 2 / 3) < 3 * sigma + 1e-9
    # certified bound dominates the empirical mean
    graph = classical_intersection_graph(inst)
    cert = certificate_from_x((0.25, 0.25), 0.0, graph)
    bound = expected_resamples_bound(inst, cert)
    assert bound == pytest.approx(2 / 3)
    assert mean <= bound + 3 * sigma


def test_expected_resamples_bound_values():
    inst = ClassicalInstance((2, 2), (or_clause(0, 0, 1),))
    graph = classical_intersection_graph(inst)
    cert = certificate_from_x((0.25,), 0.0, graph)
    assert expected_resamples_bound(inst, cert) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        bad = certificate_from_x((0.1,), 0.0, graph)  # 0.25 > 0.1
        expected_resamples_bound(inst, bad)


def test_expected_resamples_bound_checks_x_prime():
    # two events of probability 1/2 that share variable 0; the stated
    # x'_i = 1.0 is not what x = 0.1 gives (0.1 * 0.9 = 0.09 < 1/2)
    inst = ClassicalInstance((2,), (
        ClassicalEvent(0, (0,), frozenset({(0,)})),
        ClassicalEvent(1, (0,), frozenset({(1,)})),
    ))
    with pytest.raises(ValueError, match="x_prime is inconsistent"):
        expected_resamples_bound(inst, LovaszCertificate((0.1, 0.1), 0.0, (1.0, 1.0)))
    # a consistent certificate that covers event 0 but not event 1
    graph = classical_intersection_graph(inst)
    cert = certificate_from_x((0.9, 0.1), 0.0, graph)  # x' = (0.81, 0.01)
    with pytest.raises(ValueError, match="does not cover event 1: 0.5 > 0.0099"):
        expected_resamples_bound(inst, cert)


def test_intersection_graph_on_variables():
    inst = ClassicalInstance(
        (2, 2, 2), (or_clause(0, 0, 1), or_clause(1, 1, 2), or_clause(2, 0, 2))
    )
    g = classical_intersection_graph(inst)
    assert g.gamma(0) == frozenset({1, 2})
    assert g.gamma(1) == frozenset({0, 2})


DIMACS = """c a small satisfiable formula
p cnf 3 3
1 -2 0
2 3 0
-1 3 0
"""


def test_dimacs_parse():
    inst = instance_from_dimacs(DIMACS)
    assert inst.domains == (2, 2, 2)
    assert len(inst.events) == 3
    # clause "1 -2": violated when x1=0 and x2=1
    assert inst.events[0].vars == (0, 1)
    assert inst.events[0].violating == frozenset({(0, 1)})
    assert inst.events[1].vars == (1, 2)
    assert inst.events[1].violating == frozenset({(0, 0)})


def test_dimacs_tautology_and_repeats():
    inst = instance_from_dimacs("p cnf 2 2\n1 -1 0\n2 2 0\n")
    assert inst.events[0].violating == frozenset()
    assert inst.events[1].vars == (1,)
    assert inst.events[1].violating == frozenset({(0,)})


def test_dimacs_takes_the_tokens_int_takes():
    # a sign, digit separators and tabs or non-breaking spaces between tokens
    inst = instance_from_dimacs("p cnf 10 2\n+1 1_0 0\r\n -2\u00a03\t0\n")
    assert [ev.vars for ev in inst.events] == [(0, 9), (1, 2)]


@pytest.mark.parametrize(
    "text, message",
    [
        # more clauses than the header declares, and fewer
        ("p cnf 3 1\n1 0\n2 0\n3 0\n",
         "line 1 column 9: header declares 1 clauses, the input has 3"),
        ("c two\n p cnf 3 2\n1 2 0\n",
         "line 2 column 10: header declares 2 clauses, the input has 1"),
        ("p cnf 10 x\n1 0\n",
         "line 1 column 10: clause count 'x' is not a nonnegative integer"),
        ("p cnf x 1\n1 0\n",
         "line 1 column 7: variable count 'x' is not a nonnegative integer"),
        ("p  cnf\t-3 1\n1 0\n",
         "line 1 column 8: variable count '-3' is not a nonnegative integer"),
    ],
)
def test_dimacs_header_counts_are_checked(text, message):
    with pytest.raises(ValueError) as err:
        instance_from_dimacs(text)
    assert str(err.value) == message


def test_dimacs_solver_round():
    inst = instance_from_dimacs(DIMACS)
    result = solve_classical(inst, seed=11)
    assert not result.exhausted
    x = result.assignment
    assert (x[0] == 1 or x[1] == 0) and (x[1] == 1 or x[2] == 1)


def test_negative_budget_rejected():
    inst = instance_from_dimacs(DIMACS)
    with pytest.raises(ValueError, match="max_resamples must be nonnegative"):
        solve_classical(inst, seed=0, max_resamples=-3)
    assert solve_classical(inst, seed=0, max_resamples=0).log.total_steps == 0


def test_budget_exhaustion_keeps_partial_log():
    always = frozenset({(0,), (1,)})
    inst = ClassicalInstance((2,), (ClassicalEvent(0, (0,), always),))
    result = solve_classical(inst, seed=0, max_resamples=25)
    assert result.exhausted
    assert len(result.log) == 25
    assert result.log.labels() == (0,) * 25


def full_scan_solve(inst, seed, max_resamples=None):
    """Reference: the solver before the violated-event heap, rescanning
    every event on every step with one scalar draw per variable."""
    if max_resamples is None:
        max_resamples = config.CLASSICAL_DEFAULT_BUDGET
    rng = make_rng(seed)
    assignment = [int(rng.integers(d)) for d in inst.domains]
    entries = []
    for step in range(max_resamples):
        hit = -1
        for ev in inst.events:
            if tuple(assignment[v] for v in ev.vars) in ev.violating:
                hit = ev.id
                break
        if hit < 0:
            return ClassicalRunResult(
                tuple(assignment), ExecutionLog(tuple(entries), step, seed), False
            )
        entries.append((step, hit))
        for v in inst.events[hit].vars:
            assignment[v] = int(rng.integers(inst.domains[v]))
    exhausted = any(
        tuple(assignment[v] for v in ev.vars) in ev.violating for ev in inst.events
    )
    return ClassicalRunResult(
        tuple(assignment), ExecutionLog(tuple(entries), max_resamples, seed), exhausted
    )


def assert_same_run(inst, seed, max_resamples=None):
    got = solve_classical(inst, seed, max_resamples)
    want = full_scan_solve(inst, seed, max_resamples)
    assert got == want
    return got


@pytest.mark.parametrize("formula_seed", [3, 4])
def test_matches_full_scan_on_chain_formulas(formula_seed):
    inst = instance_from_dimacs(chain_cnf(800, formula_seed))
    for seed in range(3):
        assert not assert_same_run(inst, seed).exhausted
    # a budget far below the ~130 resamples these formulas need
    assert assert_same_run(inst, 5, max_resamples=10).exhausted


def test_matches_full_scan_on_mixed_domains():
    rng = np.random.default_rng(17)
    domains = tuple(int(d) for d in rng.choice([1, 2, 3, 5, 7], size=12))
    events = []
    for i in range(10):
        vars_ = tuple(sorted(rng.choice(12, size=int(rng.integers(1, 4)), replace=False)))
        local = list(itertools.product(*(range(domains[v]) for v in vars_)))
        bad = rng.choice(len(local), size=max(1, len(local) // 4), replace=False)
        events.append(ClassicalEvent(i, vars_, frozenset(local[b] for b in bad)))
    inst = ClassicalInstance(domains, tuple(events))
    for seed in range(20):
        assert_same_run(inst, seed, max_resamples=500)
    assert_same_run(inst, 1, max_resamples=0)


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 6))
    domains = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=n, max_size=n)))
    events = []
    for i in range(draw(st.integers(0, 6))):
        vars_ = tuple(sorted(draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n)))))
        local = list(itertools.product(*(range(domains[v]) for v in vars_)))
        bad = draw(st.sets(st.sampled_from(local), max_size=len(local)))
        events.append(ClassicalEvent(i, vars_, frozenset(bad)))
    return ClassicalInstance(domains, tuple(events))


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.integers(0, 2**32), st.integers(0, 40))
def test_incremental_solver_equals_full_scan(inst, seed, budget):
    assert_same_run(inst, seed, max_resamples=budget)


def test_hundred_thousand_clause_chain():
    inst = instance_from_dimacs(chain_cnf(100_000, 8))
    result = solve_classical(inst, seed=1)
    assert not result.exhausted
    assert len(result.log.entries) == result.log.total_steps > 0
    for ev in inst.events:
        assert tuple(result.assignment[v] for v in ev.vars) not in ev.violating
