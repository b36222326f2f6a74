"""Harness-level checks: exact channel iteration, the two-qubit
bound-violating family, violation audits, occurrence-probability reports,
and the weak/strong convergence metrics."""

import hashlib
import math

import numpy as np
import pytest

from qlll import bench, config
from qlll.classical import (
    event_probability,
    expected_resamples_bound,
    instance_from_dimacs,
    solve_classical,
)
from qlll.instance import (
    QlllInstance,
    basis_projector,
    certificate_from_x,
    check_lovasz,
    find_certificate,
    instance_digest,
    intersection_graph,
    random_rank_projector,
    spectral_report,
)
from qlll.oracles import ChannelSet, build_channels, halting_operator
from qlll.tensor import make_rng
from qlll.witness import ResampleDag, tree_from_nested

P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def single_event():
    return QlllInstance.build(1, 2, [((0,), P1)])


def disjoint_pair():
    return QlllInstance.build(2, 2, [((0,), P1), ((1,), P1)])


def diag3():
    return QlllInstance.build(
        3, 2, [((0,), P1), ((1,), P1), ((1, 2), basis_projector(4, [3]))]
    )


def random_noncommuting(seed):
    rng = make_rng(seed)
    events = [((0, 1), random_rank_projector(4, 1 + int(rng.integers(2)), rng))
              for _ in range(3)]
    return QlllInstance.build(2, 2, events)


# exact channel iteration


def test_iterate_single_qubit_closed_form():
    inst = single_event()
    series = bench.cp_map_iterate(inst, np.eye(2) / 2.0, 6)
    for t in range(7):
        want = 1.0 - 2.0 ** -(t + 1)
        assert abs(series.ground_overlap[t] - want) < 1e-12
        assert abs(series.violation_probs[t, 0] - 2.0 ** -(t + 1)) < 1e-12
    assert series.steps.tolist() == list(range(7))


def test_iterate_fixed_point_on_good_state():
    inst = disjoint_pair()
    rho0 = np.zeros((4, 4))
    rho0[0, 0] = 1.0
    series = bench.cp_map_iterate(inst, rho0, 5)
    assert np.abs(series.ground_overlap - 1.0).max() < 1e-12
    assert np.abs(series.violation_probs).max() < 1e-12
    assert abs(np.trace(series.rho_final).real - 1.0) < 1e-12


def test_iterate_monotone_and_explicit_bound():
    inst = diag3()
    series = bench.cp_map_iterate(inst, np.eye(8) / 8.0, 60)
    overlaps = series.ground_overlap
    assert (np.diff(overlaps) > -1e-10).all()
    assert (overlaps > -1e-9).all() and (overlaps < 1.0 + 1e-9).all()
    gap = spectral_report(inst).gap
    assert abs(gap - 1.0 / 3.0) < 1e-9
    for t in range(1, 61):
        floor = 1.0 - inst.m / (t * gap * (gap + 1.0))
        assert overlaps[t] >= floor - 1e-9


def test_iterate_reaches_epsilon_within_explicit_horizon():
    for inst, eps in [(disjoint_pair(), 0.1), (diag3(), 0.2)]:
        gap = spectral_report(inst).gap
        t_star = math.ceil(inst.m / (gap * (gap + 1.0) * eps))
        series = bench.cp_map_iterate(
            inst, np.eye(inst.shape.dim) / inst.shape.dim, t_star
        )
        assert series.ground_overlap[-1] >= 1.0 - eps - 1e-9


def test_iterate_stops_at_the_first_iterate_reaching_the_overlap(monkeypatch):
    inst = single_event()
    # overlaps 1 - 2^-(t+1): 0.5, 0.75, 0.875, 0.9375, ...
    series = bench.cp_map_iterate(inst, np.eye(2) / 2.0, 50, stop_overlap=0.9)
    assert series.steps.tolist() == [0, 1, 2, 3]
    assert abs(series.ground_overlap[-1] - 0.9375) < 1e-12
    full = bench.cp_map_iterate(inst, np.eye(2) / 2.0, 3)
    assert np.abs(series.rho_final - full.rho_final).max() == 0.0
    # a fixed horizon applies the averaged patch channel (every id
    # absorbed) t_max times
    calls = []
    step = ChannelSet.continue_step
    monkeypatch.setattr(
        ChannelSet, "continue_step",
        lambda self, op, absorbed: calls.append(absorbed) or step(self, op, absorbed),
    )
    bench.cp_map_iterate(inst, np.eye(2) / 2.0, 7)
    assert calls == [frozenset(range(inst.m))] * 7
    calls.clear()
    bench.cp_map_iterate(inst, np.eye(2) / 2.0, 7, stop_overlap=0.9)
    assert calls == [frozenset(range(inst.m))] * 3


def test_iterate_rejects_bad_inputs():
    inst = single_event()
    with pytest.raises(ValueError):
        bench.cp_map_iterate(inst, np.eye(2), 3)  # trace 2
    with pytest.raises(ValueError):
        bench.cp_map_iterate(inst, np.diag([1.5, -0.5]), 3)  # not psd
    with pytest.raises(ValueError):
        bench.cp_map_iterate(inst, np.eye(2) / 2.0, -1)
    wide = QlllInstance.build(12, 2, [((0,), P1)])
    with pytest.raises(ValueError):
        # the dimension gate fires before the state is even validated
        bench.cp_map_iterate(wide, np.eye(2) / 2.0, 1)


def test_convergence_series_rejects_nan():
    steps, rho = np.arange(2), np.eye(2) / 2
    with pytest.raises(ValueError, match="must lie in"):
        bench.ConvergenceSeries(steps, np.array([0.5, np.nan]), np.zeros((2, 1)), rho)
    with pytest.raises(ValueError, match="must lie in"):
        bench.ConvergenceSeries(steps, np.array([0.5, 0.6]), np.array([[0.1], [np.nan]]), rho)


def test_series_csv_shape():
    inst = single_event()
    series = bench.cp_map_iterate(inst, np.eye(2) / 2.0, 3)
    text = bench.series_to_csv(series)
    lines = text.strip().splitlines()
    assert lines[0] == "t,ground_overlap,worst_violation_prob"
    assert len(lines) == 5
    t, overlap, worst = lines[2].split(",")
    assert int(t) == 1
    assert abs(float(overlap) - 0.75) < 1e-12
    assert abs(float(worst) - 0.25) < 1e-12


# the two-qubit family with one entangled event


def test_counterexample_instance_structure():
    cx = bench.make_counterexample(0.6)
    assert abs(cx.a - 0.6) < 1e-15 and abs(cx.b - 0.4) < 1e-15
    assert abs(np.linalg.norm(cx.psi) - 1.0) < 1e-12
    ranks = [round(np.trace(g).real) for g in cx.good_projectors]
    assert ranks == [2, 2, 3]
    for g in cx.good_projectors:
        assert np.abs(g @ g - g).max() < 1e-12
    for i in range(3):
        comp = np.eye(4) - cx.good_projectors[i]
        assert np.abs(cx.instance.embedded(i) - comp).max() < 1e-12
    assert not cx.instance.is_commuting()


def test_counterexample_limits_and_range():
    cx = bench.make_counterexample(1.0)
    assert cx.instance.is_commuting()
    assert np.abs(cx.instance.embedded(2) - np.diag([0, 0, 0, 1.0])).max() < 1e-12
    for bad in (0.0, -0.3, 1.0000001):
        with pytest.raises(ValueError):
            bench.make_counterexample(bad)


def test_analytic_values_frozen():
    at_one = bench.counterexample_analytic(1.0)
    assert at_one["pr_tau"] == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert at_one["bound"] == pytest.approx(0.25, abs=1e-15)
    assert not at_one["violates_bound"]

    # root of 10 a^2 + 3 a - 9, where the formula crosses the product bound
    threshold = at_one["threshold"]
    assert abs(threshold - 0.8104686356149273) < 1e-12
    assert abs(bench.counterexample_analytic(threshold)["pr_tau"] - 0.25) < 1e-9
    assert bench.counterexample_analytic(threshold + 1e-6)["violates_bound"]
    assert not bench.counterexample_analytic(threshold - 1e-6)["violates_bound"]

    assert at_one["limit"] == pytest.approx(37.0 / 144.0, abs=1e-15)
    near_one = bench.counterexample_analytic(1.0 - 1e-9)
    assert abs(near_one["pr_tau"] - 37.0 / 144.0) < 1e-6

    # hand-evaluated closed form at a = 0.95
    at95 = bench.counterexample_analytic(0.95)
    assert abs(at95["pr_tau"] - 0.2552505661115129) < 1e-10
    assert at95["violates_bound"]

    for bad in (0.0, 1.5, -1.0):
        with pytest.raises(ValueError):
            bench.counterexample_analytic(bad)


def test_audit_exact_route_matches_analytic():
    report = bench.counterexample_audit(0.9, 4000, seed=11, max_steps=2048)
    assert report["exact_residual"] < 1e-8
    assert report["exact_pass"]
    assert report["mc_pass"]
    assert report["pass"]
    assert report["violates_bound"]  # 0.9 sits above the threshold
    assert abs(report["monte_carlo"] - report["analytic"]) <= 3.0 * report["mc_sigma"]


def test_audit_below_threshold():
    report = bench.counterexample_audit(0.5, 4000, seed=12, max_steps=2048)
    assert report["exact_pass"] and report["mc_pass"]
    assert not report["violates_bound"]
    assert report["bound"] == pytest.approx(0.25)


def test_audit_rejects_endpoint_parameters():
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            bench.counterexample_audit(bad, 10, seed=1)


# Monte Carlo violation audits


def test_violation_audit_single_projector():
    inst = single_event()
    cert = find_certificate(inst)
    report = bench.violation_audit(inst, cert, 4000, 200, seed=5)
    assert report["bound"] == pytest.approx(1.0, abs=1e-12)
    final = report["horizons"][-1]
    assert final["steps"] == 200
    assert abs(final["mean"] - 1.0) <= 3.0 * final["sigma"]
    assert final["within_bound"]
    assert report["pass"]


def test_violation_audit_disjoint_pair():
    inst = disjoint_pair()
    cert = find_certificate(inst)
    # a tenth of the horizon must already sit past the settling phase,
    # otherwise the two-horizon comparison picks up the genuine early drift
    report = bench.violation_audit(inst, cert, 4000, 400, seed=6)
    assert report["bound"] == pytest.approx(2.0, abs=1e-9)
    final = report["horizons"][-1]
    assert abs(final["mean"] - 2.0) <= 3.0 * final["sigma"]
    assert report["pass"]


def test_violation_audit_passes_a_count_still_growing_within_the_bound():
    # four |111> events on (2i, 2i+1, 2i+2) of 9 qubits: the count still
    # grows between 20 and 200 steps, as a count may, yet both means sit far
    # below sum x/(1-x)
    chain9 = QlllInstance.build(
        9, 2, [((2 * i, 2 * i + 1, 2 * i + 2), basis_projector(8, [7])) for i in range(4)]
    )
    report = bench.violation_audit(chain9, find_certificate(chain9), 8000, 200, seed=5)
    early, final = report["horizons"]
    assert (early["steps"], final["steps"]) == (20, 200)
    assert final["mean"] > early["mean"]
    assert final["mean"] < 0.7 * report["bound"]
    assert report["pass"]


def test_violation_audit_horizon_doubling():
    inst = single_event()
    cert = find_certificate(inst)
    one = bench.violation_audit(inst, cert, 4000, 100, seed=7)["horizons"][-1]
    two = bench.violation_audit(inst, cert, 4000, 200, seed=7)["horizons"][-1]
    assert abs(one["mean"] - two["mean"]) <= 3.0 * (one["sigma"] + two["sigma"])


def test_violation_audit_rejects_uncertified():
    inst = single_event()
    cert = certificate_from_x((0.1,), 0.0, intersection_graph(inst))
    with pytest.raises(ValueError):
        bench.violation_audit(inst, cert, 10, 10, seed=1)


# occurrence-probability reports


def test_single_vertex_exact_never_exceeds_product_bound():
    inst = random_noncommuting(404)
    chans = build_channels(inst)
    for label in range(inst.m):
        tree = tree_from_nested((label, ()))
        report = bench.conjecture_test(inst, tree, "exact", 100)
        assert report.mode == "exact" and report.sense == "first-window"
        assert report.sigma == 0.0
        assert report.ratio <= 1.0 + 1e-9
        want = halting_operator(inst, label, chans).probability
        assert abs(report.probability - want) < 1e-10


def test_two_vertex_dag_exceeds_bound_near_one():
    dag = ResampleDag((0, 1), frozenset())
    cx = bench.make_counterexample(0.97)
    report = bench.conjecture_test(cx.instance, dag, "exact", 16)
    analytic = bench.counterexample_analytic(0.97)["pr_tau"]
    assert abs(report.probability - analytic) < 1e-8
    assert report.product_bound == pytest.approx(0.25, abs=1e-12)
    assert report.ratio > 1.0

    commuting = bench.make_counterexample(1.0)
    at_one = bench.conjecture_test(commuting.instance, dag, "exact", 16)
    assert abs(at_one.probability - 1.0 / 9.0) < 1e-8
    assert at_one.ratio < 1.0


def test_exact_mode_within_bound_on_commuting_trees():
    inst = diag3()
    trees = [tree_from_nested((label, ())) for label in range(3)]
    trees.append(tree_from_nested((2, ((1, ()),))))
    trees.append(tree_from_nested((1, ((2, ()),))))
    for tree in trees:
        report = bench.conjecture_test(inst, tree, "exact", 100)
        assert report.probability <= report.product_bound + 1e-9
        # commuting families have m * gap = 1, so both bounds coincide
        assert report.gap_bound == pytest.approx(report.product_bound, abs=1e-9)


def test_exact_mode_takes_four_vertices_within_the_budget():
    inst = diag3()
    tree = tree_from_nested((2, ((1, ((2, ((1, ()),)),)),)))
    assert len(tree.labels) == 4
    with pytest.raises(ValueError, match="needs 81 sequences, budget is 80"):
        bench.conjecture_test(inst, tree, "exact", 80)
    report = bench.conjecture_test(inst, tree, "exact", 81)
    assert report.samples == 81
    assert 0.0 < report.probability <= report.product_bound + 1e-9
    assert report.gap_bound == pytest.approx(report.product_bound, abs=1e-9)


def test_monte_carlo_mode_commuting():
    inst = diag3()
    tree = tree_from_nested((2, ((1, ()),)))
    report = bench.conjecture_test(
        inst, tree, "monte-carlo", 1500, seed=21, max_steps=24
    )
    assert report.mode == "monte-carlo" and report.sense == "full-log"
    assert report.samples == 1500
    assert report.sigma > 0.0
    assert report.probability <= report.product_bound + 3.0 * report.sigma + 1e-12


def test_conjecture_budget_and_mode_errors():
    inst = diag3()
    big = tree_from_nested((2, ((1, ((2, ((1, ((2, ()),)),)),)),)))
    assert len(big.labels) == 5
    with pytest.raises(ValueError, match="at most 4 vertices"):
        bench.conjecture_test(inst, big, "exact", 10**6)
    pair = tree_from_nested((2, ((1, ()),)))
    with pytest.raises(ValueError):
        bench.conjecture_test(inst, pair, "exact", 5)  # 3^2 sequences > 5
    with pytest.raises(ValueError):
        bench.conjecture_test(inst, pair, "sideways", 100)
    with pytest.raises(ValueError):
        bench.conjecture_test(inst, pair, "monte-carlo", 0)


def test_conjecture_report_validates_probability():
    with pytest.raises(ValueError):
        bench.ConjectureReport(
            mode="exact", sense="first-window", probability=1.5,
            sigma=0.0, product_bound=0.5, ratio=3.0, gap_bound=None,
            gap_ratio=None, samples=1, seed=None,
        )


# weak and strong convergence metrics


def test_metrics_on_good_state():
    inst = disjoint_pair()
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    out = bench.convergence_metrics(rho, inst)
    assert abs(out["weak"]) < 1e-12
    assert abs(out["strong"]) < 1e-12


def test_metrics_near_identical_pair():
    # two rank-1 events on one qubit with overlap 1 - delta; the state
    # orthogonal to the first has violation probability exactly delta for
    # the second, yet no ground component at all
    delta = 0.2
    psi = np.array([1.0, 0.0])
    phi = np.array([math.sqrt(1.0 - delta), math.sqrt(delta)])
    inst = QlllInstance.build(
        1, 2, [((0,), np.outer(psi, psi)), ((0,), np.outer(phi, phi))]
    )
    rho = np.diag([0.0, 1.0])
    out = bench.convergence_metrics(rho, inst)
    assert abs(out["weak"] - delta) < 1e-9
    assert abs(out["strong"] - 1.0) < 1e-12


def test_metrics_maximally_mixed():
    inst = diag3()
    out = bench.convergence_metrics(np.eye(8) / 8.0, inst)
    assert abs(out["weak"] - 0.5) < 1e-12
    assert abs(out["strong"] - (1.0 - 0.25)) < 1e-12  # ground space is 2 of 8


def test_metrics_match_dense_trace_reference():
    # three random rank-1 2-local events on three qubits (rank 2 each on the
    # register): a kernel of dimension at least 2, and no two events commute
    rng = make_rng(57)
    inst = QlllInstance.build(3, 2, [
        (sup, random_rank_projector(4, 1, rng)) for sup in ((0, 1), (1, 2), (0, 2))
    ])
    assert not inst.is_commuting()
    p0 = spectral_report(inst).p0
    assert spectral_report(inst).ground_dim >= 2
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    out = bench.convergence_metrics(rho, inst)
    viols = [np.trace(inst.embedded(i) @ rho).real for i in range(inst.m)]
    assert abs(out["weak"] - max(viols)) < 1e-12
    assert abs(out["strong"] - (1.0 - np.trace(p0 @ rho).real)) < 1e-12


def test_metrics_reject_bad_density():
    inst = single_event()
    with pytest.raises(ValueError):
        bench.convergence_metrics(np.eye(2), inst)
    with pytest.raises(ValueError):
        bench.convergence_metrics(np.diag([1.5, -0.5]), inst)


# corpora


def test_certified_commuting_corpus():
    corpus = bench.certified_commuting_corpus(12, seed=2026)
    assert len(corpus) == 12
    for inst, cert in corpus:
        assert inst.is_commuting()
        assert inst.shape.dim <= 8
        assert check_lovasz(inst, cert).ok
    again = bench.certified_commuting_corpus(12, seed=2026)
    assert [instance_digest(i) for i, _ in corpus] == [
        instance_digest(i) for i, _ in again
    ]


def test_certified_corpus_with_epsilon():
    corpus = bench.certified_commuting_corpus(6, seed=7, epsilon=0.1)
    for inst, cert in corpus:
        assert cert.epsilon == pytest.approx(0.1)
        assert check_lovasz(inst, cert).ok


def test_random_instance_corpus():
    corpus = bench.random_instance_corpus(50, seed=99)
    assert len(corpus) == 50
    kinds = set()
    for inst in corpus:
        assert inst.shape.n <= 3 and inst.shape.d == 2
        assert 1 <= inst.m <= 5
        kinds.add(inst.is_commuting())
    assert kinds == {True, False}
    again = bench.random_instance_corpus(50, seed=99)
    assert [instance_digest(i) for i in corpus] == [instance_digest(i) for i in again]


# sha256 over the instance digests of one corpus, in order, for every seed
# that the acceptance criteria and the tests draw
CORPUS_DIGESTS = [
    ("certified_commuting_corpus", 10, 41, {}, "29f2f6451cd4d0d9"),
    ("certified_commuting_corpus", 3, 43, {"epsilon": 0.1}, "7d47e87ed7180bb6"),
    ("certified_commuting_corpus", 3, 47, {}, "973015530ff2bfcc"),
    ("certified_commuting_corpus", 12, 2026, {}, "a7a26aa4207febdc"),
    ("certified_commuting_corpus", 6, 7, {"epsilon": 0.1}, "b65457f52a947201"),
    ("certified_commuting_corpus", 20, 71, {}, "e758985ed8a9e632"),
    ("certified_commuting_corpus", 5, 91, {}, "f6390bb725e0dec3"),
    ("random_instance_corpus", 50, 23, {}, "72147941aeff0f79"),
    ("random_instance_corpus", 50, 99, {}, "815bc22aacf0585d"),
]


@pytest.mark.parametrize("name, count, seed, kwargs, digest", CORPUS_DIGESTS)
def test_corpus_draws_are_pinned(name, count, seed, kwargs, digest):
    corpus = getattr(bench, name)(count, seed, **kwargs)
    insts = [c[0] if isinstance(c, tuple) else c for c in corpus]
    joined = "".join(instance_digest(inst) for inst in insts)
    assert hashlib.sha256(joined.encode()).hexdigest()[:16] == digest


def test_chain_cnf_corpus():
    corpus = bench.chain_cnf_corpus(5, seed=31, clauses=5)
    assert len(corpus) == 5
    for inst, cert in corpus:
        assert inst.m == 5
        for i in range(inst.m):
            assert event_probability(inst, i) == pytest.approx(1.0 / 8.0)
        for a, b in zip(inst.events, inst.events[1:]):
            assert len(set(a.vars) & set(b.vars)) == 1
        bound = expected_resamples_bound(inst, cert)
        assert bound == pytest.approx(5 * 0.25, abs=1e-12)
        run = solve_classical(inst, seed=17)
        assert not run.exhausted
        for ev in inst.events:
            local = tuple(run.assignment[v] for v in ev.vars)
            assert local not in ev.violating


def test_chain_cnf_text_parses():
    text = bench.chain_cnf(4, seed=8)
    inst = instance_from_dimacs(text)
    assert inst.m == 4
    assert len(inst.domains) == 9
    for ev in inst.events:
        assert len(ev.vars) == 3
        assert len(ev.violating) == 1
