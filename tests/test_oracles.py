import numpy as np
import pytest

from qlll import bench, oracles
from qlll.instance import (
    QlllInstance,
    basis_projector,
    intersection_graph,
    random_rank_projector,
    spectral_report,
)
from qlll.oracles import (
    OutcomeOperator,
    build_channels,
    first_violation_gap_bound,
    halting_operator,
    partial_dag_channel_bound,
    sequence_operator,
    shortclaim_suite,
    traced_continuation_bound,
    verify_cp_identities,
)
from helpers import (
    dense_shortclaim_suite,
    devectorize,
    halting_operator_resolvent,
    kernel_projector,
    pseudoinverse,
    vectorize,
)
from qlll.tensor import make_rng, min_slack
from qlll.witness import build_resample_dag, dag_probability, label_intersection
from qlll.quantum import run_trajectory_batch

Q1 = np.array([[0, 0], [0, 1]], dtype=complex)
Q0 = np.array([[1, 0], [0, 0]], dtype=complex)


def single_projector():
    return QlllInstance.build(1, 2, [([0], Q0)])


def disjoint_pair():
    return QlllInstance.build(2, 2, [([0], Q1), ([1], Q1)])


def three_disjoint():
    return QlllInstance.build(3, 2, [([0], Q1), ([1], Q1), ([2], Q1)])


def diag3():
    # commuting, with disjoint pairs (0,1), (0,2) and an intersecting pair (1,2)
    return QlllInstance.build(
        3, 2, [([0], Q1), ([1], Q1), ([1, 2], basis_projector(4, [3]))]
    )


def counterexample_a1():
    # the three measured bad events of the two-qubit counter-example at a=1
    return QlllInstance.build(
        2, 2, [([0], Q1), ([1], Q1), ([0, 1], basis_projector(4, [3]))]
    )


def random_noncommuting(seed):
    rng = make_rng(seed)
    events = [([0, 1], random_rank_projector(4, 1 + int(rng.integers(2)), rng))
              for _ in range(3)]
    inst = QlllInstance.build(2, 2, events)
    return inst


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_measure_on_maximally_mixed_gives_projector():
    inst = diag3()
    ch = build_channels(inst)
    D = inst.shape.dim
    for i in range(inst.m):
        out = ch.measure(i, np.eye(D) / D)
        assert np.abs(out - inst.embedded(i) / D).max() < 1e-12


def test_refresh_is_trace_preserving():
    inst = diag3()
    ch = build_channels(inst)
    rng = make_rng(7)
    for i in range(inst.m):
        for _ in range(10):
            rho = random_density(rng, inst.shape.dim)
            out = ch.refresh(i, rho)
            assert abs(np.trace(out) - 1) < 1e-12


def test_refresh_covers_whole_register():
    # projector support equal to the full register traces to a scalar
    inst = counterexample_a1()
    ch = build_channels(inst)
    rng = make_rng(8)
    rho = random_density(rng, 4)
    out = ch.refresh(2, rho)
    assert np.abs(out - np.eye(4) / 4).max() < 1e-12


def test_instrument_is_trace_preserving():
    inst = diag3()
    ch = build_channels(inst)
    rng = make_rng(13)
    D = inst.shape.dim
    for _ in range(10):
        rho = random_density(rng, D)
        out = ch.continue_step(rho)
        for i in range(inst.m):
            out = out + ch.measure(i, rho) / inst.m
        assert abs(np.trace(out) - 1) < 1e-12


def test_patch_is_trace_preserving():
    inst = diag3()
    ch = build_channels(inst)
    rng = make_rng(17)
    for i in range(inst.m):
        rho = random_density(rng, inst.shape.dim)
        assert abs(np.trace(ch.patch(i, rho)) - 1) < 1e-12


def test_channel_budget_rejected():
    # D = 128: the local channels run
    events = [([q], Q1) for q in range(7)]
    inst = QlllInstance.build(7, 2, events)
    ch = build_channels(inst)
    rho = np.eye(inst.shape.dim) / inst.shape.dim
    assert abs(np.trace(ch.patch(0, rho)) - 1) < 1e-12
    # D = 4096 is past the density budget
    wide = QlllInstance.build(12, 2, [([q], Q1) for q in range(12)])
    with pytest.raises(ValueError, match="budget 2048"):
        build_channels(wide)


def test_halting_single_projector_equality():
    inst = single_projector()
    out = halting_operator(inst, 0)
    expect = inst.embedded(0) / 2
    assert np.abs(out.operator - expect).max() < 1e-12
    assert abs(out.probability - 0.5) < 1e-12
    assert out.provenance == ("halt", 0)


def test_halting_disjoint_pair():
    inst = disjoint_pair()
    x0 = halting_operator(inst, 0)
    assert min_slack(x0.operator, inst.embedded(0) / 4) > -1e-9
    # 1/4 up front plus a geometric tail through the other event's kernel
    assert abs(x0.probability - 3 / 8) < 1e-10
    x1 = halting_operator(inst, 1)
    assert abs(x0.probability + x1.probability + 1 / 4 - 1) < 1e-10


def test_halting_bound_noncommuting_seeds():
    for seed in range(5):
        inst = random_noncommuting(seed)
        for a in range(inst.m):
            out = halting_operator(inst, a)
            slack = min_slack(out.operator, inst.embedded(a) / 4)
            assert slack > -1e-9


def test_halting_resolvent_cross_check():
    for inst in (diag3(), random_noncommuting(42)):
        for a in range(inst.m):
            solved = halting_operator(inst, a)
            resolvent = halting_operator_resolvent(inst, a)
            assert np.abs(solved.operator - resolvent.operator).max() < 1e-13


def test_outcome_operator_validation():
    with pytest.raises(ValueError):
        OutcomeOperator(np.array([[-1.0, 0], [0, 0]]), -1.0, ("bad",))
    with pytest.raises(ValueError):
        OutcomeOperator(np.eye(2) * 0.9, 1.8, ("bad",))  # probability above one
    with pytest.raises(ValueError):
        OutcomeOperator(np.eye(2) * 0.25, 0.9, ("bad",))  # probability != trace


def test_outcome_operator_rejects_nan():
    off = np.eye(2) * 0.5
    off[0, 1] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        OutcomeOperator(off, 1.0, ("bad",))
    with pytest.raises(ValueError, match="not Hermitian"):
        OutcomeOperator(np.diag([np.nan, 0.5]), 0.5, ("bad",))


def test_sequence_length_one_matches_halting():
    inst = diag3()
    for a in range(inst.m):
        seq = sequence_operator(inst, (a,))
        halt = halting_operator(inst, a)
        assert abs(seq.probability - halt.probability) < 1e-10


def test_sequence_counterexample_value():
    inst = counterexample_a1()
    p01 = sequence_operator(inst, (0, 1)).probability
    p10 = sequence_operator(inst, (1, 0)).probability
    assert abs(p01 + p10 - 1 / 9) < 1e-8


def test_sequence_bounded_by_dag_weight():
    for inst in (counterexample_a1(), diag3()):
        intersects = label_intersection(intersection_graph(inst))
        rel = inst.relative_dimensions()
        for a in range(inst.m):
            for b in range(inst.m):
                seq = (a, b)
                p = sequence_operator(inst, seq).probability
                dag = build_resample_dag(seq, intersects)
                w = float(dag_probability(dag, seq))
                assert p <= w * rel[a] * rel[b] + 1e-9


def test_sequence_length_cap():
    inst = disjoint_pair()
    with pytest.raises(ValueError):
        sequence_operator(inst, (0, 1, 0, 1, 0))


def test_outcome_decomposition_is_complete():
    # all length-2 sequence weights, plus runs with fewer than 2 violations
    inst = counterexample_a1()
    D = inst.shape.dim
    p0 = kernel_projector(sum(inst.embedded(i) for i in range(inst.m)))
    total = np.trace(p0 @ np.eye(D) / D @ p0).real
    for a in range(inst.m):
        one = sequence_operator(inst, (a,))
        total += np.trace(p0 @ one.operator @ p0).real
        for b in range(inst.m):
            total += sequence_operator(inst, (a, b)).probability
    assert abs(total - 1) < 1e-8


def test_cp_identities_commuting_pass():
    report = verify_cp_identities(diag3())
    assert report["pass"]
    parts = {e["lemma"]: e for e in report["parts"]}
    assert len(parts) == 7
    for e in parts.values():
        assert not e["skipped"]
        if e["residual"] is not None:
            assert e["residual"] < 1e-10
        if e["slack_min"] is not None:
            assert e["slack_min"] > -1e-9


def hadamard_pairs():
    """Commuting events with dense local matrices on 4 qubits: |11> on (0, 1),
    (2, 3) and (1, 2), |1> on 3, each turned by a Hadamard on every qubit;
    seven groups of mutually disjoint events."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    hh = np.kron(h, h)
    p11 = hh @ basis_projector(4, [3]) @ hh
    return QlllInstance.build(
        4, 2, [([0, 1], p11), ([2, 3], p11), ([1, 2], p11), ([3], h @ Q1 @ h)]
    )


def test_cp_identity_groups_share_one_series(monkeypatch):
    inst = hadamard_pairs()
    contexts, solves = [], []
    solve = oracles._krylov_solve

    def recording_solve(channels, start, context):
        contexts.append(context)
        solves.append(solve(channels, start, context))
        return solves[-1]

    monkeypatch.setattr(oracles, "_krylov_solve", recording_solve)
    report = verify_cp_identities(inst)
    monkeypatch.undo()
    # every group reads the one solve from I/D that the halting operators read
    assert contexts == ["halting operators"]
    groups = oracles._disjoint_groups(inst)
    assert len(groups) == 7
    ch = build_channels(inst)
    sums = {group: ch.measure_all(group, solves[0]) / inst.m for group in groups}

    # each group against the dense resolvent (I - T)^+ applied to I/D, with
    # T = (1/m) sum_i C_i . C_i as a matrix on column-stacked vectors,
    # vec(C X C) = (C^T kron C) vec(X)
    D, m = inst.shape.dim, inst.m
    eye = np.eye(D) / D
    comps = [np.eye(D) - inst.embedded(i) for i in range(m)]
    t_mat = sum(np.kron(c.T, c) for c in comps) / m
    core = pseudoinverse(np.eye(D * D) - t_mat)
    x = devectorize(core @ vectorize(eye))
    slacks = []
    for group in groups:
        p = np.eye(D, dtype=complex)
        for i in group:
            p = p @ inst.embedded(i)
        want = p @ x @ p / m
        assert np.abs(sums[group] - want).max() <= 1e-13
        rhs = p @ eye @ p / len(group)
        slacks.append(min_slack(want, rhs))
        assert abs(min_slack(sums[group], rhs) - slacks[-1]) <= 1e-12
    part = {e["lemma"]: e for e in report["parts"]}["sandwich-series-group-bound"]
    assert abs(part["slack_min"] - min(slacks)) <= 1e-12


def test_cp_identities_skip_without_disjoint_pairs():
    # two overlapping commuting events: the disjoint-pair parts are skipped
    inst = QlllInstance.build(
        2, 2, [([0, 1], basis_projector(4, [3])), ([0], Q1)]
    )
    report = verify_cp_identities(inst)
    parts = {e["lemma"]: e for e in report["parts"]}
    skipped = [name for name, e in parts.items() if e["skipped"]]
    assert len(skipped) == 3
    for name in skipped:
        assert parts[name]["pass"] is None
    assert report["pass"]


def test_cp_identities_need_commuting():
    with pytest.raises(ValueError):
        verify_cp_identities(random_noncommuting(3))


def test_gap_bound_single_projector():
    report = first_violation_gap_bound(single_projector(), 0)
    assert report["dimension_bound"]["pass"]
    assert report["gap_bound"]["pass"]
    assert not report["gap_bound"]["vacuous"]
    assert abs(report["gap_bound"]["gap"] - 1.0) < 1e-12
    # m=1 and gap 1: both bounds coincide and are tight
    assert abs(report["dimension_bound"]["slack_min"]) < 1e-10
    assert abs(report["gap_bound"]["slack_min"]) < 1e-10


def test_gap_bound_counterexample_ids():
    inst = counterexample_a1()
    for a in range(inst.m):
        report = first_violation_gap_bound(inst, a)
        assert report["dimension_bound"]["pass"]
        assert report["gap_bound"]["pass"]


def test_gap_bound_random_audit():
    for seed in range(20):
        inst = random_noncommuting(100 + seed)
        for a in range(inst.m):
            report = first_violation_gap_bound(inst, a)
            assert report["dimension_bound"]["pass"]
            assert report["gap_bound"]["pass"]


def test_gap_bound_vacuous_for_zero_projector():
    inst = QlllInstance.build(1, 2, [([0], np.zeros((2, 2)))])
    report = first_violation_gap_bound(inst, 0)
    assert report["gap_bound"]["vacuous"]
    assert report["gap_bound"]["pass"] is None
    assert report["dimension_bound"]["pass"]


@pytest.mark.parametrize("build, gap, ground_dim", [
    # both basis states of one qubit are bad: no kernel, H = I/2
    (lambda: QlllInstance.build(1, 2, [([0], Q0), ([0], Q1)]), 0.5, 0),
    (diag3, 1.0 / 3.0, 2),
], ids=["frustrated", "unfrustrated"])
def test_process_gap_reads_the_spectral_report(build, gap, ground_dim):
    inst = build()
    rep = spectral_report(inst)
    assert rep.ground_dim == ground_dim
    assert abs(rep.gap - gap) < 1e-12


def test_shortclaim_single_basis_projector():
    report = shortclaim_suite(single_projector(), [0])
    assert report["pass"]
    lemmas = {e["lemma"]: e for e in report["lemmas"]}
    tian = lemmas["sum-pinv-product-bound"]
    assert abs(tian["slack_min"]) < 1e-10  # P Q+ P = P here, tight
    agree = lemmas["halting-route-agreement"]
    assert agree["residual"] < 1e-10


def test_shortclaim_products_on_diag3():
    inst = diag3()
    for ids in ([0], [1], [0, 1], [1, 2], [0, 1, 2]):
        report = shortclaim_suite(inst, ids)
        assert report["k"] == len(ids)
        for e in report["lemmas"]:
            if e["residual"] is not None:
                assert e["residual"] < 1e-9
            if e["slack_min"] is not None:
                assert e["slack_min"] > -1e-9


def test_shortclaim_matches_the_dense_reference():
    # criterion 07's corpus, seeds and id draws, against the D^2 x D^2 route
    corpus = bench.certified_commuting_corpus(20, seed=71, max_events=4)
    rng = make_rng(710)
    for idx, (inst, _) in enumerate(corpus):
        k = 1 if idx % 2 == 0 else min(2, inst.m)
        ids = tuple(int(i) for i in rng.choice(inst.m, size=k, replace=False))
        got, want = shortclaim_suite(inst, ids), dense_shortclaim_suite(inst, ids)
        assert got["pass"] == want["pass"]
        for g, w in zip(got["lemmas"], want["lemmas"], strict=True):
            assert (g["lemma"], g["pass"]) == (w["lemma"], w["pass"])
            for key in ("residual", "slack_min"):
                if w[key] is None:
                    assert g[key] is None
                else:
                    assert abs(g[key] - w[key]) <= 1e-10, (idx, g["lemma"])


def test_shortclaim_requires_commuting():
    with pytest.raises(ValueError):
        shortclaim_suite(random_noncommuting(5), [0])


def test_partial_dag_empty_gaps_match_sequence():
    inst = diag3()
    seq = (1, 2)  # the two events share qubit 1, so both stay relevant
    report = partial_dag_channel_bound(inst, seq, [set(), set()])
    direct = sequence_operator(inst, seq).probability
    assert abs(report["probability"] - direct) < 1e-10
    assert report["pass"]


def test_partial_dag_with_one_gap_id():
    inst = three_disjoint()
    report = partial_dag_channel_bound(inst, (2,), [{0}])
    plain = sequence_operator(inst, (2,)).probability
    # absorbing the other event's violations can only funnel more weight in
    assert report["probability"] >= plain - 1e-12
    assert report["probability"] <= 0.5 + 1e-9
    assert report["pass"]


def test_partial_dag_gap_precondition():
    inst = diag3()
    with pytest.raises(ValueError):
        partial_dag_channel_bound(inst, (2,), [{1}])  # 1 intersects 2


def test_partial_dag_rejects_irrelevant_sequence():
    inst = three_disjoint()
    with pytest.raises(ValueError):
        partial_dag_channel_bound(inst, (0, 1), [set(), set()])


def test_traced_continuation_bound():
    inst = three_disjoint()
    report = traced_continuation_bound(inst, (1, 2), (0,))
    assert report["pass"]
    assert report["slack_min"] > -1e-10


def test_traced_bound_requires_disjoint_gap():
    inst = diag3()
    with pytest.raises(ValueError):
        traced_continuation_bound(inst, (2,), (1,))


def test_traced_bound_gap_must_miss_every_set_id():
    # diag3: 0 and 2 are disjoint, 1 meets 2, the later set id
    for inst, ids, gap in ((diag3(), (0, 2), (1,)), (three_disjoint(), (1, 2), (2,))):
        with pytest.raises(ValueError, match="gap id"):
            traced_continuation_bound(inst, ids, gap)


def test_ids_are_read_as_integers_not_truncated():
    # a float id once truncated: 1.7 read as 1, 0.9 as 0, the gap id 0.5 as 0
    inst = three_disjoint()
    with pytest.raises(TypeError):
        sequence_operator(inst, [1.7])
    with pytest.raises(TypeError):
        halting_operator(inst, 0.9)
    with pytest.raises(TypeError):
        partial_dag_channel_bound(inst, (2,), [{0.5}])
    with pytest.raises(TypeError):
        traced_continuation_bound(inst, (1, 2), (0.5,))
    # numpy integers are integers
    assert sequence_operator(inst, [np.int64(1)]).provenance == ("sequence", 1)
    assert halting_operator(inst, np.int32(0)).provenance == ("halt", 0)


def test_halting_matches_trajectory_frequencies():
    inst = counterexample_a1()
    probs = [halting_operator(inst, a).probability for a in range(inst.m)]
    n = 100_000
    batch = run_trajectory_batch(
        inst, seed=20260819, n_traj=n, max_steps=512,
        record_first=1, stop_after_violations=1,
    )
    first = batch.first_labels[:, 0]
    for a, p in enumerate(probs):
        phat = float(np.mean(first == a))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(phat - p) <= 3 * sigma
