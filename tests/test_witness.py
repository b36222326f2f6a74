import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlll import config
from qlll.instance import IntersectionGraph, certificate_from_x
from qlll.logs import ExecutionLog, log_from_labels
from qlll.witness import (
    ResampleDag,
    WitnessTree,
    build_partial_resample_dag,
    build_resample_dag,
    build_witness_tree,
    dag_from_dict,
    dag_probability,
    dag_sequence_distribution,
    enumerate_proper_trees,
    expected_violations_bound,
    galton_watson_probability,
    label_intersection,
    occurs_in_log,
    simulate_galton_watson,
    tree_from_dict,
    tree_from_nested,
)

# Intersection pattern used throughout: labels 0 and 1 are disjoint,
# label 2 meets both (one event per end qudit plus one straddling both).
TRIO = IntersectionGraph((frozenset({2}), frozenset({2}), frozenset({0, 1})))
MEET = label_intersection(TRIO)

# three events that pairwise intersect
CLIQUE = IntersectionGraph(
    (frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1}))
)
CLIQUE_MEET = label_intersection(CLIQUE)


def test_label_intersection_reflexive():
    assert MEET(0, 0)
    assert MEET(1, 1)
    assert not MEET(0, 1)
    assert MEET(0, 2) and MEET(2, 0)


def test_witness_tree_single_entry():
    tree = build_witness_tree(log_from_labels([2]), 0, MEET)
    assert len(tree) == 1
    assert tree.labels == (2,)
    assert tree.canonical() == (2, ())


def test_witness_tree_discards_disjoint():
    tree = build_witness_tree(log_from_labels([0, 1]), 1, MEET)
    assert tree.canonical() == (1, ())


def test_witness_tree_attaches_intersecting():
    tree = build_witness_tree(log_from_labels([0, 2]), 1, MEET)
    assert tree.canonical() == (2, ((0, ()),))
    assert tree.parents == (-1, 0)


def test_witness_tree_attaches_below_deepest():
    # log 0,1,2 from entry 2: both 0 and 1 intersect only the root
    tree = build_witness_tree(log_from_labels([0, 1, 2]), 2, MEET)
    assert tree.canonical() == (2, ((0, ()), (1, ())))
    # log 2,0,1,2: the final 2 sees two depth-1 vertices; tie broken by
    # earliest creation (the vertex labelled 1, created right after the root)
    tree = build_witness_tree(log_from_labels([2, 0, 1, 2]), 3, MEET)
    assert tree.canonical() == (2, ((0, ()), (1, ((2, ()),))))


def depths(tree) -> tuple:
    """Each vertex's distance from the root; parents come before children."""
    out = [0] * len(tree.labels)
    for v in range(1, len(tree.labels)):
        out[v] = out[tree.parents[v]] + 1
    return tuple(out)


def test_witness_tree_same_label_chain():
    tree = build_witness_tree(log_from_labels([2, 2, 2]), 2, MEET)
    assert tree.canonical() == (2, ((2, ((2, ()),)),))
    assert depths(tree) == (0, 1, 2)


def test_witness_tree_invalid_entry():
    with pytest.raises(IndexError):
        build_witness_tree(log_from_labels([0]), 1, MEET)


def test_witness_trees_always_proper_and_level_independent():
    import random

    rnd = random.Random(0)
    for _ in range(60):
        labels = [rnd.randrange(3) for _ in range(rnd.randrange(1, 10))]
        log = log_from_labels(labels)
        for entry in range(len(labels)):
            tree = build_witness_tree(log, entry, MEET)
            assert tree.is_proper()
            by_level = {}
            for v, dep in enumerate(depths(tree)):
                by_level.setdefault(dep, []).append(tree.labels[v])
            for level_labels in by_level.values():
                for a, b in itertools.combinations(level_labels, 2):
                    assert not MEET(a, b)


def test_resample_dag_disjoint_pair():
    dag = build_resample_dag([0, 1], MEET)
    assert dag.labels == (0, 1)
    assert dag.edges == frozenset()
    partial, relevant = build_partial_resample_dag([0, 1], MEET)
    assert partial.labels == (1,)
    assert relevant == (1,)


def test_resample_dag_intersecting_pair():
    dag = build_resample_dag([0, 2], MEET)
    assert dag.edges == frozenset({(1, 0)})
    partial, relevant = build_partial_resample_dag([0, 2], MEET)
    assert relevant == (0, 2)
    assert partial.labels == (0, 2)
    assert partial.edges == frozenset({(1, 0)})


def test_partial_dag_drops_irrelevant_middle():
    # sequence (0, 1, 2): 1 is disjoint from 0 but meets 2, so from the
    # final 2 everything is kept; swap to make a genuinely droppable element
    partial, relevant = build_partial_resample_dag([0, 1, 0], MEET)
    assert relevant == (0, 0)
    assert partial.labels == (0, 0)
    assert partial.edges == frozenset({(1, 0)})


def test_equal_relevant_subsequences_equal_partial_dags():
    a, rel_a = build_partial_resample_dag([0, 1, 0], MEET)
    b, rel_b = build_partial_resample_dag([0, 0], MEET)
    assert rel_a == rel_b
    assert a == b
    assert a.canonical() == b.canonical()


def test_partial_dag_needs_nonempty_sequence():
    with pytest.raises(ValueError):
        build_partial_resample_dag([], MEET)


def brute_distribution(dag):
    """Independent enumeration of every uniform leaf-removal history."""
    out = Counter()

    def rec(remaining, prefix, p):
        if not remaining:
            out[tuple(prefix)] += p
            return
        leaves = [
            v
            for v in remaining
            if not any((v, u) in dag.edges and u in remaining for u in remaining)
        ]
        for v in leaves:
            rec(remaining - {v}, prefix + [dag.labels[v]], p * Fraction(1, len(leaves)))

    rec(frozenset(range(len(dag.labels))), [], Fraction(1))
    return dict(out)


def test_dag_probability_single_vertex():
    dag = build_resample_dag([2], MEET)
    assert dag_probability(dag, [2]) == 1
    assert dag_probability(dag, [0]) == 0


def test_dag_probability_two_isolated():
    dag = build_resample_dag([0, 1], MEET)
    assert dag_probability(dag, [0, 1]) == Fraction(1, 2)
    assert dag_probability(dag, [1, 0]) == Fraction(1, 2)
    dist = dag_sequence_distribution(dag)
    assert dist == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
    assert sum(dist.values()) == 1


def diamond_dag():
    # 0 earliest on both qudits, then 1 and 2 on separate qudits, then 3 on both
    return build_resample_dag([2, 0, 1, 2], MEET)


def test_dag_probability_diamond_matches_brute_force():
    dag = diamond_dag()
    brute = brute_distribution(dag)
    dist = dag_sequence_distribution(dag)
    assert dist == brute
    assert sum(dist.values()) == 1
    for seq, p in brute.items():
        assert dag_probability(dag, seq) == p
    # non linear extensions get zero
    assert dag_probability(dag, (2, 2, 0, 1)) == 0
    assert dag_probability(dag, (0, 2, 1, 2)) == 0


def test_dag_probability_positive_iff_linear_extension():
    dag = diamond_dag()
    for perm in set(itertools.permutations(dag.labels)):
        p = dag_probability(dag, perm)
        in_brute = perm in brute_distribution(dag)
        assert (p > 0) == in_brute


def test_dag_probability_random_cross_check():
    import random

    rnd = random.Random(42)
    for _ in range(25):
        seq = [rnd.randrange(3) for _ in range(rnd.randrange(1, 7))]
        dag = build_resample_dag(seq, MEET)
        brute = brute_distribution(dag)
        dist = dag_sequence_distribution(dag)
        assert dist == brute
        assert sum(dist.values()) == 1


def test_dag_probability_exact_type_and_cap():
    dag = build_resample_dag([2] * 12, MEET)
    p = dag_probability(dag, [2] * 12)
    assert isinstance(p, Fraction) and p == 1
    dag13 = build_resample_dag([2] * 13, MEET)
    assert isinstance(dag_probability(dag13, [2] * 13), float)
    with pytest.raises(ValueError):
        dag_probability(build_resample_dag([2] * 21, MEET), [2] * 21)


def test_occurs_in_log_empty_log():
    tree = tree_from_nested((2, ()))
    assert not occurs_in_log(tree, log_from_labels([]), MEET)
    dag = build_resample_dag([2], MEET)
    assert not occurs_in_log(dag, log_from_labels([]), MEET)


def test_occurs_in_log_single_vertex_tree():
    tree = tree_from_nested((2, ()))
    assert occurs_in_log(tree, log_from_labels([2, 0, 1]), MEET)
    assert not occurs_in_log(tree, log_from_labels([0, 1]), MEET)
    # an earlier intersecting entry always attaches, so no singleton here
    assert not occurs_in_log(tree, log_from_labels([0, 2]), MEET)
    # disjoint earlier entries are discarded, so this one IS a singleton
    assert occurs_in_log(tree_from_nested((1, ())), log_from_labels([0, 1]), MEET)


def test_occurs_in_log_two_vertex_dag():
    two_isolated = build_resample_dag([0, 1], MEET)
    assert occurs_in_log(two_isolated, log_from_labels([0, 1]), MEET)
    # label order in the DAG does not matter, only the structure
    flipped = build_resample_dag([1, 0], MEET)
    assert occurs_in_log(flipped, log_from_labels([0, 1]), MEET)
    assert not occurs_in_log(two_isolated, log_from_labels([0, 2]), MEET)


def test_occurs_in_log_witness_tree_order():
    chain = tree_from_nested((2, ((0, ()),)))
    assert occurs_in_log(chain, log_from_labels([0, 2]), MEET)
    assert not occurs_in_log(chain, log_from_labels([2, 0]), MEET)


def test_occurs_in_log_partial_dag():
    partial, _ = build_partial_resample_dag([0, 0], MEET)
    assert occurs_in_log(partial, log_from_labels([0, 1, 0]), MEET)
    assert not occurs_in_log(partial, log_from_labels([0, 1]), MEET)


def test_galton_watson_probability_frozen_values():
    # isolated label: no neighbours at all
    lone = IntersectionGraph((frozenset(),))
    cert = certificate_from_x((0.5,), 0.0, lone)
    assert galton_watson_probability(tree_from_nested((0, ())), cert, lone) == 0.5

    # two mutually intersecting labels
    pair = IntersectionGraph((frozenset({1}), frozenset({0})))
    cert = certificate_from_x((0.5, 0.5), 0.0, pair)
    single = tree_from_nested((0, ()))
    assert galton_watson_probability(single, cert, pair) == pytest.approx(0.25)
    chain = tree_from_nested((0, ((1, ()),)))
    assert galton_watson_probability(chain, cert, pair) == pytest.approx(0.0625)


def test_galton_watson_probability_hand_derivation():
    # root 0, single child 1, mutual neighbours, general x: the process must
    # skip a self-child (1-x0), spawn the 1-child (x1), then 1 must spawn
    # nothing (1-x0)(1-x1)
    pair = IntersectionGraph((frozenset({1}), frozenset({0})))
    x0, x1 = 0.3, 0.7
    cert = certificate_from_x((x0, x1), 0.0, pair)
    chain = tree_from_nested((0, ((1, ()),)))
    by_hand = (1 - x0) * x1 * (1 - x0) * (1 - x1)
    assert galton_watson_probability(chain, cert, pair) == pytest.approx(by_hand)


def test_galton_watson_probability_rejects_improper():
    pair = IntersectionGraph((frozenset({1}), frozenset({0})))
    cert = certificate_from_x((0.5, 0.5), 0.0, pair)
    improper = WitnessTree(labels=(0, 1, 1), parents=(-1, 0, 0))
    with pytest.raises(ValueError):
        galton_watson_probability(improper, cert, pair)


def test_galton_watson_probability_outside_neighborhood():
    cert = certificate_from_x((0.5, 0.5, 0.5), 0.0, TRIO)
    outside = tree_from_nested((0, ((1, ()),)))  # 1 is not in gamma_plus(0)
    assert galton_watson_probability(outside, cert, TRIO) == 0.0


def test_simulate_galton_watson_zero_x():
    lone = IntersectionGraph((frozenset(),))
    cert = certificate_from_x((0.0,), 0.0, lone)
    for seed in range(5):
        tree = simulate_galton_watson(0, cert, lone, seed)
        assert tree is not None and len(tree) == 1


def test_simulate_galton_watson_singleton_frequency():
    lone = IntersectionGraph((frozenset(),))
    cert = certificate_from_x((0.5,), 0.0, lone)
    n = 20_000
    hits = sum(
        len(t) == 1
        for t in (simulate_galton_watson(0, cert, lone, s) for s in range(n))
        if t is not None
    )
    sigma = (0.25 / n) ** 0.5
    assert abs(hits / n - 0.5) < 3 * sigma + 1e-9


def test_simulate_galton_watson_divergence_cap():
    cert = certificate_from_x((0.9, 0.9, 0.9), 0.0, CLIQUE)
    diverged = sum(
        simulate_galton_watson(0, cert, CLIQUE, s) is None for s in range(30)
    )
    assert diverged > 0


def test_simulate_matches_formula_small_trees():
    pair = IntersectionGraph((frozenset({1}), frozenset({0})))
    cert = certificate_from_x((0.4, 0.3), 0.0, pair)
    n = 40_000
    counts = Counter()
    for s in range(n):
        t = simulate_galton_watson(0, cert, pair, s)
        counts[t.canonical() if t is not None and len(t) <= 2 else "other"] += 1
    for nested in [(0, ()), (0, ((0, ()),)), (0, ((1, ()),))]:
        p = galton_watson_probability(tree_from_nested(nested), cert, pair)
        freq = counts[nested] / n
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(freq - p) < 3 * sigma + 1e-9, nested


def test_enumerate_proper_trees():
    trees = enumerate_proper_trees(0, CLIQUE, 3)
    # sizes: 1 singleton, 3 two-vertex, 9 chains + 3 two-child = 16 total
    assert len(trees) == 16
    assert all(t.is_proper() for t in trees)
    assert all(t.labels[0] == 0 for t in trees)
    assert all(len(t) <= 3 for t in trees)
    canon = {t.canonical() for t in trees}
    assert len(canon) == 16


def test_galton_watson_mass_at_most_one():
    cert = certificate_from_x((0.3, 0.3, 0.3), 0.0, CLIQUE)
    trees = enumerate_proper_trees(0, CLIQUE, 4)
    total = sum(galton_watson_probability(t, cert, CLIQUE) for t in trees)
    assert 0 < total <= 1 + 1e-12


def test_expected_violations_bound():
    lone = IntersectionGraph((frozenset(),))
    assert expected_violations_bound(certificate_from_x((0.5,), 0.0, lone)) == 1.0
    pair = IntersectionGraph((frozenset(), frozenset()))
    cert = certificate_from_x((0.5, 0.5), 0.0, pair)
    assert expected_violations_bound(cert) == 2.0
    bad = certificate_from_x((1.0,), 0.0, lone)
    with pytest.raises(ValueError):
        expected_violations_bound(bad)


def test_dag_json_round_trip():
    dag = diamond_dag()
    again = dag_from_dict(dag.to_dict())
    assert again == dag
    partial, _ = build_partial_resample_dag([0, 1, 0], MEET)
    again = dag_from_dict(partial.to_dict())
    assert again == partial and again.partial


def test_tree_json_round_trip():
    tree = build_witness_tree(log_from_labels([2, 0, 1, 2]), 3, MEET)
    again = tree_from_dict(tree.to_dict())
    assert again == tree


def test_log_validation():
    with pytest.raises(ValueError):
        ExecutionLog(((1, 0), (1, 2)), 5)
    log = ExecutionLog(((0, 1), (4, 2)), 10, seed=3)
    assert log.labels() == (1, 2)
    assert len(log) == 2


@st.composite
def witness_trees(draw):
    n = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    parents = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    return WitnessTree(tuple(labels), tuple(parents))


@st.composite
def resample_dags(draw):
    """Any vertex labels and any later-to-earlier edge set."""
    n = draw(st.integers(0, 10))
    labels = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return ResampleDag(tuple(labels), frozenset(edges), draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(witness_trees())
def test_tree_dict_round_trip_property(tree):
    again = tree_from_dict(json.loads(json.dumps(tree.to_dict())))
    assert again == tree
    assert again.canonical() == tree.canonical()


@settings(max_examples=100, deadline=None)
@given(resample_dags())
def test_dag_dict_round_trip_property(dag):
    again = dag_from_dict(json.loads(json.dumps(dag.to_dict())))
    assert again == dag
    assert again.canonical() == dag.canonical()


@st.composite
def label_runs(draw, labels, min_size, max_size):
    """A label sequence and an intersection relation on its labels."""
    pairs = list(itertools.combinations(range(labels), 2))
    meets = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    graph = IntersectionGraph(tuple(
        frozenset(j for j in range(labels) if (min(i, j), max(i, j)) in meets)
        for i in range(labels)
    ))
    seq = draw(st.lists(st.integers(0, labels - 1), min_size=min_size, max_size=max_size))
    return seq, label_intersection(graph)


@settings(max_examples=60, deadline=None)
@given(label_runs(4, 1, 8), st.booleans())
def test_dag_distribution_sums_to_one_exactly(run, partial):
    seq, meet = run
    if partial:
        dag = build_partial_resample_dag(seq, meet)[0]
    else:
        dag = build_resample_dag(seq, meet)
    dist = dag_sequence_distribution(dag)
    assert all(isinstance(p, Fraction) and p > 0 for p in dist.values())
    assert sum(dist.values()) == 1


@settings(max_examples=10, deadline=None)
@given(label_runs(2, config.DAG_EXACT_RATIONAL_MAX + 1, config.DAG_EXACT_RATIONAL_MAX + 2))
def test_dag_distribution_sums_to_one_in_floats(run):
    # past DAG_EXACT_RATIONAL_MAX vertices the recursion runs in floats;
    # two labels keep the number of emitted sequences small
    seq, meet = run
    dist = dag_sequence_distribution(build_resample_dag(seq, meet))
    assert all(isinstance(p, float) for p in dist.values())
    assert abs(sum(dist.values()) - 1.0) <= 1e-12
