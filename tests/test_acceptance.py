"""Acceptance gate: one test per headline capability, each printing a single
pass/fail line with the measured numbers.

The statistical checks use fixed seeds, three-sigma envelopes, and sample
sizes large enough that a genuine regression trips them while routine
reruns stay deterministic.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from qlll import bench
from qlll.classical import solve_classical
from qlll.instance import (
    QlllInstance,
    basis_projector,
    certificate_from_x,
    find_certificate,
    instance_to_dict,
    intersection_graph,
    spectral_report,
)
from qlll.oracles import (
    build_channels,
    first_violation_gap_bound,
    sequence_operator,
    shortclaim_suite,
    verify_cp_identities,
)
from qlll.quantum import ExactSolverConfig, run_converger, run_exact_solver
from qlll.tensor import make_rng
from qlll.witness import (
    build_resample_dag,
    dag_probability,
    enumerate_proper_trees,
    expected_violations_bound,
    galton_watson_probability,
    label_intersection,
    simulate_galton_watson,
)

P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def _report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _diag3():
    return QlllInstance.build(
        3, 2, [((0,), P1), ((1,), P1), ((1, 2), basis_projector(4, [3]))]
    )


def _chain3():
    """Three rank-1 projectors on overlapping qubit triples: a path graph."""
    ev = basis_projector(8, [7])
    return QlllInstance.build(
        7, 2, [((0, 1, 2), ev), ((2, 3, 4), ev), ((4, 5, 6), ev)]
    )


def test_criterion_01_counterexample_three_routes():
    start = time.monotonic()
    failures = []

    exact_one = bench.counterexample_exact(1.0)
    if abs(exact_one - 1.0 / 9.0) > 1e-8:
        failures.append(f"a=1 exact {exact_one}")

    audit = bench.counterexample_audit(0.95, 10**6, seed=20260819)
    if not audit["exact_pass"]:
        failures.append(f"exact residual {audit['exact_residual']:.2e}")
    if not audit["mc_pass"]:
        failures.append(
            f"mc {audit['monte_carlo']} vs {audit['analytic']} "
            f"(sigma {audit['mc_sigma']:.1e})"
        )
    if not audit["violates_bound"]:
        failures.append("bound not violated at a=0.95")

    # bisect the closed form for the bound crossing, independent of the root
    lo, hi = 0.5, 0.99
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bench.counterexample_analytic(mid)["pr_tau"] <= 0.25:
            lo = mid
        else:
            hi = mid
    threshold_err = abs(0.5 * (lo + hi) - bench.VIOLATION_THRESHOLD)
    if threshold_err > 1e-9:
        failures.append(f"threshold err {threshold_err:.2e}")

    limit_err = abs(
        bench.counterexample_analytic(1.0 - 1e-9)["pr_tau"] - 37.0 / 144.0
    )
    if limit_err > 1e-9 or bench.LIMIT_AT_ONE != 37.0 / 144.0:
        failures.append(f"limit err {limit_err:.2e}")

    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.0f}s")
    _report(
        1,
        not failures,
        failures or f"pair audit: exact, closed form, and 1e6-trajectory MC agree;"
        f" threshold err {threshold_err:.1e}, {elapsed:.0f}s",
    )


def test_criterion_02_first_violation_bounds_random_corpus():
    start = time.monotonic()
    corpus = bench.random_instance_corpus(50, seed=23)
    worst_plain = np.inf
    worst_gap = np.inf
    events = 0
    failures = []
    for inst in corpus:
        channels = build_channels(inst)
        for a in range(inst.m):
            rep = first_violation_gap_bound(inst, a, channels)
            events += 1
            worst_plain = min(worst_plain, rep["dimension_bound"]["slack_min"])
            if rep["gap_bound"]["vacuous"]:
                failures.append(f"vacuous gap on event {a}")
                continue
            worst_gap = min(worst_gap, rep["gap_bound"]["slack_min"])
    if worst_plain <= -1e-9:
        failures.append(f"dimension bound slack {worst_plain:.2e}")
    if worst_gap <= -1e-9:
        failures.append(f"gap bound slack {worst_gap:.2e}")
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s")
    _report(
        2,
        not failures,
        failures or f"{events} events over 50 random instances, worst slacks"
        f" {worst_plain:.1e} / {worst_gap:.1e}, {elapsed:.0f}s",
    )


def test_criterion_03_violation_counts_two_horizons():
    corpus = bench.certified_commuting_corpus(10, seed=41)
    failures = []
    for idx, (inst, cert) in enumerate(corpus):
        rep = bench.violation_audit(inst, cert, trajectories=10**4, max_steps=600, seed=300 + idx)
        if not all(h["within_bound"] for h in rep["horizons"]):
            failures.append(f"instance {idx} above bound")

    single = QlllInstance.build(1, 2, [((0,), P1)])
    cert1 = certificate_from_x((0.5,), 0.0, intersection_graph(single))
    rep1 = bench.violation_audit(single, cert1, trajectories=10**4, max_steps=200, seed=311)
    final = next(h for h in rep1["horizons"] if h["steps"] == 200)
    if abs(final["mean"] - 1.0) > 3.0 * final["sigma"]:
        failures.append(f"single-projector mean {final['mean']:.4f}")
    _report(
        3,
        not failures,
        failures or "10 certified instances within the expected-violations bound"
        f" at horizons 60 and 600; single projector mean {final['mean']:.3f}",
    )


def test_criterion_04_converger_epsilon_targets():
    corpus = bench.certified_commuting_corpus(3, seed=43, epsilon=0.1)
    epsilon = 0.1
    samples = 4000
    sigma = 0.5 / math.sqrt(samples)
    failures = []
    grounds = []
    for idx, (inst, cert) in enumerate(corpus):
        t = math.ceil(inst.m * expected_violations_bound(cert) / epsilon)
        res = run_converger(inst, 430 + idx, t, samples)
        if not all(v <= epsilon + 3.0 * sigma for v in res.mean_violation_prob):
            failures.append(f"instance {idx} violation {max(res.mean_violation_prob):.3f}")
        if res.ground_overlap < 1.0 - epsilon - 3.0 * sigma:
            failures.append(f"instance {idx} overlap {res.ground_overlap:.3f}")
        grounds.append(res.ground_overlap)
    _report(
        4,
        not failures,
        failures or f"3 instances at t = m*E/eps: overlaps {min(grounds):.3f}..{max(grounds):.3f}"
        f" vs floor {1 - epsilon - 3 * sigma:.3f}",
    )


def test_criterion_05_exact_solver_success_rate():
    inst, cert = bench.certified_commuting_corpus(1, seed=47)[0]
    m_prime = expected_violations_bound(cert)
    rep = spectral_report(inst)
    runs = 10**4
    failures = []
    rates = {}
    min_overlap = 1.0
    for p in (2, 4):
        cfg = ExactSolverConfig(p=p, m_prime=m_prime)
        seeds = make_rng(470 + p).integers(0, 2**63 - 1, size=runs)
        successes = 0
        for child in seeds:
            run = run_exact_solver(inst, cfg, int(child))
            if run.success:
                successes += 1
                state = run.trajectory.state
                overlap = float(np.real(np.vdot(state, rep.p0 @ state)))
                min_overlap = min(min_overlap, overlap)
        target = 1.0 - 1.0 / p
        sigma = math.sqrt(target * (1.0 - target) / runs)
        rates[p] = successes / runs
        if rates[p] < target - 3.0 * sigma:
            failures.append(f"p={p} rate {rates[p]:.4f} < {target}")
    if min_overlap < 1.0 - 1e-8:
        failures.append(f"success overlap {min_overlap}")
    _report(
        5,
        not failures,
        failures or f"success rates {rates[2]:.3f} (target 0.5), {rates[4]:.3f}"
        f" (target 0.75); all success states in the good subspace",
    )


def _removal_distribution(dag):
    """Brute-force enumeration of uniform leaf removal, exact rationals."""
    edges = tuple(dag.edges)
    out = {}

    def rec(remaining, prefix, weight):
        if not remaining:
            out[prefix] = out.get(prefix, Fraction(0)) + weight
            return
        ready = [
            v for v in remaining
            if all(u not in remaining for w, u in edges if w == v)
        ]
        for v in ready:
            rec(
                remaining - {v},
                prefix + (dag.labels[v],),
                weight / len(ready),
            )

    rec(frozenset(range(len(dag.labels))), (), Fraction(1))
    return out


def test_criterion_06_channel_identities_and_dag_rationals():
    inst = _diag3()
    failures = []

    rep = verify_cp_identities(inst, seed=61)
    parts = {p["lemma"]: p for p in rep["parts"]}
    group = parts.pop("sandwich-series-group-bound")
    if group["slack_min"] <= -1e-9:
        failures.append(f"group bound slack {group['slack_min']:.2e}")
    for name, part in parts.items():
        if part["skipped"]:
            failures.append(f"{name} skipped")
        elif part["residual"] >= 1e-10:
            failures.append(f"{name} residual {part['residual']:.2e}")

    rel = [np.trace(inst.embedded(a)).real / inst.shape.dim for a in range(inst.m)]
    channels = build_channels(inst)
    worst = np.inf
    for length in (1, 2, 3):
        for seq in itertools.product(range(inst.m), repeat=length):
            prob = sequence_operator(inst, seq, channels).probability
            bound = math.prod(rel[a] for a in seq)
            worst = min(worst, bound - prob)
    if worst <= -1e-9:
        failures.append(f"sequence product bound slack {worst:.2e}")

    intersects = label_intersection(intersection_graph(inst))
    mismatches = 0
    for seq in ((0, 1, 2), (1, 2, 1), (0, 1, 0), (1, 2, 0, 1)):
        dag = build_resample_dag(seq, intersects)
        dist = _removal_distribution(dag)
        if sum(dist.values()) != 1:
            mismatches += 1
        for emitted, weight in dist.items():
            if dag_probability(dag, emitted) != weight:
                mismatches += 1
        if dag_probability(dag, tuple(seq)) != dist.get(tuple(seq), Fraction(0)):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} dag probability mismatches")
    _report(
        6,
        not failures,
        failures or f"channel identities within 1e-10, 39 sequence bounds"
        f" (worst slack {worst:.1e}), removal distributions match exactly",
    )


def test_criterion_07_product_lemma_suite():
    corpus = bench.certified_commuting_corpus(20, seed=71, max_events=4)
    rng = make_rng(710)
    failures = []
    halting_checks = 0
    for idx, (inst, _) in enumerate(corpus):
        k = 1 if idx % 2 == 0 else min(2, inst.m)
        ids = tuple(int(i) for i in rng.choice(inst.m, size=k, replace=False))
        suite = shortclaim_suite(inst, ids)
        for lemma in suite["lemmas"]:
            ok = (
                lemma["residual"] < 1e-9
                if lemma["residual"] is not None
                else lemma["slack_min"] > -1e-9
            )
            if not (ok and lemma["pass"]):
                failures.append(f"input {idx} {lemma['lemma']}")
            if lemma["lemma"] == "halting-route-agreement":
                halting_checks += 1
    if halting_checks < 5:
        failures.append(f"only {halting_checks} k=1 halting comparisons")
    _report(
        7,
        not failures,
        failures or f"lemma suite on 20 commuting inputs within 1e-9,"
        f" {halting_checks} k=1 runs matched the halting route",
    )


def test_criterion_08_branching_process_frequencies():
    inst = _chain3()
    cert = find_certificate(inst)
    graph = intersection_graph(inst)
    n_samples = 10**6
    failures = []
    compared = 0
    worst_pull = 0.0
    for root in range(inst.m):
        targets = {}
        for tree in enumerate_proper_trees(root, graph, 3):
            targets[tree.canonical()] = galton_watson_probability(tree, cert, graph)
        counts = Counter()
        for child in make_rng(800 + root).integers(0, 2**63 - 1, size=n_samples):
            tree = simulate_galton_watson(root, cert, graph, int(child))
            if tree is not None and len(tree.labels) <= 3:
                counts[tree.canonical()] += 1
        for canon, prob in targets.items():
            freq = counts.get(canon, 0) / n_samples
            sigma = math.sqrt(max(prob * (1.0 - prob), 1e-12) / n_samples)
            pull = abs(freq - prob) / sigma
            worst_pull = max(worst_pull, pull)
            compared += 1
            if pull > 3.0:
                failures.append(f"root {root} tree off by {pull:.1f} sigma")
    _report(
        8,
        not failures,
        failures or f"{compared} proper trees vs {n_samples} runs per root,"
        f" worst deviation {worst_pull:.2f} sigma",
    )


def test_criterion_09_correction_channel_convergence():
    epsilon = 0.1
    failures = []
    for idx, (inst, _) in enumerate(bench.certified_commuting_corpus(5, seed=91)):
        gap = spectral_report(inst).gap
        t = math.ceil(inst.m / (gap * (gap + 1.0) * epsilon))
        dim = inst.shape.dim
        series = bench.cp_map_iterate(inst, np.eye(dim) / dim, t)
        if np.diff(series.ground_overlap).min() < -1e-10:
            failures.append(f"instance {idx} not monotone")
        if series.ground_overlap[-1] < 1.0 - epsilon - 1e-12:
            failures.append(
                f"instance {idx} overlap {series.ground_overlap[-1]:.4f} at t={t}"
            )

    single = QlllInstance.build(1, 2, [((0,), P1)])
    series = bench.cp_map_iterate(single, np.eye(2) / 2.0, 40)
    closed = 1.0 - 0.5 ** (np.arange(41) + 1.0)
    closed_err = np.abs(series.ground_overlap - closed).max()
    if closed_err > 1e-12:
        failures.append(f"closed form err {closed_err:.2e}")
    _report(
        9,
        not failures,
        failures or f"5 instances monotone and above 1-eps at the gap horizon;"
        f" closed form err {closed_err:.1e}",
    )


def test_criterion_10_classical_resampling_bound():
    cinst, cert = bench.chain_cnf_corpus(1, seed=101, clauses=5)[0]
    bound = expected_violations_bound(cert)
    runs = 10**4
    counts = []
    unsatisfied = 0
    for child in make_rng(1010).integers(0, 2**63 - 1, size=runs):
        res = solve_classical(cinst, int(child))
        counts.append(len(res.log.entries))
        if res.exhausted:
            unsatisfied += 1
            continue
        for ev in cinst.events:
            key = tuple(res.assignment[v] for v in ev.vars)
            if key in ev.violating:
                unsatisfied += 1
                break
    counts = np.asarray(counts, dtype=float)
    mean = counts.mean()
    sigma = counts.std(ddof=1) / math.sqrt(runs)
    failures = []
    if unsatisfied:
        failures.append(f"{unsatisfied} runs left a violated clause")
    if mean > bound + 3.0 * sigma:
        failures.append(f"mean resamples {mean:.4f} > {bound}")
    _report(
        10,
        not failures,
        failures or f"mean resamples {mean:.3f} <= {bound} + 3*{sigma:.4f},"
        f" all {runs} assignments satisfy",
    )


def test_criterion_11_cli_byte_determinism(tmp_path):
    inst_path = tmp_path / "pair.json"
    pair = QlllInstance.build(2, 2, [((0,), P1), ((1,), P1)])
    inst_path.write_text(json.dumps(instance_to_dict(pair)))
    commands = [
        [
            sys.executable, "-m", "qlll.cli", "solve-quantum",
            "--instance", str(inst_path), "--seed", "7", "--trajectories", "1",
        ],
        [sys.executable, "-m", "qlll.cli", "counterexample", "--a", "0.8", "--seed", "5"],
        [
            sys.executable, "-m", "qlll.cli", "exact-solve",
            "--instance", str(inst_path), "--seed", "7", "--runs", "20",
        ],
        [
            sys.executable, "-m", "qlll.cli", "converge",
            "--instance", str(inst_path), "--seed", "7", "--t", "10", "--samples", "50",
        ],
    ]
    # the subcommands import the qlll these tests import, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(bench.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    failures = []
    for cmd in commands:
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        if first.returncode != 0 or second.returncode != 0:
            failures.append(f"{cmd[3]} exited {first.returncode}/{second.returncode}")
        elif first.stdout != second.stdout:
            failures.append(f"{cmd[3]} output differs between runs")
    _report(
        11,
        not failures,
        failures or "fixed-seed solve-quantum, counterexample, exact-solve and"
        " converge outputs byte-identical across runs",
    )
