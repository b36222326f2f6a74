"""Tests of the benchmark itself: every checker rejects a deliberately wrong
result, a reduced-size pass of every workload runs clean, the tracer
measures every per-layer metric, and BENCHMARK.json matches the code.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qlll import bench, classical, instance, oracles, tensor  # noqa: E402

SIGMA10 = 10.0


def test_frequency_check_rejects_ten_sigma_shift():
    p, n = checks.pair_opening_closed_form(0.95), 10000
    sigma = math.sqrt(p * (1 - p) / n)
    assert checks.frequency_within(p + 2 * sigma, p, n, "pair") == []
    assert checks.frequency_within(p + SIGMA10 * sigma, p, n, "pair")
    assert checks.frequency_within(p - SIGMA10 * sigma, p, n, "pair")


def test_closed_form_matches_exact_outcome_operators():
    for a in (0.3, 0.95):
        assert abs(bench.counterexample_exact(a) - checks.pair_opening_closed_form(a)) < 1e-8


def test_trajectory_check_rejects_moved_frequency():
    wl = workloads.TrajectoryAudit(1, size="small")
    wl.setup()
    pair, audit = wl.run(1)
    assert wl.check(1, (pair, audit)) == []
    n = wl.p["pair_traj"]
    sigma = math.sqrt(wl.closed_form * (1 - wl.closed_form) / n)
    moved = dict(pair, monte_carlo=wl.closed_form + SIGMA10 * sigma)
    assert wl.check(1, (moved, audit))
    high = dict(audit, horizons=[dict(h, mean=wl.bound + SIGMA10 * h["sigma"] + 1e-3)
                                 for h in audit["horizons"]])
    assert wl.check(1, (pair, high))


def test_clause_check_rejects_unsatisfied_clause():
    text = bench.chain_cnf(30, 4)
    clauses = checks.parse_dimacs(text)
    res = classical.solve_classical(classical.instance_from_dimacs(text), 9)
    assert not res.exhausted
    assert checks.unsatisfied_clauses(clauses, res.assignment) == []
    broken = list(res.assignment)
    for lit in clauses[0]:
        broken[abs(lit) - 1] = 0 if lit > 0 else 1
    assert checks.unsatisfied_clauses(clauses, broken)


def _diagonal(n_events):
    n, supports = workloads.ring_supports(n_events)
    bad = workloads.flipped_chain(n, supports, 5)
    return n, supports, bad, workloads.diagonal_instance(n, supports, bad)


def test_markov_chain_matches_channel_and_rejects_shifted_series():
    n, supports, bad, inst = _diagonal(2)
    dim = 2 ** n
    series = bench.cp_map_iterate(inst, np.eye(dim) / dim, 4)
    want_o, want_v = checks.markov_series([[s] for s in bad], supports, n, 4)
    got_o, got_v = series.ground_overlap, series.violation_probs
    assert checks.series_failures(got_o, got_v, want_o, want_v) == []
    shifted = np.array(got_o, dtype=float)
    shifted[-1] += 1e-6
    assert checks.series_failures(shifted, got_v, want_o, want_v)
    assert checks.density_failures(series.rho_final) == []
    assert checks.density_failures(series.rho_final * (1 + 1e-6))


def test_embedding_matches_workbench():
    rng = np.random.default_rng(3)
    shape = tensor.HilbertShape(4, 2)
    for qudits in ((2, 0), (1, 3, 0), (3,)):
        local = rng.normal(size=(2 ** len(qudits),) * 2)
        assert np.allclose(checks.embed_local(local, qudits, 4, 2),
                           tensor.embed(local, qudits, shape))


def test_halting_check_rejects_shifted_sum():
    wl = workloads.ExactChannel(2, size="small")
    wl.setup()
    _, probs = wl.run(1)
    total, dim = math.fsum(probs), wl.halt.shape.dim
    assert checks.halting_sum_failures(total, wl.ground_dim, dim) == []
    assert checks.halting_sum_failures(total + 1e-6, wl.ground_dim, dim)
    assert checks.halting_sum_failures(total - 1e-6, wl.ground_dim, dim)


def test_halting_probabilities_do_not_depend_on_the_seed():
    sums = []
    for seed in (1, 2):
        wl = workloads.ExactChannel(seed, size="small")
        wl.setup()
        ch = oracles.build_channels(wl.halt)
        sums.append([oracles.halting_operator(wl.halt, a, ch).probability
                     for a in range(wl.halt.m)])
    assert np.allclose(sums[0], sums[1], atol=1e-9)


def test_certificate_check_rejects_one_broken_inequality():
    n, supports, _, inst = _diagonal(5)
    cert = instance.find_certificate(inst)
    rel = [1.0 / 8.0] * len(supports)
    assert checks.certificate_failures(supports, rel, cert.x) == []
    broken = list(cert.x)
    broken[2] -= 1e-4
    fails = checks.certificate_failures(supports, rel, broken)
    assert len(fails) == 1 and fails[0].startswith("event 2")


def test_branching_check_rejects_moved_tree_frequency():
    wl = workloads.Combinatorics(3, size="small")
    wl.setup()
    root, trees, _, _ = wl.run(0)
    x, nbrs = wl.gw_cert.x, wl.gw_nbrs
    assert checks.branching_failures(trees, root, x, nbrs) == []
    p = checks.branching_targets(root, x, nbrs)[None]
    n = len(trees)
    extra = math.ceil(SIGMA10 * math.sqrt(p * (1 - p) / n) * n)
    lone = next(t for t in trees if t is not None and len(t.labels) == 1)
    others = [i for i, t in enumerate(trees) if t is None or len(t.labels) > 2]
    moved = list(trees)
    for i in others[:extra]:
        moved[i] = lone
    assert len(others) >= extra
    assert checks.branching_failures(moved, root, x, nbrs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_runs_clean(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, size="small", workroot=str(tmp_path))
    wl.setup()
    try:
        for k in range(3):
            assert wl.check(k, wl.run(k)) == []
        assert wl.run_level_checks() == []
    finally:
        wl.close()


def test_tracer_measures_every_per_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    for name in workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name](4, size="small", span=tracer.span,
                                       workroot=str(tmp_path))
        wl.setup()
        with tracer.operation(name, 1):
            out = wl.run(1)
        assert wl.check(1, out) == []
        wl.close()
    # wrappers are gone once the operation ends
    assert bench.cp_map_iterate.__module__ == "qlll.bench"
    metrics, sources = tracing.layer_metrics(tracer, "cli-session", list(workloads.WORKLOADS))
    assert set(metrics) == {m[0] for m in tracing.PER_LAYER}
    assert all(m["value"] > 0 for m in metrics.values())
    assert sources["quantum.run_quantum_solver.us_per_step"] == "cli-session"
    assert sources["bench.cp_map_iterate.ms_per_application"] == "exact-channel"
    shares = tracing.layer_shares(tracer, "cli-session")
    assert abs(sum(r["share"] for r in shares.values()) - 1.0) < 1e-9


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb"}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
