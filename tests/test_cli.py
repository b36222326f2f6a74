"""End-to-end command-line checks: every subcommand, exit codes,
deterministic output, and the parse diagnostics."""

import json

import numpy as np
import pytest

from qlll import bench, cli, instance, oracles
from qlll.instance import (
    QlllInstance,
    basis_projector,
    instance_to_dict,
    random_rank_projector,
)

from helpers import hadamard_chain, hadamard_ring, random_qubit_pair

P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def disjoint_pair():
    return QlllInstance.build(2, 2, [((0,), P1), ((1,), P1)])


def diag3():
    return QlllInstance.build(
        3, 2, [((0,), P1), ((1,), P1), ((1, 2), basis_projector(4, [3]))]
    )


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance_to_dict(inst)))
    return str(path)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out)


def test_counterexample_at_one(capsys):
    code, out, _ = run_cli(["counterexample", "--a", "1.0", "--seed", "3"], capsys)
    assert code == 0
    data = last_json(out)
    assert data["subcommand"] == "counterexample"
    assert data["seed"] == 3
    assert "tolerances" in data and "instance" in data
    result = data["result"]
    assert abs(result["pr_tau"] - 1.0 / 9.0) < 1e-12
    assert abs(result["exact"] - 1.0 / 9.0) < 1e-8
    assert result["bound"] == pytest.approx(0.25)
    assert not result["violates_bound"]
    assert "0.1111111" in out


def test_report_tolerances_are_every_config_constant(capsys):
    from qlll import config
    expected = {name.lower(): getattr(config, name) for name in dir(config) if name.isupper()}
    assert config.tolerance_snapshot() == expected
    _, out, _ = run_cli(["counterexample", "--a", "1.0", "--seed", "3"], capsys)
    assert last_json(out)["tolerances"] == expected


def test_counterexample_audit_exit_codes(capsys):
    code, out, _ = run_cli(
        ["counterexample", "--a", "0.5", "--trajectories", "2000", "--seed", "9"],
        capsys,
    )
    assert code == 0
    result = last_json(out)["result"]
    assert result["mc_pass"] and result["exact_pass"]
    # the audit needs an interior parameter when trajectories are requested
    code, _, err = run_cli(
        ["counterexample", "--a", "1.0", "--trajectories", "10"], capsys
    )
    assert code == 1
    assert "error" in err


def test_counterexample_audit_computes_exact_once(capsys, monkeypatch):
    calls = []
    exact = bench.counterexample_exact
    monkeypatch.setattr(
        bench, "counterexample_exact", lambda a: calls.append(a) or exact(a)
    )
    code, out, _ = run_cli(
        ["counterexample", "--a", "0.5", "--trajectories", "50", "--seed", "9"],
        capsys,
    )
    assert code == 0 and calls == [0.5]
    assert last_json(out)["result"]["exact"] == exact(0.5)


def test_check_feasible_pair(tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    code, out, _ = run_cli(["check", "--instance", path], capsys)
    assert code == 0
    result = last_json(out)["result"]
    assert result["feasible"]
    assert result["x"] == pytest.approx([0.5, 0.5])


def test_check_reads_the_slack_of_the_search_check(tmp_path, capsys, monkeypatch):
    # the search checks its certificate once; the report reads that check
    calls = []
    check = instance._check_lovasz
    monkeypatch.setattr(
        instance, "_check_lovasz", lambda *args: calls.append(1) or check(*args)
    )
    inst = disjoint_pair()
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(["check", "--instance", path, "--epsilon", "0.1"], capsys)
    assert code == 0
    assert len(calls) == 1
    result = last_json(out)["result"]
    cert = instance.find_certificate(inst, 0.1)
    assert result["min_slack"] == float(min(instance.check_lovasz(inst, cert).slacks))


def test_check_infeasible_exit_two(tmp_path, capsys):
    # two maximal-overlap events sharing one qubit cannot be certified
    plus = np.full((2, 2), 0.5)
    inst = QlllInstance.build(1, 2, [((0,), plus), ((0,), P1)])
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(["check", "--instance", path], capsys)
    assert code == 2
    result = last_json(out)["result"]
    assert not result["feasible"]
    assert result["reason"] == "infeasible"
    # R = 1/4 on two overlapping events is the critical point: the search
    # is still moving when its sweep cap runs out
    bad = basis_projector(4, [3])
    critical = QlllInstance.build(3, 2, [((0, 1), bad), ((1, 2), bad)])
    path = write_instance(tmp_path, critical, "critical.json")
    code, out, _ = run_cli(["check", "--instance", path], capsys)
    assert code == 2
    assert last_json(out)["result"]["reason"] == "sweep_cap"


def test_gap_subcommand(tmp_path, capsys):
    inst = QlllInstance.build(1, 2, [((0,), P1)])
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(["gap", "--instance", path], capsys)
    assert code == 0
    result = last_json(out)["result"]
    assert result["delta"] == pytest.approx(1.0)
    assert result["ground_dim"] == 1
    assert result["eigenvalues"] == pytest.approx([0.0, 1.0])


def test_solve_classical_dimacs(tmp_path, capsys):
    path = tmp_path / "chain.cnf"
    path.write_text(bench.chain_cnf(4, seed=8))
    args = ["solve-classical", "--cnf", str(path), "--seed", "21"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    data = last_json(out)
    assert data["result"]["satisfied"]
    assert len(data["result"]["assignment"]) == 9
    code2, out2, _ = run_cli(args, capsys)
    assert code2 == 0 and out2 == out  # byte-identical rerun


def test_solve_quantum_deterministic(tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    args = [
        "solve-quantum", "--instance", path, "--seed", "7",
        "--trajectories", "3", "--max-steps", "40",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    data = last_json(out)
    assert data["seed"] == 7 and not data["seed_was_random"]
    assert len(data["result"]["violations"]) == 3
    code2, out2, _ = run_cli(args, capsys)
    assert out2 == out


def test_save_log_then_witness(tmp_path, capsys):
    inst_path = write_instance(tmp_path, diag3())
    log_path = str(tmp_path / "runs.json")
    code, out, _ = run_cli(
        [
            "solve-quantum", "--instance", inst_path, "--seed", "13",
            "--trajectories", "2", "--max-steps", "60", "--save-log", log_path,
        ],
        capsys,
    )
    assert code == 0
    saved = json.loads(open(log_path).read())
    assert len(saved["logs"]) == 2
    picked = next(
        i for i, log in enumerate(saved["logs"]) if log["entries"]
    )
    code, out, _ = run_cli(
        [
            "witness", "--instance", inst_path, "--log", log_path,
            "--log-index", str(picked),
        ],
        capsys,
    )
    assert code == 0
    result = last_json(out)["result"]
    assert result["tree"]["labels"]
    assert 0.0 <= result["dag_sequence_probability"] <= 1.0


def test_witness_on_handwritten_log(tmp_path, capsys):
    inst_path = write_instance(tmp_path, diag3())
    log_path = tmp_path / "log.json"
    log_path.write_text(
        json.dumps({"entries": [[0, 1], [1, 2]], "total_steps": 4, "seed": 7})
    )
    code, out, _ = run_cli(
        ["witness", "--instance", inst_path, "--log", str(log_path)], capsys
    )
    assert code == 0
    result = last_json(out)["result"]
    assert result["tree"]["labels"] == [2, 1]
    assert result["tree"]["parents"] == [-1, 0]
    assert result["tree_proper"]
    assert result["dag"]["labels"] == [1, 2]
    assert result["galton_watson"] is None  # this family has no certificate


@pytest.mark.parametrize("log_text", [
    '{"entries": [[0.5, 1.7]], "total_steps": 4}',
    '{"entries": [[0, 1]], "total_steps": 1e400}',
], ids=["fractional-entry", "overflowing-total-steps"])
def test_witness_refuses_a_log_number_that_is_not_an_integer(log_text, tmp_path, capsys):
    # read with operator.index: neither truncated to (0, 1) nor an OverflowError
    inst_path = write_instance(tmp_path, diag3())
    log_path = tmp_path / "log.json"
    log_path.write_text(log_text)
    code, out, err = run_cli(
        ["witness", "--instance", inst_path, "--log", str(log_path)], capsys
    )
    assert (code, out) == (1, "")
    assert err == f"error: {log_path}: {NOT_AN_INTEGER}\n"


def _cyclic_log(tmp_path, count):
    log_path = tmp_path / "long_log.json"
    entries = [[step, step % 3] for step in range(count)]
    log_path.write_text(
        json.dumps({"entries": entries, "total_steps": count, "seed": None})
    )
    return str(log_path)


def test_witness_default_entry_past_dag_cap(tmp_path, capsys):
    inst_path = write_instance(tmp_path, diag3())
    log_path = _cyclic_log(tmp_path, 25)
    code, out, err = run_cli(
        ["witness", "--instance", inst_path, "--log", log_path], capsys
    )
    assert code == 0, err
    result = last_json(out)["result"]
    assert result["entry"] == 24
    assert result["tree"]["labels"][0] == 0  # label of entry 24
    assert result["dag"] is None
    assert result["dag_sequence_probability"] is None
    assert result["dag_sequence_probability_exact"] is None
    assert "25 violations" in result["dag_skipped"]


def test_witness_dag_at_the_cap_is_reported(tmp_path, capsys):
    inst_path = write_instance(tmp_path, diag3())
    log_path = _cyclic_log(tmp_path, 25)
    code, out, _ = run_cli(
        ["witness", "--instance", inst_path, "--log", log_path, "--entry", "19"],
        capsys,
    )
    assert code == 0
    result = last_json(out)["result"]
    assert len(result["dag"]["labels"]) == 20
    assert 0.0 < result["dag_sequence_probability"] <= 1.0
    assert "dag_skipped" not in result


def test_invariant_failure_exits_three(tmp_path, capsys, monkeypatch):
    from qlll import config

    monkeypatch.setattr(config, "SERIES_MAX_TERMS", 1)
    path = write_instance(tmp_path, disjoint_pair())
    code, out, err = run_cli(["oracle", "--instance", path, "--halting", "0"], capsys)
    assert code == cli.EXIT_INVARIANT == 3
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: halting operators:")
    assert "conjugate gradients did not converge within 1 iterations" in lines[0]
    # the measured value: the solve's relative residual against its stop
    assert "relative residual 3.536e-01 > 1e-12" in lines[0]


def test_stage_fault_exits_three(tmp_path, capsys, monkeypatch):
    # the stage loop builds every stage start, so one that is not PSD is an
    # internal fault, reported with its measured eigenvalue
    refresh = oracles.ChannelSet.refresh
    monkeypatch.setattr(oracles.ChannelSet, "refresh", lambda ch, i, op: -refresh(ch, i, op))
    path = write_instance(tmp_path, disjoint_pair())
    code, out, err = run_cli(["oracle", "--instance", path, "--sequence", "0,1"], capsys)
    assert code == cli.EXIT_INVARIANT
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: sequence (0, 1) stage 1: series start has eigenvalue -")


def test_witness_galton_watson_value(tmp_path, capsys):
    inst_path = write_instance(tmp_path, disjoint_pair())
    log_path = tmp_path / "log.json"
    log_path.write_text(
        json.dumps({"entries": [[2, 0]], "total_steps": 5, "seed": None})
    )
    code, out, _ = run_cli(
        ["witness", "--instance", inst_path, "--log", str(log_path)], capsys
    )
    assert code == 0
    result = last_json(out)["result"]
    assert result["galton_watson"] == pytest.approx(0.5)


def test_converge_subcommand(tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    code, out, _ = run_cli(
        [
            "converge", "--instance", path, "--seed", "17",
            "--epsilon", "0.25", "--samples", "600",
        ],
        capsys,
    )
    assert code == 0
    result = last_json(out)["result"]
    assert result["t"] == 16  # ceil(2 * 2.0 / 0.25)
    assert len(result["mean_violation_prob"]) == 2
    assert 0.0 <= result["ground_overlap"] <= 1.0
    assert all(result["within_epsilon"])


def test_exact_solve_subcommand(tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    code, out, _ = run_cli(
        ["exact-solve", "--instance", path, "--seed", "23", "--p", "4",
         "--runs", "20"],
        capsys,
    )
    assert code == 0
    result = last_json(out)["result"]
    assert result["runs"] == 20
    assert result["successes"] >= 15  # target is at least 3/4
    assert result["min_success_overlap"] >= 1.0 - 1e-8


def test_exact_solve_rounds_the_overlap(tmp_path, capsys):
    # on random rank-1 qubit events the kernel weight lands a few ulps below
    # one (0.9999999999999987 here); the report keeps 12 decimals, so
    # rounding-level changes in the step leave its bytes alone
    rng = np.random.default_rng(5)
    turned = QlllInstance.build(
        2, 2, [((q,), random_rank_projector(2, 1, rng)) for q in (0, 1)]
    )
    path = write_instance(tmp_path, turned)
    code, out, _ = run_cli(
        ["exact-solve", "--instance", path, "--seed", "23", "--p", "4",
         "--runs", "20"],
        capsys,
    )
    assert code == 0
    overlap = last_json(out)["result"]["min_success_overlap"]
    assert overlap == round(overlap, 12) == 1.0


def _solved(p, m_prime, cap, runs, successes, mean_steps):
    return {"p": p, "m_prime": m_prime, "iteration_cap": cap, "runs": runs,
            "successes": successes, "success_frequency": successes / runs,
            "target_frequency": 1.0 - 1.0 / p, "min_success_overlap": 1.0,
            "mean_steps": mean_steps}


# exact-solve results recorded while min_success_overlap was read from the
# spectral projector P0
EXACT_SOLVE_ARGS = {"23": ["--p", "4", "--runs", "50"], "7": ["--p", "2", "--runs", "200"]}
PINNED_EXACT_SOLVE = [
    (hadamard_chain, "23", 2, {"feasible": False, "p": 4}),
    (hadamard_chain, "7", 2, {"feasible": False, "p": 2}),
    (random_qubit_pair, "23", 0, _solved(4, 2.0, 27, 50, 50, 4.82)),
    (random_qubit_pair, "7", 0, _solved(2, 2.0, 15, 200, 196, 5.215)),
    (hadamard_ring, "23", 0, _solved(4, 0.94427190999645, 24, 50, 50, 5.34)),
    (hadamard_ring, "7", 0, _solved(2, 0.94427190999645, 15, 200, 199, 5.47)),
]


@pytest.mark.parametrize("make,seed,code,result", PINNED_EXACT_SOLVE)
def test_exact_solve_results_are_pinned(tmp_path, capsys, make, seed, code, result):
    path = write_instance(tmp_path, make())
    got, out, _ = run_cli(
        ["exact-solve", "--instance", path, "--seed", seed, *EXACT_SOLVE_ARGS[seed]],
        capsys,
    )
    assert (got, last_json(out)["result"]) == (code, result)


def test_exact_solve_needs_no_spectral_report(tmp_path, capsys, monkeypatch):
    def refuse(inst):
        raise AssertionError("exact-solve called spectral_report")

    monkeypatch.setattr(cli, "spectral_report", refuse)
    path = write_instance(tmp_path, hadamard_ring())
    code, out, _ = run_cli(
        ["exact-solve", "--instance", path, "--seed", "3", "--runs", "5"], capsys
    )
    assert code == 0
    assert last_json(out)["result"]["min_success_overlap"] == 1.0


def test_exact_solve_past_the_dense_budget(tmp_path, capsys):
    # D = 4096: above the spectral report's dense budget, within the state
    # budget the exact solver keeps
    p111 = basis_projector(8, [7])
    ring = QlllInstance.build(
        12, 2, [((2 * i, 2 * i + 1, (2 * i + 2) % 12), p111) for i in range(6)]
    )
    path = write_instance(tmp_path, ring)
    code, out, err = run_cli(
        ["exact-solve", "--instance", path, "--seed", "3", "--runs", "5"], capsys
    )
    assert code == 0, err
    result = last_json(out)["result"]
    assert result["successes"] >= 1
    assert result["min_success_overlap"] == 1.0


def test_check_without_projectors(tmp_path, capsys):
    # the search returns the empty certificate, which has no slack to report
    path = write_instance(tmp_path, QlllInstance.build(2, 2, []))
    code, out, err = run_cli(["check", "--instance", path, "--seed", "0"], capsys)
    assert code == 0, err
    result = last_json(out)["result"]
    assert result["feasible"] is True
    assert result["x"] == [] and result["min_slack"] is None
    assert result["expected_violations_bound"] == 0.0


def test_exact_solve_without_projectors(tmp_path, capsys):
    path = write_instance(tmp_path, QlllInstance.build(2, 2, []))
    code, out, err = run_cli(
        ["exact-solve", "--instance", path, "--seed", "3", "--runs", "4"], capsys
    )
    assert code == 0, err
    result = last_json(out)["result"]
    assert result["successes"] == 4
    assert result["min_success_overlap"] == 1.0
    assert result["mean_steps"] == 0.0


def test_oracle_halting_and_suites(tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    code, out, _ = run_cli(
        ["oracle", "--instance", path, "--halting", "0", "--cp-identities",
         "--shortclaim", "0,1", "--sequence", "0,1"],
        capsys,
    )
    assert code == 0
    result = last_json(out)["result"]
    assert abs(result["halting"]["probability"] - 0.375) < 1e-9
    assert result["halting"]["dimension_bound"]["pass"]
    assert "route_residual" not in result["halting"]
    assert result["cp_identities"]["pass"]
    assert result["shortclaim"]["pass"]
    assert 0.0 <= result["sequence"]["probability"] <= 1.0


def test_oracle_halting_past_the_superoperator_budget(tmp_path, capsys):
    # D = 128: the halting report and the lemma suite run on the local
    # channels and conjugate-gradient solves, with no D^2 x D^2 matrix
    m = 7
    path = write_instance(tmp_path, QlllInstance.build(m, 2, [((q,), P1) for q in range(m)]))
    code, out, _ = run_cli(["oracle", "--instance", path, "--halting", "0"], capsys)
    assert code == 0
    halting = last_json(out)["result"]["halting"]
    # the process halts unless every qubit starts in |0>, each id first alike
    assert abs(halting["probability"] - (1 - 2.0 ** -m) / m) < 1e-12
    assert halting["dimension_bound"]["pass"]
    assert halting["gap_bound"]["pass"] and not halting["gap_bound"]["vacuous"]
    assert "route_residual" not in halting
    code, out, err = run_cli(["oracle", "--instance", path, "--shortclaim", "0"], capsys)
    assert code == 0, err
    assert last_json(out)["result"]["shortclaim"]["pass"]


def test_oracle_shortclaim_on_an_eight_qubit_chain(tmp_path, capsys):
    # D = 256: seven |11> events on (i, i + 1)
    inst = QlllInstance.build(8, 2, [((i, i + 1), basis_projector(4, [3])) for i in range(7)])
    path = write_instance(tmp_path, inst)
    code, out, err = run_cli(["oracle", "--instance", path, "--shortclaim", "0"], capsys)
    assert code == 0, err
    suite = last_json(out)["result"]["shortclaim"]
    assert suite["pass"]
    assert len(suite["lemmas"]) == 7


def test_oracle_requires_a_request(tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    code, _, err = run_cli(["oracle", "--instance", path], capsys)
    assert code == 1
    assert "error" in err


def test_conjecture_subcommand(tmp_path, capsys):
    inst_path = write_instance(tmp_path, diag3())
    code, out, _ = run_cli(
        [
            "conjecture", "--instance", inst_path,
            "--tree", '{"labels": [0], "parents": [-1]}',
            "--mode", "exact", "--budget", "10",
        ],
        capsys,
    )
    assert code == 0
    result = last_json(out)["result"]
    assert result["ratio"] <= 1.0 + 1e-9
    assert result["sense"] == "first-window"

    cx_path = write_instance(
        tmp_path, bench.make_counterexample(0.97).instance, "cx.json"
    )
    code, out, _ = run_cli(
        [
            "conjecture", "--instance", cx_path,
            "--tree", '{"labels": [0, 1], "edges": [], "partial": false}',
            "--mode", "exact", "--budget", "16",
        ],
        capsys,
    )
    assert code == 0
    assert last_json(out)["result"]["ratio"] > 1.0


@pytest.mark.parametrize("tree, message", [
    ('{"labels": [1e400], "parents": [-1]}', "'float' object cannot be interpreted as an integer"),
    ('{"labels": [0, 1], "edges": [], "partial": "false"}',
     "\"partial\" must be true or false, got 'false'"),
], ids=["overflowing-label", "string-partial-flag"])
def test_conjecture_refuses_a_tree_that_is_not_strictly_typed(tree, message, tmp_path, capsys):
    # read strictly: neither an OverflowError nor "false" taken as true
    inst_path = write_instance(tmp_path, diag3())
    code, out, err = run_cli(
        ["conjecture", "--instance", inst_path, "--tree", tree, "--mode", "exact",
         "--budget", "10"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == f"error: --tree: {message}\n"


def test_cpmap_json_and_csv(tmp_path, capsys):
    inst = QlllInstance.build(1, 2, [((0,), P1)])
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(["cpmap", "--instance", path, "--t", "2"], capsys)
    assert code == 0
    result = last_json(out)["result"]
    assert result["final_ground_overlap"] == pytest.approx(0.875, abs=1e-12)
    assert result["series"]["ground_overlap"][1] == pytest.approx(0.75)

    code, out, _ = run_cli(
        ["cpmap", "--instance", path, "--t", "2", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,ground_overlap,worst_violation_prob"
    assert len(lines) == 4


def test_cpmap_epsilon_horizon(tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    code, out, _ = run_cli(
        ["cpmap", "--instance", path, "--epsilon", "0.1"], capsys
    )
    assert code == 0
    result = last_json(out)["result"]
    assert result["t_max"] == 27  # ceil(2 / (0.5 * 1.5 * 0.1))
    assert result["reached"]
    assert result["final_ground_overlap"] >= 0.9


@pytest.mark.parametrize("args", [
    ["converge", "--t", "5", "--epsilon", "2.0", "--samples", "50"],
    ["cpmap", "--t", "3", "--epsilon", "1.5"],
    ["cpmap", "--t", "3", "--epsilon", "-0.5"],
    ["cpmap", "--epsilon", "0.0"],
])
def test_epsilon_checked_with_and_without_t(args, tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    code, out, err = run_cli(args + ["--instance", path], capsys)
    assert (code, out) == (1, "")
    assert err == "error: --epsilon must lie strictly between 0 and 1\n"


def test_cpmap_epsilon_stops_at_the_first_reaching_iterate(tmp_path, capsys):
    path = write_instance(tmp_path, disjoint_pair())
    code, out, _ = run_cli(["cpmap", "--instance", path, "--epsilon", "0.1"], capsys)
    assert code == 0
    result = last_json(out)["result"]
    assert result["t_max"] == 27
    t = result["t_reached"]
    overlaps = result["series"]["ground_overlap"]
    assert result["series"]["t"] == list(range(t + 1))
    assert overlaps[-1] >= 0.9 and all(v < 0.9 for v in overlaps[:-1])
    # the --t report has no t_reached and the same leading iterates
    code, out, _ = run_cli(["cpmap", "--instance", path, "--t", "27"], capsys)
    full = last_json(out)["result"]
    assert "t_reached" not in full
    assert full["series"]["ground_overlap"][: t + 1] == overlaps


def test_output_file_and_random_seed(tmp_path, capsys):
    inst = QlllInstance.build(1, 2, [((0,), P1)])
    path = write_instance(tmp_path, inst)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["gap", "--instance", path, "--output", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    data = json.loads(out_path.read_text())
    assert isinstance(data["seed"], int)
    assert data["seed_was_random"]


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    # every main() call in a process parses with the same parser
    assert cli._parser() is cli._parser()
    args = ["gap", "--instance", write_instance(tmp_path, disjoint_pair())]
    code, seeded, _ = run_cli(args + ["--seed", "5"], capsys)
    assert code == 0 and not last_json(seeded)["seed_was_random"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and last_json(out)["seed_was_random"]
    code, out, err = run_cli(args + ["--no-such-flag"], capsys)
    assert (code, out) == (1, "") and "--no-such-flag" in err
    code, out, _ = run_cli(args + ["--seed", "5"], capsys)
    assert (code, out) == (0, seeded)
    for help_args in (["--help"], ["gap", "--help"]):
        code, out, _ = run_cli(help_args, capsys)
        assert code == 0 and out.startswith("usage: qlll")


def test_json_parse_diagnostic(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"n": 2,\n "d": }')
    code, _, err = run_cli(["gap", "--instance", str(bad)], capsys)
    assert code == 1
    assert "line 2" in err and "column" in err


NOT_AN_INTEGER = "'float' object cannot be interpreted as an integer"
BASIS = '"kind": "basis", "states": [0]'
INSTANCE_DIAGNOSTICS = [
    # checked before the d^k x d^k local matrix is built
    ('{"n": 2, "d": 2, "projectors": [{"qudits": %s, %s}]}' % (list(range(20)), BASIS),
     "qudit 2 outside register of 2 qudits"),
    ('{"n": 20, "d": 2, "projectors": [{"qudits": %s, %s}]}' % (list(range(20)), BASIS),
     "projector 0: local dimension 1048576 exceeds the dense budget 8192"),
    # integers are read without truncation
    ('{"n": 2, "d": 2, "projectors": [{"qudits": [0.5], %s}]}' % BASIS, NOT_AN_INTEGER),
    ('{"n": 2, "d": 2, "projectors": [{"qudits": [0], "kind": "basis", "states": [1.7]}]}',
     NOT_AN_INTEGER),
    ('{"n": 1e400, "d": 2, "projectors": []}', NOT_AN_INTEGER),
    ('{"n": 2, "d": 2.0, "projectors": []}', NOT_AN_INTEGER),
    ('{"n": 2, "d": 2, "projectors": [{"qudits": [0], "kind": "rank_random", '
     '"rank": 1.5, "seed": 3}]}', NOT_AN_INTEGER),
    ('{"n": 2, "d": 2, "projectors": [{"qudits": [0], "kind": "rank_random", '
     '"rank": 1, "seed": 3.5}]}', NOT_AN_INTEGER),
]


@pytest.mark.parametrize("text, message", INSTANCE_DIAGNOSTICS, ids=[
    "qudit-outside-register", "local-dimension-over-budget", "fractional-qudit",
    "fractional-state", "overflowing-n", "float-d", "fractional-rank", "fractional-seed",
])
def test_instance_diagnostic(text, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(["check", "--instance", str(bad)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: {message}\n"


DIMACS_DIAGNOSTICS = [
    ("p cnf 3 1\n1 two 3 0\n",
     "line 2 column 3: clause token 'two' is not an integer"),
    ("c comment\n  1 2 0\np cnf 2 1\n",
     "line 2 column 3: expected the 'p cnf <vars> <clauses>' header before any clause"),
    ("c only a comment\n\n", "line 1 column 1: missing 'p cnf' header"),
    ("p dnf 3 1\n1 2 0\n", "bad DIMACS header: p dnf 3 1"),
    # clause tokens are checked before the header
    ("p dnf 3 1\n1 z 0\n", "line 2 column 3: clause token 'z' is not an integer"),
    ("p cnf 3 2\n1 2 0\n\t  -1  3x 0\n",
     "line 3 column 8: clause token '3x' is not an integer"),
    ("p cnf 3 1\n1 2 0\n  p cnf 3 1\n",
     "line 3 column 3: clause token 'p' is not an integer"),
    ("p cnf 2 1\n1 3 0\n", "literal 3 outside declared variables"),
    ("p cnf 3 2\n1 2 0\n3\n", "unterminated clause in DIMACS input"),
    ("p cnf 3 1\n1 0\n2 0\n3 0\n",
     "line 1 column 9: header declares 1 clauses, the input has 3"),
    ("p cnf x 1\n1 0\n",
     "line 1 column 7: variable count 'x' is not a nonnegative integer"),
]


def test_dimacs_parse_diagnostic(tmp_path, capsys):
    bad = tmp_path / "broken.cnf"
    for text, message in DIMACS_DIAGNOSTICS:
        bad.write_text(text)
        code, out, err = run_cli(["solve-classical", "--cnf", str(bad)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: {message}\n"


def test_missing_file_and_bad_usage(tmp_path, capsys):
    code, _, err = run_cli(["gap", "--instance", str(tmp_path / "no.json")], capsys)
    assert code == 1 and "error" in err
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    code, _, err = run_cli(["converge", "--instance", "x.json"], capsys)
    assert code == 1  # missing file and missing --epsilon/--t both land here
    # negative budgets are usage errors; zero is a valid budget
    path = write_instance(tmp_path, disjoint_pair())
    code, out, err = run_cli(
        ["solve-quantum", "--instance", path, "--max-steps", "-5"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "error: max_steps must be nonnegative, got -5\n"
    # conjecture rejects it in both modes, though only monte-carlo runs steps
    for mode in ("exact", "monte-carlo"):
        code, out, err = run_cli(
            ["conjecture", "--instance", path, "--tree", '{"labels": [0], "parents": [-1]}',
             "--mode", mode, "--budget", "10", "--max-steps", "-7"], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: max_steps must be nonnegative, got -7\n"


RERUNS = {
    "check": (0, ["check", "--instance", "{pair}", "--epsilon", "0.1"]),
    "gap": (0, ["gap", "--instance", "{pair}"]),
    "solve-classical": (0, ["solve-classical", "--cnf", "{cnf}"]),
    "solve-quantum": (
        0, ["solve-quantum", "--instance", "{diag3}", "--trajectories", "3",
            "--max-steps", "40"]),
    "converge": (
        0, ["converge", "--instance", "{pair}", "--t", "4", "--samples", "50"]),
    "converge-exit-2": (
        2, ["converge", "--instance", "{pair}", "--t", "5", "--epsilon", "0.001",
            "--samples", "50"]),
    "exact-solve": (0, ["exact-solve", "--instance", "{pair}", "--runs", "3"]),
    "oracle": (
        0, ["oracle", "--instance", "{pair}", "--halting", "0", "--cp-identities"]),
    "witness": (0, ["witness", "--instance", "{diag3}", "--log", "{log}"]),
    "counterexample": (0, ["counterexample", "--a", "0.5", "--trajectories", "50"]),
    "conjecture": (
        0, ["conjecture", "--instance", "{diag3}",
            "--tree", '{{"labels": [0], "parents": [-1]}}',
            "--mode", "monte-carlo", "--budget", "10", "--max-steps", "16"]),
    "cpmap": (0, ["cpmap", "--instance", "{pair}", "--t", "3"]),
    "cpmap-csv": (0, ["cpmap", "--instance", "{pair}", "--t", "3", "--format", "csv"]),
}


@pytest.mark.parametrize("name", sorted(RERUNS))
def test_fixed_seed_rerun_is_byte_identical(name, tmp_path, capsys):
    log = tmp_path / "log.json"
    log.write_text(json.dumps({"entries": [[0, 1], [1, 2]], "total_steps": 4, "seed": 7}))
    cnf = tmp_path / "chain.cnf"
    cnf.write_text(bench.chain_cnf(4, seed=8))
    paths = {
        "pair": write_instance(tmp_path, disjoint_pair()),
        "diag3": write_instance(tmp_path, diag3(), "diag3.json"),
        "log": str(log),
        "cnf": str(cnf),
    }
    want, template = RERUNS[name]
    args = [arg.format(**paths) for arg in template] + ["--seed", "5"]
    first = run_cli(args, capsys)
    assert first[0] == want, first[2]
    assert first[1] and run_cli(args, capsys) == first


def test_reruns_cover_every_subcommand():
    assert {args[0] for _, args in RERUNS.values()} == set(cli._HANDLERS)
