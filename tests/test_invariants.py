"""Every internal invariant fails with one named error, InvariantError,
which carries the measured value; the CLI maps it to exit code 3."""

import json

import numpy as np
import pytest

from qlll import bench, cli, config, quantum
from qlll.errors import InvariantError
from qlll.instance import QlllInstance, instance_to_dict, spectral_report
from qlll.oracles import build_channels, shortclaim_suite
from qlll.quantum import (
    ExactSolverConfig,
    _check_norm,
    run_converger,
    run_exact_solver,
    run_quantum_solver,
    run_trajectory_batch,
)

Q1 = np.diag([0.0, 1.0]).astype(complex)


def three_qubits():
    """Three commuting single-qubit events: H has the levels 0, 1/3, 2/3, 1."""
    return QlllInstance.build(3, 2, [([0], Q1), ([1], Q1), ([2], Q1)])


def test_invariant_error_is_a_runtime_error():
    err = InvariantError("probe", 0.5)
    assert isinstance(err, RuntimeError)
    assert err.value == 0.5 and str(err) == "probe"


def test_norm_drift():
    states = np.zeros((3, 4), dtype=complex)
    states[:, 0] = 1.0
    states[2, 0] = 1.001
    with pytest.raises(InvariantError, match="drifted") as err:
        _check_norm(states)
    assert err.value.value == pytest.approx(1.001 ** 2 - 1.0)


def test_norm_check_rejects_nan():
    states = np.zeros((2, 4), dtype=complex)
    states[:, 0] = 1.0
    states[1, 3] = np.nan
    with pytest.raises(InvariantError, match="drifted by nan"):
        _check_norm(states)


def scale_refilled_rows(monkeypatch, factor=1.01):
    """Make every collapse-and-refill leave its rows off unit norm."""
    refill = quantum._refill_rows

    def off_norm(states, rows, post, plan, rng):
        refill(states, rows, post, plan, rng)
        states[rows] *= factor

    monkeypatch.setattr(quantum, "_refill_rows", off_norm)


# every state-vector engine on three_qubits(); each call resamples at least once
ENGINES = {
    "quantum_solver": lambda inst: run_quantum_solver(inst, seed=0, max_steps=30),
    "exact_solver": lambda inst: run_exact_solver(
        inst, ExactSolverConfig(p=2, m_prime=3.0), seed=0),
    "trajectory_batch": lambda inst: run_trajectory_batch(inst, seed=0, n_traj=20, max_steps=30),
    "converger": lambda inst: run_converger(inst, seed=0, t=30, samples=20),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_catches_norm_drift(monkeypatch, engine):
    scale_refilled_rows(monkeypatch)
    with pytest.raises(InvariantError, match="drifted") as err:
        ENGINES[engine](three_qubits())
    assert err.value.value >= 1.01 ** 2 - 1.0 - 1e-12


def test_cli_converge_exits_three_on_norm_drift(tmp_path, capsys, monkeypatch):
    scale_refilled_rows(monkeypatch)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(three_qubits())))
    argv = ["converge", "--instance", str(path), "--t", "30", "--samples", "20", "--seed", "0"]
    assert cli.main(argv) == cli.EXIT_INVARIANT
    assert "state norm drifted by" in capsys.readouterr().err


def test_falling_ground_overlap(monkeypatch):
    inst = three_qubits()
    readout = bench._readout
    calls = []

    def falling(inst, p0, rho):
        ground, viols = readout(inst, p0, rho)
        calls.append(ground)
        return (ground - 1.0 if len(calls) > 1 else ground), viols

    monkeypatch.setattr(bench, "_readout", falling)
    with pytest.raises(InvariantError, match="ground overlap decreased") as err:
        bench.cp_map_iterate(inst, np.eye(8) / 8, 3)
    assert err.value.value > 0.0


def test_series_non_convergence(monkeypatch):
    monkeypatch.setattr(config, "SERIES_MAX_TERMS", 2)
    with pytest.raises(InvariantError, match="did not converge") as err:
        build_channels(three_qubits()).halting_operators()
    assert err.value.value >= config.SERIES_TRACE_TOL


def test_lemma_suite_non_convergence(monkeypatch):
    # the suite's pseudo-inverses run the same conjugate-gradient loop
    monkeypatch.setattr(config, "SERIES_MAX_TERMS", 1)
    with pytest.raises(InvariantError, match=r"lemma suite \(0,\): A\^\+ I: conjugate") as err:
        shortclaim_suite(three_qubits(), [0])
    assert err.value.value >= config.SERIES_TRACE_TOL


def test_exact_run_left_the_kernel(monkeypatch):
    monkeypatch.setattr(quantum, "_kernel_weight", lambda states, events: np.array([0.5]))
    cfg = ExactSolverConfig(p=2, m_prime=3.0)
    with pytest.raises(InvariantError, match="left the common kernel") as err:
        run_exact_solver(three_qubits(), cfg, seed=0)  # a successful run
    assert err.value.value == 0.5


def test_spectral_kernel_not_annihilated(monkeypatch):
    # a loose zero cut lets the 1/3 level into the kernel projector
    monkeypatch.setattr(config, "KERNEL_EIG_TOL", 0.5)
    with pytest.raises(InvariantError, match="not annihilated") as err:
        spectral_report(three_qubits())
    assert err.value.value > 1e-8


def test_spectral_commuting_gap(monkeypatch):
    # a wide level tolerance merges 0 and 1/3, so the gap reads 2/3
    monkeypatch.setattr(config, "EIG_DISTINCT_TOL", 0.4)
    with pytest.raises(InvariantError, match="gap 1/m") as err:
        spectral_report(three_qubits())
    assert err.value.value == pytest.approx(2.0 / 3.0)


def test_cli_maps_invariant_error_to_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config, "EIG_DISTINCT_TOL", 0.4)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(three_qubits())))
    code = cli.main(["gap", "--instance", str(path)])
    assert code == cli.EXIT_INVARIANT == 3
    assert "gap 1/m here, got 6.667e-01" in capsys.readouterr().err
