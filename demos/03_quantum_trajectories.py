"""Measure-and-refresh trajectories on a commuting instance: violation
logs, batch statistics, and the violation bound at two horizons."""

import numpy as np

from qlll import (
    QlllInstance,
    basis_projector,
    bench,
    find_certificate,
    run_quantum_solver,
    run_trajectory_batch,
)

P1 = np.diag([0.0, 1.0])
inst = QlllInstance.build(
    3, 2, [((0,), P1), ((1, 2), basis_projector(4, [3]))]
)
cert = find_certificate(inst)
print("certificate x:", cert.x)

traj = run_quantum_solver(inst, seed=7, max_steps=200)
print("\nsingle trajectory, seed 7:")
print("  violations:", [(step, lab) for step, lab in traj.log.entries])
print("  steps taken:", traj.log.total_steps)
print("  final state norm:", round(float(np.linalg.norm(traj.state)), 12))

batch = run_trajectory_batch(inst, seed=21, n_traj=5000, max_steps=400)
print(f"\n5000 trajectories: mean violations {batch.violations.mean():.3f}")

# the audit replays the batch at two horizons a factor ten apart and
# checks the mean count sits below sum x/(1-x) at both; the count may
# still grow between them
report = bench.violation_audit(inst, cert, trajectories=5000, max_steps=400, seed=22)
print("bound:", round(report["bound"], 4))
for entry in report["horizons"]:
    print(
        f"  horizon {entry['steps']:4d}: mean {entry['mean']:.4f}"
        f" +- {entry['sigma']:.4f}  within bound: {entry['within_bound']}"
    )
print("within the bound at every horizon:", report["pass"])
