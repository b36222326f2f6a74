"""Operator-level checks: first-violation bounds, channel identities, the
product-lemma suite, and the averaged correction channel."""

import numpy as np

from qlll import (
    QlllInstance,
    basis_projector,
    bench,
    build_channels,
    first_violation_gap_bound,
    halting_operator,
    sequence_operator,
    shortclaim_suite,
    verify_cp_identities,
)

P1 = np.diag([0.0, 1.0])
inst = QlllInstance.build(
    3, 2, [((0,), P1), ((1,), P1), ((1, 2), basis_projector(4, [3]))]
)
channels = build_channels(inst)

# the unnormalized state reached when some projector fires first, from one
# conjugate-gradient solve
for a in range(inst.m):
    solved = halting_operator(inst, a, channels)
    print(f"event {a}: halting probability {solved.probability:.6f}")

print("\nfirst-violation bounds for event 2:")
rep = first_violation_gap_bound(inst, 2, channels)
print("  dimensional slack:", f"{rep['dimension_bound']['slack_min']:.2e}")
print("  gap-scaled slack :", f"{rep['gap_bound']['slack_min']:.2e}",
      " (gap", rep["gap_bound"]["gap"], ")")

print("\nordered sequences and their probabilities:")
for seq in ((0,), (0, 1), (1, 2), (2, 1, 0)):
    op = sequence_operator(inst, seq, channels)
    print(f"  {seq}: {op.probability:.6f}")

identities = verify_cp_identities(inst, seed=5)
print("\nchannel identities:", "all pass" if identities["pass"] else "FAIL")
for part in identities["parts"]:
    value = part["residual"] if part["residual"] is not None else part["slack_min"]
    print(f"  {part['lemma']:35s} {value:.2e}")

suite = shortclaim_suite(inst, (0, 1))
print("\nproduct-lemma suite (ids 0,1):", "all pass" if suite["pass"] else "FAIL")

# the trace-preserving correction channel lifts the good-subspace weight
# monotonically from the maximally mixed state
series = bench.cp_map_iterate(inst, np.eye(8) / 8.0, t_max=30)
print("\ncorrection channel from the maximally mixed state:")
print(bench.series_to_csv(series).splitlines()[0])
for k in (0, 1, 2, 5, 10, 30):
    print(f"  t={k:2d}  overlap {series.ground_overlap[k]:.6f}")
