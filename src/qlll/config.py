"""Numerical tolerances and size budgets used across the package.

All dense linear algebra is gated on the total Hilbert dimension D so that a
mistyped instance fails fast instead of allocating huge arrays.
"""

from __future__ import annotations

# projector / operator validation
HERMITIAN_TOL = 1e-10          # relative deviation ||M - M^dag|| / max(1, ||M||)
IDEMPOTENT_TOL = 1e-10         # ||P^2 - P||
RANK_INTEGER_TOL = 1e-8        # |tr P - round(tr P)|
COMMUTE_TOL = 1e-10            # pairwise commutator norm for "verified commuting"

# spectral tolerances
PSD_TOL = 1e-9                 # negative eigenvalue allowed by tensor.psd_violation
KERNEL_EIG_TOL = 1e-9          # eigenvalues below this (relative) count as zero
EIG_DISTINCT_TOL = 1e-9        # eigenvalues closer than this are one level
NORM_TOL = 1e-10               # drift of a state vector's norm from 1

# outcome-operator solves (CG, GMRES): relative residual stop and step cap
SERIES_TRACE_TOL = 1e-12
SERIES_MAX_TERMS = 100_000
SEQUENCE_MAX_LEN = 4           # exact outcome operators for at most this many ids
GAP_VACUOUS_TOL = 1e-10        # spectral gaps below this make the 1/(m*gap) bound vacuous

# pass rules of the operator checks
SLACK_TOL = 1e-9               # X <= Y within this: in the PSD order, or a metric under its ceiling
RESIDUAL_TOL = 1e-9            # two routes to one operator agree within this
EQUALITY_TOL = 1e-10           # a channel identity holds within this

# pass rules of the benchmark checks
EXACT_MATCH_TOL = 1e-8         # two independent routes to the same number
OVERLAP_MONOTONE_TOL = 1e-10   # allowed backslide in the ground overlap
SERIES_VALUE_TOL = 1e-9        # a probability outside [0, 1]
DENSITY_TRACE_TOL = 1e-9       # |tr rho - 1| of a density matrix, |tr X - p| of an outcome operator

# certificate search
CERT_MAX_SWEEPS = 10_000
CERT_SUP_CHANGE_TOL = 1e-12
CERT_X_CEILING = 1.0 - 1e-9
LOVASZ_SLACK_TOL = 1e-12      # slack >= -tol counts as satisfied

# solver defaults
CLASSICAL_DEFAULT_BUDGET = 1_000_000
QUANTUM_STEPS_PER_PROJECTOR = 1_000   # default max_steps = 1000 * m
GW_VERTEX_CAP = 10_000

# state-vector engines
BATCH_STATE_ENTRIES = 1 << 26  # n_traj * D complex amplitudes, about 1 GiB
# settled rows: both the batch engine and the one-row solver check their rows
# every BATCH_FREEZE_EVERY steps.  A batch row is settled once its total
# bad-event weight is below BATCH_FREEZE_TOL, a one-row run only once that
# weight is exactly zero, so stopping leaves its state and log bit-exact.
BATCH_FREEZE_TOL = 1e-14
BATCH_FREEZE_EVERY = 16

# combinatorics
DAG_EXACT_RATIONAL_MAX = 12    # exact Fraction arithmetic up to this many vertices
DAG_VERTEX_CAP = 20            # hard cap for subset-memoised recursions

# dense state vectors
STATE_BUDGET_D = 2 ** 13
# density-matrix iteration keeps full D x D operators around
DENSITY_BUDGET_D = 2 ** 11


def tolerance_snapshot() -> dict:
    """Every constant of this module, lower-cased, logged by the CLI for
    reproducibility."""
    return {name.lower(): value for name, value in globals().items() if name.isupper()}
