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
PSD_TOL = 1e-9                 # negative eigenvalue allowed in a density matrix
KERNEL_EIG_TOL = 1e-9          # eigenvalues below this (relative) count as zero
EIG_DISTINCT_TOL = 1e-9        # eigenvalues closer than this are one level
NORM_TOL = 1e-10               # drift of a state vector's norm from 1

# outcome-operator solves (CG, GMRES): relative residual stop and step cap
SERIES_TRACE_TOL = 1e-12
SERIES_MAX_TERMS = 100_000
SEQUENCE_MAX_LEN = 4           # exact outcome operators for at most this many ids
GAP_VACUOUS_TOL = 1e-10        # spectral gaps below this make the 1/(m*gap) bound vacuous

# pass rules of the operator checks
OUTCOME_PSD_TOL = 1e-9         # negative eigenvalue or trace drift of an outcome operator
SLACK_TOL = 1e-9               # slack >= -tol counts as X <= Y in the PSD order
RESIDUAL_TOL = 1e-9            # two routes to one operator agree within this
EQUALITY_TOL = 1e-10           # a channel identity holds within this

# pass rules of the benchmark checks
EXACT_MATCH_TOL = 1e-8         # two independent routes to the same number
OVERLAP_MONOTONE_TOL = 1e-10   # allowed backslide in the ground overlap
SERIES_VALUE_TOL = 1e-9        # a probability series value outside [0, 1]
DENSITY_TRACE_TOL = 1e-9       # |tr rho - 1| of a density matrix
METRIC_SLACK_TOL = 1e-9        # a strong metric above its ceiling

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
    """All tolerances as a dict, logged by the CLI for reproducibility."""
    return {
        "hermitian_tol": HERMITIAN_TOL,
        "idempotent_tol": IDEMPOTENT_TOL,
        "rank_integer_tol": RANK_INTEGER_TOL,
        "commute_tol": COMMUTE_TOL,
        "psd_tol": PSD_TOL,
        "kernel_eig_tol": KERNEL_EIG_TOL,
        "eig_distinct_tol": EIG_DISTINCT_TOL,
        "norm_tol": NORM_TOL,
        "series_trace_tol": SERIES_TRACE_TOL,
        "series_max_terms": SERIES_MAX_TERMS,
        "sequence_max_len": SEQUENCE_MAX_LEN,
        "gap_vacuous_tol": GAP_VACUOUS_TOL,
        "outcome_psd_tol": OUTCOME_PSD_TOL,
        "slack_tol": SLACK_TOL,
        "residual_tol": RESIDUAL_TOL,
        "equality_tol": EQUALITY_TOL,
        "exact_match_tol": EXACT_MATCH_TOL,
        "overlap_monotone_tol": OVERLAP_MONOTONE_TOL,
        "series_value_tol": SERIES_VALUE_TOL,
        "density_trace_tol": DENSITY_TRACE_TOL,
        "metric_slack_tol": METRIC_SLACK_TOL,
        "cert_max_sweeps": CERT_MAX_SWEEPS,
        "cert_sup_change_tol": CERT_SUP_CHANGE_TOL,
        "cert_x_ceiling": CERT_X_CEILING,
        "state_budget_d": STATE_BUDGET_D,
        "density_budget_d": DENSITY_BUDGET_D,
    }
