"""Constructive local-lemma workbench at dense-simulation scale.

The package builds bad-event projector instances on small qudit registers,
searches for certificates of the local-lemma conditions, runs the classical
and quantum resampling solvers, reconstructs witness trees and resample dags
from execution logs, and checks the operator identities behind the
first-violation bounds.  Everything is seedable and deterministic.
"""

from .bench import (
    ConjectureReport,
    ConvergenceSeries,
    CounterexampleInstance,
    certified_commuting_corpus,
    chain_cnf,
    chain_cnf_corpus,
    conjecture_test,
    convergence_metrics,
    counterexample_analytic,
    counterexample_audit,
    counterexample_exact,
    cp_map_iterate,
    make_counterexample,
    random_instance_corpus,
    series_to_csv,
    violation_audit,
)
from .classical import (
    ClassicalEvent,
    ClassicalInstance,
    ClassicalRunResult,
    classical_intersection_graph,
    event_probability,
    expected_resamples_bound,
    instance_from_dimacs,
    solve_classical,
)
from .errors import InvariantError
from .instance import (
    LovaszCertificate,
    QlllInstance,
    SpectralReport,
    basis_projector,
    certificate_from_x,
    check_lovasz,
    checked_certificate_search,
    find_certificate,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    intersection_graph,
    random_rank_projector,
    spectral_report,
    symmetric_condition,
)
from .logs import ExecutionLog, log_from_dict, log_from_labels
from .oracles import (
    ChannelSet,
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
from .quantum import (
    ConvergerResult,
    ExactRunResult,
    ExactSolverConfig,
    Trajectory,
    TrajectoryBatch,
    run_converger,
    run_exact_solver,
    run_quantum_solver,
    run_trajectory_batch,
)
from .tensor import HilbertShape, make_rng
from .witness import (
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
