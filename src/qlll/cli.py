"""Command-line workbench over the library.

Each subcommand reads an instance (or CNF formula), runs one library
routine, and emits a single JSON document carrying the seed, the input's
content hash, and the tolerance table, so a fixed command line reproduces
byte-identical output.  Time series can be emitted as CSV instead.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a requested
check fails or the instance is infeasible, 3 when an internal invariant
fails (the one-line message carries the measured value).
"""

import argparse
import functools
import hashlib
import json
import math
import secrets
import sys
from fractions import Fraction

import numpy as np

from . import bench, config
from .classical import instance_from_dimacs, solve_classical
from .instance import (
    checked_certificate_search,
    find_certificate,
    instance_digest,
    instance_from_dict,
    intersection_graph,
    spectral_report,
)
from .logs import log_from_dict
from .oracles import (
    build_channels,
    first_violation_gap_bound,
    sequence_operator,
    shortclaim_suite,
    verify_cp_identities,
)
from .quantum import ExactSolverConfig, run_converger, run_exact_solver, run_quantum_solver
from .tensor import make_rng
from .witness import (
    build_resample_dag,
    build_witness_tree,
    dag_from_dict,
    dag_probability,
    expected_violations_bound,
    galton_watson_probability,
    label_intersection,
    tree_from_dict,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2
EXIT_INVARIANT = 3  # an internal invariant failed (InvariantError, any RuntimeError)


class CliError(Exception):
    """User-facing failure: bad arguments, unreadable files, malformed input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_json(path: str):
    return _parse_json(_read_text(path), path)


def _load_instance(path: str):
    data = _load_json(path)
    try:
        return instance_from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_ids(text: str, flag: str):
    try:
        ids = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise CliError(f"{flag} wants comma-separated integers, got {text!r}") from None
    if not ids:
        raise CliError(f"{flag} wants at least one id")
    return ids


def _pyify(value):
    """Recursively coerce numpy scalars and arrays into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pyify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _pyify(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _envelope(cfg: argparse.Namespace, digest, result) -> str:
    doc = {
        "subcommand": cfg.command,
        "seed": cfg.seed,
        "seed_was_random": cfg.seed_was_random,
        "instance": digest,
        "tolerances": config.tolerance_snapshot(),
        "result": _pyify(result),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _cmd_check(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    digest = instance_digest(inst)
    cert, reason, checked = checked_certificate_search(inst, cfg.epsilon)
    if cert is None:
        result = {
            "feasible": False,
            "reason": reason,
            "epsilon": cfg.epsilon,
            "x": None,
            "x_prime": None,
            "min_slack": None,
            "expected_violations_bound": None,
        }
        return EXIT_CHECK_FAILED, digest, result, None
    result = {
        "feasible": True,
        "epsilon": cfg.epsilon,
        "x": list(cert.x),
        "x_prime": list(cert.x_prime),
        # an instance with no events has no slack to report
        "min_slack": float(min(checked.slacks)) if inst.m else None,
        "expected_violations_bound": expected_violations_bound(cert),
    }
    return EXIT_OK, digest, result, None


def _cmd_gap(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    rep = spectral_report(inst)
    result = {
        "eigenvalues": np.asarray(rep.eigenvalues).tolist(),
        "delta": rep.delta,
        "ground_dim": rep.ground_dim,
        "ground_energy": rep.ground_energy,
        "process_gap": rep.gap,
    }
    return EXIT_OK, instance_digest(inst), result, None


def _cmd_solve_classical(cfg: argparse.Namespace):
    text = _read_text(cfg.cnf)
    try:
        cinst = instance_from_dimacs(text)
    except ValueError as exc:
        raise CliError(f"{cfg.cnf}: {exc}") from exc
    res = solve_classical(cinst, cfg.seed, max_resamples=cfg.max_resamples)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    result = {
        "satisfied": not res.exhausted,
        "exhausted": res.exhausted,
        "assignment": list(res.assignment),
        "resamples": len(res.log.entries),
        "log": res.log.to_dict(),
    }
    code = EXIT_CHECK_FAILED if res.exhausted else EXIT_OK
    return code, digest, result, None


def _cmd_solve_quantum(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    if cfg.trajectories < 1:
        raise CliError("--trajectories must be positive")
    steps = (
        cfg.max_steps
        if cfg.max_steps is not None
        else config.QUANTUM_STEPS_PER_PROJECTOR * inst.m
    )
    child_seeds = make_rng(cfg.seed).integers(0, 2**63 - 1, size=cfg.trajectories)
    trajectories = [
        run_quantum_solver(inst, int(s), max_steps=steps) for s in child_seeds
    ]

    if cfg.save_log is not None:
        payload = {"logs": [traj.log.to_dict() for traj in trajectories]}
        try:
            with open(cfg.save_log, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise CliError(f"cannot write {cfg.save_log}: {exc.strerror or exc}") from exc

    counts = [len(traj.log.entries) for traj in trajectories]
    result = {
        "trajectories": cfg.trajectories,
        "max_steps": steps,
        "violations": counts,
        "mean_violations": float(np.mean(counts)),
        "log_saved": cfg.save_log,
    }
    return EXIT_OK, instance_digest(inst), result, None


def _horizon(cfg: argparse.Namespace):
    """--t when given; otherwise None, and the caller derives the horizon
    from --epsilon.  --epsilon is checked whenever it is given."""
    if cfg.epsilon is not None and not 0.0 < cfg.epsilon < 1.0:
        raise CliError("--epsilon must lie strictly between 0 and 1")
    if cfg.t is not None:
        if cfg.t < 0:
            raise CliError("--t must be nonnegative")
        return cfg.t
    if cfg.epsilon is None:
        raise CliError("provide --t or --epsilon")
    return None


def _cmd_converge(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    digest = instance_digest(inst)
    samples = cfg.samples
    if samples < 1:
        raise CliError("--samples must be positive")
    cert = find_certificate(inst)
    bound = expected_violations_bound(cert) if cert is not None else None
    t = _horizon(cfg)
    if t is None:
        if cert is None:
            result = {"feasible": False, "epsilon": cfg.epsilon}
            return EXIT_CHECK_FAILED, digest, result, None
        t = math.ceil(inst.m * bound / cfg.epsilon)
    res = run_converger(inst, cfg.seed, t, samples)
    result = {
        "t": t,
        "samples": samples,
        "epsilon": cfg.epsilon,
        "expected_violations_bound": bound,
        "mean_violation_prob": res.mean_violation_prob,
        "ground_overlap": res.ground_overlap,
    }
    code = EXIT_OK
    if cfg.epsilon is not None:
        # conservative binomial deviation for means of [0, 1] observables
        sigma = 0.5 / math.sqrt(samples)
        within = [float(v) <= cfg.epsilon + 3.0 * sigma for v in res.mean_violation_prob]
        ground_ok = res.ground_overlap >= 1.0 - cfg.epsilon - 3.0 * sigma
        result["sigma"] = sigma
        result["within_epsilon"] = within
        result["ground_within_epsilon"] = ground_ok
        if not (all(within) and ground_ok):
            code = EXIT_CHECK_FAILED
    return code, digest, result, None


def _cmd_exact_solve(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    digest = instance_digest(inst)
    runs = cfg.runs
    if runs < 1:
        raise CliError("--runs must be positive")
    cert = find_certificate(inst)
    if cert is None:
        result = {"feasible": False, "p": cfg.p}
        return EXIT_CHECK_FAILED, digest, result, None
    m_prime = expected_violations_bound(cert)
    solver_cfg = ExactSolverConfig(p=cfg.p, m_prime=m_prime)
    child_seeds = make_rng(cfg.seed).integers(0, 2**63 - 1, size=runs)
    overlaps = []
    steps = []
    for child in child_seeds:
        run = run_exact_solver(inst, solver_cfg, int(child))
        steps.append(run.trajectory.log.total_steps)
        if run.success:
            overlaps.append(run.kernel_weight)
    successes = len(overlaps)
    min_overlap = min(overlaps, default=None)
    result = {
        "p": cfg.p,
        "m_prime": m_prime,
        "iteration_cap": solver_cfg.iteration_cap(inst.m),
        "runs": runs,
        "successes": successes,
        "success_frequency": successes / runs,
        "target_frequency": 1.0 - 1.0 / cfg.p,
        # rounded so that rounding-level changes in the step leave the
        # report's bytes alone
        "min_success_overlap": None if min_overlap is None else round(min_overlap, 12),
        "mean_steps": float(np.mean(steps)),
    }
    code = EXIT_OK if successes > 0 else EXIT_CHECK_FAILED
    return code, digest, result, None


def _cmd_oracle(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    requested = (
        cfg.halting is not None
        or cfg.sequence is not None
        or cfg.cp_identities
        or cfg.shortclaim is not None
    )
    if not requested:
        raise CliError(
            "request at least one check:"
            " --halting, --sequence, --cp-identities, --shortclaim"
        )
    channels = build_channels(inst)
    result = {}
    verdicts = []
    if cfg.halting is not None:
        rep = first_violation_gap_bound(inst, cfg.halting, channels)
        verdicts.append(rep["dimension_bound"]["pass"])
        if not rep["gap_bound"]["vacuous"]:
            verdicts.append(rep["gap_bound"]["pass"])
        result["halting"] = rep
    if cfg.sequence is not None:
        ids = _parse_ids(cfg.sequence, "--sequence")
        op = sequence_operator(inst, ids, channels)
        result["sequence"] = {"ids": list(ids), "probability": op.probability}
    if cfg.cp_identities:
        rep = verify_cp_identities(inst, seed=cfg.seed)
        verdicts.append(rep["pass"])
        result["cp_identities"] = rep
    if cfg.shortclaim is not None:
        ids = _parse_ids(cfg.shortclaim, "--shortclaim")
        rep = shortclaim_suite(inst, ids)
        verdicts.append(rep["pass"])
        result["shortclaim"] = rep
    code = EXIT_OK if all(verdicts) else EXIT_CHECK_FAILED
    return code, instance_digest(inst), result, None


def _cmd_witness(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    data = _load_json(cfg.log)
    index = cfg.log_index
    if isinstance(data, dict) and "logs" in data:
        logs = data["logs"]
        if not 0 <= index < len(logs):
            raise CliError(f"--log-index {index} outside the {len(logs)} saved logs")
        picked = logs[index]
    else:
        if index != 0:
            raise CliError("--log-index only applies to files with a 'logs' list")
        picked = data
    try:
        log = log_from_dict(picked)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{cfg.log}: {exc}") from exc
    if not log.entries:
        raise CliError("the selected log has no violation entries")
    labels = list(log.labels())
    if any(not 0 <= lab < inst.m for lab in labels):
        raise CliError(
            f"log labels do not fit an instance with {inst.m} projectors"
        )
    entry = cfg.entry
    if entry is None:
        entry = len(log.entries) - 1
    if not 0 <= entry < len(log.entries):
        raise CliError(f"--entry {entry} outside the {len(log.entries)} entries")
    graph = intersection_graph(inst)
    intersects = label_intersection(graph)
    tree = build_witness_tree(log, entry, intersects)
    prefix = tuple(labels[: entry + 1])
    dag = prob = None
    if len(prefix) <= config.DAG_VERTEX_CAP:
        dag = build_resample_dag(prefix, intersects)
        prob = dag_probability(dag, prefix)
    cert = find_certificate(inst)
    proper = tree.is_proper()
    gw = None
    if cert is not None and proper:
        gw = galton_watson_probability(tree, cert, graph)
    result = {
        "log_index": index,
        "entry": entry,
        "labels": labels,
        "tree": tree.to_dict(),
        "tree_proper": proper,
        "dag": None if dag is None else dag.to_dict(),
        "dag_sequence_probability": None if prob is None else float(prob),
        "dag_sequence_probability_exact": (
            str(prob) if isinstance(prob, Fraction) else None
        ),
        "galton_watson": gw,
    }
    if dag is None:
        result["dag_skipped"] = (
            f"the prefix has {len(prefix)} violations; the resample DAG is "
            f"capped at {config.DAG_VERTEX_CAP} vertices"
        )
    return EXIT_OK, instance_digest(inst), result, None


def _cmd_counterexample(cfg: argparse.Namespace):
    a = cfg.a
    audit = None
    try:
        cx = bench.make_counterexample(a)
        analytic = bench.counterexample_analytic(a)
        if cfg.trajectories is not None:
            audit = bench.counterexample_audit(
                a, cfg.trajectories, cfg.seed, max_steps=cfg.max_steps
            )
        exact = bench.counterexample_exact(a) if audit is None else audit["exact"]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    digest = instance_digest(cx.instance)
    result = dict(analytic)
    result["exact"] = exact
    result["exact_matches_analytic"] = abs(exact - analytic["pr_tau"]) <= config.EXACT_MATCH_TOL
    code = EXIT_OK
    if audit is not None:
        for key in (
            "trajectories",
            "max_steps",
            "monte_carlo",
            "mc_sigma",
            "mc_pass",
            "exact_residual",
            "exact_pass",
            "pass",
        ):
            result[key] = audit[key]
        if not audit["pass"]:
            code = EXIT_CHECK_FAILED
    return code, digest, result, None


def _cmd_conjecture(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    raw = cfg.tree
    data = _parse_json(_read_text(raw[1:]) if raw.startswith("@") else raw, "--tree")
    try:
        if isinstance(data, dict) and "parents" in data:
            structure = tree_from_dict(data)
        elif isinstance(data, dict) and "edges" in data:
            structure = dag_from_dict(data)
        else:
            raise CliError('--tree JSON needs "parents" (tree) or "edges" (dag)')
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"--tree: {exc}") from exc
    report = bench.conjecture_test(
        inst,
        structure,
        cfg.mode,
        cfg.budget,
        seed=cfg.seed,
        max_steps=cfg.max_steps,
    )
    result = {
        "structure": structure.to_dict(),
        "mode": report.mode,
        "sense": report.sense,
        "probability": report.probability,
        "sigma": report.sigma,
        "product_bound": report.product_bound,
        "ratio": report.ratio,
        "gap_bound": report.gap_bound,
        "gap_ratio": report.gap_ratio,
        "samples": report.samples,
        "sample_seed": report.seed,
    }
    return EXIT_OK, instance_digest(inst), result, None


def _cmd_cpmap(cfg: argparse.Namespace):
    inst = _load_instance(cfg.instance)
    t = _horizon(cfg)
    if t is None:
        gap = spectral_report(inst).gap
        if gap < config.GAP_VACUOUS_TOL:
            raise CliError(
                "the averaged violation weight has no usable gap; give --t explicitly"
            )
        t = math.ceil(inst.m / (gap * (gap + 1.0) * cfg.epsilon))
    dim = inst.shape.dim
    target = None if cfg.epsilon is None else 1.0 - cfg.epsilon - 1e-12
    # with --epsilon alone, stop at the first iterate that reaches the target
    stop = target if cfg.t is None else None
    series = bench.cp_map_iterate(inst, np.eye(dim) / dim, t, stop_overlap=stop)
    final = float(series.ground_overlap[-1])
    reached = None
    code = EXIT_OK
    if target is not None:
        reached = final >= target
        if not reached:
            code = EXIT_CHECK_FAILED
    if cfg.format == "csv":
        return code, None, None, bench.series_to_csv(series)
    worst = [float(np.max(row)) for row in series.violation_probs]
    result = {"t_max": t}
    if stop is not None:
        result["t_reached"] = int(series.steps[-1]) if reached else None
    result.update({
        "epsilon": cfg.epsilon,
        "reached": reached,
        "final_ground_overlap": final,
        "final_worst_violation_prob": worst[-1],
        "series": {
            "t": series.steps,
            "ground_overlap": series.ground_overlap,
            "worst_violation_prob": worst,
        },
    })
    return code, instance_digest(inst), result, None


_HANDLERS = {
    "check": _cmd_check,
    "gap": _cmd_gap,
    "solve-classical": _cmd_solve_classical,
    "solve-quantum": _cmd_solve_quantum,
    "converge": _cmd_converge,
    "exact-solve": _cmd_exact_solve,
    "oracle": _cmd_oracle,
    "witness": _cmd_witness,
    "counterexample": _cmd_counterexample,
    "conjecture": _cmd_conjecture,
    "cpmap": _cmd_cpmap,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qlll",
        description="workbench for certified resampling at dense-simulation scale",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed; a random one is drawn and recorded when omitted",
    )
    common.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to this file instead of stdout",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, metavar="SUBCOMMAND")

    p = sub.add_parser(
        "check", parents=[common],
        help="search for a certificate of the local-lemma conditions",
    )
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--epsilon", type=float, default=0.0)

    p = sub.add_parser(
        "gap", parents=[common],
        help="spectrum and gap of the averaged violation weight",
    )
    p.add_argument("--instance", required=True, metavar="FILE")

    p = sub.add_parser(
        "solve-classical", parents=[common],
        help="run the resampling solver on a DIMACS CNF formula",
    )
    p.add_argument("--cnf", required=True, metavar="FILE")
    p.add_argument("--max-resamples", type=int, default=None)

    p = sub.add_parser(
        "solve-quantum", parents=[common],
        help="measure-and-refresh trajectories on a projector instance",
    )
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--trajectories", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--save-log", default=None, metavar="FILE")

    p = sub.add_parser(
        "converge", parents=[common],
        help="time-averaged violation and good-subspace estimates",
    )
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser(
        "exact-solve", parents=[common],
        help="capped cyclic-measurement runs on a commuting instance",
    )
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--runs", type=int, default=1)

    p = sub.add_parser(
        "oracle", parents=[common],
        help="operator-level identities and first-violation bounds",
    )
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--halting", type=int, default=None, metavar="ID")
    p.add_argument("--sequence", default=None, metavar="IDS",
                   help="comma-separated violation order, e.g. 0,1")
    p.add_argument("--cp-identities", action="store_true")
    p.add_argument("--shortclaim", default=None, metavar="IDS")

    p = sub.add_parser(
        "witness", parents=[common],
        help="rebuild the tree and dag behind a logged violation",
    )
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--log", required=True, metavar="FILE")
    p.add_argument("--log-index", type=int, default=0)
    p.add_argument("--entry", type=int, default=None,
                   help="log entry to witness; defaults to the last")

    p = sub.add_parser(
        "counterexample", parents=[common],
        help="two-projector pair whose joint opening rate beats the product bound",
    )
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--trajectories", type=int, default=None,
                   help="also audit by trajectory sampling")
    p.add_argument("--max-steps", type=int, default=4096)

    p = sub.add_parser(
        "conjecture", parents=[common],
        help="occurrence probability of a witness structure vs its product bound",
    )
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--tree", required=True,
                   help="inline JSON ({labels, parents} or {labels, edges}), or @FILE")
    p.add_argument("--mode", required=True, choices=["exact", "monte-carlo"])
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=128)

    p = sub.add_parser(
        "cpmap", parents=[common],
        help="iterate the averaged correction channel from the maximally mixed state",
    )
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None,
                   help="stop at the first iterate with ground overlap >= 1 - epsilon, "
                        "within the horizon t_max derived from the gap")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing leaves no state on it."""
    return build_parser()


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed flags, plus the seed: drawn and flagged when not given."""
    cfg = _parser().parse_args(argv)
    if cfg.command is None:
        raise CliError("a subcommand is required (see --help)")
    cfg.seed_was_random = cfg.seed is None
    if cfg.seed_was_random:
        cfg.seed = secrets.randbelow(2**32)
    return cfg


def dispatch(cfg: argparse.Namespace):
    code, digest, result, raw = _HANDLERS[cfg.command](cfg)
    if raw is not None:
        return code, raw
    return code, _envelope(cfg, digest, result)


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        code, text = dispatch(cfg)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_INVARIANT
    if cfg.output is not None:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
            return EXIT_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
