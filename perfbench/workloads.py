"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed in ``setup``, runs one
operation per call of ``run(k)`` and checks that operation's outputs in
``check(k, out)`` against computations made apart from the program (see
checks.py).  Operation k draws its randomness from the seed pair
(run seed, k), so every run does the same kind and amount of work.

Sizes come in two sets: "full" for the benchmark and "small" for the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile

import numpy as np

import checks
from qlll import bench, classical, cli, instance, oracles, witness
from qlll.instance import QlllInstance, basis_projector, random_rank_projector
from qlll.tensor import make_rng

# one rank-1 event on three qubits: the all-ones basis state
ALL_ONES = 7


class OperationFailed(Exception):
    """The program failed an operation (an error or a nonzero exit code)."""


def child_seed(seed: int, *key: int) -> int:
    """A 63-bit seed for one operation or input, fixed by (seed, key)."""
    state = np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def flipped_chain(n: int, supports, seed: int):
    """Rank-1 3-qubit events on the given supports whose bad states are the
    all-ones state with a seeded bit flip per qubit applied.  The flips are
    one relabelling of the register's basis, so every seed gives the same
    dynamics up to that relabelling."""
    flips = make_rng(seed).integers(0, 2, size=n)
    bad = []
    for sup in supports:
        mask = 0
        for q in sup:
            mask = 2 * mask + int(flips[q])
        bad.append(ALL_ONES ^ mask)
    return bad


def ring_supports(events: int, wrap: bool = True):
    """Events (2i, 2i+1, 2i+2) on 2*events qubits (mod 2*events when wrap)."""
    n = 2 * events if wrap else 2 * events + 1
    return n, [(2 * i, 2 * i + 1, (2 * i + 2) % n) for i in range(events)]


def diagonal_instance(n: int, supports, bad) -> QlllInstance:
    return QlllInstance.build(
        n, 2, [(sup, basis_projector(2 ** len(sup), [s])) for sup, s in zip(supports, bad)]
    )


def verified_bound(inst: QlllInstance, cert) -> float:
    """sum x/(1-x) of a certificate the benchmark has checked itself."""
    supports = [p.qudits for p in inst.projectors]
    rel = [float(np.trace(p.local_matrix).real) / 2 ** len(p.qudits)
           for p in inst.projectors]
    failures = checks.certificate_failures(supports, rel, cert.x, cert.epsilon)
    if failures:
        raise RuntimeError(f"certificate rejected: {failures}")
    return checks.violations_bound(cert.x)


class Workload:
    name = ""
    sizes = {}

    def __init__(self, seed: int, size: str = "full", span=None, workroot=None):
        self.seed = seed
        self.p = self.sizes[size]
        self.span = span or (lambda name: contextlib.nullcontext())
        self.workroot = workroot

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> list:
        raise NotImplementedError

    def run_level_checks(self) -> list:
        return []

    def close(self) -> None:
        pass


class TrajectoryAudit(Workload):
    """Batched trajectories: a pair audit of the two-qubit family, then a
    violation audit on a certified commuting chain."""

    name = "trajectory-audit"
    sizes = {
        "full": {"a": 0.95, "pair_traj": 10000, "traj": 1000, "steps": 200},
        "small": {"a": 0.95, "pair_traj": 400, "traj": 100, "steps": 40},
    }

    def setup(self):
        n, supports = ring_supports(4, wrap=False)
        self.inst = diagonal_instance(n, supports, flipped_chain(n, supports, self.seed))
        self.cert = instance.find_certificate(self.inst)
        self.bound = verified_bound(self.inst, self.cert)
        self.closed_form = checks.pair_opening_closed_form(self.p["a"])

    def run(self, k):
        p = self.p
        pair = bench.counterexample_audit(
            p["a"], p["pair_traj"], child_seed(self.seed, k, 0))
        audit = bench.violation_audit(
            self.inst, self.cert, p["traj"], p["steps"], child_seed(self.seed, k, 1))
        return pair, audit

    def check(self, k, out):
        pair, audit = out
        fails = checks.frequency_within(
            pair["monte_carlo"], self.closed_form, self.p["pair_traj"], "pair opening")
        if abs(pair["exact"] - self.closed_form) > 1e-8:
            fails.append(f"exact pair probability {pair['exact']!r} vs closed form "
                         f"{self.closed_form!r}")
        steps = sorted(h["steps"] for h in audit["horizons"])
        if steps != sorted({max(1, self.p["steps"] // 10), self.p["steps"]}):
            fails.append(f"audit horizons {steps}")
        for h in audit["horizons"]:
            fails += checks.at_most(
                h["mean"], self.bound, h["sigma"], f"violations at {h['steps']} steps")
        return fails


class CliSession(Workload):
    """One user session through qlll.cli.main, in this process."""

    name = "cli-session"
    sizes = {
        "full": {"traj": 40, "steps": 100, "runs": 100, "samples": 400,
                 "epsilon": 0.3, "clauses": 100, "prefix": 10},
        "small": {"traj": 10, "steps": 30, "runs": 10, "samples": 40,
                  "epsilon": 0.3, "clauses": 20, "prefix": 6},
    }

    def setup(self):
        os.makedirs(self.workroot, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=self.workroot)
        n, self.supports = ring_supports(4)
        bad = flipped_chain(n, self.supports, self.seed)
        doc = {"n": n, "d": 2, "projectors": [
            {"qudits": list(sup), "kind": "basis", "states": [s]}
            for sup, s in zip(self.supports, bad)]}
        self.rel = [1.0 / 2 ** len(sup) for sup in self.supports]
        self.inst_path = self._path("instance.json")
        with open(self.inst_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        text = bench.chain_cnf(self.p["clauses"], child_seed(self.seed, 0))
        self.clauses = checks.parse_dimacs(text)
        self.cnf_path = self._path("formula.cnf")
        with open(self.cnf_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.first_quantum = None

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _cli(self, sub, *args):
        argv = [sub, *args, "--output", self._path(sub + ".json")]
        with self.span(f"cli.{sub}"):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"qlll {' '.join(argv)} exited with {code}")
        return argv

    def run(self, k):
        p = self.p
        inst = ("--instance", self.inst_path)
        seeds = [str(child_seed(self.seed, k, j)) for j in range(4)]
        self._cli("check", *inst)
        quantum_argv = self._cli(
            "solve-quantum", *inst, "--trajectories", str(p["traj"]),
            "--max-steps", str(p["steps"]), "--seed", seeds[0],
            "--save-log", self._path("logs.json"))
        with open(self._path("logs.json"), encoding="utf-8") as fh:
            logs = json.load(fh)["logs"]
        sizes = [len(log["entries"]) for log in logs]
        if max(sizes) == 0:
            raise OperationFailed("no saved log has a violation to witness")
        index = sizes.index(max(sizes))
        entry = min(sizes[index], p["prefix"]) - 1
        self._cli("witness", *inst, "--log", self._path("logs.json"),
                  "--log-index", str(index), "--entry", str(entry))
        self._cli("exact-solve", *inst, "--p", "2", "--runs", str(p["runs"]),
                  "--seed", seeds[1])
        self._cli("converge", *inst, "--epsilon", str(p["epsilon"]),
                  "--samples", str(p["samples"]), "--seed", seeds[2])
        self._cli("solve-classical", "--cnf", self.cnf_path, "--seed", seeds[3])
        if self.first_quantum is None:
            with open(self._path("solve-quantum.json"), "rb") as fh:
                self.first_quantum = (quantum_argv, fh.read())
        labels = [label for _, label in logs[index]["entries"]]
        return labels[: entry + 1]

    def _result(self, sub):
        with open(self._path(sub + ".json"), encoding="utf-8") as fh:
            return json.load(fh)["result"]

    def check(self, k, prefix):
        p = self.p
        fails = []
        chk = self._result("check")
        if not chk["feasible"]:
            return ["check found no certificate"]
        fails += checks.certificate_failures(self.supports, self.rel, chk["x"])
        bound = checks.violations_bound(chk["x"])

        quantum = self._result("solve-quantum")
        counts = np.asarray(quantum["violations"], dtype=float)
        if counts.size != p["traj"] or abs(counts.mean() - quantum["mean_violations"]) > 1e-12:
            fails.append("solve-quantum counts disagree with their mean")
        sigma = float(counts.std(ddof=1)) / math.sqrt(counts.size)
        fails += checks.at_most(counts.mean(), bound, sigma, "solve-quantum mean violations")

        tree = self._result("witness")["tree"]["labels"]
        if tree[0] != prefix[-1]:
            fails.append(f"witness root {tree[0]} is not the logged label {prefix[-1]}")
        if not set(tree) <= set(prefix):
            fails.append(f"witness labels {tree} outside the log prefix {prefix}")

        exact = self._result("exact-solve")
        runs = p["runs"]
        target = 1.0 - 1.0 / 2
        fails += checks.at_least(
            exact["success_frequency"], target, math.sqrt(target * (1.0 - target) / runs),
            "exact-solve success frequency")
        if exact["min_success_overlap"] is None or (
                exact["min_success_overlap"] < checks.OVERLAP_FLOOR):
            fails.append(f"exact-solve overlap {exact['min_success_overlap']}")

        conv = self._result("converge")
        eps = p["epsilon"]
        sigma = 0.5 / math.sqrt(p["samples"])
        for i, v in enumerate(conv["mean_violation_prob"]):
            fails += checks.at_most(v, eps, sigma, f"converge violation of event {i}")
        fails += checks.at_least(
            conv["ground_overlap"], 1.0 - eps, sigma, "converge ground overlap")

        sat = self._result("solve-classical")
        if not sat["satisfied"]:
            fails.append("solve-classical exhausted its budget")
        fails += checks.unsatisfied_clauses(self.clauses, sat["assignment"])
        if sat["resamples"] != len(sat["log"]["entries"]):
            fails.append("solve-classical resample count differs from its log")
        return fails

    def run_level_checks(self):
        """A repeated command line must give byte-identical output."""
        argv, first = self.first_quantum
        if cli.main(argv) != 0:
            return ["repeated solve-quantum failed"]
        with open(argv[-1], "rb") as fh:
            again = fh.read()
        return [] if again == first else ["repeated solve-quantum output differs"]

    def close(self):
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)


def _local_unitary(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class ExactChannel(Workload):
    """Dense density operators: the averaged measure-and-refresh channel on a
    diagonal instance, then halting operators of a non-commuting one."""

    name = "exact-channel"
    # base of the non-commuting instance: supports and the generator seed
    HALT_SUPPORTS = [(0, 1, 2), (3, 4, 5), (1, 4)]
    HALT_BASE_SEED = 3
    sizes = {
        "full": {"events": 4, "t": 3, "halt_n": 6},
        "small": {"events": 2, "t": 2, "halt_n": 6},
    }

    def setup(self):
        n, supports = ring_supports(self.p["events"])
        bad = flipped_chain(n, supports, self.seed)
        self.diag = diagonal_instance(n, supports, bad)
        self.rho0 = np.eye(2 ** n) / 2 ** n
        self.want_overlap, self.want_viols = checks.markov_series(
            [[s] for s in bad], supports, n, self.p["t"])
        # a fixed non-commuting instance turned by a seeded product of
        # single-qubit unitaries: the spectrum and every halting
        # probability are the same for all seeds
        hn = self.p["halt_n"]
        base = make_rng(self.HALT_BASE_SEED)
        turn = [_local_unitary(make_rng(child_seed(self.seed, 1, q))) for q in range(hn)]
        events = []
        for sup in self.HALT_SUPPORTS:
            u = np.eye(1)
            for q in sup:
                u = np.kron(u, turn[q])
            p = random_rank_projector(2 ** len(sup), 1, base)
            events.append((sup, u @ p @ u.conj().T))
        self.halt = QlllInstance.build(hn, 2, events)
        self.ground_dim = checks.kernel_dimension(
            [m for _, m in events], self.HALT_SUPPORTS, hn, 2)

    def run(self, k):
        series = bench.cp_map_iterate(self.diag, self.rho0, self.p["t"])
        channels = oracles.build_channels(self.halt)
        probs = [oracles.halting_operator(self.halt, a, channels).probability
                 for a in range(self.halt.m)]
        return series, probs

    def check(self, k, out):
        series, probs = out
        fails = checks.series_failures(
            series.ground_overlap, series.violation_probs,
            self.want_overlap, self.want_viols)
        fails += checks.density_failures(series.rho_final)
        fails += checks.halting_sum_failures(
            math.fsum(probs), self.ground_dim, self.halt.shape.dim)
        return fails


class Combinatorics(Workload):
    """Branching-process samples, the classical resampling solver and a
    certificate search on a sparse instance with many events."""

    name = "combinatorics"
    FORMULAS = 4
    sizes = {
        "full": {"gw_events": 6, "samples": 5000, "clauses": 800, "cert_events": 300},
        "small": {"gw_events": 3, "samples": 500, "clauses": 50, "cert_events": 20},
    }

    def setup(self):
        n, supports = ring_supports(self.p["gw_events"])
        self.gw = diagonal_instance(n, supports, flipped_chain(n, supports, self.seed))
        self.gw_cert = instance.find_certificate(self.gw)
        verified_bound(self.gw, self.gw_cert)
        self.gw_graph = instance.intersection_graph(self.gw)
        self.gw_nbrs = checks.neighbours(supports)
        self.formulas = []
        for j in range(self.FORMULAS):
            text = bench.chain_cnf(self.p["clauses"], child_seed(self.seed, 2, j))
            self.formulas.append(
                (classical.instance_from_dimacs(text), checks.parse_dimacs(text)))
        n, self.sparse_supports = ring_supports(self.p["cert_events"])
        self.sparse = diagonal_instance(
            n, self.sparse_supports,
            flipped_chain(n, self.sparse_supports, child_seed(self.seed, 3)))
        self.sparse_rel = [1.0 / 8.0] * len(self.sparse_supports)

    def run(self, k):
        root = k % self.gw.m
        base = child_seed(self.seed, k, 0)
        trees = [witness.simulate_galton_watson(root, self.gw_cert, self.gw_graph, base + j)
                 for j in range(self.p["samples"])]
        formula, _ = self.formulas[k % self.FORMULAS]
        solved = classical.solve_classical(formula, child_seed(self.seed, k, 1))
        cert = instance.find_certificate(self.sparse)
        return root, trees, solved, cert

    def check(self, k, out):
        root, trees, solved, cert = out
        fails = checks.branching_failures(trees, root, self.gw_cert.x, self.gw_nbrs)
        if solved.exhausted:
            fails.append("solve_classical exhausted its budget")
        _, clauses = self.formulas[k % self.FORMULAS]
        fails += checks.unsatisfied_clauses(clauses, solved.assignment)
        if len(solved.log.entries) != solved.log.total_steps:
            fails.append(f"log has {len(solved.log.entries)} entries for "
                         f"{solved.log.total_steps} resamples")
        if cert is None:
            fails.append("no certificate for the sparse instance")
        else:
            fails += checks.certificate_failures(
                self.sparse_supports, self.sparse_rel, cert.x)
        return fails


WORKLOADS = {cls.name: cls for cls in (TrajectoryAudit, CliSession, ExactChannel, Combinatorics)}
