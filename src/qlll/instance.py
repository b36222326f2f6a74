"""Instance model for quantum local-lemma workloads.

An instance is a list of local projectors, each marking the *bad* subspace of
the qudits it acts on.  This module owns the intersection structure between
events, relative dimensions, Lovasz-condition checking with the epsilon
strengthening, certificate search, and the spectral summary (gap, kernel
projector) used by the convergence analyses.  event_table is the one stored
form of every event and its register layout; spectral_report, the only place
the averaged Hamiltonian and its kernel projector are built, reads the events
through it.  Each is built once per instance and shared read-only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import InvariantError
from .tensor import EventTable, HilbertShape, _validate_subset, embed, make_rng, psd_violation


@dataclass(frozen=True)
class Projector:
    """A local projector onto the bad subspace of an ordered qudit subset."""

    id: int
    qudits: tuple
    local_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "qudits", tuple(int(q) for q in self.qudits))
        m = np.asarray(self.local_matrix, dtype=complex)
        object.__setattr__(self, "local_matrix", m)
        if not self.qudits:
            raise ValueError("projector must act on at least one qudit")
        if len(set(self.qudits)) != len(self.qudits):
            raise ValueError("projector qudits repeat")
        if any(q < 0 for q in self.qudits):
            raise ValueError("negative qudit index")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("local matrix must be square")
        if (bad := psd_violation(m)) is not None and bad.test == "hermitian":
            raise ValueError("local matrix is not Hermitian")
        if np.abs(m @ m - m).max() > config.IDEMPOTENT_TOL:
            raise ValueError("local matrix is not idempotent")
        tr = np.trace(m).real
        if abs(tr - round(tr)) > config.RANK_INTEGER_TOL:
            raise ValueError(f"projector trace {tr} is not an integer")

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.local_matrix).real))


class QlllInstance:
    """Immutable collection of bad-event projectors on a shared register.

    The commutation flag is tri-state: "unchecked" until someone asks, then
    "commuting" or "noncommuting" for good.
    """

    def __init__(self, shape: HilbertShape, projectors):
        self.shape = shape
        self.projectors = tuple(projectors)
        self._spectral = None
        self._events = None  # EventTable, see event_table
        self._commuting = None
        for i, p in enumerate(self.projectors):
            if p.id != i:
                raise ValueError("projector ids must be 0..m-1 in order")
            if any(q >= shape.n for q in p.qudits):
                raise ValueError(f"projector {i} touches qudit outside the register")
            want = shape.d ** len(p.qudits)
            if p.local_matrix.shape != (want, want):
                raise ValueError(
                    f"projector {i} matrix is {p.local_matrix.shape}, expected {want}x{want}"
                )

    @classmethod
    def build(cls, n: int, d: int, event_list) -> "QlllInstance":
        """Construct from (qudits, local_matrix) pairs, assigning ids in order."""
        pros = [Projector(i, tuple(q), m) for i, (q, m) in enumerate(event_list)]
        return cls(HilbertShape(n, d), pros)

    @property
    def m(self) -> int:
        return len(self.projectors)

    def embedded(self, i: int) -> np.ndarray:
        """Projector i on the full register: a dense reference, built per call."""
        self.shape.check_budget(config.DENSITY_BUDGET_D)
        p = self.projectors[i]
        return embed(p.local_matrix, p.qudits, self.shape)

    def relative_dimensions(self) -> np.ndarray:
        return np.array([relative_dimension(p, self.shape) for p in self.projectors])

    def is_commuting(self) -> bool:
        """Pairwise commutation of all embedded projectors, checked locally.

        Disjoint pairs commute for free; overlapping pairs are compared after
        embedding both into their joint qudit subset, which is equivalent to
        the full-register commutator and much cheaper.
        """
        if self._commuting is None:
            self._commuting = all(
                self._pair_commutes(i, j)
                for i in range(self.m)
                for j in range(i + 1, self.m)
            )
        return self._commuting

    def _pair_commutes(self, i: int, j: int) -> bool:
        pi, pj = self.projectors[i], self.projectors[j]
        if not set(pi.qudits) & set(pj.qudits):
            return True
        union = sorted(set(pi.qudits) | set(pj.qudits))
        pos = {q: idx for idx, q in enumerate(union)}
        mini = HilbertShape(len(union), self.shape.d)
        a = embed(pi.local_matrix, [pos[q] for q in pi.qudits], mini)
        b = embed(pj.local_matrix, [pos[q] for q in pj.qudits], mini)
        return np.abs(a @ b - b @ a).max() <= config.COMMUTE_TOL


@dataclass(frozen=True)
class IntersectionGraph:
    """Adjacency between events that share at least one qudit."""

    neighbors: tuple  # tuple of frozensets, excluding self

    @property
    def size(self) -> int:
        return len(self.neighbors)

    def gamma(self, i: int) -> frozenset:
        return self.neighbors[i]

    def gamma_plus(self, i: int) -> frozenset:
        return self.neighbors[i] | {i}

    @functools.cached_property
    def gamma_plus_sorted(self) -> tuple:
        """gamma_plus(i) for every i as a tuple in increasing id order; built
        on first use and kept on the graph."""
        return tuple(tuple(sorted(nb | {i})) for i, nb in enumerate(self.neighbors))


def support_graph(supports) -> IntersectionGraph:
    """Events adjacent when their supports (qudits or variables) overlap.

    Works from an element -> events index, so the cost grows with the
    number of adjacent pairs rather than with all m^2 pairs.
    """
    supports = [tuple(s) for s in supports]
    holders = {}
    for i, sup in enumerate(supports):
        for q in sup:
            holders.setdefault(q, []).append(i)
    # ids enter each set in increasing order, which fixes its iteration
    # order and with it the rounding of products taken over a neighbourhood
    return IntersectionGraph(tuple(
        frozenset(sorted({j for q in sup for j in holders[q]} - {i}))
        for i, sup in enumerate(supports)
    ))


def intersection_graph(inst: QlllInstance) -> IntersectionGraph:
    return support_graph(p.qudits for p in inst.projectors)


def relative_dimension(p: Projector, shape: HilbertShape) -> float:
    """rank / dimension, identical for the local matrix and its embedding."""
    return np.trace(p.local_matrix).real / shape.d ** len(p.qudits)


@dataclass(frozen=True)
class LovaszCertificate:
    """Values 0 <= x_i <= 1 with the damped products x'_i precomputed."""

    x: tuple
    epsilon: float
    x_prime: tuple


def _x_prime(x, graph: IntersectionGraph):
    return tuple(
        x[i] * math.prod(1.0 - x[j] for j in graph.gamma(i)) for i in range(len(x))
    )


def certificate_from_x(x, epsilon: float, graph: IntersectionGraph) -> LovaszCertificate:
    x = tuple(float(v) for v in x)
    if len(x) != graph.size:
        raise ValueError("certificate length does not match the instance")
    if any(v < 0.0 or v > 1.0 for v in x):
        raise ValueError("certificate values must lie in [0, 1]")
    if epsilon < 0.0 or epsilon >= 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    return LovaszCertificate(x, float(epsilon), _x_prime(x, graph))


@dataclass(frozen=True)
class LovaszCheck:
    ok: bool
    slacks: np.ndarray = field(repr=False)


def check_lovasz(inst: QlllInstance, cert: LovaszCertificate) -> LovaszCheck:
    """Does every event satisfy R(event) <= (1-eps) * x'_i?

    slack_i = (1-eps) x'_i - R_i; negative slack beyond the tolerance fails.
    """
    if len(cert.x) != inst.m:
        raise ValueError("certificate length does not match the instance")
    return _check_lovasz(cert, intersection_graph(inst), inst.relative_dimensions())


def _check_lovasz(cert: LovaszCertificate, graph: IntersectionGraph, r) -> LovaszCheck:
    recomputed = _x_prime(cert.x, graph)
    if any(abs(a - b) > 1e-12 for a, b in zip(recomputed, cert.x_prime)):
        raise ValueError("certificate x_prime is inconsistent with its x values")
    slacks = (1.0 - cert.epsilon) * np.array(cert.x_prime) - r
    ok = bool((slacks >= -config.LOVASZ_SLACK_TOL).all())
    return LovaszCheck(ok, slacks)


def find_certificate(inst: QlllInstance, epsilon: float = 0.0):
    """Search for Lovasz values by monotone fixed-point iteration.

    Starting from x = R/(1-eps) and sweeping x_i <- R_i / ((1-eps) *
    prod_{j ~ i} (1-x_j)) only ever increases x, so the least fixed point is
    reached whenever one exists below 1.  Returns a certificate that
    check_lovasz accepts, or None when the search fails;
    checked_certificate_search also gives the reason.
    """
    return checked_certificate_search(inst, epsilon)[0]


def checked_certificate_search(inst: QlllInstance, epsilon: float = 0.0):
    """find_certificate with the reason a search failed and the final
    check_lovasz result it ran: (cert, None, check) on success, else
    (None, reason, None) where reason is

    - "infeasible": a value climbed past CERT_X_CEILING; the iteration is
      monotone, so no fixed point lies below the ceiling;
    - "sweep_cap": CERT_MAX_SWEEPS sweeps ran and the values still moved,
      as they do near the critical point;
    - "check_failed": the values converged but missed an inequality by more
      than LOVASZ_SLACK_TOL.

    Each sweep is one numpy pass.  Neighbours are taken in increasing id
    order and np.multiply.reduceat multiplies each segment left to right,
    so every product has the bits of the scalar loop it replaced.
    """
    if epsilon < 0.0 or epsilon >= 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    graph = intersection_graph(inst)
    r = inst.relative_dimensions()
    if inst.m == 0:
        cert = certificate_from_x((), epsilon, graph)
        return cert, None, _check_lovasz(cert, graph, r)
    x = r / (1.0 - epsilon)
    if (x >= config.CERT_X_CEILING).any():
        return None, "infeasible", None
    gamma = [sorted(graph.gamma(i)) for i in range(inst.m)]
    flat = np.fromiter((j for g in gamma for j in g), dtype=np.intp)
    sizes = np.array([len(g) for g in gamma])
    held = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[held]
    prod = np.ones(inst.m)
    for _ in range(config.CERT_MAX_SWEEPS):
        if flat.size:
            prod[held] = np.multiply.reduceat(1.0 - x[flat], starts)
        new = r / ((1.0 - epsilon) * prod)
        if (new >= config.CERT_X_CEILING).any():
            return None, "infeasible", None
        change = np.abs(new - x).max()
        x = new
        if change < config.CERT_SUP_CHANGE_TOL:
            cert = certificate_from_x(x, epsilon, graph)
            check = _check_lovasz(cert, graph, r)
            if not check.ok:
                return None, "check_failed", None
            return cert, None, check
    return None, "sweep_cap", None


def symmetric_condition(k: int, r: int, max_occurrence: int) -> bool:
    """Symmetric criterion: at most 2^k/(e r k) rank-1 k-qubit events may
    share any qudit."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be at least 1")
    if max_occurrence < 0:
        raise ValueError("max_occurrence must be non-negative")
    return max_occurrence <= 2.0 ** k / (math.e * r * k)


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum of the averaged bad-event Hamiltonian H = (1/m) sum_i P_i."""

    eigenvalues: np.ndarray = field(repr=False)
    delta: float
    ground_dim: int
    p0: np.ndarray = field(repr=False)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def gap(self) -> float:
        """Least average violation weight over states outside the good space:
        the gap when that space is nonempty, else the bottom of the spectrum."""
        return self.delta if self.ground_dim > 0 else self.ground_energy


def event_table(inst: QlllInstance) -> EventTable:
    """Where the instance's events sit on its register, for both engines.

    Built on first use and kept on the instance, like its spectral report,
    so every run and every channel set shares one layout per support and
    one nonzero block per event.
    """
    if inst._events is None:
        inst._events = EventTable(inst.projectors, inst.shape.n, inst.shape.d)
    return inst._events


def spectral_report(inst: QlllInstance) -> SpectralReport:
    """Eigenvalues of H, the gap to the second distinct level, and the
    projector onto the zero eigenspace (the good subspace, when it exists).

    Computed on the first call and kept on the instance; its arrays are
    read-only because every caller shares them.
    """
    if inst._spectral is not None:
        return inst._spectral
    if inst.m == 0:
        raise ValueError("spectral report needs at least one projector")
    inst.shape.check_budget(config.DENSITY_BUDGET_D)
    D = inst.shape.dim
    # every block added at its register positions, in id order: the sum of the
    # embedded projectors less its additions of exact zeros, so the same bits
    blocks = [event_table(inst).block(i) for i in range(inst.m)]
    at = [b.plan.index if b.pos is None else b.pos for b in blocks]
    h = np.zeros((D, D), dtype=complex)
    for b, pos in zip(blocks, at):
        h[pos[:, None, :], pos[None, :, :]] += b.p[:, :, None]
    h /= inst.m
    ev, vecs = np.linalg.eigh(h)

    above = ev[ev > ev[0] + config.EIG_DISTINCT_TOL]
    delta = float(above[0] - ev[0]) if above.size else 0.0

    zero_cut = config.KERNEL_EIG_TOL * max(1.0, float(ev[-1]) if ev.size else 1.0)
    zero_sel = ev < zero_cut
    ground_dim = int(zero_sel.sum())
    vz = vecs[:, zero_sel]
    p0 = vz @ vz.conj().T

    if ground_dim and abs(ev[0]) < config.EIG_DISTINCT_TOL:
        for i, (b, pos) in enumerate(zip(blocks, at)):
            # P_i p0 is p times p0's rows at K's positions, zero elsewhere
            rows = p0[pos].reshape(len(pos), D * b.plan.rest_dim)
            leak = float(np.abs(b.p @ rows).max(initial=0.0))
            if leak > 1e-8:
                raise InvariantError(
                    f"kernel projector is not annihilated by event {i} ({leak:.3e})",
                    leak,
                )
    if (
        ground_dim
        and np.abs(ev - 1.0 / inst.m).min() < config.EIG_DISTINCT_TOL
        and abs(delta - 1.0 / inst.m) > 1e-8
        and inst.is_commuting()
    ):
        raise InvariantError(
            f"commuting instance should have gap 1/m here, got {delta:.3e}", delta
        )
    ev.setflags(write=False)
    p0.setflags(write=False)
    inst._spectral = SpectralReport(ev, delta, ground_dim, p0)
    return inst._spectral


def basis_projector(dim: int, states) -> np.ndarray:
    """Projector onto the listed computational-basis states."""
    states = [int(s) for s in states]
    if len(set(states)) != len(states):
        raise ValueError("basis states repeat")
    if any(s < 0 or s >= dim for s in states):
        raise ValueError("basis state out of range")
    p = np.zeros((dim, dim), dtype=complex)
    for s in states:
        p[s, s] = 1.0
    return p


def random_rank_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random rank-r projector via QR of a complex Gaussian block."""
    if rank < 0 or rank > dim:
        raise ValueError("rank out of range")
    if rank == 0:
        return np.zeros((dim, dim), dtype=complex)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def _projector_from_json(entry: dict, index: int, shape: HilbertShape) -> Projector:
    """Every integer is read with operator.index, so 0.5 or 1e400 is refused
    rather than truncated; the qudits are checked against the register and
    the local dimension against config.STATE_BUDGET_D before any matrix is
    built."""
    qudits = _validate_subset(map(operator.index, entry["qudits"]), shape.n)
    dim = shape.d ** len(qudits)
    if dim > config.STATE_BUDGET_D:
        raise ValueError(
            f"projector {index}: local dimension {dim} exceeds the dense budget "
            f"{config.STATE_BUDGET_D}"
        )
    kind = entry.get("kind")
    if "matrix" in entry:
        raw = np.asarray(entry["matrix"], dtype=float)
        if raw.shape != (dim, dim, 2):
            raise ValueError(f"projector {index}: matrix shape {raw.shape} invalid")
        m = raw[..., 0] + 1j * raw[..., 1]
    elif kind == "basis":
        m = basis_projector(dim, [operator.index(s) for s in entry["states"]])
    elif kind == "rank_random":
        rng = make_rng(operator.index(entry["seed"]))
        m = random_rank_projector(dim, operator.index(entry["rank"]), rng)
    else:
        raise ValueError(f"projector {index}: unknown kind {kind!r}")
    return Projector(index, qudits, m)


def instance_from_dict(data: dict) -> QlllInstance:
    shape = HilbertShape(operator.index(data["n"]), operator.index(data["d"]))
    pros = [
        _projector_from_json(entry, i, shape) for i, entry in enumerate(data["projectors"])
    ]
    return QlllInstance(shape, pros)


def instance_to_dict(inst: QlllInstance) -> dict:
    pros = []
    for p in inst.projectors:
        m = p.local_matrix
        # adding 0.0 flushes negative zeros so equal matrices hash equally
        parts = np.stack([m.real + 0.0, m.imag + 0.0], axis=-1)
        pros.append({"qudits": list(p.qudits), "matrix": parts.tolist()})
    return {"n": inst.shape.n, "d": inst.shape.d, "projectors": pros}


def instance_digest(inst: QlllInstance) -> str:
    """Stable content hash used to stamp logs and reports."""
    payload = json.dumps(instance_to_dict(inst), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
