"""Dense tensor-network primitives on a register of n qudits of dimension d.

Convention, fixed project-wide: qudit 0 is the most significant tensor
factor, so a basis state |i_0 i_1 ... i_{n-1}> has index
i_0 d^{n-1} + i_1 d^{n-2} + ... + i_{n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import config


@dataclass(frozen=True)
class HilbertShape:
    """Register of n qudits, each of local dimension d."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qudit, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got d={self.d}")

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def check_budget(self, budget: int):
        if self.dim > budget:
            raise ValueError(
                f"total dimension {self.dim} exceeds the dense budget {budget}"
            )


def _validate_subset(qudits, n):
    qudits = tuple(int(q) for q in qudits)
    if len(qudits) == 0:
        raise ValueError("qudit subset must be non-empty")
    if len(set(qudits)) != len(qudits):
        raise ValueError(f"qudit subset has repeats: {qudits}")
    for q in qudits:
        if not 0 <= q < n:
            raise ValueError(f"qudit {q} outside register of {n} qudits")
    return qudits


def embed(local_op: np.ndarray, qudits, shape: HilbertShape) -> np.ndarray:
    """Extend an operator on the listed qudits to the full register.

    ``local_op`` acts on the subset in the order given by ``qudits``; identity
    is placed on every other qudit.
    """
    qudits = _validate_subset(qudits, shape.n)
    n, d = shape.n, shape.d
    k = len(qudits)
    dk = d ** k
    local_op = np.asarray(local_op, dtype=complex)
    if local_op.shape != (dk, dk):
        raise ValueError(
            f"operator on {k} qudits must be {dk} x {dk}, got {local_op.shape}"
        )
    rest = [q for q in range(n) if q not in qudits]
    big = np.kron(local_op, np.eye(d ** (n - k), dtype=complex))
    # big's tensor axes run over qudits in (subset order, then the rest);
    # permute rows and columns back to register order 0..n-1
    perm = list(qudits) + rest
    src = [perm.index(q) for q in range(n)]
    tensor = big.reshape((d,) * (2 * n))
    tensor = tensor.transpose(src + [n + s for s in src])
    return np.ascontiguousarray(tensor.reshape(shape.dim, shape.dim))


def partial_trace(op: np.ndarray, traced_qudits, shape: HilbertShape) -> np.ndarray:
    """Trace out the listed qudits, keeping the rest in register order."""
    traced = _validate_subset(traced_qudits, shape.n)
    n, d = shape.n, shape.d
    if len(traced) == n:
        return np.array([[np.trace(op)]], dtype=complex)
    tensor = np.asarray(op, dtype=complex).reshape((d,) * (2 * n))
    remaining = n
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + remaining)
        remaining -= 1
    dim = d ** remaining
    return tensor.reshape(dim, dim)


def nonzero_states(a: np.ndarray):
    """Local basis states where the square matrix a has a nonzero row or
    column, or None when that is all of them."""
    nz = a != 0
    keep = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
    return None if keep.size == a.shape[0] else keep


class LocalPlan:
    """Axis bookkeeping for applying a k-local operator on the register.

    A block of B state rows reshapes to a (d^k, B * rest) matrix: the listed
    qudits lead, in the order given, then the row, then the remaining qudits
    in register order, so one matrix product applies a local operator to
    every row.  Operators reshape to (d^k, rest * rest * d^k) blocks: the
    listed qudits lead the row index and trail the column index, so a local
    matrix acts on either side through one contiguous matrix product.  The
    remaining qudits keep register order on both sides.

    index gives the register position of every (local state, rest) entry, so
    the rows and columns of a few local basis states are addressed by
    position alone: state rows and op[pos] and the flat positions of
    op[:, pos] for operators.  The plan holds no event data; each event's
    positions, and all else derived from it, live on its EventBlock.
    """

    def __init__(self, n: int, d: int, qudits: tuple):
        self.qudits = tuple(qudits)
        self.n = n
        rest = tuple(q for q in range(n) if q not in self.qudits)
        self.k = len(self.qudits)
        self.d = d
        self.dim = d ** n
        self.dk = d ** self.k
        self.rest_dim = d ** (n - self.k)
        self.fwd = self.qudits + rest
        self.local_powers = d ** np.arange(self.k - 1, -1, -1)
        # rows tensor: axis 0 is the row (length inferred), axes 1..n the qudits
        perm = tuple(q + 1 for q in self.qudits) + (0,) + tuple(q + 1 for q in rest)
        shape, axes = self._rows_fwd = _merged_transpose(perm, (-1,) + (d,) * n)
        # the same merged axes, moved back
        self._rows_inv = (
            tuple(shape[a] for a in axes),
            tuple(sorted(range(len(axes)), key=axes.__getitem__)),
        )

    def to_front(self, states: np.ndarray) -> np.ndarray:
        """Reshape (B, D) state rows to their (dk, B * rest) block."""
        shape, axes = self._rows_fwd
        return states.reshape(shape).transpose(axes).reshape(self.dk, -1)

    def from_front(self, block: np.ndarray) -> np.ndarray:
        """Inverse of to_front: a (dk, B * rest) block back to (B, D) rows."""
        shape, axes = self._rows_inv
        return block.reshape(shape).transpose(axes).reshape(-1, self.dim)

    @cached_property
    def index(self) -> np.ndarray:
        """(dk, rest) register positions of the front block's entries."""
        return self.to_front(np.arange(self.dim)[None])

    # operator layout, built on first use: state-only plans stay cheap
    @cached_property
    def _op_perms(self):
        n = self.n
        rest = self.fwd[self.k:]
        fwd = self.fwd + tuple(n + q for q in rest + self.qudits)
        inv = tuple(int(i) for i in np.argsort(fwd))
        sizes = (self.d,) * (2 * n)
        return _merged_transpose(fwd, sizes), _merged_transpose(inv, sizes)

    def op_to_local(self, op: np.ndarray) -> np.ndarray:
        """Reshape a D x D operator to its (dk, rest * rest * dk) block."""
        shape, axes = self._op_perms[0]
        return np.asarray(op).reshape(shape).transpose(axes).reshape(self.dk, -1)

    def op_from_local(self, block: np.ndarray) -> np.ndarray:
        shape, axes = self._op_perms[1]
        return block.reshape(shape).transpose(axes).reshape(self.dim, self.dim)

    @cached_property
    def reduce_index(self) -> np.ndarray:
        """(dk, dk, rest) flat positions of op[(a, r), (b, r)] in a D x D
        operator: ``op.take(reduce_index).sum(axis=2)`` traces out the
        remaining qudits, leaving the listed ones in the order given."""
        idx = self.index
        return idx[:, None, :] * self.dim + idx[None, :, :]


class EventBlock:
    """The one record of an event, shared by the state-vector step and the
    density channels.  plan is its support's layout; p the local matrix on
    the local basis states K where it is nonzero (nonzero_states; the whole
    matrix when that is all of them); pos the (|K|, rest) register positions
    of K's states, from plan.index (None when K is every local state); both
    read-only.  factor, comp and trace_read are built on first use; gather
    and scatter read and write state rows at K's positions."""

    def __init__(self, event, plan: LocalPlan):
        self.event = event
        self.plan = plan
        a = event.local_matrix
        keep = nonzero_states(a)
        self.p = a.copy() if keep is None else a[np.ix_(keep, keep)]
        self.pos = None if keep is None else plan.index[keep]
        for arr in (self.p, self.pos):
            if arr is not None:
                arr.setflags(write=False)

    @cached_property
    def factor(self) -> tuple:
        """(V, V^dag), the range factor of P = V V^dag on K, checked against
        p at 1e-12.  P is zero off K, so a state with no amplitude there has
        weight exactly 0."""
        evals, evecs = np.linalg.eigh(self.p)
        v = evecs[:, evals > 0.5]
        drift = float(np.abs(v @ v.conj().T - self.p).max(initial=0.0))
        if drift > 1e-12:
            raise ValueError(
                f"projector {self.event.id}: range factor misses the matrix by {drift:.3e}"
            )
        return np.ascontiguousarray(v), np.ascontiguousarray(v.conj().T)

    @cached_property
    def comp(self) -> np.ndarray:
        """I - p: the complement's local matrix when pos is None."""
        return np.eye(len(self.p)) - self.p

    @cached_property
    def trace_read(self) -> tuple:
        """(at, weights) with tr(P op) = op.take(at) @ weights for a D x D
        op: the flat positions of the at most D d^k entries op[(a, r), (b, r)]
        that meet a nonzero P[b, a], and those entries of P."""
        weights = self.event.local_matrix.T
        nonzero = weights != 0
        at = self.plan.reduce_index[nonzero]
        return at.ravel(), np.repeat(weights[nonzero], at.shape[1])

    def gather(self, states: np.ndarray, rows) -> np.ndarray:
        """The front block of states[rows] on K, (|K|, B * rest); rows None
        is every row, with no row copy."""
        plan, pos = self.plan, self.pos
        if pos is None:
            return plan.to_front(states if rows is None else states[rows])
        rows = np.arange(len(states)) if rows is None else rows
        block = states[rows[None, :, None], pos[:, None, :]]
        return block.reshape(len(pos), rows.size * plan.rest_dim)

    def scatter(self, states: np.ndarray, rows: np.ndarray, block: np.ndarray):
        """Write a block of gather's shape back into states[rows]."""
        pos = self.pos
        if pos is None:
            states[rows] = self.plan.from_front(block)
        else:
            states[rows[None, :, None], pos[:, None, :]] = block.reshape(len(pos), rows.size, self.plan.rest_dim)


class EventTable:
    """The register layout of an instance's events, shared by the
    state-vector step and the density channels: one LocalPlan per distinct
    support and one EventBlock per id, each built on first use.  The block
    is the one record of what is derived from an event.  events are the
    instance's projectors (each with id, qudits and local_matrix)."""

    def __init__(self, events, n: int, d: int):
        self.events = tuple(events)
        self.m = len(self.events)
        self.n = n
        self.d = d
        self._layouts = {}
        self._blocks = {}

    def layout(self, qudits: tuple) -> LocalPlan:
        """The LocalPlan of a tuple of qudits, one per distinct tuple."""
        plan = self._layouts.get(qudits)
        if plan is None:
            plan = self._layouts[qudits] = LocalPlan(self.n, self.d, qudits)
        return plan

    def block(self, i: int) -> EventBlock:
        b = self._blocks.get(i)
        if b is None:
            event = self.events[i]
            b = self._blocks[i] = EventBlock(event, self.layout(event.qudits))
        return b


def _merged_transpose(perm, sizes):
    """Reshape and axis order equal to ``transpose(perm)`` on a tensor with
    axis lengths ``sizes``, with axes that stay adjacent merged.

    Fewer, longer axes make the copy behind the transpose much cheaper.  One
    length may be -1 for numpy to infer; the merged axis holding it is -1.
    """
    runs = []
    for a in perm:
        if runs and runs[-1][-1] + 1 == a:
            runs[-1].append(a)
        else:
            runs.append([a])
    by_source = sorted(range(len(runs)), key=lambda i: runs[i][0])
    shape = tuple(max(-1, math.prod(sizes[a] for a in runs[i])) for i in by_source)
    where = {r: j for j, r in enumerate(by_source)}
    return shape, tuple(where[i] for i in range(len(runs)))


def sandwich_local(left: np.ndarray, op: np.ndarray, right: np.ndarray,
                   plan: LocalPlan) -> np.ndarray:
    """L op R for d^k x d^k matrices L, R acting on the plan's qudits.

    Equal to embed(L) @ op @ embed(R) at O(D^2 d^k) cost instead of O(D^3).
    """
    block = left @ plan.op_to_local(op)
    block = block.reshape(-1, plan.dk) @ right
    return plan.op_from_local(block)


def refill_mixed(reduced: np.ndarray, plan: LocalPlan) -> np.ndarray:
    """reduced on the remaining qudits (register order), tensored with the
    maximally mixed state on the plan's qudits, as a D x D operator."""
    r = plan.rest_dim
    block = np.zeros((plan.dk, r, r, plan.dk), dtype=complex)
    diag = np.arange(plan.dk)
    block[diag, :, :, diag] = np.asarray(reduced).reshape(r, r) / plan.dk
    return plan.op_from_local(block)


class PsdViolation(NamedTuple):
    """The test psd_violation failed: "finite", with max|h| (NaN or
    infinite); "hermitian", with the asymmetry max|h - h^dag|; or "psd",
    with the least eigenvalue of h's Hermitian part."""

    test: str
    value: float


def psd_violation(h: np.ndarray) -> PsdViolation | None:
    """None when h is Hermitian PSD, else the test it fails.

    Finite: no entry NaN or infinite.  Hermitian: max|h - h^dag| <=
    config.HERMITIAN_TOL * max(1, max|h|).  PSD: no eigenvalue of the
    Hermitian part h - skew/2 below -config.PSD_TOL.  Gershgorin discs of
    that part decide first in O(D^2), else Cholesky of the part + tol I;
    eigvalsh runs only when that fails, and decides."""
    a = np.abs(h)
    size = float(a.max(initial=0.0))
    # a NaN or infinite entry makes size NaN or infinite; h - h^dag would
    # then form inf - inf
    if not math.isfinite(size):
        return PsdViolation("finite", size)
    skew = h - h.conj().T
    asym = float(np.abs(skew).max(initial=0.0))
    if not asym <= config.HERMITIAN_TOL * max(1.0, size):
        return PsdViolation("hermitian", asym)
    tol = config.PSD_TOL
    # (|h_ij| + |h_ji|) / 2 bounds the Hermitian part's entries
    np.fill_diagonal(a, 0.0)
    if (h.diagonal().real - (a.sum(axis=0) + a.sum(axis=1)) / 2).min(initial=np.inf) >= -tol:
        return None
    h = h - skew / 2
    try:
        np.linalg.cholesky(h + tol * np.eye(len(h)))
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(h)[0])
        return None if lo >= -tol else PsdViolation("psd", lo)
    return None


def min_slack(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest eigenvalue of Y - X; negative values witness that X <= Y
    fails in the PSD order."""
    diff = np.asarray(y, dtype=complex) - np.asarray(x, dtype=complex)
    return float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator; one seed fixes the whole stream."""
    return np.random.Generator(np.random.Philox(seed))
