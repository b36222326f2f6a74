"""Reference computations shared by the tests."""

import numpy as np

from qlll import config
from qlll.instance import QlllInstance, basis_projector, random_rank_projector
from qlll.tensor import embed, is_hermitian

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kernel_projector(op, tol=config.KERNEL_EIG_TOL):
    """Orthogonal projector onto the (near-)zero eigenspace of a Hermitian op."""
    op = np.asarray(op, dtype=complex)
    if not is_hermitian(op):
        raise ValueError("kernel_projector needs a Hermitian operator")
    evals, evecs = np.linalg.eigh((op + op.conj().T) / 2)
    cutoff = tol * max(1.0, float(evals[-1]) if evals.size else 1.0)
    cols = evecs[:, evals < cutoff]
    return cols @ cols.conj().T


def dense_refresh(op, qudits, shape):
    """(1/d^k) sum_ab E_ab op E_ba over the matrix units of the support:
    the partial trace over the support, refilled maximally mixed."""
    dk = shape.d ** len(qudits)
    units = [embed(np.eye(dk)[:, [a]] @ np.eye(dk)[[b]], qudits, shape)
             for a in range(dk) for b in range(dk)]
    return sum(u @ op @ u.T for u in units) / dk


def hadamard_chain():
    """|11> on (0, 1) and (1, 2), |0> on 2, turned by a Hadamard on every
    qubit: commuting events with dense local matrices and no certificate."""
    hh = np.kron(HADAMARD, HADAMARD)
    p11 = hh @ basis_projector(4, [3]) @ hh
    p0 = HADAMARD @ basis_projector(2, [0]) @ HADAMARD
    return QlllInstance.build(3, 2, [((0, 1), p11), ((1, 2), p11), ((2,), p0)])


def basis_ring(turn=False):
    """Commuting ring of four |111> events on (2i, 2i+1, 2i+2 mod 8); with
    turn, every qubit is turned by a Hadamard."""
    p111 = basis_projector(8, [7])
    if turn:
        h3 = np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD)
        p111 = h3 @ p111 @ h3
    return QlllInstance.build(8, 2, [((2 * i, 2 * i + 1, (2 * i + 2) % 8), p111)
                                     for i in range(4)])


def hadamard_ring():
    return basis_ring(turn=True)


def random_qubit_pair():
    """Random rank-1 events on qubits 0 and 1: complex, commuting."""
    rng = np.random.default_rng(5)
    return QlllInstance.build(
        2, 2, [((q,), random_rank_projector(2, 1, rng)) for q in (0, 1)]
    )
