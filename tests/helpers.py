"""Reference computations shared by the tests."""

import numpy as np

from qlll import config
from qlll.tensor import embed, is_hermitian


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
