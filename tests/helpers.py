"""Reference computations shared by the tests."""

import numpy as np

from qlll import config
from qlll.instance import QlllInstance, basis_projector, random_rank_projector
from qlll.oracles import _outcome, _report_entry, build_channels, halting_operator
from qlll.tensor import embed, min_slack, psd_violation

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# the dense references below build D^2 x D^2 matrices: 256 MiB at D = 64
SUPEROP_BUDGET_D = 64
PINV_RCOND = 1e-12             # singular values below rcond * sigma_max are zero


def kernel_projector(op, tol=config.KERNEL_EIG_TOL):
    """Orthogonal projector onto the (near-)zero eigenspace of a Hermitian op."""
    op = np.asarray(op, dtype=complex)
    if (bad := psd_violation(op)) is not None and bad.test != "psd":
        raise ValueError("kernel_projector needs a finite Hermitian operator")
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


def two_qubit_chain():
    """Non-commuting: a Bell-type event on (0, 1), |++> on (1, 2), |+> on 2."""
    s = 1 / np.sqrt(2)
    bell = np.outer([0, s, s, 0], [0, s, s, 0])
    plus = np.full((2, 2), 0.5)
    return QlllInstance.build(3, 2, [((0, 1), bell), ((1, 2), np.kron(plus, plus)), ((2,), plus)])


def vectorize(op):
    """Column-stacking vec of a square matrix, so vec(A X B) = (B^T kron A) vec(X)."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    return op.flatten(order="F")


def devectorize(vec):
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec)
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError(f"vector of length {vec.size} is not a square matrix")
    return vec.reshape(dim, dim, order="F")


def pseudoinverse(op):
    """Moore-Penrose pseudoinverse with the relative singular-value cutoff
    PINV_RCOND."""
    return np.linalg.pinv(np.asarray(op, dtype=complex), rcond=PINV_RCOND)


def channel_matrix(fn, shape):
    """The D^2 x D^2 matrix of a linear map on D x D operators, on
    column-stacked vectors, built one matrix unit at a time."""
    D = shape.dim
    mat = np.zeros((D * D, D * D), dtype=complex)
    unit = np.zeros((D, D), dtype=complex)
    for col in range(D * D):
        unit.flat[:] = 0
        # column-stacking: column index col is the matrix unit E_{row, c}
        unit[col % D, col // D] = 1.0
        mat[:, col] = vectorize(fn(unit))
    return mat


def halting_operator_resolvent(inst, a, channels=None):
    """The halting operator of id a through the pseudo-inverse of
    (identity - continue channel), the channel's D^2 x D^2 matrix built
    from the local channel.  The pseudo-inverse drops the continue
    channel's fixed space, which the measurement sandwich annihilates
    anyway."""
    inst.shape.check_budget(SUPEROP_BUDGET_D)
    ch = channels if channels is not None else build_channels(inst)
    D = inst.shape.dim
    core = pseudoinverse(np.eye(D * D) - channel_matrix(ch.continue_step, inst.shape))
    x = ch.measure(a, devectorize(core @ vectorize(np.eye(D) / D))) / inst.m
    return _outcome(x, ("halt-resolvent", a))


def dense_shortclaim_suite(inst, ids):
    """The lemma suite on dense superoperators: A = conj(q) kron I + I kron q,
    B = sum_i conj(P_i) kron P_i and conj(Pi) kron Pi on column-stacked
    vectors, with dense pseudo-inverses.  Same lemmas, values and pass rules
    as oracles.shortclaim_suite."""
    ids = tuple(ids)
    inst.shape.check_budget(SUPEROP_BUDGET_D)
    D = inst.shape.dim
    k = len(ids)
    proj = [inst.embedded(i) for i in range(inst.m)]
    q = sum(proj)
    prod = np.eye(D, dtype=complex)
    for i in ids:
        prod = prod @ proj[i]

    eye2 = np.eye(D)
    a_mat = np.kron(q.conj(), eye2) + np.kron(eye2, q)
    b_mat = sum(np.kron(p.conj(), p) for p in proj)
    bp = np.kron(prod.conj(), prod)
    vec_id = vectorize(np.eye(D))
    q_pinv = pseudoinverse(q)
    a_pinv = pseudoinverse(a_mat)
    ab_pinv = pseudoinverse(a_mat - b_mat)

    def bound(lemma, slack):
        return _report_entry(lemma, passed=slack > -config.SLACK_TOL, slack_min=slack)

    def identity(lemma, resid):
        return _report_entry(lemma, passed=resid < config.RESIDUAL_TOL, residual=resid)

    lemmas = [
        bound("sum-pinv-product-bound", min_slack(prod @ q_pinv @ prod, prod / k)),
        identity("pair-sum-pinv-identity",
                 float(np.abs(devectorize(a_pinv @ vec_id) - q_pinv / 2).max())),
        bound("measured-pinv-bound",
              min_slack(devectorize(bp @ a_pinv @ vec_id), prod / (2 * k))),
        identity("measured-pinv-measured-identity",
                 float(np.abs(devectorize(bp @ a_pinv @ b_mat @ vec_id) - prod / 2).max())),
    ]
    slack = np.inf
    w = vec_id
    for t in range(1, 4):
        w = b_mat @ a_pinv @ w
        slack = min(slack, min_slack(devectorize(w), q / 2 ** t))
    lemmas.append(bound("repeated-measure-decay", slack))
    main = devectorize(bp @ ab_pinv @ vec_id)
    lemmas.append(bound("first-violation-product-bound",
                        min_slack(main, (0.5 + 0.5 / k) * prod)))
    if k == 1:
        halt = halting_operator(inst, ids[0])
        lemmas.append(identity("halting-route-agreement",
                               float(np.abs(main / D - halt.operator).max())))
    return {"k": k, "ids": list(ids), "pass": all(e["pass"] for e in lemmas),
            "lemmas": lemmas}
