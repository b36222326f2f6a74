from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import devectorize, kernel_projector, pseudoinverse, vectorize
from qlll import config
from qlll.instance import random_rank_projector
from qlll.tensor import (
    HilbertShape,
    embed,
    make_rng,
    min_slack,
    partial_trace,
    psd_violation,
)


def embed_oracle(local_op, qudits, n, d):
    """Index-by-index embedding, independent of the kron+transpose route."""
    D = d ** n
    k = len(qudits)
    out = np.zeros((D, D), dtype=complex)
    rest = [q for q in range(n) if q not in qudits]
    for row in range(D):
        rdigits = [(row // d ** (n - 1 - q)) % d for q in range(n)]
        for col in range(D):
            cdigits = [(col // d ** (n - 1 - q)) % d for q in range(n)]
            if any(rdigits[q] != cdigits[q] for q in rest):
                continue
            li = 0
            lj = 0
            for q in qudits:
                li = li * d + rdigits[q]
                lj = lj * d + cdigits[q]
            out[row, col] = local_op[li, lj]
    return out


def partial_trace_oracle(op, traced, n, d):
    """Plain summation over traced digits."""
    keep = [q for q in range(n) if q not in traced]
    dk = d ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(dk):
        rdig = [(row // d ** (len(keep) - 1 - i)) % d for i in range(len(keep))]
        for col in range(dk):
            cdig = [(col // d ** (len(keep) - 1 - i)) % d for i in range(len(keep))]
            for t in range(d ** len(traced)):
                tdig = [(t // d ** (len(traced) - 1 - i)) % d for i in range(len(traced))]
                full_r = [0] * n
                full_c = [0] * n
                for i, q in enumerate(keep):
                    full_r[q] = rdig[i]
                    full_c[q] = cdig[i]
                for i, q in enumerate(sorted(traced)):
                    full_r[q] = tdig[i]
                    full_c[q] = tdig[i]
                ri = sum(full_r[q] * d ** (n - 1 - q) for q in range(n))
                ci = sum(full_c[q] * d ** (n - 1 - q) for q in range(n))
                out[row, col] += op[ri, ci]
    return out


P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def test_embed_single_qubit_examples():
    shape = HilbertShape(2, 2)
    # qudit 0 is the most significant factor
    assert np.allclose(embed(P0, [0], shape), np.diag([1, 1, 0, 0]))
    assert np.allclose(embed(P0, [1], shape), np.diag([1, 0, 1, 0]))


def test_embed_matches_oracle_random():
    rng = make_rng(7)
    for n, d in [(3, 2), (2, 3), (4, 2)]:
        shape = HilbertShape(n, d)
        for _ in range(8):
            k = int(rng.integers(1, min(n, 3) + 1))
            qudits = list(rng.permutation(n)[:k])
            dk = d ** k
            local = rng.normal(size=(dk, dk)) + 1j * rng.normal(size=(dk, dk))
            got = embed(local, qudits, shape)
            want = embed_oracle(local, qudits, n, d)
            assert np.abs(got - want).max() < 1e-12


def test_embed_subset_order_matters():
    shape = HilbertShape(2, 2)
    cnotish = np.zeros((4, 4), dtype=complex)
    cnotish[0, 0] = cnotish[1, 1] = 1
    cnotish[2, 3] = cnotish[3, 2] = 1
    a = embed(cnotish, [0, 1], shape)
    b = embed(cnotish, [1, 0], shape)
    assert not np.allclose(a, b)
    assert np.allclose(b, embed_oracle(cnotish, [1, 0], 2, 2))


def test_embed_rejects_bad_subsets():
    shape = HilbertShape(2, 2)
    with pytest.raises(ValueError):
        embed(P0, [], shape)
    with pytest.raises(ValueError):
        embed(P0, [2], shape)
    with pytest.raises(ValueError):
        embed(np.eye(4), [0, 0], shape)
    with pytest.raises(ValueError):
        embed(np.eye(3), [0], shape)


def test_partial_trace_bell_state():
    shape = HilbertShape(2, 2)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    for traced in ([0], [1]):
        red = partial_trace(rho, traced, shape)
        assert np.allclose(red, np.eye(2) / 2)


def test_partial_trace_matches_oracle_and_preserves_trace():
    rng = make_rng(8)
    for n, d in [(3, 2), (2, 3)]:
        shape = HilbertShape(n, d)
        D = d ** n
        m = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        for traced in ([0], [n - 1], [0, n - 1]):
            got = partial_trace(m, traced, shape)
            want = partial_trace_oracle(m, traced, n, d)
            assert np.abs(got - want).max() < 1e-12
            assert abs(np.trace(got) - np.trace(m)) < 1e-12


def test_partial_trace_everything():
    shape = HilbertShape(2, 2)
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    out = partial_trace(m, [0, 1], shape)
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 10.0) < 1e-14


def test_embed_then_trace_roundtrip():
    # tracing the untouched qudits out of an embedding recovers the local op
    rng = make_rng(9)
    shape = HilbertShape(3, 2)
    local = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    big = embed(local, [1], shape)
    red = partial_trace(big, [0, 2], shape)
    assert np.allclose(red, local * 4)  # identity factors carry trace d each


def test_vectorize_identity_positions():
    v = vectorize(np.eye(2))
    assert np.allclose(v, [1, 0, 0, 1])
    assert np.allclose(devectorize(v), np.eye(2))


def test_vectorize_kron_identity():
    rng = make_rng(10)
    for _ in range(5):
        a, x, b = (
            rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)
        )
        lhs = vectorize(a @ x @ b)
        # column-stacking: vec(a x b) = (b^T kron a) vec(x)
        rhs = np.kron(b.T, a) @ vectorize(x)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_devectorize_roundtrip_and_errors():
    rng = make_rng(11)
    m = rng.normal(size=(5, 5))
    assert np.allclose(devectorize(vectorize(m)), m)
    with pytest.raises(ValueError):
        devectorize(np.zeros(7))
    with pytest.raises(ValueError):
        vectorize(np.zeros((2, 3)))


def test_pseudoinverse_penrose_identities():
    rng = make_rng(12)
    m = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    pinv = pseudoinverse(m)
    assert np.abs(m @ pinv @ m - m).max() < 1e-10
    assert np.abs(pinv @ m @ pinv - pinv).max() < 1e-10
    assert np.abs((m @ pinv).conj().T - m @ pinv).max() < 1e-10
    assert np.abs((pinv @ m).conj().T - pinv @ m).max() < 1e-10


def test_pseudoinverse_rank_deficient():
    # projector onto |0>: pinv equals the projector itself
    assert np.allclose(pseudoinverse(P0), P0)
    sigma = np.diag([1.0, 1e-15])
    pinv = pseudoinverse(sigma)
    assert abs(pinv[1, 1]) == 0.0  # below the relative cutoff, treated as zero


def test_min_slack_examples():
    assert min_slack(P0, np.eye(2)) == pytest.approx(0.0, abs=1e-15)
    assert min_slack(np.eye(2), P0) == pytest.approx(-1.0)
    # only the Hermitian part counts
    assert min_slack(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2)) == pytest.approx(0.5)


def test_kernel_projector_examples():
    assert np.allclose(kernel_projector(P1), P0)
    assert np.allclose(kernel_projector(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(kernel_projector(np.eye(3)), np.zeros((3, 3)))
    ham = np.diag([0.0, 0.0, 0.5, 1.0])
    p = kernel_projector(ham)
    assert np.allclose(p, np.diag([1, 1, 0, 0]))


def test_psd_violation_tests_hermitian_first():
    assert psd_violation(P0) is None
    assert psd_violation(np.array([[0, 1], [0, 0]])) == ("hermitian", 1.0)
    # the tolerance scales with the largest entry
    assert psd_violation(np.array([[1e3, 1e-8], [0.0, 1e3]])) is None
    assert psd_violation(np.array([[1.0, 1e-8], [0.0, 1.0]])) == ("hermitian", 1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "one side", "both sides"])
def test_psd_violation_rejects_nan_and_inf(bad, where):
    h = np.eye(2, dtype=complex) / 2
    if where == "diagonal":
        h[0, 0] = bad
    else:
        h[0, 1] = bad
        if where == "both sides":
            h[1, 0] = bad
    got = psd_violation(h)
    assert got is not None and got.test == "finite"
    assert not np.isfinite(got.value)


PSD_TOL = config.PSD_TOL


def decided(h):
    """psd_violation(h) and the step that decided it: 1 for the Gershgorin
    discs, 2 for the Cholesky factorisation, 3 for eigvalsh."""
    calls = []
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh
    with mock.patch.object(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a)), \
            mock.patch.object(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a)):
        got = psd_violation(h)
    return got, 1 + len(calls)


def unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(g)[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1), st.sampled_from([-1, 1]))
def test_psd_violation_agrees_with_eigvalsh_at_the_threshold(dim, seed, side):
    """Least eigenvalue at -tol (1 + side 1e-3), the rest in [0, 1]: one
    side of the threshold by a thousandth.  Every rejection runs eigvalsh
    and reports its value; every acceptance is decided before it."""
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(0.0, 1.0, dim)
    spectrum[0] = -PSD_TOL * (1 + side * 1e-3)
    u = unitary(dim, rng)
    h = (u * spectrum) @ u.conj().T
    h = (h + h.conj().T) / 2
    got, step = decided(h)
    least = np.linalg.eigvalsh(h)[0]
    assert (got is None) == (least >= -PSD_TOL)
    if side > 0:
        assert step == 3 and got == ("psd", least)
    else:
        # a 1 x 1 matrix is its own disc
        assert step == (1 if dim == 1 else 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2 ** 32 - 1), st.data())
def test_psd_violation_accepts_pure_states_and_projectors(dim, seed, data):
    """Rank-deficient PSD matrices: a random projector of rank below the
    dimension is not diagonally dominant and goes to Cholesky; a diagonal
    one is decided by its discs."""
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, dim - 1))
    assert decided(random_rank_projector(dim, rank, rng)) == (None, 2)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    assert decided(np.outer(psi, psi.conj())) == (None, 2)
    diagonal = np.diag(rng.permutation(np.arange(dim) < rank).astype(complex))
    assert decided(diagonal) == (None, 1)


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 256])
def test_psd_violation_decides_the_maximally_mixed_state_by_its_discs(dim):
    assert decided(np.eye(dim, dtype=complex) / dim) == (None, 1)


def test_psd_violation_on_psd_matrices_that_are_not_diagonally_dominant():
    # |+><+| on 8 states: every disc reaches 1/8 - 7/8 below zero
    plus = np.full((8, 8), 1 / 8, dtype=complex)
    assert decided(plus) == (None, 2)
    g = make_rng(3).normal(size=(16, 4))
    assert decided((g @ g.T).astype(complex)) == (None, 2)
    # shifted below the threshold, the same matrices are rejected by eigvalsh
    for h in (plus, (g @ g.T).astype(complex)):
        shifted = h - 2 * PSD_TOL * np.eye(len(h))
        got, step = decided(shifted)
        assert step == 3 and got.test == "psd"
        assert got.value == np.linalg.eigvalsh(shifted)[0] < -PSD_TOL


def test_rng_streams_are_deterministic_and_independent():
    a = make_rng(5).random(4)
    b = make_rng(5).random(4)
    assert np.allclose(a, b)
    assert not np.allclose(a, make_rng(6).random(4))
