"""Property tests of the tensor identities and of the channel reads the
operator series rests on, on random shapes, supports and operators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_refresh, devectorize, vectorize
from qlll.instance import QlllInstance, random_rank_projector
from qlll.oracles import build_channels
from qlll.tensor import HilbertShape, LocalPlan, embed, make_rng, partial_trace

TOL = 1e-12


def random_op(rng, dim):
    """A random complex operator, not Hermitian."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g / np.linalg.norm(g)


@st.composite
def registers(draw, max_dim=64):
    """(shape, support) with the support's qudits in a drawn order."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6 if d == 2 else 3))
    if d ** n > max_dim:
        n = 1
    k = draw(st.integers(1, n))
    support = tuple(draw(st.permutations(range(n)))[:k])
    return HilbertShape(n, d), support


seeds = st.integers(0, 2**31 - 1)


@settings(max_examples=30, deadline=None)
@given(registers(), seeds)
def test_embed_is_multiplicative_and_scales_the_trace(case, seed):
    shape, support = case
    rng = make_rng(seed)
    dk = shape.d ** len(support)
    a, b = random_op(rng, dk), random_op(rng, dk)
    ea, eb = embed(a, support, shape), embed(b, support, shape)
    assert np.abs(ea @ eb - embed(a @ b, support, shape)).max() < TOL
    assert abs(np.trace(ea) - np.trace(a) * shape.dim / dk) < TOL
    assert np.abs(embed(np.eye(dk), support, shape) - np.eye(shape.dim)).max() == 0.0


@settings(max_examples=30, deadline=None)
@given(registers(), seeds)
def test_embed_of_a_product_factorizes(case, seed):
    shape, support = case
    if len(support) < 2:
        return
    rng = make_rng(seed)
    head, tail = support[:1], support[1:]
    a = random_op(rng, shape.d)
    b = random_op(rng, shape.d ** len(tail))
    joint = embed(np.kron(a, b), support, shape)
    assert np.abs(joint - embed(a, head, shape) @ embed(b, tail, shape)).max() < TOL


@settings(max_examples=30, deadline=None)
@given(registers(), seeds)
def test_partial_trace_identities(case, seed):
    shape, support = case
    rng = make_rng(seed)
    op = random_op(rng, shape.dim)
    # trace preserved, and tracing everything is the trace
    assert abs(np.trace(partial_trace(op, support, shape)) - np.trace(op)) < TOL
    assert abs(partial_trace(op, range(shape.n), shape)[0, 0] - np.trace(op)) < TOL
    # an embedded operator traces out to its trace times identity
    dk = shape.d ** len(support)
    a = random_op(rng, dk)
    if len(support) < shape.n:
        rest_dim = shape.dim // dk
        reduced = partial_trace(embed(a, support, shape), support, shape)
        assert np.abs(reduced - np.trace(a) * np.eye(rest_dim)).max() < TOL
    # the plan's reduce index reads the reduced operator in the support's order
    plan = LocalPlan(shape.n, shape.d, support)
    reduced = op.take(plan.reduce_index).sum(axis=2)
    assert np.abs(reduced - reduced_by_einsum(op, support, shape)).max() < TOL


def reduced_by_einsum(op, support, shape):
    """op with the qudits outside ``support`` traced out, the support's
    qudits in the given order, by one einsum over the register's axes."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = letters[:shape.n]
    cols = [rows[q] if q not in support else letters[shape.n + q] for q in range(shape.n)]
    out = "".join(rows[q] for q in support) + "".join(cols[q] for q in support)
    tensor = op.reshape((shape.d,) * (2 * shape.n))
    dk = shape.d ** len(support)
    return np.einsum(f"{rows}{''.join(cols)}->{out}", tensor).reshape(dk, dk)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), seeds)
def test_vectorize_round_trip_and_conjugation(dim, seed):
    rng = make_rng(seed)
    x, a, b = (random_op(rng, dim) for _ in range(3))
    assert np.array_equal(devectorize(vectorize(x)), x)
    # column-stacking: vec(a x b) = (b^T kron a) vec(x)
    conj = np.kron(b.T, a)
    assert np.abs(vectorize(a @ x @ b) - conj @ vectorize(x)).max() < TOL


def random_instance(n, d, supports, seed):
    rng = make_rng(seed)
    events = []
    for sup in supports:
        dk = d ** len(sup)
        events.append((sup, random_rank_projector(dk, 1 + int(rng.integers(dk - 1)), rng)))
    return QlllInstance.build(n, d, events)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([
    (5, 2, [(2, 0), (1, 4), (3,)]),
    (8, 2, [(6, 7, 0), (2, 0), (1, 4)]),
]), seeds)
def test_measure_trace_matches_the_embedded_projector(config, seed):
    n, d, supports = config
    inst = random_instance(n, d, supports, seed)
    ch = build_channels(inst)
    s = random_op(make_rng(seed + 1), inst.shape.dim)
    for i in range(inst.m):
        want = np.vdot(inst.embedded(i), s)
        assert abs(ch.measure_trace(i, s) - want) < TOL
        assert abs(ch.measure_trace(i, s) - np.trace(ch.measure(i, s))) < TOL


@st.composite
def tiny_instances(draw):
    """Instances with D <= 16 and one to four events."""
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, {2: 4, 3: 2, 4: 2}[d]))
    assert d ** n <= 16
    supports = [
        tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
        for _ in range(draw(st.integers(1, 4)))
    ]
    return random_instance(n, d, supports, draw(seeds))


@settings(max_examples=25, deadline=None)
@given(tiny_instances(), seeds)
def test_dense_continue_step_matches_local(inst, seed):
    ch = build_channels(inst)
    D = inst.shape.dim
    s = random_op(make_rng(seed), D)
    for absorbed in (frozenset(), frozenset({seed % inst.m})):
        # (1/m) sum_i C_i s C_i, plus the refreshed P_i s P_i of absorbed ids
        dense = np.zeros((D, D), dtype=complex)
        for i, proj in enumerate(inst.projectors):
            p = inst.embedded(i)
            c = np.eye(D) - p
            dense += c @ s @ c
            if i in absorbed:
                dense += dense_refresh(p @ s @ p, proj.qudits, inst.shape)
        dense /= inst.m
        assert np.abs(dense - ch.continue_step(s, absorbed)).max() < TOL
