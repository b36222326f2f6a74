"""The local channel layer against dense references built from ``embed``.

ChannelSet applies every event on its own qudits.  Each test here rebuilds
the same map from full D x D embedded matrices and compares on random
non-Hermitian inputs, with supports that are out of order (2, 0),
non-contiguous (1, 4) and wrapping around a ring (6, 7, 0).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlll import bench
from qlll.instance import QlllInstance, basis_projector, random_rank_projector
from qlll.oracles import (
    Pick,
    SeriesStartError,
    _sandwich_series,
    build_channels,
    halting_operator,
    halting_operator_resolvent,
)
from qlll.tensor import HilbertShape, embed, make_rng, partial_trace

TOL = 1e-12

# (n, d, supports)
CONFIGS = [
    (5, 2, [(2, 0), (1, 4), (3,)]),
    (8, 2, [(6, 7, 0), (2, 0), (1, 4)]),
    (3, 3, [(2, 0), (1,)]),
]


def random_instance(config, seed):
    n, d, supports = config
    rng = make_rng(seed)
    events = []
    for sup in supports:
        dk = d ** len(sup)
        events.append((sup, random_rank_projector(dk, 1 + int(rng.integers(dk - 1)), rng)))
    return QlllInstance.build(n, d, events)


def random_operator(dim, seed):
    rng = make_rng(seed + 1)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g / np.linalg.norm(g)


def dense_refresh(op, qudits, shape):
    """(1/d^k) sum_ab E_ab op E_ba over the matrix units of the support:
    the partial trace over the support, refilled maximally mixed."""
    dk = shape.d ** len(qudits)
    units = [embed(np.eye(dk)[:, [a]] @ np.eye(dk)[[b]], qudits, shape)
             for a in range(dk) for b in range(dk)]
    return sum(u @ op @ u.T for u in units) / dk


def cases():
    return st.tuples(st.sampled_from(CONFIGS), st.integers(0, 2**31 - 1))


def every_config(test):
    """Pin one example per configuration, so each support shape always runs."""
    for config in CONFIGS:
        test = example((config, 7))(test)
    return test


@settings(max_examples=12, deadline=None)
@given(cases())
@every_config
def test_local_sandwiches_match_dense(case):
    config, seed = case
    inst = random_instance(config, seed)
    ch = build_channels(inst)
    D = inst.shape.dim
    op = random_operator(D, seed)
    for i in range(inst.m):
        p = inst.embedded(i)
        c = np.eye(D) - p
        assert np.abs(ch.measure(i, op) - p @ op @ p).max() < TOL
        assert np.abs(ch.complement(i, op) - c @ op @ c).max() < TOL


@settings(max_examples=8, deadline=None)
@given(cases())
@every_config
def test_local_refresh_matches_dense(case):
    config, seed = case
    inst = random_instance(config, seed)
    ch = build_channels(inst)
    op = random_operator(inst.shape.dim, seed)
    for i, proj in enumerate(inst.projectors):
        want = dense_refresh(op, proj.qudits, inst.shape)
        assert np.abs(ch.refresh(i, op) - want).max() < TOL
    ids = (0, inst.m - 1)
    union = sorted({q for i in ids for q in inst.projectors[i].qudits})
    rest = [q for q in range(inst.shape.n) if q not in union]
    if rest:
        want = embed(partial_trace(op, union, inst.shape), rest, inst.shape)
        want /= inst.shape.d ** len(union)
    else:
        want = np.trace(op) * np.eye(inst.shape.dim) / inst.shape.dim
    assert np.abs(ch.refresh_set(ids, op) - want).max() < TOL


@settings(max_examples=8, deadline=None)
@given(cases())
@every_config
def test_local_patch_and_continue_match_dense(case):
    config, seed = case
    inst = random_instance(config, seed)
    ch = build_channels(inst)
    D = inst.shape.dim
    op = random_operator(D, seed)
    cont = np.zeros_like(op)
    for i, proj in enumerate(inst.projectors):
        p = inst.embedded(i)
        c = np.eye(D) - p
        cont += c @ op @ c / inst.m
        refreshed = dense_refresh(p @ op @ p, proj.qudits, inst.shape)
        assert np.abs(ch.patch(i, op) - (c @ op @ c + refreshed)).max() < TOL
    assert np.abs(ch.continue_step(op) - cont).max() < TOL
    # absorbing the last id adds its refreshed violated branch to the step
    absorbed = ch.continue_step(op, frozenset({inst.m - 1}))
    assert np.abs(absorbed - (cont + refreshed / inst.m)).max() < TOL


def test_local_channels_match_matrix_forms():
    small = random_instance((4, 2, [(3, 1), (2,)]), 11)
    ch = build_channels(small)
    op = random_operator(small.shape.dim, 4)
    for i in range(small.m):
        for local, form in (
            (ch.measure, ch.measure_superoperator),
            (ch.refresh, ch.refresh_superoperator),
            (ch.patch, ch.patch_superoperator),
        ):
            assert np.abs(local(i, op) - form(i).apply(op)).max() < TOL
    assert np.abs(ch.continue_step(op) - ch.continue_superoperator().apply(op)).max() < TOL


def dense_cp_map_iterate(inst, rho, t_max):
    """The averaged measure-and-refresh channel as full D x D products."""
    shape = inst.shape
    projs = [inst.embedded(i) for i in range(inst.m)]
    comps = [np.eye(shape.dim) - p for p in projs]
    for _ in range(t_max):
        nxt = np.zeros_like(rho)
        for i, proj in enumerate(inst.projectors):
            nxt += comps[i] @ rho @ comps[i]
            qudits = proj.qudits
            rest = tuple(q for q in range(shape.n) if q not in qudits)
            reduced = partial_trace(projs[i] @ rho @ projs[i], qudits, shape)
            nxt += embed(reduced, rest, shape) / shape.d ** len(qudits)
        rho = nxt / inst.m
    return rho


def test_cp_map_iterate_matches_dense_loop():
    # 8-qubit ring, four 3-local diagonal events, one wrapping (6, 7, 0)
    supports = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)]
    events = [(sup, basis_projector(8, [k + 1])) for k, sup in enumerate(supports)]
    inst = QlllInstance.build(8, 2, events)
    rng = make_rng(31)
    g = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    rho0 = g @ g.conj().T
    rho0 /= np.trace(rho0)
    series = bench.cp_map_iterate(inst, rho0, 3)
    want = dense_cp_map_iterate(inst, rho0, 3)
    assert np.abs(series.rho_final - want).max() < TOL
    p0 = bench.spectral_report(inst).p0
    assert abs(series.ground_overlap[-1] - np.trace(p0 @ want).real) < TOL
    for i in range(inst.m):
        got = series.violation_probs[-1][i]
        assert abs(got - np.trace(inst.embedded(i) @ want).real) < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_halting_pass_matches_per_id_series(seed):
    inst = random_instance((4, 2, [(2, 0), (1, 3), (0, 3)]), seed)
    ch = build_channels(inst)
    shared = ch.halting_operators()
    assert ch.halting_operators() is shared
    D = inst.shape.dim
    for a in range(inst.m):
        alone = _sandwich_series(
            ch.measure_pick(a), ch.continue_step, np.eye(D) / D, "alone"
        )
        fresh = halting_operator(inst, a)
        assert np.abs(shared[a].operator - alone).max() < TOL
        assert np.abs(shared[a].operator - fresh.operator).max() < TOL
        assert shared[a].provenance == ("halt", a)
        resolvent = halting_operator_resolvent(inst, a, ch)
        assert np.abs(shared[a].operator - resolvent.operator).max() < 1e-9


@pytest.mark.parametrize(
    "start",
    [np.diag([0.5, 0.5, 0.25, -0.25]), np.array([[0.5, 0.1], [0.0, 0.5]])],
    ids=["negative-eigenvalue", "non-hermitian"],
)
def test_series_rejects_start_that_is_not_psd(start):
    def ident(s):
        return s

    with pytest.raises(SeriesStartError, match="series start"):
        _sandwich_series(Pick(np.trace, ident), ident, start, "probe")
    assert issubclass(SeriesStartError, ValueError)


def test_refresh_set_ignores_id_order():
    shape = HilbertShape(4, 2)
    inst = QlllInstance.build(
        4, 2, [((3,), np.diag([0.0, 1.0])), ((0, 2), basis_projector(4, [3]))]
    )
    ch = build_channels(inst)
    op = random_operator(shape.dim, 2)
    first = ch.refresh_set((1, 0), op)
    assert np.abs(ch.refresh_set((0, 1), op) - first).max() == 0.0
    assert np.abs(first - dense_refresh(op, (0, 2, 3), shape)).max() < TOL
