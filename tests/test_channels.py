"""The local channel layer against dense references built from ``embed``.

ChannelSet applies every event on its own qudits.  Each test here rebuilds
the same map from full D x D embedded matrices and compares on random
non-Hermitian inputs, with supports that are out of order (2, 0),
non-contiguous (1, 4) and wrapping around a ring (6, 7, 0).  Events come
dense (nonzero on every local state: run as layout sandwiches), sparse
(zero off some local states: read and written at the register positions of
the nonzero ones), mixed, or zero (an all-zero event, with no nonzero local
state to read, next to one-state basis events), so both the sandwich path
and the position path meet the same references.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import dense_refresh, halting_operator_resolvent
from qlll import bench, oracles
from qlll.instance import QlllInstance, basis_projector, random_rank_projector
from qlll.errors import InvariantError
from qlll.oracles import (
    _absorbed_solve,
    _cg_solve,
    _gmres_solve,
    _krylov_solve,
    build_channels,
    halting_operator,
)
from qlll.tensor import HilbertShape, embed, make_rng, nonzero_states, partial_trace

TOL = 1e-12

# (n, d, supports)
CONFIGS = [
    (5, 2, [(2, 0), (1, 4), (3,)]),
    (8, 2, [(6, 7, 0), (2, 0), (1, 4)]),
    (3, 3, [(2, 0), (1,)]),
]


KINDS = ("dense", "sparse", "mixed", "zero")


def sparse_projector(dk, rng):
    """A projector that is zero off some of the dk local basis states: onto
    random basis states, or of random rank on a random subset of them."""
    states = rng.choice(dk, 1 + int(rng.integers(dk - 1)), replace=False)
    if rng.integers(2):
        return basis_projector(dk, states)
    p = np.zeros((dk, dk), dtype=complex)
    p[np.ix_(states, states)] = random_rank_projector(
        states.size, 1 + int(rng.integers(states.size)), rng
    )
    return p


def random_instance(config, seed, kind="dense"):
    """Random projectors on the configuration's supports: all dense, all
    sparse, sparse on every other support ("mixed"), or zero on every other
    support and onto one random basis state on the rest ("zero")."""
    n, d, supports = config
    rng = make_rng(seed)
    events = []
    for j, sup in enumerate(supports):
        dk = d ** len(sup)
        if kind == "zero":
            proj = basis_projector(dk, [int(rng.integers(dk))]) if j % 2 else np.zeros((dk, dk))
            assert nonzero_states(proj).size == (j % 2)
        elif kind == "sparse" or (kind == "mixed" and j % 2 == 0):
            proj = sparse_projector(dk, rng)
            assert nonzero_states(proj) is not None
        else:
            proj = random_rank_projector(dk, 1 + int(rng.integers(dk - 1)), rng)
        events.append((sup, proj))
    return QlllInstance.build(n, d, events)


def random_operator(dim, seed):
    rng = make_rng(seed + 1)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g / np.linalg.norm(g)


def dense_channels(inst, i, op):
    """Measurement, complement and patch of event i as full D x D products."""
    p = inst.embedded(i)
    c = np.eye(inst.shape.dim) - p
    measured = p @ op @ p
    kept = c @ op @ c
    return measured, kept, kept + dense_refresh(measured, inst.projectors[i].qudits, inst.shape)


def cases():
    return st.tuples(
        st.sampled_from(CONFIGS), st.integers(0, 2**31 - 1), st.sampled_from(KINDS)
    )


def every_config(test):
    """Pin one example per configuration and kind of event, so each support
    shape always runs on both channel paths."""
    for config in CONFIGS:
        for kind in KINDS:
            test = example((config, 7, kind))(test)
    return test


@settings(max_examples=12, deadline=None)
@given(cases())
@every_config
def test_local_sandwiches_match_dense(case):
    config, seed, kind = case
    inst = random_instance(config, seed, kind)
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
    config, seed, kind = case
    inst = random_instance(config, seed, kind)
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
    config, seed, kind = case
    inst = random_instance(config, seed, kind)
    ch = build_channels(inst)
    D = inst.shape.dim
    op = random_operator(D, seed)
    cont = np.zeros_like(op)
    averaged = np.zeros_like(op)
    for i, proj in enumerate(inst.projectors):
        p = inst.embedded(i)
        c = np.eye(D) - p
        cont += c @ op @ c / inst.m
        refreshed = dense_refresh(p @ op @ p, proj.qudits, inst.shape)
        assert np.abs(ch.patch(i, op) - (c @ op @ c + refreshed)).max() < TOL
        averaged += (c @ op @ c + refreshed) / inst.m
    assert np.abs(ch.continue_step(op) - cont).max() < TOL
    # absorbing the last id adds its refreshed violated branch to the step
    absorbed = ch.continue_step(op, frozenset({inst.m - 1}))
    assert np.abs(absorbed - (cont + refreshed / inst.m)).max() < TOL
    # every id absorbed: the averaged patch channel
    every = ch.continue_step(op, frozenset(range(inst.m)))
    assert np.abs(every - averaged).max() < TOL


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


@pytest.mark.parametrize("a", [0.95, 1.0])
def test_entangled_counterexample_event_matches_dense(a):
    # psi_perp = sqrt(b)|00> - sqrt(a)|11> is nonzero only on |00> and |11>
    # (only on |11> at a = 1); on the counterexample's own register and on
    # an out-of-order support of a 4-qubit register next to a dense event
    cx = bench.make_counterexample(a)
    psi_perp = cx.instance.projectors[2].local_matrix
    want = [0, 3] if a < 1.0 else [3]
    assert nonzero_states(psi_perp).tolist() == want
    dense = random_rank_projector(8, 3, make_rng(5))
    wide = QlllInstance.build(
        4, 2, [((3, 1), psi_perp), ((2, 0, 1), dense), ((0,), np.diag([0.0, 1.0]))]
    )
    for inst in (cx.instance, wide):
        ch = build_channels(inst)
        op = random_operator(inst.shape.dim, 3)
        for i in range(inst.m):
            measured, kept, patched = dense_channels(inst, i, op)
            assert np.abs(ch.measure(i, op) - measured).max() < TOL
            assert np.abs(ch.complement(i, op) - kept).max() < TOL
            assert np.abs(ch.patch(i, op) - patched).max() < TOL
        every = frozenset(range(inst.m))
        averaged = sum(dense_channels(inst, i, op)[2] for i in every) / inst.m
        assert np.abs(ch.continue_step(op, every) - averaged).max() < TOL


def test_channels_take_real_and_transposed_operators():
    # the matrix forms feed real matrix units; a transposed view is not
    # C-contiguous; both must give the complex result of the same operator
    inst = random_instance(CONFIGS[0], 3, "mixed")
    ch = build_channels(inst)
    op = random_operator(inst.shape.dim, 3).real
    every = frozenset(range(inst.m))
    for probe in (op, op.T):
        exact = np.array(probe, dtype=complex)
        for i in range(inst.m):
            for channel in (ch.measure, ch.complement, ch.patch):
                got = channel(i, probe)
                assert got.dtype == complex
                assert np.abs(got - channel(i, exact)).max() == 0.0
        assert np.abs(
            ch.continue_step(probe, every) - ch.continue_step(exact, every)
        ).max() == 0.0


def test_basis_events_run_no_layout_sandwich(monkeypatch):
    # four 3-local basis events on an 8-qubit ring (D = 256): patch,
    # complement and the continue step touch only their nonzero blocks
    calls = []
    sandwich = oracles.sandwich_local
    monkeypatch.setattr(
        oracles, "sandwich_local", lambda *args: calls.append(1) or sandwich(*args)
    )
    supports = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)]
    events = [(sup, basis_projector(8, [k + 1])) for k, sup in enumerate(supports)]
    inst = QlllInstance.build(8, 2, events)
    ch = build_channels(inst)
    op = random_operator(inst.shape.dim, 6)
    every = frozenset(range(inst.m))
    for i in range(inst.m):
        ch.patch(i, op)
        ch.complement(i, op)
        ch.measure(i, op)
    ch.continue_step(op, every)
    ch.continue_step(op)
    assert calls == []
    # a dense event still runs one sandwich for its complement and one for
    # its measurement
    dense = random_rank_projector(4, 1, make_rng(2))
    ch = build_channels(QlllInstance.build(8, 2, events + [((1, 5), dense)]))
    ch.patch(4, op)
    assert len(calls) == 2
    ch.continue_step(op, every | {4})
    assert len(calls) == 4
    ch.continue_step(op)
    assert len(calls) == 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_halting_pass_matches_per_id_series(seed):
    inst = random_instance((4, 2, [(2, 0), (1, 3), (0, 3)]), seed)
    ch = build_channels(inst)
    shared = ch.halting_operators()
    assert ch.halting_operators() is shared
    D = inst.shape.dim
    for a in range(inst.m):
        alone = ch.measure(a, _krylov_solve(ch, np.eye(D) / D, "alone")) / inst.m
        fresh = halting_operator(inst, a)
        assert np.abs(shared[a].operator - alone).max() < TOL
        assert np.abs(shared[a].operator - fresh.operator).max() < TOL
        assert shared[a].provenance == ("halt", a)
        resolvent = halting_operator_resolvent(inst, a, ch)
        assert np.abs(shared[a].operator - resolvent.operator).max() < 1e-13


@pytest.mark.parametrize(
    "start, value",
    [(np.diag([0.5, 0.5, 0.25, -0.25]), -0.25), (np.array([[0.5, 0.1], [0.0, 0.5]]), 0.1)],
    ids=["negative-eigenvalue", "non-hermitian"],
)
def test_series_rejects_start_that_is_not_psd(start, value):
    # the package builds every start, so a bad one is an internal fault that
    # carries the measured least eigenvalue or asymmetry
    qubits = len(start).bit_length() - 1
    ch = build_channels(QlllInstance.build(qubits, 2, [((0,), np.diag([0.0, 1.0]))]))
    with pytest.raises(InvariantError, match="probe: series start") as err:
        _absorbed_solve(ch, (0,), frozenset(), start, "probe")
    assert err.value.value == pytest.approx(value, abs=1e-15)
    # the conjugate-gradient route checks its start the same way
    with pytest.raises(InvariantError, match="probe: series start") as err:
        _krylov_solve(ch, start, "probe")
    assert err.value.value == pytest.approx(value, abs=1e-15)


GATE_SITES = {
    "cp_map_iterate": (ValueError, lambda inst, rho: bench.cp_map_iterate(inst, rho, 1)),
    "convergence_metrics": (ValueError, lambda inst, rho: bench.convergence_metrics(rho, inst)),
    "OutcomeOperator": (ValueError, lambda inst, rho: oracles.OutcomeOperator(rho, 1.0, ("nan",))),
    "_krylov_solve": (InvariantError, lambda inst, rho: _krylov_solve(build_channels(inst), rho, "probe")),
    "_absorbed_solve": (
        InvariantError,
        lambda inst, rho: _absorbed_solve(build_channels(inst), (0,), frozenset(), rho, "probe"),
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("site", sorted(GATE_SITES))
def test_every_gate_rejects_nan_and_inf_with_its_named_error(site, bad):
    # an infinite entry over a finite one meets inf <= tol * inf, so only the
    # finiteness test rejects it; the Cholesky step reads one triangle only
    error, call = GATE_SITES[site]
    inst = QlllInstance.build(1, 2, [((0,), np.diag([0.0, 1.0]))])
    for rho in (np.diag([bad, 0.5]), np.array([[0.5, bad], [0.0, 0.5]])):
        with pytest.raises(error, match="Hermitian"):
            call(inst, rho.astype(complex))


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


def test_solve_rejects_a_map_that_is_not_positive():
    # the loop checks <p, A p> > 0 on every search direction, whatever A is
    ch = build_channels(QlllInstance.build(1, 2, [((0,), np.diag([0.0, 1.0]))]))
    with pytest.raises(InvariantError, match="probe: the solved map is not positive") as err:
        _cg_solve(ch, lambda x: -x, np.eye(2) / 2, "probe")
    # b = I/2 - P0 (I/2) P0 = diag(0, 1/2), so <b, -b> = -1/4
    assert err.value.value == pytest.approx(-0.25, abs=1e-15)


def nan_from_second_call(apply):
    """apply, counting its calls, returning NaN from the second call on."""
    calls = []

    def counted(y):
        calls.append(1)
        return apply(y) if len(calls) < 2 else np.full_like(y, np.nan)

    return counted, calls


def two_qubit_channels():
    # an entangled event across both qubits and a |+> event: CG and GMRES
    # both need more than one step
    s = 1 / np.sqrt(2)
    bell = np.outer([0, s, s, 0], [0, s, s, 0])
    return build_channels(QlllInstance.build(2, 2, [((0, 1), bell), ((1,), np.full((2, 2), 0.5))]))


def test_cg_stops_at_the_first_non_finite_value():
    ch = two_qubit_channels()
    apply, calls = nan_from_second_call(lambda y: y - ch.continue_step(y))
    with pytest.raises(InvariantError, match="probe: conjugate gradients: <p, A p> is nan") as err:
        _cg_solve(ch, apply, np.eye(4) / 4, "probe")
    assert len(calls) == 2
    assert np.isnan(err.value.value)


def test_gmres_stops_at_the_first_non_finite_value():
    ch = two_qubit_channels()
    # within the Arnoldi cycle: the second basis vector's image is NaN
    apply, calls = nan_from_second_call(lambda y: y - ch.continue_step(y, frozenset()))
    with pytest.raises(InvariantError, match="probe: GMRES: the Arnoldi norm is nan") as err:
        _gmres_solve(apply, np.eye(4) / 4, "probe")
    assert len(calls) == 2 and np.isnan(err.value.value)
    # on the true residual: the identity solves in one step, and its recheck
    # reads NaN
    apply, calls = nan_from_second_call(lambda y: y)
    with pytest.raises(InvariantError, match=r"probe: GMRES: \|\|b - A x\|\| is nan") as err:
        _gmres_solve(apply, np.eye(4) / 4, "probe")
    assert len(calls) == 2 and np.isnan(err.value.value)
