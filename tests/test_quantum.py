import numpy as np
import pytest

from qlll import bench, config, oracles, quantum, tensor
from qlll.instance import (
    QlllInstance,
    basis_projector,
    event_table,
    intersection_graph,
    spectral_report,
)
from qlll.quantum import (
    ExactSolverConfig,
    _check_norm,
    run_converger,
    run_exact_solver,
    run_quantum_solver,
    run_trajectory_batch,
)

from helpers import basis_ring, hadamard_chain, hadamard_ring, random_qubit_pair, two_qubit_chain

Q1 = np.array([[0, 0], [0, 1]], dtype=complex)
Q0 = np.array([[1, 0], [0, 0]], dtype=complex)


def single_qubit_instance():
    return QlllInstance.build(1, 2, [([0], Q1)])


def disjoint_pair():
    return QlllInstance.build(2, 2, [([0], Q1), ([1], Q1)])


def zero_instance():
    z = np.zeros((2, 2))
    return QlllInstance.build(2, 2, [([0], z), ([1], z)])


def entangled_chain():
    """Three non-commuting events on three qubits with a one-dimensional
    common kernel: a Bell-type state on (0, 1), |+>|1> on (1, 2), |+> on 2."""
    s = 1 / np.sqrt(2)
    bell = np.outer([0, s, s, 0], [0, s, s, 0])
    plus = np.full((2, 2), 0.5)
    plus_one = np.kron(plus, np.diag([0.0, 1.0]))
    return QlllInstance.build(3, 2, [((0, 1), bell), ((1, 2), plus_one), ((2,), plus)])


def basis_chain():
    """Commuting counterpart: |11> on (0, 1) and (1, 2), |0> on 2."""
    p11 = basis_projector(4, [3])
    return QlllInstance.build(
        3, 2, [((0, 1), p11), ((1, 2), p11), ((2,), basis_projector(2, [0]))]
    )


def test_zero_projectors_empty_log():
    traj = run_quantum_solver(zero_instance(), seed=1, max_steps=50)
    assert len(traj.log) == 0
    assert abs(np.linalg.norm(traj.state) - 1) < 1e-10


def test_final_state_is_normalized_basis_state_for_commuting_basis_events():
    traj = run_quantum_solver(disjoint_pair(), seed=5, max_steps=400)
    # with basis-diagonal projectors the trajectory stays a basis state
    mags = np.abs(traj.state)
    assert abs(mags.max() - 1) < 1e-10
    assert np.count_nonzero(mags > 1e-12) == 1


def test_deterministic_trace():
    inst = disjoint_pair()
    a = run_quantum_solver(inst, seed=9, max_steps=60, record_outcomes=True)
    b = run_quantum_solver(inst, seed=9, max_steps=60, record_outcomes=True)
    assert a.outcome_trace == b.outcome_trace
    assert a.log.entries == b.log.entries
    assert np.allclose(a.state, b.state)


def test_log_matches_trace_violations():
    traj = run_quantum_solver(
        single_qubit_instance(), seed=3, max_steps=80, record_outcomes=True
    )
    violated_steps = tuple(
        (step, pid) for step, (pid, hit) in enumerate(traj.outcome_trace) if hit
    )
    assert traj.log.entries == violated_steps


def test_single_projector_mean_violations():
    # E(violations) = R/(1-R) = 1 for the rank-1 qubit event
    inst = single_qubit_instance()
    n = 2000
    counts = np.array(
        [len(run_quantum_solver(inst, seed=s, max_steps=60).log) for s in range(n)]
    )
    sigma = counts.std(ddof=1) / np.sqrt(n)
    assert abs(counts.mean() - 1.0) < 3 * sigma


def test_commuting_satisfied_stays_satisfied():
    # once satisfied, re-measuring the same event before any overlapping
    # resample must come out satisfied again
    inst = disjoint_pair()
    qudits = [p.qudits for p in inst.projectors]
    for seed in range(20):
        traj = run_quantum_solver(inst, seed=seed, max_steps=120, record_outcomes=True)
        last_ok = {}
        for pid, hit in traj.outcome_trace:
            if hit:
                touched = set(qudits[pid])
                for other, ok in list(last_ok.items()):
                    if touched & set(qudits[other]):
                        last_ok.pop(other)
            else:
                assert last_ok.get(pid, True)
                last_ok[pid] = True


# outcome traces recorded before the block step existed: the scalar stream
# (draw order and arithmetic) must not change
PINNED_TRACES = {
    0: ("010122220212102110202200022201111001212112022200",
        "....xxxx.x.x...................................."),
    3: ("002210020112021212122222102000111010221101112122",
        "x.xxx..x..............................x........."),
}


@pytest.mark.parametrize("seed", sorted(PINNED_TRACES))
def test_scalar_outcome_stream_is_pinned(seed):
    traj = run_quantum_solver(
        entangled_chain(), seed=seed, max_steps=48, record_outcomes=True
    )
    ids = "".join(str(i) for i, _ in traj.outcome_trace)
    hits = "".join("x" if hit else "." for _, hit in traj.outcome_trace)
    assert (ids, hits) == PINNED_TRACES[seed]


def small_ints(a) -> str:
    """One character per entry: 0-9 then a-z, and "." for the -1 padding."""
    return "".join("." if v < 0 else "0123456789abcdefghijklmnopqrstuvwxyz"[v] for v in np.ravel(a))


BATCH_RUNS = {
    "chain": (two_qubit_chain, dict(max_steps=30, record_first=3, horizons=(0, 7, 30))),
    "pair": (lambda: bench.make_counterexample(0.95).instance, dict(max_steps=4096, record_first=2, horizons=(3, 4096))),
}

# batch streams of 20 rows, recorded before the step's norms ran on vecdot and
# its ids on a radix sort: (violations, first_labels by row, horizon counts)
PINNED_BATCHES = {
    ("chain", None, 5): (
        "63100021510100001210",
        "122 100 2.. ... ... ... 00. 1.. 020 1.. ... 2.. ... ... ... ... 2.. 20. 0.. ...",
        {0: "00000000000000000000", 7: "33100001410100001210", 30: "63100021510100001210"}),
    ("chain", None, 13): (
        "11101200604001040200",
        "1.. 0.. 1.. ... 2.. 21. ... ... 222 ... 200 ... ... 2.. ... 122 ... 02. ... ...",
        {0: "00000000000000000000", 7: "11101200202001040000", 30: "11101200604001040200"}),
    ("chain", 2, 5): (
        "22110011120100011110",
        "12. 10. 2.. 0.. ... ... 0.. 1.. 0.. 11. ... 2.. ... ... ... 0.. 2.. 2.. 0.. ...",
        {0: "00000000000000000000", 7: "22110011120100011110", 30: "22110011120100011110"}),
    ("chain", 2, 13): (
        "21201100002001020000",
        "12. 0.. 12. ... 2.. 2.. ... ... ... ... 20. ... ... 2.. ... 12. ... ... ... ...",
        {0: "00000000000000000000", 7: "21101100002001020000", 30: "21201100002001020000"}),
    ("pair", 2, 5): (
        "22222222222222222222",
        "10 11 00 00 12 10 22 01 01 11 00 00 11 10 20 01 10 01 00 11",
        {3: "20121112210010001211", 4096: "22222222222222222222"}),
    ("pair", 2, 13): (
        "22222222222222222222",
        "21 12 11 12 22 10 12 00 11 01 21 01 11 10 01 00 20 12 22 02",
        {3: "00122021122010110011", 4096: "22222222222222222222"}),
}


@pytest.mark.parametrize("run, stop, seed", sorted(PINNED_BATCHES, key=str))
def test_batch_stream_is_pinned(run, stop, seed):
    make, kwargs = BATCH_RUNS[run]
    batch = run_trajectory_batch(make(), seed, 20, stop_after_violations=stop, **kwargs)
    got = (
        small_ints(batch.violations),
        " ".join(small_ints(row) for row in batch.first_labels),
        {h: small_ints(v) for h, v in batch.horizon_violations.items()},
    )
    assert got == PINNED_BATCHES[run, stop, seed]


# converger averages (t = 12, 50 samples) from the same recording, to 12 digits
PINNED_CONVERGER = {
    ("chain", 5): ((0.086245421245, 0.072066666667, 0.222987545788), 0.721179120879),
    ("chain", 13): ((0.128032547699, 0.05012345679, 0.15810325477), 0.74739674523),
    ("pair", 5): ((0.13, 0.25, 0.062), 0.0),
    ("pair", 13): ((0.23, 0.15, 0.062), 0.0),
}


@pytest.mark.parametrize("run, seed", sorted(PINNED_CONVERGER))
def test_converger_stream_is_pinned(run, seed):
    res = run_converger(BATCH_RUNS[run][0](), seed, 12, 50)
    got = (tuple(round(float(p), 12) for p in res.mean_violation_prob), round(res.ground_overlap, 12))
    assert got == PINNED_CONVERGER[run, seed]


# exact-solver logs recorded before the exact solver ran on the block step
PINNED_EXACT_LOGS = {
    0: (((0, 2),), 4),
    1: (((0, 2), (1, 0), (3, 2), (4, 0), (6, 2), (9, 2), (12, 2), (14, 1), (15, 2)), 19),
    2: (((2, 1), (5, 1), (8, 1), (9, 2), (12, 2)), 16),
    3: (((0, 2),), 4),
}


@pytest.mark.parametrize("seed", sorted(PINNED_EXACT_LOGS))
def test_exact_solver_log_is_pinned(seed):
    # the pins measured hadamard_chain's events in the order (2, 0, 1); the
    # solver measures in id order, so the events are listed in that order
    # and the logged ids mapped back
    order = (2, 0, 1)
    chain = hadamard_chain().projectors
    inst = QlllInstance.build(3, 2, [(chain[i].qudits, chain[i].local_matrix) for i in order])
    log = run_exact_solver(inst, ExactSolverConfig(p=2, m_prime=3.0), seed=seed).trajectory.log
    entries = tuple((step, order[i]) for step, i in log.entries)
    assert (entries, log.total_steps) == PINNED_EXACT_LOGS[seed]


@pytest.mark.parametrize("make", [basis_ring, hadamard_chain, entangled_chain])
def test_settled_stop_is_exact(make):
    # a traced run never stops early: the untraced run must end the same
    inst = make()
    for seed in range(10):
        a = run_quantum_solver(inst, seed, 200)
        b = run_quantum_solver(inst, seed, 200, record_outcomes=True)
        assert a.log.entries == b.log.entries
        assert a.log.total_steps == b.log.total_steps == 200
        assert a.state.tobytes() == b.state.tobytes()


def test_settled_run_stops_measuring(monkeypatch):
    calls = []
    measure = quantum._measure_rows

    def counted(*args):
        calls.append(1)
        return measure(*args)

    monkeypatch.setattr(quantum, "_measure_rows", counted)
    every = config.BATCH_FREEZE_EVERY
    for seed in range(5):
        calls.clear()
        log = run_quantum_solver(disjoint_pair(), seed, 400).log
        assert log.total_steps == 400
        # settled right after the last violation; the next sweep stops the run
        last = log.entries[-1][0] if log.entries else 0
        assert len(calls) == every * (last // every + 1) < 400


@pytest.mark.parametrize("inst", [
    basis_ring(), hadamard_ring(), random_qubit_pair(),
    *(inst for inst, _ in bench.certified_commuting_corpus(3, seed=47)),
])
def test_kernel_weight_matches_the_kernel_projector(inst):
    # the range-factor readout against <psi|P0|psi> from the eigendecomposition
    p0 = spectral_report(inst).p0
    rng = np.random.default_rng(11)
    dim = inst.shape.dim
    states = rng.normal(size=(6, dim)) + 1j * rng.normal(size=(6, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    kernel = p0[:, np.linalg.norm(p0, axis=0).argmax()]
    states[0] = kernel / np.linalg.norm(kernel)
    before = states.copy()
    weight = quantum._kernel_weight(states, event_table(inst))
    exact = np.einsum("bi,ij,bj->b", states.conj(), p0, states).real
    assert np.abs(weight - exact).max() <= 1e-12
    assert abs(weight[0] - 1.0) <= 1e-12
    assert np.array_equal(states, before)


def test_exact_solver_reports_its_kernel_weight():
    inst = hadamard_ring()
    # a cap of (m + 1) steps: some runs fail
    cfg = ExactSolverConfig(p=2, m_prime=0.0)
    p0 = spectral_report(inst).p0
    outcomes = set()
    for seed in range(40):
        run = run_exact_solver(inst, cfg, seed)
        outcomes.add(run.success)
        if run.success:
            state = run.trajectory.state
            assert abs(run.kernel_weight - np.vdot(state, p0 @ state).real) <= 1e-12
        else:
            assert run.kernel_weight is None
    assert outcomes == {True, False}
    empty = QlllInstance.build(2, 2, [])
    run = run_exact_solver(empty, ExactSolverConfig(p=2, m_prime=0.0), 0)
    assert run.success and run.kernel_weight == 1.0


def test_budget_rejected():
    big = QlllInstance.build(16, 2, [([0], Q1)])
    with pytest.raises(ValueError):
        run_quantum_solver(big, seed=0, max_steps=1)


def test_negative_step_budget_rejected():
    inst = disjoint_pair()
    with pytest.raises(ValueError, match="max_steps must be nonnegative"):
        run_quantum_solver(inst, seed=0, max_steps=-5)
    assert run_quantum_solver(inst, seed=0, max_steps=0).log.total_steps == 0


def test_batch_negative_step_budget_rejected():
    inst = disjoint_pair()
    with pytest.raises(ValueError, match="max_steps must be nonnegative"):
        run_trajectory_batch(inst, seed=0, n_traj=4, max_steps=-1)
    batch = run_trajectory_batch(inst, seed=0, n_traj=4, max_steps=0)
    assert not batch.violations.any()


def test_batch_matches_scalar_statistics():
    inst = single_qubit_instance()
    n = 4000
    scalar = np.array(
        [len(run_quantum_solver(inst, seed=s, max_steps=60).log) for s in range(n)]
    )
    batch = run_trajectory_batch(inst, seed=123, n_traj=n, max_steps=60)
    sm, bm = scalar.mean(), batch.violations.mean()
    pooled = np.sqrt(scalar.var(ddof=1) / n + batch.violations.var(ddof=1) / n)
    assert abs(sm - bm) < 3 * pooled + 1e-12


def test_batch_deterministic_and_horizons():
    inst = disjoint_pair()
    a = run_trajectory_batch(inst, seed=5, n_traj=300, max_steps=40, horizons=(4, 40))
    b = run_trajectory_batch(inst, seed=5, n_traj=300, max_steps=40, horizons=(4, 40))
    assert np.array_equal(a.violations, b.violations)
    assert set(a.horizon_violations) == {4, 40}
    assert np.array_equal(a.horizon_violations[40], a.violations)
    assert (a.horizon_violations[4] <= a.violations).all()


def test_batch_first_labels():
    inst = disjoint_pair()
    batch = run_trajectory_batch(
        inst, seed=8, n_traj=500, max_steps=200, record_first=2,
        stop_after_violations=2,
    )
    assert batch.first_labels.shape == (500, 2)
    got2 = batch.violations >= 2
    assert (batch.first_labels[got2] >= 0).all()
    # unfilled slots are -1
    fresh = batch.violations == 0
    if fresh.any():
        assert (batch.first_labels[fresh] == -1).all()


def test_batch_first_labels_hold_large_ids():
    # ids above 32767 used to wrap negative in an int16 array
    m = 2 ** 15 + 1
    inst = QlllInstance.build(8, 2, [((i % 8,), Q1) for i in range(m)])
    batch = run_trajectory_batch(
        inst, seed=3, n_traj=64, max_steps=200, record_first=1,
        stop_after_violations=1,
    )
    first = batch.first_labels
    assert np.iinfo(first.dtype).max >= m - 1
    assert (batch.violations == 1).all()
    assert (first >= 0).all() and (first < m).all()


def test_batch_builds_one_layout_per_support(monkeypatch):
    # 2^15 + 1 events on 8 distinct supports: layouts are keyed by support
    built = []
    init = tensor.LocalPlan.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tensor.LocalPlan, "__init__", counting)
    m = 2 ** 15 + 1
    inst = QlllInstance.build(8, 2, [((i % 8,), Q1) for i in range(m)])
    run_trajectory_batch(
        inst, seed=3, n_traj=64, max_steps=200, record_first=1,
        stop_after_violations=1,
    )
    assert 0 < len(built) <= 8


def test_channels_reuse_the_state_vector_layouts(monkeypatch):
    # both engines read the instance's one event table: a channel set built
    # after a state-vector run on the same instance lays out no support again
    s = 1 / np.sqrt(2)
    bell = np.outer([0, s, s, 0], [0, s, s, 0])
    dense = np.full((4, 4), 0.25)  # |++><++|, nonzero on every local state
    events = [((0, 1), bell), ((2,), Q1), ((3, 1), basis_projector(4, [3])), ((0, 1), dense)]
    inst = QlllInstance.build(4, 2, events)
    run_converger(inst, seed=1, t=5, samples=20)  # reads every event's weight
    built = []
    init = tensor.LocalPlan.__init__
    monkeypatch.setattr(
        tensor.LocalPlan, "__init__", lambda self, *a: built.append(a) or init(self, *a)
    )
    ch = oracles.build_channels(inst)
    op = np.eye(16, dtype=complex) / 16
    for i in range(inst.m):
        ch.patch(i, op)
        assert ch._blocks[i] is event_table(inst).block(i)
    ch.continue_step(op, frozenset(range(inst.m)))
    assert built == []


def test_batch_norm_check_covers_every_row():
    states = np.zeros((100, 4), dtype=complex)
    states[:, 0] = 1.0
    _check_norm(states)
    states[99, 0] = 1.001
    with pytest.raises(RuntimeError, match="drifted by 2.00"):
        _check_norm(states)


def test_batch_mean_bound_single_projector():
    inst = single_qubit_instance()
    batch = run_trajectory_batch(inst, seed=77, n_traj=20_000, max_steps=400)
    mean = batch.violations.mean()
    sigma = batch.violations.std(ddof=1) / np.sqrt(len(batch.violations))
    assert abs(mean - 1.0) < 3 * sigma


def test_converger_t_zero_gives_relative_dimensions():
    inst = disjoint_pair()
    result = run_converger(inst, seed=6, t=0, samples=4000)
    for est in result.mean_violation_prob:
        assert abs(est - 0.5) < 3 * np.sqrt(0.25 / 4000)
    assert 0 <= result.ground_overlap <= 1


def test_converger_single_projector_epsilon():
    # t = m*E/eps with E=1, eps=0.1
    inst = single_qubit_instance()
    result = run_converger(inst, seed=10, t=10, samples=4000)
    est = result.mean_violation_prob[0]
    assert est <= 0.1 + 3 * np.sqrt(0.1 * 0.9 / 4000)


def test_converger_ground_overlap_pair():
    # commuting disjoint pair: E = 2, m = 2, eps = 0.25 -> t = 16
    inst = disjoint_pair()
    eps = 0.25
    result = run_converger(inst, seed=11, t=16, samples=4000)
    assert result.ground_overlap >= 1 - eps - 3 * np.sqrt(eps / 4000)


@pytest.mark.parametrize("make", [basis_chain, entangled_chain])
def test_converger_matches_channel_average(make):
    # tau uniform on 0..t: the converger estimates the mean over tau of the
    # averaged channel applied tau times to I/D
    inst = make()
    t, samples = 8, 4000
    dim = inst.shape.dim
    series = bench.cp_map_iterate(inst, np.eye(dim) / dim, t)
    result = run_converger(inst, seed=21, t=t, samples=samples)
    sigma = 0.5 / np.sqrt(samples)  # conservative for [0, 1] observables
    expect = series.violation_probs.mean(axis=0)
    assert np.abs(result.mean_violation_prob - expect).max() < 3 * sigma
    assert abs(result.ground_overlap - series.ground_overlap.mean()) < 3 * sigma


def test_converger_deterministic_in_seed():
    inst = entangled_chain()
    a = run_converger(inst, seed=4, t=6, samples=300)
    b = run_converger(inst, seed=4, t=6, samples=300)
    assert np.array_equal(a.mean_violation_prob, b.mean_violation_prob)
    assert a.ground_overlap == b.ground_overlap


def test_exact_solver_single_projector():
    inst = single_qubit_instance()
    cfg = ExactSolverConfig(p=2, m_prime=1.0)
    wins = sum(
        run_exact_solver(inst, cfg, seed=s).success for s in range(2000)
    )
    assert wins / 2000 >= 0.5 - 3 * np.sqrt(0.25 / 2000)


def test_exact_solver_zero_projectors_trivial_success():
    inst = zero_instance()
    cfg = ExactSolverConfig(p=2, m_prime=0.0)
    result = run_exact_solver(inst, cfg, seed=0)
    assert result.success
    assert len(result.trajectory.log) == 0
    # needs exactly m = 2 iterations
    assert result.trajectory.log.total_steps == 2


def test_exact_solver_disjoint_pair_success_and_kernel():
    # qubit 1's event first, as id 0
    inst = QlllInstance.build(2, 2, [([1], Q1), ([0], Q1)])
    cfg = ExactSolverConfig(p=4, m_prime=2.0)
    n = 1500
    wins = 0
    for s in range(n):
        result = run_exact_solver(inst, cfg, seed=s)
        if result.success:
            wins += 1
            state = result.trajectory.state
            # kernel of the pair is spanned by |00>
            assert abs(abs(state[0]) - 1) < 1e-8
    assert wins / n >= 0.75 - 3 * np.sqrt(0.25 * 0.75 / n)


def test_exact_solver_rejects_noncommuting():
    from qlll.instance import random_rank_projector
    from qlll.tensor import make_rng

    rng = make_rng(1)
    inst = QlllInstance.build(
        2,
        2,
        [
            ([0, 1], random_rank_projector(4, 1, rng)),
            ([0, 1], random_rank_projector(4, 1, rng)),
        ],
    )
    cfg = ExactSolverConfig(p=2, m_prime=1.0)
    with pytest.raises(ValueError):
        run_exact_solver(inst, cfg, seed=0)


def test_exact_solver_config_validation():
    with pytest.raises(ValueError):
        ExactSolverConfig(p=1, m_prime=1.0)
    with pytest.raises(ValueError):
        ExactSolverConfig(p=2, m_prime=-0.5)


def test_exact_solver_iteration_cap():
    cfg = ExactSolverConfig(p=3, m_prime=1.5)
    # (m+1)(p m' + 1) = 3 * 5.5 = 16.5 -> 17
    assert cfg.iteration_cap(2) == 17
