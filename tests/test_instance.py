import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlll.instance import (
    IntersectionGraph,
    Projector,
    QlllInstance,
    basis_projector,
    certificate_from_x,
    check_lovasz,
    checked_certificate_search,
    find_certificate,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    intersection_graph,
    random_rank_projector,
    relative_dimension,
    spectral_report,
    support_graph,
    symmetric_condition,
)
import helpers
from helpers import kernel_projector
from qlll import bench, config
from qlll import instance as instance_module
from qlll.tensor import HilbertShape, make_rng

Q1 = np.array([[0, 0], [0, 1]], dtype=complex)  # |1><1|


def bad_event_pair():
    """Two disjoint rank-1 qubit events on a 2-qubit register."""
    return QlllInstance.build(2, 2, [([0], Q1), ([1], Q1)])


def counterexample_events(a):
    """Three bad events on two qubits whose certificate search must fail.

    The third event is the rank-1 projector onto sqrt(1-a)|00> - sqrt(a)|11>.
    """
    b = 1.0 - a
    psi_perp = np.zeros(4, dtype=complex)
    psi_perp[0] = np.sqrt(b)
    psi_perp[3] = -np.sqrt(a)
    third = np.outer(psi_perp, psi_perp.conj())
    return QlllInstance.build(2, 2, [([0], Q1), ([1], Q1), ([0, 1], third)])


def rank3_satisfied_space(a):
    """Rank-3 projector spanning sqrt(a)|00>+sqrt(1-a)|11>, |01>, |10>."""
    b = 1.0 - a
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(a)
    psi[3] = np.sqrt(b)
    p = np.outer(psi, psi.conj())
    p[1, 1] = 1.0
    p[2, 2] = 1.0
    return p


def test_projector_validation():
    Projector(0, (0,), Q1)  # fine
    with pytest.raises(ValueError):
        Projector(0, (), np.eye(1))
    with pytest.raises(ValueError):
        Projector(0, (0, 0), np.eye(4))
    with pytest.raises(ValueError):
        Projector(0, (0,), np.array([[0, 1], [0, 0]]))  # not Hermitian
    with pytest.raises(ValueError):
        Projector(0, (0,), np.eye(2) * 0.5)  # not idempotent
    with pytest.raises(ValueError):
        Projector(0, (0,), np.eye(3))  # qubit count mismatch caught at instance level
        QlllInstance(HilbertShape(1, 2), (Projector(0, (0,), np.eye(3)),))


def test_projector_rank():
    assert Projector(0, (0,), Q1).rank == 1
    assert Projector(0, (0, 1), rank3_satisfied_space(0.3)).rank == 3
    assert Projector(0, (0,), np.zeros((2, 2))).rank == 0


def test_instance_validation():
    shape = HilbertShape(2, 2)
    with pytest.raises(ValueError):
        QlllInstance(shape, (Projector(1, (0,), Q1),))  # ids must start at 0
    with pytest.raises(ValueError):
        QlllInstance(shape, (Projector(0, (5,), Q1),))  # qudit out of range
    with pytest.raises(ValueError):
        QlllInstance(shape, (Projector(0, (0, 1), Q1),))  # dim mismatch


def test_relative_dimension_examples():
    shape = HilbertShape(2, 2)
    assert relative_dimension(Projector(0, (0,), np.diag([1.0, 0.0])), shape) == 0.5
    p3 = Projector(0, (0, 1), rank3_satisfied_space(0.37))
    assert abs(relative_dimension(p3, shape) - 0.75) < 1e-12
    assert relative_dimension(Projector(0, (0,), np.zeros((2, 2))), shape) == 0.0


def test_relative_dimension_matches_embedded():
    inst = counterexample_events(0.3)
    D = inst.shape.dim
    for i, p in enumerate(inst.projectors):
        local = relative_dimension(p, inst.shape)
        embedded = np.trace(inst.embedded(i)).real / D
        assert abs(local - embedded) < 1e-12


def test_intersection_graph_counterexample():
    g = intersection_graph(counterexample_events(0.5))
    assert g.gamma(0) == frozenset({2})
    assert g.gamma(1) == frozenset({2})
    assert g.gamma(2) == frozenset({0, 1})
    assert g.gamma_plus(0) == frozenset({0, 2})


def test_intersection_graph_edge_cases():
    single = QlllInstance.build(1, 2, [([0], Q1)])
    assert intersection_graph(single).gamma(0) == frozenset()
    crowded = QlllInstance.build(1, 2, [([0], Q1), ([0], Q1), ([0], np.diag([1.0, 0.0]))])
    g = intersection_graph(crowded)
    for i in range(3):
        assert g.gamma(i) == frozenset(range(3)) - {i}
    # symmetry on a random subset structure
    rng = make_rng(3)
    subsets = [tuple(sorted(rng.permutation(4)[: int(rng.integers(1, 3))])) for _ in range(6)]
    pros = [(list(s), basis_projector(2 ** len(s), [0])) for s in subsets]
    g = intersection_graph(QlllInstance.build(4, 2, pros))
    for i in range(6):
        for j in range(6):
            if i != j:
                assert (j in g.gamma(i)) == (i in g.gamma(j))


def test_check_lovasz_disjoint_pair():
    inst = bad_event_pair()
    cert = certificate_from_x((0.5, 0.5), 0.0, intersection_graph(inst))
    result = check_lovasz(inst, cert)
    assert result.ok
    assert np.abs(result.slacks).max() < 1e-12


def test_check_lovasz_single_failing():
    inst = QlllInstance.build(1, 2, [([0], Q1)])
    cert = certificate_from_x((0.4,), 0.0, intersection_graph(inst))
    result = check_lovasz(inst, cert)
    assert not result.ok
    assert abs(result.slacks[0] + 0.1) < 1e-12


def test_check_lovasz_length_mismatch():
    inst = bad_event_pair()
    other = QlllInstance.build(1, 2, [([0], Q1)])
    cert = certificate_from_x((0.5,), 0.0, intersection_graph(other))
    with pytest.raises(ValueError):
        check_lovasz(inst, cert)


def grid_feasible(r1, r2, r3, points=101):
    """Brute-force search for Lovasz values on the counterexample graph.

    Events 0 and 1 are disjoint from each other, both meet event 2.
    """
    x = np.linspace(0.0, 1.0, points)
    x1 = x[:, None, None]
    x2 = x[None, :, None]
    x3 = x[None, None, :]
    ok = (
        (r1 <= x1 * (1 - x3))
        & (r2 <= x2 * (1 - x3))
        & (r3 <= x3 * (1 - x1) * (1 - x2))
    )
    return bool(ok.any())


def test_counterexample_infeasible_on_grid():
    # literal ranks (1/2, 1/2, 3/4) and complemented ranks (1/2, 1/2, 1/4)
    assert not grid_feasible(0.5, 0.5, 0.75)
    assert not grid_feasible(0.5, 0.5, 0.25)
    # sanity: the oracle does report feasible settings when they exist
    assert grid_feasible(0.1, 0.1, 0.1)


def test_find_certificate_disjoint_pair():
    inst = bad_event_pair()
    cert = find_certificate(inst, 0.0)
    assert cert is not None
    assert np.allclose(cert.x, [0.5, 0.5])
    assert check_lovasz(inst, cert).ok


def test_find_certificate_counterexample_infeasible():
    for a in (0.5, 1.0):
        inst = counterexample_events(a)
        assert find_certificate(inst, 0.0) is None
        assert scalar_sweep_certificate(inst, 0.0) is None
        assert checked_certificate_search(inst, 0.0) == (None, "infeasible", None)


def critical_pair(first_rank):
    """Events on qubits (0, 1) and (1, 2); the second has bad state 3."""
    first = basis_projector(4, [3] if first_rank == 1 else [2, 3])
    return QlllInstance.build(3, 2, [([0, 1], first), ([1, 2], basis_projector(4, [3]))])


def test_certificate_search_reports_why_it_failed():
    # R = 1/4 for both sits at the critical point: the sweep creeps
    # toward x = 1/2 and still moves when the sweep cap runs out
    assert checked_certificate_search(critical_pair(1)) == (None, "sweep_cap", None)
    assert find_certificate(critical_pair(1)) is None
    # R = (1/2, 1/4) has no fixed point below one, so x climbs the ceiling
    assert checked_certificate_search(critical_pair(2)) == (None, "infeasible", None)
    assert find_certificate(critical_pair(2)) is None
    cert, reason, check = checked_certificate_search(bad_event_pair())
    assert reason is None and cert == find_certificate(bad_event_pair())
    assert check.ok


def scalar_sweep_certificate(inst, epsilon):
    """Reference: the certificate search before the numpy sweep, one
    math.prod per event over its neighbours in increasing id order."""
    graph = intersection_graph(inst)
    r = inst.relative_dimensions()
    x = r / (1.0 - epsilon)
    if (x >= config.CERT_X_CEILING).any():
        return None
    gamma = [sorted(graph.gamma(i)) for i in range(inst.m)]
    for _ in range(config.CERT_MAX_SWEEPS):
        new = np.array([
            r[i] / ((1.0 - epsilon) * math.prod(1.0 - x[j] for j in gamma[i]))
            for i in range(inst.m)
        ])
        if (new >= config.CERT_X_CEILING).any():
            return None
        change = np.abs(new - x).max()
        x = new
        if change < config.CERT_SUP_CHANGE_TOL:
            cert = certificate_from_x(x, epsilon, graph)
            return cert if check_lovasz(inst, cert).ok else None
    return None


def ring_instance(events, seed):
    """Rank-1 basis events on (2i, 2i+1, 2i+2) mod 2*events, seeded states."""
    n = 2 * events
    states = make_rng(seed).integers(0, 8, size=events)
    return QlllInstance.build(n, 2, [
        ((2 * i, 2 * i + 1, (2 * i + 2) % n), basis_projector(8, [int(states[i])]))
        for i in range(events)
    ])


def scattered_instance(seed):
    """Rank-1 events on random 3- to 5-qubit subsets of 120 qubits, so the
    neighbourhoods have many sizes (at seed 4, one is empty)."""
    rng = make_rng(seed)
    events = []
    for _ in range(30):
        k = int(rng.integers(3, 6))
        qudits = tuple(int(q) for q in rng.choice(120, size=k, replace=False))
        events.append((qudits, basis_projector(2 ** k, [int(rng.integers(2 ** k))])))
    return QlllInstance.build(120, 2, events)


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_certificate_sweep_bitwise_equal_to_scalar_loop(epsilon):
    cases = [ring_instance(300, 1), scattered_instance(3), scattered_instance(4)]
    cases += [inst for inst, _ in bench.certified_commuting_corpus(10, seed=41)]
    certified = 0
    for inst in cases:
        got = find_certificate(inst, epsilon)
        want = scalar_sweep_certificate(inst, epsilon)
        if want is None:
            assert got is None
            continue
        certified += 1
        assert got.x == want.x and got.x_prime == want.x_prime
    assert certified >= 10


def test_find_certificate_empty_instance():
    inst = QlllInstance(HilbertShape(1, 2), ())
    cert = find_certificate(inst, 0.0)
    assert cert is not None
    assert cert.x == ()
    assert check_lovasz(inst, cert).ok


def test_find_certificate_strengthened_monotone():
    # chain of two low-rank events: feasible at eps=0, x grows with eps
    p = basis_projector(8, [0])
    inst = QlllInstance.build(4, 2, [([0, 1, 2], p), ([1, 2, 3], p)])
    c0 = find_certificate(inst, 0.0)
    c2 = find_certificate(inst, 0.2)
    assert c0 is not None and c2 is not None
    assert check_lovasz(inst, c2).ok
    assert all(b >= a - 1e-12 for a, b in zip(c0.x, c2.x))
    # strengthened slack: R <= (1-eps) x' must hold with the stored epsilon
    assert c2.epsilon == 0.2


def test_certificate_validation():
    inst = bad_event_pair()
    g = intersection_graph(inst)
    with pytest.raises(ValueError):
        certificate_from_x((1.5, 0.5), 0.0, g)
    with pytest.raises(ValueError):
        certificate_from_x((0.5, 0.5), -0.1, g)
    cert = certificate_from_x((0.3, 0.4), 0.0, g)
    assert cert.x_prime == pytest.approx((0.3, 0.4))  # empty neighborhoods


def test_symmetric_condition_examples():
    assert symmetric_condition(5, 1, 2)
    assert not symmetric_condition(3, 1, 1)
    assert symmetric_condition(3, 7, 0)
    with pytest.raises(ValueError):
        symmetric_condition(0, 1, 1)
    with pytest.raises(ValueError):
        symmetric_condition(1, 0, 1)


def test_symmetric_condition_threshold():
    # 2^k/(e r k) for k=5, r=1 is about 2.354: 2 passes, 3 fails
    assert symmetric_condition(5, 1, 2)
    assert not symmetric_condition(5, 1, 3)


def test_spectral_report_single_projector():
    inst = QlllInstance.build(1, 2, [([0], Q1)])
    rep = spectral_report(inst)
    assert np.allclose(rep.eigenvalues, [0.0, 1.0])
    assert rep.delta == pytest.approx(1.0)
    assert rep.ground_dim == 1
    assert np.allclose(rep.p0, np.diag([1.0, 0.0]))


def test_spectral_report_disjoint_pair():
    inst = bad_event_pair()
    assert inst.is_commuting()
    rep = spectral_report(inst)
    assert rep.delta == pytest.approx(0.5)
    assert rep.ground_dim == 1
    assert np.allclose(rep.p0, np.diag([1.0, 0.0, 0.0, 0.0]))
    # commuting instances: p0 is the product of the complements
    prod = np.eye(4)
    for i in range(2):
        prod = prod @ (np.eye(4) - inst.embedded(i))
    assert np.abs(rep.p0 - prod).max() < 1e-10


def test_spectral_report_counterexample_dense_oracle():
    a = 0.5
    inst = counterexample_events(a)
    rep = spectral_report(inst)
    h = sum(inst.embedded(i) for i in range(3)) / 3.0
    ev = np.linalg.eigvalsh(h)
    assert np.allclose(rep.eigenvalues, ev, atol=1e-10)
    distinct = ev[ev > ev[0] + 1e-9]
    assert rep.delta == pytest.approx(distinct[0] - ev[0], abs=1e-10)
    assert np.abs(rep.p0 - kernel_projector(3.0 * h)).max() < 1e-10


def test_spectral_report_p0_annihilated():
    inst = bad_event_pair()
    rep = spectral_report(inst)
    for i in range(2):
        assert np.abs(inst.embedded(i) @ rep.p0).max() < 1e-8


def test_spectral_report_is_kept_and_read_only():
    inst = bad_event_pair()
    rep = spectral_report(inst)
    assert spectral_report(inst) is rep
    for arr in (rep.p0, rep.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_spectral_gap_variational_form():
    # random states orthogonal to the kernel average at least delta violation
    inst = bad_event_pair()
    rep = spectral_report(inst)
    h = sum(inst.embedded(i) for i in range(2)) / 2.0
    comp = np.eye(4) - rep.p0
    rng = make_rng(17)
    for _ in range(100):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = comp @ psi
        psi /= np.linalg.norm(psi)
        assert (psi.conj() @ h @ psi).real >= rep.delta - 1e-9


def table_shapes():
    """Events with unsorted qudits, on qutrits, dense and complex, with
    negative real entries and all zero; and a ring of dense events."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    minus = np.kron(h @ np.diag([0.0, 1.0]) @ h, np.diag([1.0, 0.0]))
    rng = make_rng(19)
    return {
        "unsorted": QlllInstance.build(4, 2, [
            ((3, 0), basis_projector(4, [1])),
            ((2, 1, 0), basis_projector(8, [5, 6])),
            ((1, 3), np.zeros((4, 4))),
        ]),
        "qutrits": QlllInstance.build(3, 3, [
            ((2, 0), basis_projector(9, [4, 7])),
            ((1,), basis_projector(3, [2])),
        ]),
        "dense complex": QlllInstance.build(4, 2, [
            ((q, (q + 2) % 4), random_rank_projector(4, 1 + q % 2, rng))
            for q in (3, 0, 1)
        ]),
        "negative real": QlllInstance.build(3, 2, [((2, 0), minus), ((1, 2), minus)]),
        "hadamard ring": helpers.hadamard_ring(),
    }


@pytest.mark.parametrize("name", list(table_shapes()))
def test_hamiltonian_from_the_event_table_is_the_dense_sum(monkeypatch, name):
    inst = table_shapes()[name]
    fed = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: fed.append(h.copy()) or eigh(h))
    spectral_report(inst)
    dense = np.zeros((inst.shape.dim,) * 2, dtype=complex)
    for i in range(inst.m):
        dense += inst.embedded(i)
    dense /= inst.m
    assert fed[0].tobytes() == dense.tobytes()


# eigenvalues and p0 bytes of the dense-sum route; D <= 256 with events whose
# spectra do not depend on the BLAS thread count
SPECTRAL_PINS = {
    "hadamard_chain": "4503340157151abd96ac88e05c246b64f41e5de5028bdf7e42684260c430b31f",
    "random_qubit_pair": "55a6ba3ff175f336548146a4a75db9fff7f097c8efb899f5e761b5366e7e8355",
    "basis_ring": "b6aedc18f4070edaa44c672e5c0abe958c4ac24190090b402b2640391652ec03",
}


@pytest.mark.parametrize("name", list(SPECTRAL_PINS))
def test_spectral_report_bytes_are_pinned(name):
    rep = spectral_report(getattr(helpers, name)())
    digest = hashlib.sha256(rep.eigenvalues.tobytes() + rep.p0.tobytes()).hexdigest()
    assert digest == SPECTRAL_PINS[name]


def arrays_in(value):
    """Every numpy array reachable from value through containers and
    object attributes."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from arrays_in(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from arrays_in(v)
    elif hasattr(value, "__dict__"):
        yield from arrays_in(vars(value))


def test_spectral_report_keeps_no_dense_event_copy(monkeypatch):
    # nine |111> events on a ring of nine qubits, D = 512
    inst = QlllInstance.build(9, 2, [
        ((i, (i + 1) % 9, (i + 2) % 9), basis_projector(8, [7])) for i in range(9)
    ])
    dims = []
    embed = instance_module.embed
    monkeypatch.setattr(
        instance_module, "embed",
        lambda op, qudits, shape: dims.append(shape.dim) or embed(op, qudits, shape),
    )
    rep = spectral_report(inst)
    assert rep.ground_dim > 0 and inst.is_commuting()
    assert 512 not in dims
    kept = {k: v for k, v in vars(inst).items() if k != "_spectral"}
    assert not [a.shape for a in arrays_in(kept) if a.shape == (512, 512)]


def commutation_status(inst):
    """What the instance has recorded of its commutation check."""
    if inst._commuting is None:
        return "unchecked"
    return "commuting" if inst._commuting else "noncommuting"


def test_commutation_flags():
    inst = bad_event_pair()
    assert commutation_status(inst) == "unchecked"
    assert inst.is_commuting()
    assert commutation_status(inst) == "commuting"

    rng = make_rng(4)
    noncom = QlllInstance.build(
        2,
        2,
        [
            ([0, 1], random_rank_projector(4, 2, rng)),
            ([0, 1], random_rank_projector(4, 2, rng)),
        ],
    )
    assert not noncom.is_commuting()
    assert commutation_status(noncom) == "noncommuting"


def test_counterexample_commutes_only_at_a_one():
    assert counterexample_events(1.0).is_commuting()
    assert not counterexample_events(0.5).is_commuting()


def test_basis_and_random_projectors():
    p = basis_projector(4, [1, 3])
    assert np.allclose(p, np.diag([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        basis_projector(4, [4])
    with pytest.raises(ValueError):
        basis_projector(4, [1, 1])

    rng = make_rng(5)
    r = random_rank_projector(8, 3, rng)
    assert np.abs(r @ r - r).max() < 1e-12
    assert np.abs(r - r.conj().T).max() < 1e-12
    assert abs(np.trace(r).real - 3.0) < 1e-12


def test_json_round_trip():
    inst = counterexample_events(0.25)
    data = instance_to_dict(inst)
    again = instance_from_dict(json.loads(json.dumps(data)))
    assert again.shape == inst.shape
    for i in range(3):
        assert np.abs(again.projectors[i].local_matrix - inst.projectors[i].local_matrix).max() < 1e-15
    assert instance_digest(inst) == instance_digest(again)


def test_json_kinds():
    data = {
        "n": 2,
        "d": 2,
        "projectors": [
            {"qudits": [0], "kind": "basis", "states": [1]},
            {"qudits": [0, 1], "kind": "rank_random", "rank": 2, "seed": 9},
        ],
    }
    inst = instance_from_dict(data)
    assert np.allclose(inst.projectors[0].local_matrix, Q1)
    assert inst.projectors[1].rank == 2
    # rank_random is deterministic in the seed
    again = instance_from_dict(data)
    assert np.abs(inst.projectors[1].local_matrix - again.projectors[1].local_matrix).max() == 0.0


def test_digest_sensitive_to_content():
    a = counterexample_events(0.25)
    b = counterexample_events(0.26)
    assert instance_digest(a) != instance_digest(b)


def _pairwise_neighbors(supports):
    sets = [set(s) for s in supports]
    return tuple(
        frozenset(j for j in range(len(sets)) if j != i and sets[i] & sets[j])
        for i in range(len(sets))
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True),
                max_size=12))
def test_support_graph_matches_pairwise(supports):
    got = support_graph(supports).neighbors
    want = _pairwise_neighbors(supports)
    assert got == want
    # same iteration order too, so products over a neighbourhood round alike
    assert [list(s) for s in got] == [list(s) for s in want]


def test_intersection_graph_type():
    g = intersection_graph(bad_event_pair())
    assert isinstance(g, IntersectionGraph)
    assert g.size == 2
