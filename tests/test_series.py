"""The outcome-operator sums: conjugate-gradient and GMRES solves.

Sums from the continue step with nothing absorbed come from one
conjugate-gradient solve each, and sums whose step absorbs ids from one
GMRES solve each; both measure each id once.  The values are checked
against per-term series (every iterate is summed on its own), kept here as
a reference.  In place of either solve it runs to a trace stop of 1e-17,
so its own truncation stays far below the tolerance.  Work counts wrap the
channel methods, so the claims "one solve per pass", "one measurement per
id per pass" and the step counts do not rest on wall-clock time.
"""

import numpy as np
import pytest

from qlll import bench, config, oracles
from qlll.errors import InvariantError
from qlll.instance import QlllInstance, basis_projector, random_rank_projector, spectral_report
from qlll.oracles import (
    ChannelSet,
    build_channels,
    halting_operator,
    partial_dag_channel_bound,
    sequence_operator,
    traced_continuation_bound,
)
from qlll.tensor import make_rng

TOL = 1e-13
REFERENCE_TRACE_STOP = 1e-17
Q1 = np.diag([0.0, 1.0]).astype(complex)


def per_term_series(term, step, start, stop, trace=np.trace):
    """Sum term(step^t(start)) term by term, up to the first term whose
    ``trace`` is below ``stop``, that term included."""
    s = np.asarray(start, dtype=complex)
    acc = np.zeros_like(s)
    for _ in range(config.SERIES_MAX_TERMS):
        t = term(s)
        acc += t
        if float(trace(t).real) < stop:
            return acc
        s = step(s)
    raise AssertionError("reference series did not converge")


def measured_by(channels, ids):
    """s -> the ids measured one after another, over m, from channel
    measurements alone."""

    def measured(s):
        for i in ids:
            s = channels.measure(i, s)
        return s / channels.m

    return measured


@pytest.fixture
def per_term(monkeypatch):
    """Run every solve as a per-term reference series."""

    def solve(channels, start, context):
        # the solve's X: the iterates of start less its fixed part, summed
        # until the measured trace tr(H s_t) of a term is below the stop
        p0 = spectral_report(channels.instance).p0
        ids = range(channels.m)
        return per_term_series(
            lambda s: s,
            channels.continue_step,
            start - p0 @ start @ p0,
            REFERENCE_TRACE_STOP,
            lambda s: sum(np.trace(channels.measure(i, s)) for i in ids) / channels.m,
        )

    def absorbed(channels, ids, absorbed, start, context):
        return per_term_series(
            measured_by(channels, ids),
            lambda s: channels.continue_step(s, absorbed),
            start,
            REFERENCE_TRACE_STOP,
        )

    def use():
        monkeypatch.setattr(oracles, "_krylov_solve", solve)
        monkeypatch.setattr(oracles, "_absorbed_solve", absorbed)

    return use


def exact_channel_instance():
    """The benchmark's non-commuting halting instance (D = 64), unturned."""
    rng = make_rng(3)
    events = [(sup, random_rank_projector(2 ** len(sup), 1, rng))
              for sup in [(0, 1, 2), (3, 4, 5), (1, 4)]]
    return QlllInstance.build(6, 2, events)


def noncommuting_d8():
    rng = make_rng(8)
    events = [(sup, random_rank_projector(4, 1 + int(rng.integers(2)), rng))
              for sup in [(0, 1), (2, 1), (0, 2)]]
    return QlllInstance.build(3, 2, events)


def three_disjoint():
    return QlllInstance.build(3, 2, [([0], Q1), ([1], Q1), ([2], Q1)])


def chain4():
    """Commuting, D = 16: three single-qubit events and a rank-1 pair event
    that meets the first."""
    return QlllInstance.build(
        4, 2, [([0], Q1), ([3], Q1), ([0, 1], basis_projector(4, [3])), ([2], Q1)]
    )


def eight_ones():
    """|1><1| on each of 8 qubits (D = 256); every pair is disjoint."""
    return QlllInstance.build(8, 2, [([i], Q1) for i in range(8)])


def absorbed_outputs():
    """The outputs of every sum whose step absorbs ids."""
    out = {}
    for inst, seq, gaps in [(three_disjoint(), (2,), [{0}]),
                            (chain4(), (0, 2), [{1, 3}, {1, 3}])]:
        report = partial_dag_channel_bound(inst, seq, gaps)
        out[f"partial {seq}"] = report["probability"]
    for name, inst, ids, gap in [("three disjoint", three_disjoint(), (1, 2), (0,)),
                                 ("chain4", chain4(), (1, 2), (3,))]:
        out[f"traced {name} {ids}"] = traced_continuation_bound(inst, ids, gap)["slack_min"]
    return out


def series_outputs():
    """Every solve caller's outputs, as floats and operators."""
    out = {}
    for a in (0.3, 0.7, 0.95):
        out[f"counterexample {a}"] = bench.counterexample_exact(a)
    for name, inst in (("exact-channel", exact_channel_instance()),
                       ("noncommuting", noncommuting_d8())):
        ch = build_channels(inst)
        for a in range(inst.m):
            out[f"{name} halt {a}"] = halting_operator(inst, a, ch).operator
    inst = noncommuting_d8()
    ch = build_channels(inst)
    for ids in [(0, 1), (1, 0, 2), (2, 2)]:
        out[f"sequence {ids}"] = sequence_operator(inst, ids, ch).operator
    return out | absorbed_outputs()


def test_solves_match_per_term_series(per_term):
    new = series_outputs()
    per_term()
    old = series_outputs()
    assert new.keys() == old.keys()
    for key in new:
        assert np.abs(np.asarray(new[key]) - np.asarray(old[key])).max() < TOL, key


def test_partial_bound_without_gaps_is_the_sequence_operator():
    # no stage absorbs an id, so both run the same solves, and both must
    # land on the per-term reference run to the 1e-17 trace stop
    inst, ids = chain4(), (0, 2)
    partial = partial_dag_channel_bound(inst, ids, [set(), set()])["probability"]
    sequence = sequence_operator(inst, ids).probability
    assert abs(partial - sequence) <= 1e-15
    ch = build_channels(inst)
    state = np.eye(inst.shape.dim, dtype=complex) / inst.shape.dim
    for a in ids:
        acc = per_term_series(
            measured_by(ch, (a,)), ch.continue_step, state, REFERENCE_TRACE_STOP
        )
        state = ch.refresh(a, acc)
    want = np.trace(state).real
    assert abs(partial - want) <= 1e-14
    assert abs(sequence - want) <= 1e-14


def test_absorbed_solve_cap_reports_the_relative_residual(monkeypatch):
    monkeypatch.setattr(config, "SERIES_MAX_TERMS", 1)
    inst, ids, gap = chain4(), (1, 2), (3,)
    with pytest.raises(InvariantError) as err:
        traced_continuation_bound(inst, ids, gap)
    # one GMRES step minimizes ||b - c A b|| over c, for b the measured
    # start and A = I - S, so the relative residual is the sine of the
    # angle between b and A b
    ch = build_channels(inst)
    D = inst.shape.dim
    b = ch.measure_all(ids, np.eye(D, dtype=complex) / D)
    ab = b - ch.continue_step(b, frozenset(gap))
    cos = abs(np.vdot(ab, b)) / (np.linalg.norm(ab) * np.linalg.norm(b))
    assert err.value.value == pytest.approx(np.sqrt(1 - cos**2), rel=1e-12)
    assert str(err.value) == (
        "traced bound (1, 2): GMRES did not converge within 1 steps"
        f" (relative residual {err.value.value:.3e} > 1e-12)"
    )


def test_absorbed_solve_restarts_on_a_small_basis(per_term, monkeypatch):
    # two D x D operators per Arnoldi basis at D = 16, eight at D = 8
    counts = Counts(monkeypatch)
    full = absorbed_outputs()
    steps = counts.calls["continue_step"]
    monkeypatch.setattr(config, "BATCH_STATE_ENTRIES", 2 * 16 * 16)
    counts.calls["continue_step"] = 0
    small = absorbed_outputs()
    # each restart applies the step once more, to the true residual
    assert counts.calls["continue_step"] > steps
    per_term()
    ref = absorbed_outputs()
    for key in ref:
        assert abs(small[key] - ref[key]) < TOL, key
        assert abs(full[key] - ref[key]) < TOL, key


def test_counterexample_still_matches_closed_form():
    for a in (0.3, 0.7, 0.95, 0.999):
        assert abs(bench.counterexample_exact(a)
                   - bench.counterexample_analytic(a)["pr_tau"]) < TOL


class Counts:
    def __init__(self, monkeypatch):
        self.calls = {"measure": 0, "continue_step": 0, "solve": 0, "absorbed": 0}
        for name in ("measure", "continue_step"):
            self._wrap(monkeypatch, ChannelSet, name)
        self._wrap(monkeypatch, oracles, "_krylov_solve", "solve")
        self._wrap(monkeypatch, oracles, "_absorbed_solve", "absorbed")

    def _wrap(self, monkeypatch, owner, attr, key=None):
        inner = getattr(owner, attr)
        key = key or attr

        def counted(*args, **kwargs):
            self.calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)


def test_halting_pass_measures_each_id_once(monkeypatch):
    inst = exact_channel_instance()
    counts = Counts(monkeypatch)
    build_channels(inst).halting_operators()
    assert counts.calls["solve"] == 1
    assert counts.calls["absorbed"] == 0
    assert counts.calls["measure"] == inst.m
    # one continue step per iteration plus one for the true residual
    assert counts.calls["continue_step"] <= 40


def test_counterexample_runs_three_series_passes(monkeypatch):
    counts = Counts(monkeypatch)
    bench.counterexample_exact(0.95)
    # the shared stage-0 solve, then stage 1 of each order; each stage
    # measures its own id
    assert counts.calls["solve"] == 3
    assert counts.calls["absorbed"] == 0
    assert counts.calls["measure"] == 2 + 2
    assert counts.calls["continue_step"] <= 40


def test_absorbed_stage_takes_few_steps(monkeypatch):
    # GMRES takes 15 continue steps here; a running sum of the iterates takes 156
    counts = Counts(monkeypatch)
    report = partial_dag_channel_bound(eight_ones(), (0,), [{1}])
    assert counts.calls["absorbed"] == 1
    assert counts.calls["continue_step"] <= 20
    # the exact value: 127 / 896
    assert abs(report["probability"] - 127 / 896) < 1e-15
