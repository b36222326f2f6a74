"""The outcome-operator sums: conjugate-gradient solves and running-sum series.

Sums from the continue step with nothing absorbed come from one
conjugate-gradient solve each, and the absorbed-set series keep one running
sum of the iterates; both measure each id once.  The values are checked
against per-term series (every iterate is summed on its own), kept here as
a reference.  In place of a solve it runs to a trace stop of 1e-17, so its
own truncation stays far below the tolerance; in place of a running-sum
series it measures every term and keeps that series' stop rule, so the two
are the same sum.  Work counts wrap the channel methods, so the claims
"one solve per pass" and "one measurement per id per pass" do not rest on
wall-clock time.
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
    """Run every solve and series as a per-term reference series."""

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

    def series(channels, ids, absorbed, start, context):
        return per_term_series(
            measured_by(channels, ids),
            lambda s: channels.continue_step(s, absorbed),
            start,
            config.SERIES_TRACE_TOL,
        )

    def use():
        monkeypatch.setattr(oracles, "_krylov_solve", solve)
        monkeypatch.setattr(oracles, "_sandwich_series", series)

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


def series_outputs():
    """Every series caller's outputs, as floats and operators."""
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
    for inst, seq, gaps in [(three_disjoint(), (2,), [{0}]),
                            (chain4(), (0, 2), [{1, 3}, {1, 3}])]:
        report = partial_dag_channel_bound(inst, seq, gaps)
        out[f"partial {seq}"] = report["probability"]
    for name, inst, ids, gap in [("three disjoint", three_disjoint(), (1, 2), (0,)),
                                 ("chain4", chain4(), (1, 2), (3,))]:
        out[f"traced {name} {ids}"] = traced_continuation_bound(inst, ids, gap)["slack_min"]
    return out


def test_running_sum_matches_per_term_series(per_term):
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


def test_series_non_convergence_reports_the_last_increment(monkeypatch):
    monkeypatch.setattr(config, "SERIES_MAX_TERMS", 2)
    with pytest.raises(InvariantError) as err:
        traced_continuation_bound(chain4(), (1, 2), (3,))
    assert str(err.value) == (
        "traced bound (1, 2): operator series did not converge within 2 terms"
        " (series: last increment trace 7.812e-03)"
    )
    # the second term: every complement kills p, and only the absorbed id's
    # patch keeps I/D, so its pick trace is tr(p) / (D m^2) = 2 / (16 * 16)
    assert err.value.value == 2 ** -7


def test_counterexample_still_matches_closed_form():
    for a in (0.3, 0.7, 0.95, 0.999):
        assert abs(bench.counterexample_exact(a)
                   - bench.counterexample_analytic(a)["pr_tau"]) < TOL


class Counts:
    def __init__(self, monkeypatch):
        self.calls = {"measure": 0, "continue_step": 0, "solve": 0, "series": 0}
        for name in ("measure", "continue_step"):
            self._wrap(monkeypatch, ChannelSet, name)
        self._wrap(monkeypatch, oracles, "_krylov_solve", "solve")
        self._wrap(monkeypatch, oracles, "_sandwich_series", "series")

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
    assert counts.calls["series"] == 0
    assert counts.calls["measure"] == inst.m
    # one continue step per iteration plus one for the true residual
    assert counts.calls["continue_step"] <= 40


def test_counterexample_runs_three_series_passes(monkeypatch):
    counts = Counts(monkeypatch)
    bench.counterexample_exact(0.95)
    # the shared stage-0 solve, then stage 1 of each order; each stage
    # measures its own id
    assert counts.calls["solve"] == 3
    assert counts.calls["series"] == 0
    assert counts.calls["measure"] == 2 + 2
    assert counts.calls["continue_step"] <= 40
