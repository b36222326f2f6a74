"""The operator series in its running-sum form and the dense continue step.

Every series keeps one running sum of the iterates and applies each pick
once, at its stop.  The values are checked at 1e-12 against the per-term
form (every term applies every open pick, steps run as local sandwiches),
kept here as a reference.  Work counts wrap the channel methods, so the
claim "one pick per id per pass" does not rest on wall-clock time.
"""

import numpy as np
import pytest

from qlll import bench, config, oracles
from qlll.instance import QlllInstance, basis_projector, random_rank_projector
from qlll.oracles import (
    ChannelSet,
    build_channels,
    halting_operator,
    partial_dag_channel_bound,
    sequence_operator,
    traced_continuation_bound,
)
from qlll.tensor import make_rng

TOL = 1e-12
Q1 = np.diag([0.0, 1.0]).astype(complex)


def per_term_series(picks, step, start, context):
    """Sum pick(step^t(start)) term by term: every open pick is applied to
    every iterate, and each sum stops on the trace of its own term."""
    s = np.asarray(start, dtype=complex)
    acc = {key: np.zeros_like(s) for key in picks}
    open_keys = list(picks)
    for _ in range(config.SERIES_MAX_TERMS):
        still = []
        for key in open_keys:
            term = picks[key].apply(s)
            acc[key] += term
            if float(term.trace().real) >= config.SERIES_TRACE_TOL:
                still.append(key)
        open_keys = still
        if not open_keys:
            return acc
        s = step(s)
    raise AssertionError(f"{context}: reference series did not converge")


@pytest.fixture
def per_term(monkeypatch):
    """Run the series term by term, with local continue steps."""

    def use():
        monkeypatch.setattr(oracles, "_series_sums", per_term_series)
        monkeypatch.setattr(ChannelSet, "continue_step", ChannelSet.continue_step_local)

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
    for inst, ids, gap in [(three_disjoint(), (1, 2), (0,)), (chain4(), (1, 2), (3,))]:
        out[f"traced {ids}"] = traced_continuation_bound(inst, ids, gap)["slack_min"]
    return out


def test_running_sum_matches_per_term_series(per_term):
    new = series_outputs()
    per_term()
    old = series_outputs()
    assert new.keys() == old.keys()
    for key in new:
        assert np.abs(np.asarray(new[key]) - np.asarray(old[key])).max() < TOL, key


def test_counterexample_still_matches_closed_form():
    for a in (0.3, 0.7, 0.95):
        assert abs(bench.counterexample_exact(a)
                   - bench.counterexample_analytic(a)["pr_tau"]) < 1e-8


class Counts:
    def __init__(self, monkeypatch):
        self.calls = {"measure": 0, "continue_step": 0, "series": 0}
        for name in ("measure", "continue_step"):
            self._wrap(monkeypatch, ChannelSet, name)
        self._wrap(monkeypatch, oracles, "_series_sums", "series")

    def _wrap(self, monkeypatch, owner, attr, key=None):
        inner = getattr(owner, attr)
        key = key or attr

        def counted(*args, **kwargs):
            self.calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)


def test_halting_pass_applies_each_pick_once(monkeypatch):
    inst = exact_channel_instance()
    counts = Counts(monkeypatch)
    build_channels(inst).halting_sums()
    assert counts.calls["series"] == 1
    assert counts.calls["measure"] == inst.m
    # the pass ran many terms, each one continue step
    assert counts.calls["continue_step"] > 10 * inst.m


def test_counterexample_runs_three_series_passes(monkeypatch):
    counts = Counts(monkeypatch)
    bench.counterexample_exact(0.95)
    # the shared stage-0 halting pass, then stage 1 of each order
    assert counts.calls["series"] == 3
    assert counts.calls["measure"] == 3 + 2
    assert counts.calls["continue_step"] > 1000


def test_dense_step_is_built_once_per_absorbed_set(monkeypatch):
    inst = chain4()
    assert inst.shape.dim <= oracles.DENSE_STEP_MAX_D
    ch = build_channels(inst)
    built = []
    inner = ChannelSet.continue_superoperator

    def counted(self, absorbed=frozenset()):
        built.append(frozenset(absorbed))
        return inner(self, absorbed)

    monkeypatch.setattr(ChannelSet, "continue_superoperator", counted)
    op = np.eye(16) / 16
    for absorbed in (frozenset(), frozenset({1}), frozenset(), frozenset({1})):
        step = ch.continue_step(op, absorbed)
        assert np.abs(step - ch.continue_step_local(op, absorbed)).max() < TOL
    assert built == [frozenset(), frozenset({1})]
    # a fresh channel set builds its own
    build_channels(inst).continue_step(op)
    assert len(built) == 3


def test_large_registers_step_locally(monkeypatch):
    inst = QlllInstance.build(5, 2, [([0], Q1), ([4], Q1)])
    assert inst.shape.dim > oracles.DENSE_STEP_MAX_D
    monkeypatch.setattr(ChannelSet, "continue_superoperator", None)
    ch = build_channels(inst)
    op = np.eye(32) / 32
    assert np.abs(ch.continue_step(op) - ch.continue_step_local(op)).max() == 0.0

