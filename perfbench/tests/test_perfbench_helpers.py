"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import host, live, report  # noqa: E402
from perfbench.stats import (  # noqa: E402
    METRIC_NAME,
    Ladder,
    Rung,
    check_metric_names,
    ladder_rates,
    percentile,
    supported,
)
from perfbench.trace import Tracer  # noqa: E402


# -- percentiles and their sample counts ---------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    assert not supported(999, 0.99)
    assert supported(1000, 0.99)
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989


def test_p50_needs_twenty_samples():
    assert percentile([1.0] * 19, 0.5) is None
    assert percentile([float(i) for i in range(20)], 0.5) == 9.0


def test_percentile_is_an_observed_sample_and_keeps_failures():
    values = [1.0] * 985 + [math.inf] * 15
    assert percentile(values, 0.99) == math.inf
    assert percentile(values, 0.5) == 1.0


def test_percentile_rejects_bad_quantiles():
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


# -- the ladder ----------------------------------------------------------------
def _rung(rate, p99_ms, backlog=0, n=1000):
    """A rung whose p99 (the 990th of 1000 samples) is ``p99_ms``."""
    return Rung(rate=rate, latencies_ms=[1.0] * (n - 11) + [p99_ms] * 11, backlog_at_end=backlog)


def test_rung_limit_and_backlog_rule():
    assert _rung(1000, 90.0).meets_limit
    assert not _rung(1000, 110.0).meets_limit
    # In flight at the end: at most one latency limit's worth of arrivals.
    assert _rung(1000, 10.0, backlog=100).meets_limit
    assert not _rung(1000, 10.0, backlog=101).meets_limit
    assert _rung(50, 10.0, backlog=10).keeps_pace
    # Too few samples for p99 never meets the limit.
    assert not _rung(1000, 10.0, n=500).meets_limit


def test_ladder_retries_once_then_stops():
    ladder = Ladder([100, 200, 300, 400])
    outcomes = iter([True, True, False, True, False, False])
    seen = []
    while (rate := ladder.next_rate()) is not None:
        seen.append(rate)
        ladder.record(next(outcomes))
    assert seen == [100, 200, 300, 300, 400, 400]
    assert ladder.stopped
    assert ladder.max_rate == 300


def test_ladder_that_never_passes_reports_zero():
    ladder = Ladder([100, 200])
    ladder.record(False)
    ladder.record(False)
    assert ladder.next_rate() is None
    assert ladder.max_rate == 0.0


def test_open_loop_records_each_rung_against_the_rate_it_ran(monkeypatch):
    """A missed light rung leaves the ladder alone; a missed heavy rung is re-run at the heavy rate."""
    shape = live.SHAPES["live-ring"]
    ran = []

    def fake_rung(dlog, rate, duration, seed, label):
        ran.append((label, rate))
        if label in ("light", "heavy"):
            return _rung(rate, 500.0), []
        return _rung(rate, 10.0 if rate <= shape.heavy else 500.0), []

    monkeypatch.setattr(live, "run_rung", fake_rung)
    opened = live.run_open(types.SimpleNamespace(shape=shape), seconds=60.0, seed=1)
    step = round(shape.heavy * live.LADDER_STEP)
    assert ran == [
        ("warm-up", shape.light), ("light", shape.light), ("heavy", shape.heavy),
        ("ladder-0", shape.heavy), ("ladder-1", step), ("ladder-2", step),
    ]
    assert opened.max_rate == shape.heavy
    assert [r.rate for r in opened.ladder] == [shape.heavy, step, step]


def test_ladder_rates_are_geometric_and_capped():
    assert ladder_rates(100, 2.0, 900) == [100, 200, 400, 800]
    with pytest.raises(ValueError):
        ladder_rates(100, 1.0, 900)


# -- host speed ------------------------------------------------------------------
def test_reference_seconds_scale_each_chunk_by_its_own_kernel_median():
    ref = host.REFERENCE_S
    # Half the work ran at reference speed, half on a host twice as slow.
    chunks = [(1.0, [ref, ref, 5 * ref]), (2.0, [2 * ref, 2 * ref])]
    assert host.reference_s(chunks) == pytest.approx(2.0)
    # An untimed chunk borrows the timings before it, or the first ones.
    assert host.reference_s([(1.0, []), (1.0, [ref]), (2.0, [])]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        host.reference_s([(1.0, [])])


def test_kernel_is_fixed_work():
    assert host.kernel() == host.kernel() > 0
    assert host.time_kernel(clock=iter([1.0, 1.5]).__next__) == 0.5


# -- arrival schedules ------------------------------------------------------------
def test_arrival_schedule_is_deterministic_in_the_seed():
    first = live.arrivals(500, 2.0, seed=7)
    again = live.arrivals(500, 2.0, seed=7)
    other = live.arrivals(500, 2.0, seed=8)
    assert first == again
    assert first != other
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 2.0
    assert 800 < len(first) < 1200


# -- metric names -----------------------------------------------------------------
def test_metric_names_match_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum()
    assert [m["name"] for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(report.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == report.unit_of(metric["name"])
    check_metric_names(dict.fromkeys(names))


def test_bad_metric_names_are_refused():
    for bad in ("p99 ms", ".hidden", "a" * 65, "lat/ms"):
        with pytest.raises(ValueError):
            check_metric_names({bad: 1.0})


# -- tracing wrappers ---------------------------------------------------------------
class _Target:
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_wrappers_record_spans_and_restore_originals():
    work, inner = _Target.__dict__["work"], _Target.__dict__["inner"]
    tracer = Tracer()
    seen = []
    tracer.wrap(_Target, "work", "outer", rid=lambda self, x: x,
                before=lambda start, self, x: seen.append(("before", x)),
                after=lambda start, end, result, self, x: seen.append(("after", result)))
    tracer.wrap(_Target, "inner", "inner")
    assert _Target().work(3) == 7
    tracer.restore()
    assert _Target.__dict__["work"] is work and _Target.__dict__["inner"] is inner
    assert seen == [("before", 3), ("after", 7)]
    totals = tracer.totals
    assert totals["outer"][0] == 1 and totals["inner"][0] == 1
    # Self time excludes the child span.
    assert totals["outer"][2] <= totals["outer"][1] - totals["inner"][1] + 1e-9
    (inner_rec,) = [r for r in tracer.records if r[0] == "inner"]
    (outer_rec,) = [r for r in tracer.records if r[0] == "outer"]
    assert inner_rec[3] == outer_rec[5]  # parent link
    assert outer_rec[4] == 3  # request id


def test_generator_wrapper_times_each_item_and_restores():
    module = types.SimpleNamespace(frames=lambda n: (i for i in range(n)))
    original = module.frames
    tracer = Tracer()
    tracer.wrap_generator(module, "frames", "decode")
    assert list(module.frames(3)) == [0, 1, 2]
    tracer.restore()
    assert module.frames is original
    assert tracer.count("decode") == 3


def test_wrapping_an_inherited_method_is_refused():
    class Child(_Target):
        pass

    with pytest.raises(AttributeError):
        Tracer().wrap(Child, "work", "x")


def test_live_hooks_restore_every_program_function():
    from repro.api import AtomicMulticast
    from repro.multiring.node import MultiRingNode
    from repro.ringpaxos.node import RingHost
    from repro.runtime import live as runtime_live

    targets = [
        (AtomicMulticast, "submit"), (RingHost, "propose_value"), (RingHost, "on_message"),
        (MultiRingNode, "notify_decision"), (runtime_live, "frame_message"),
        (runtime_live, "iter_frames"), (runtime_live.LiveFileStore, "write"),
        (runtime_live.LiveFileStore, "write_async"), (live.LiveDLog, "_apply"),
    ]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = Tracer()
    report._LiveHooks(tracer).install()
    assert all(getattr(o, a) is not b for (o, a), b in zip(targets, before))
    tracer.restore()
    assert all(getattr(o, a) is b for (o, a), b in zip(targets, before))


# -- the live correctness gate --------------------------------------------------------
class _FakeDLog:
    """The parts of :class:`live.LiveDLog` the gate reads."""

    def __init__(self, sequences):
        from repro.services.dlog.state import DLogStateMachine

        self.shape = live.SHAPES["live-ring"]
        self.sequences = sequences
        self.machines = {}
        for name, tags in sequences.items():
            machine = DLogStateMachine(logs=(live.LOG,))
            for _ in tags:
                machine.execute(("append", live.LOG, 128, "t"), live.GROUP)
            self.machines[name] = machine


def test_gate_accepts_a_learner_trailing_by_unacked_appends():
    dlog = _FakeDLog({"n0": ["a", "b", "c"], "n1": ["a", "b", "c"], "n2": ["a", "b"]})
    assert live.check_correct(dlog, ["a", "b"]) == []


def test_gate_flags_order_loss_and_duplicates():
    reordered = _FakeDLog({"n0": ["a", "b"], "n1": ["b", "a"], "n2": ["a", "b"]})
    assert any("diverges" in p for p in live.check_correct(reordered, ["a", "b"]))
    lost = _FakeDLog({"n0": ["a", "b"], "n1": ["a", "b"], "n2": ["a"]})
    assert any("missing at n2" in p for p in live.check_correct(lost, ["a", "b"]))
    twice = _FakeDLog({"n0": ["a", "a"], "n1": ["a", "a"], "n2": ["a", "a"]})
    assert any("twice" in p for p in live.check_correct(twice, ["a"]))


def test_gate_flags_disagreeing_tails():
    dlog = _FakeDLog({"n0": ["a"], "n1": ["a"], "n2": ["a"]})
    dlog.machines["n2"].execute(("append", live.LOG, 128, "x"), live.GROUP)
    assert any("tails" in p for p in live.check_correct(dlog, ["a"]))


def test_sim_gate_flags_counts_that_do_not_repeat(monkeypatch):
    from perfbench import sim

    # Each run: the light leg, then MIN_REPS heavy repetitions with the same seed.
    reps = sim.MIN_REPS
    counts = iter([(5, 50, 20)] + [(10, 100, 50)] * reps
                  + [(5, 50, 20)] + [(10, 100, 50)] * (reps - 1) + [(10, 101, 50)])

    def fake_leg(seed, threads):
        ops, events, messages = next(counts)
        return sim.Leg(threads=threads, setup_s=0.1, setup_cpu_s=0.1, wall_s=1.0,
                       measured_ops=1, cpu_s=1.0, ref_cpu_s=1.0, ops=ops, events=events,
                       messages=messages, latencies_ms=[1.0] * ops)

    monkeypatch.setattr(sim, "run_mrpstore_leg", fake_leg)
    assert sim.run_mrpstore(seed=1, seconds=0.0).problems == []
    (problem,) = sim.run_mrpstore(seed=1, seconds=0.0).problems
    assert "not deterministic" in problem
