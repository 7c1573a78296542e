"""Runs a workload, applies the correctness gate and names every metric.

Every workload reports the same metric names (``BENCHMARK.json``).  The
end-to-end ones, from untraced runs, carry a bound:

* ``setup_s`` -- the median over several set-ups in the run, each in
  reference CPU seconds of this process: on a live workload from
  constructing ``AtomicMulticast`` until one append is acked, on
  ``sim-mrpstore`` the world build plus loading 10k records;
* ``closed_ops_per_ref_cpu_s`` -- closed-loop ops completed per reference
  CPU second of the thread that runs the system: on a live workload, with
  32 appends in flight, appends acked per reference CPU second of the
  facade's loop thread; on ``sim-mrpstore`` the simulator's speed, client
  ops completed per reference CPU second of the simulating thread over all
  repetitions of the 100-thread leg.

A reference CPU second is a CPU second scaled by the host's current speed,
timed with a fixed kernel beside the work (:mod:`perfbench.host`).

The traced run (``--trace 1``) measures the open loop (live) or the
simulator's speed (sim) untraced first, then wraps the layer boundaries; it
reports them with the per-layer metrics.  Per-layer metrics that a
workload's backend does not have read 0.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import live as live_mod
from perfbench import sim as sim_mod
from perfbench.stats import LATENCY_LIMIT_MS, Rung, check_metric_names, percentile
from perfbench.trace import Tracer

Metrics = Dict[str, Tuple[float, str]]

END_TO_END = ("setup_s", "closed_ops_per_ref_cpu_s")

PER_LAYER = (
    "light.p50_ms", "light.p99_ms", "heavy.p50_ms", "heavy.p99_ms", "max_rate_ops",
    "fail_ratio", "sim.p50_ms", "sim.p99_ms",
    "api.submit_us", "api.handoff_ms.p50", "api.handoff_ms.p99",
    "gen.lag_ms.p50", "gen.lag_ms.p99", "gen.cpu_share", "loop.cpu_share",
    "codec.encode_us", "codec.decode_us", "codec.frames_per_op", "codec.bytes_per_op",
    "transport.msgs_per_op", "transport.wire_bytes_per_op",
    "clock.events_per_op", "clock.loop_lag_ms.p99",
    "ring.handler_us", "ring.instances_per_value",
    "storage.writes_per_op", "storage.fsync_ms.p50", "storage.fsync_ms.p99", "storage.busy_share",
    "merge.wait_ms.p50", "merge.wait_ms.p99", "leveling.skips_per_op", "merge.useful_ratio",
    "sim.events_per_op", "sim.msgs_per_op", "sim.events_per_s", "sim.net_send_share",
    "smr.cmds_per_batch", "mrpstore.apply_us",
    "trace.overhead_share",
)

#: Live set-ups per untraced run; the last one serves the closed loop.
SETUP_REPS = 9

UNITS = {
    "setup_s": "s", "_us": "us", "_ms": "ms", ".p50": "ms", ".p99": "ms", "_share": "ratio",
    "_ratio": "ratio", "_per_s": "1/s", "_per_ref_cpu_s": "1/s", "_ops": "1/s", "_per_op": "count",
    "_per_value": "count", "_per_batch": "count",
}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _metrics(values: Dict[str, float], names: Tuple[str, ...]) -> Metrics:
    missing = set(names) - set(values)
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    metrics = {name: (float(values[name]), unit_of(name)) for name in names}
    check_metric_names(metrics)
    return metrics


@dataclass
class Outcome:
    metrics: Metrics
    attempted: int
    failed: int
    problems: List[str]
    lines: List[str] = field(default_factory=list)


def _pct(values: List[float], q: float) -> float:
    """A supported percentile, or 0.0 when there are too few samples (per-layer only)."""
    value = percentile(values, q)
    return 0.0 if value is None else value


def _required(values: List[float], q: float, what: str) -> float:
    value = percentile(values, q)
    if value is None:
        raise RuntimeError(f"{what}: {len(values)} samples cannot support the {q:g} quantile")
    return value


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _rung_line(rung: Rung) -> str:
    return (
        f"{rung.label:<10} {rung.rate:>6.0f}/s n={rung.attempted:<5} failed={rung.failed:<3} "
        f"p50={_fmt(rung.p(0.5)):>7} p99={_fmt(rung.p(0.99)):>7} ms backlog={rung.backlog_at_end:<4} "
        f"{'ok  ' if rung.meets_limit else 'MISS'} gen.lag p50={_pct(rung.lag_ms, 0.5):.2f} "
        f"p99={_pct(rung.lag_ms, 0.99):.2f} ms cpu gen={rung.gen_cpu_share:.2f} "
        f"loop={rung.loop_cpu_share:.2f}"
    )


def _closed_line(closed: live_mod.ClosedRun) -> str:
    return (
        f"closed loop, {live_mod.CLOSED_WINDOW} in flight, {len(closed.acks)} windows of "
        f"{live_mod.CLOSED_WINDOW_S:g} s: {closed.ops_per_ref_cpu_s:.0f} appends per reference "
        f"loop CPU second, {closed.ops_per_cpu_s:.0f} per loop CPU second, "
        f"{closed.ops_per_wall_s:.0f} per wall second; loop CPU share {closed.loop_cpu_share:.2f} "
        f"(acks per window {closed.acks})"
    )


def _setup_line(setups: List[float], cpu: List[float], what: str) -> str:
    return (
        f"setup ({what}): median {statistics.median(setups) * 1e3:.2f} ms reference CPU "
        f"({statistics.median(cpu) * 1e3:.2f} ms CPU) of {len(setups)} set-ups "
        f"{[round(s * 1e3, 2) for s in setups]}"
    )


# ----------------------------------------------------------------------
# live workloads
# ----------------------------------------------------------------------
def live(workload: str, seed: int, seconds: float, trace: int, out_dir: str) -> Outcome:
    if trace:
        return _live_traced(workload, seed, seconds, out_dir)
    shape = live_mod.SHAPES[workload]
    storage_root = live_mod.make_storage_root(shape, out_dir)
    dlog = None
    begin = time.perf_counter()
    try:
        setups, setups_cpu = [], []
        for rep in range(SETUP_REPS):
            if dlog is not None:
                dlog.stop()
            gc.collect()  # the previous deployment's garbage is not set-up work
            directory = None if storage_root is None else os.path.join(storage_root, f"run{rep}")
            reference_s, cpu_s, dlog = live_mod.deploy(shape, seed * 100 + rep, directory)
            setups.append(reference_s)
            setups_cpu.append(cpu_s)
        gc.collect()
        measure_s = seconds - (time.perf_counter() - begin) - live_mod.WARM_S
        closed = live_mod.run_closed(dlog, max(2 * live_mod.CLOSED_WINDOW_S, measure_s))
        problems = live_mod.finish(dlog, closed.acked)
        dlog = None
    finally:
        if dlog is not None:
            dlog.stop()
        live_mod.remove_storage_root(storage_root)
    values = {
        "setup_s": statistics.median(setups),
        "closed_ops_per_ref_cpu_s": closed.ops_per_ref_cpu_s,
    }
    lines = [
        f"workload {workload}: 1 ring x {len(live_mod.NODES)} nodes, {shape.storage} logs, "
        f"{shape.size} B appends, seed {seed}",
        _setup_line(setups, setups_cpu, "AtomicMulticast constructed until one append is acked"),
        _closed_line(closed),
    ]
    failed = closed.attempted - len(closed.acked)
    return Outcome(_metrics(values, END_TO_END), closed.attempted, failed, problems, lines)


class _LiveHooks:
    """The traced run's wrappers around the live layers and their bookkeeping."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.submitted_at: Dict[str, float] = {}
        self.handoff_ms: List[float] = []
        self.decided_at: Dict[Tuple[str, int], float] = {}
        self.merge_wait_ms: List[float] = []
        self.encoded_bytes = 0

    def install(self) -> None:
        from repro.api import AtomicMulticast
        from repro.multiring.node import MultiRingNode
        from repro.ringpaxos.node import RingHost
        from repro.runtime import live as runtime_live

        t = self.tracer
        t.keep_durations("storage.write")

        def tag_of(api, group, operation, *rest, **kw):
            return operation[3]

        def on_submit(start, api, group, operation, *rest):
            self.submitted_at[operation[3]] = start

        def on_propose(start, end, result, host, group, value):
            payload = value.payload
            if isinstance(payload, tuple) and len(payload) == 4:
                sent = self.submitted_at.pop(payload[3], None)
                if sent is not None:
                    self.handoff_ms.append((start - sent) * 1e3)

        def on_decision(start, node, group, instance, value):
            if isinstance(value.payload, tuple):  # an append, not a skip or batch
                self.decided_at[(node.name, value.uid)] = start

        def on_encode(start, end, frame, *args):
            self.encoded_bytes += len(frame)

        t.wrap(AtomicMulticast, "submit", "api.submit", rid=tag_of, before=on_submit)
        t.wrap(RingHost, "propose_value", "api.propose", rid=lambda h, g, v: v.uid, after=on_propose)
        t.wrap(RingHost, "on_message", "ring.on_message",
               rid=lambda h, s, p: getattr(getattr(p, "value", None), "uid", None))
        t.wrap(MultiRingNode, "notify_decision", "merge.decision",
               rid=lambda n, g, i, v: v.uid, before=on_decision)
        t.wrap(runtime_live, "frame_message", "codec.encode", after=on_encode)
        t.wrap_generator(runtime_live, "iter_frames", "codec.decode")
        t.wrap(runtime_live.LiveFileStore, "write", "storage.write")
        t.wrap(runtime_live.LiveFileStore, "write_async", "storage.write_async")
        t.wrap(live_mod.LiveDLog, "_apply", "app.apply",
               rid=lambda d, n, delivery: delivery.value.uid, after=self._after_apply)

    def _after_apply(self, start, end, result, dlog, node, delivery) -> None:
        decided = self.decided_at.pop((node, delivery.value.uid), None)
        if decided is not None:
            self.merge_wait_ms.append((start - decided) * 1e3)


def _live_traced(workload: str, seed: int, seconds: float, out_dir: str) -> Outcome:
    """The open loop untraced, then the light and heavy rates again traced."""
    shape = live_mod.SHAPES[workload]
    tracer = Tracer()
    hooks = _LiveHooks(tracer)
    storage_root = live_mod.make_storage_root(shape, out_dir)
    dlog = None
    try:
        directory = None if storage_root is None else os.path.join(storage_root, "run")
        _, _, dlog = live_mod.deploy(shape, seed, directory)
        probe = live_mod.LoopProbe(dlog.am._loop)
        probe.start()
        opened = live_mod.run_open(dlog, seconds, seed)
        probe.stop()
        acked = list(opened.acked)
        counters0 = live_mod.counters(dlog)
        hooks.install()
        begin = time.perf_counter()
        light, tags = live_mod.run_rung(dlog, shape.light, shape.light_s, seed * 1000 + 1, "traced")
        acked += tags
        heavy, tags = live_mod.run_rung(dlog, shape.heavy, shape.heavy_s, seed * 1000 + 2, "traced")
        acked += tags
        wall = time.perf_counter() - begin
        counters = live_mod.counters(dlog)
        tracer.restore()
        problems = live_mod.finish(dlog, acked)
        dlog = None
    finally:
        tracer.restore()
        if dlog is not None:
            dlog.stop()
        live_mod.remove_storage_root(storage_root)

    traced_ops = sum(r.attempted - r.failed for r in (light, heavy))
    delta = {key: counters[key] - counters0[key] for key in counters}
    per_op = lambda key: delta[key] / traced_ops  # noqa: E731
    untraced_p50 = _required(opened.light.latencies_ms, 0.5, "untraced light p50")
    traced_p50 = _required(light.latencies_ms, 0.5, "traced light p50")
    writes_ms = [d * 1e3 for d in tracer.durations("storage.write")]
    rungs = opened.rungs
    attempted = sum(r.attempted for r in rungs)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "light.p50_ms": untraced_p50,
        "light.p99_ms": _pct(opened.light.latencies_ms, 0.99),
        "heavy.p50_ms": _pct(opened.heavy.latencies_ms, 0.5),
        "heavy.p99_ms": _pct(opened.heavy.latencies_ms, 0.99),
        "max_rate_ops": opened.max_rate,
        "fail_ratio": sum(r.failed for r in rungs) / attempted,
        "api.submit_us": tracer.mean_self_us("api.submit"),
        "api.handoff_ms.p50": _pct(hooks.handoff_ms, 0.5),
        "api.handoff_ms.p99": _pct(hooks.handoff_ms, 0.99),
        "gen.lag_ms.p50": _pct(opened.light.lag_ms + opened.heavy.lag_ms, 0.5),
        "gen.lag_ms.p99": _pct(opened.light.lag_ms + opened.heavy.lag_ms, 0.99),
        "gen.cpu_share": opened.heavy.gen_cpu_share,
        "loop.cpu_share": opened.heavy.loop_cpu_share,
        "codec.encode_us": tracer.mean_us("codec.encode"),
        "codec.decode_us": tracer.mean_us("codec.decode"),
        "codec.frames_per_op": tracer.count("codec.encode") / traced_ops,
        "codec.bytes_per_op": hooks.encoded_bytes / traced_ops,
        "transport.msgs_per_op": per_op("messages_sent"),
        "transport.wire_bytes_per_op": per_op("wire_bytes_sent"),
        "clock.events_per_op": per_op("events"),
        "clock.loop_lag_ms.p99": _pct(probe.lags_ms, 0.99),
        "ring.handler_us": tracer.mean_self_us("ring.on_message"),
        "ring.instances_per_value": delta["instances"] / max(1, delta["values"]),
        "storage.writes_per_op": per_op("store_ops"),
        "storage.fsync_ms.p50": _pct(writes_ms, 0.5),
        "storage.fsync_ms.p99": _pct(writes_ms, 0.99),
        "storage.busy_share": (tracer.total_s("storage.write") + tracer.total_s("storage.write_async")) / wall,
        "merge.wait_ms.p50": _pct(hooks.merge_wait_ms, 0.5),
        "merge.wait_ms.p99": _pct(hooks.merge_wait_ms, 0.99),
        "leveling.skips_per_op": per_op("skips"),
        "merge.useful_ratio": delta["delivered"] / max(1, delta["delivered"] + delta["skipped"]),
        "trace.overhead_share": (traced_p50 - untraced_p50) / untraced_p50,
    })
    os.makedirs(out_dir, exist_ok=True)
    spans_file = f"spans-{workload}-{seed}.jsonl"
    dumped = tracer.dump(os.path.join(out_dir, spans_file))
    lines = [f"traced run of {workload}, seed {seed}", "open loop, untraced:"]
    lines += [_rung_line(r) for r in rungs]
    lines += [
        f"max_rate_ops (p99 <= {LATENCY_LIMIT_MS:g} ms, no growing backlog): {opened.max_rate:.0f}/s",
        f"fail_ratio: {sum(r.failed for r in rungs)}/{attempted}",
        "traced:", _rung_line(light), _rung_line(heavy),
        f"tracing overhead: light p50 {untraced_p50:.2f} -> {traced_p50:.2f} ms, "
        f"p99 {_fmt(opened.light.p(0.99))} -> {_fmt(light.p(0.99))} ms; heavy p50 "
        f"{_fmt(opened.heavy.p(0.5))} -> {_fmt(heavy.p(0.5))} ms, p99 "
        f"{_fmt(opened.heavy.p(0.99))} -> {_fmt(heavy.p(0.99))} ms",
        f"spans: {dumped} kept in perfbench/out/{spans_file}; per-layer count and self time:",
    ] + tracer.table()
    attempted += light.attempted + heavy.attempted
    failed = sum(r.failed for r in rungs) + light.failed + heavy.failed
    return Outcome(_metrics(values, PER_LAYER), attempted, failed, problems, lines)


# ----------------------------------------------------------------------
# sim-mrpstore
# ----------------------------------------------------------------------
def sim(workload: str, seed: int, seconds: float, trace: int, out_dir: str) -> Outcome:
    if trace:
        return _sim_traced(seed, out_dir)
    result = sim_mod.run_mrpstore(seed, seconds)
    values = {
        "setup_s": statistics.median(result.setup_s),
        "closed_ops_per_ref_cpu_s": sum(leg.measured_ops for leg in result.heavy)
        / sum(leg.ref_cpu_s for leg in result.heavy),
    }
    lines = [
        f"workload sim-mrpstore: {sim_mod.PARTITIONS} partitions x 3 replicas, global ring, "
        f"async-SSD acceptors, YCSB-A, {sim_mod.RECORDS} records, "
        f"{sim_mod.LEG_S:g} s simulated per leg, seed {seed}",
        _setup_line(result.setup_s, result.setup_cpu_s, "world build and load, one per leg"),
    ] + [_leg_line(leg) for leg in [result.light] + result.heavy]
    attempted = result.light.ops + sum(leg.ops for leg in result.heavy)
    return Outcome(_metrics(values, END_TO_END), attempted, 0, result.problems, lines)


def _leg_line(leg: sim_mod.Leg) -> str:
    return (
        f"{leg.threads:>3} threads: {leg.ops} ops, {leg.events} events, {leg.messages} msgs "
        f"in {leg.wall_s:.2f} s wall, {leg.ops_per_ref_cpu_s:.0f} ops per reference CPU second, "
        f"{leg.ops_per_cpu_s:.0f} per CPU second; modelled "
        f"{leg.modelled_ops_per_s:.0f} ops/s, mean {statistics.fmean(leg.latencies_ms):.4f} "
        f"p50 {_pct(leg.latencies_ms, 0.5):.4f} "
        f"p99 {_pct(leg.latencies_ms, 0.99):.4f} ms (n={len(leg.latencies_ms)})"
    )


def _sim_traced(seed: int, out_dir: str) -> Outcome:
    """The light leg and an untraced heavy leg, then the heavy leg traced."""
    from repro.multiring.node import MultiRingNode
    from repro.services.mrpstore.state import MRPStoreStateMachine
    from repro.sim.network import Network
    from repro.smr.replica import Replica

    light = sim_mod.run_mrpstore_leg(seed, sim_mod.LIGHT_THREADS)
    base = sim_mod.run_mrpstore_leg(seed, sim_mod.HEAVY_THREADS)
    tracer = Tracer()
    decided_at: Dict[Tuple[str, int], float] = {}
    merge_wait_ms: List[float] = []

    def on_decision(start, node, group, instance, value):
        if not value.is_skip:
            decided_at[(node.name, value.uid)] = node.world.now

    def on_execute(start, replica, delivery):
        decided = decided_at.pop((replica.name, delivery.value.uid), None)
        if decided is not None:
            merge_wait_ms.append((replica.world.now - decided) * 1e3)

    tracer.wrap(Network, "send", "sim.net_send")
    tracer.wrap(MRPStoreStateMachine, "execute", "mrpstore.apply")
    tracer.wrap(MultiRingNode, "notify_decision", "merge.decision", before=on_decision)
    tracer.wrap(Replica, "_execute_delivery", "smr.execute", before=on_execute)
    try:
        leg = sim_mod.run_mrpstore_leg(seed, sim_mod.HEAVY_THREADS)
    finally:
        tracer.restore()
    problems = light.problems + base.problems + leg.problems
    if leg.counts != base.counts:
        problems.append(f"tracing changed the simulation: {base.counts} vs {leg.counts}")
    counts = leg.counters
    meets = [g for g in (light, base) if _required(g.latencies_ms, 0.99, "leg p99") <= LATENCY_LIMIT_MS]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "light.p50_ms": _required(light.latencies_ms, 0.5, "light leg p50"),
        "light.p99_ms": _required(light.latencies_ms, 0.99, "light leg p99"),
        "heavy.p50_ms": _required(base.latencies_ms, 0.5, "heavy leg p50"),
        "heavy.p99_ms": _required(base.latencies_ms, 0.99, "heavy leg p99"),
        "max_rate_ops": max((g.modelled_ops_per_s for g in meets), default=0.0),
        "sim.p50_ms": _required(base.latencies_ms, 0.5, "heavy leg p50"),
        "sim.p99_ms": _required(base.latencies_ms, 0.99, "heavy leg p99"),
        "ring.instances_per_value": counts["instances"] / max(1, counts["values"]),
        "storage.writes_per_op": counts["store_writes"] / leg.ops,
        "merge.wait_ms.p50": _pct(merge_wait_ms, 0.5),
        "merge.wait_ms.p99": _pct(merge_wait_ms, 0.99),
        "leveling.skips_per_op": counts["skips"] / leg.ops,
        "merge.useful_ratio": counts["delivered"] / max(1, counts["delivered"] + counts["skipped"]),
        "sim.events_per_op": leg.events / leg.ops,
        "sim.msgs_per_op": leg.messages / leg.ops,
        "sim.events_per_s": base.events / base.wall_s,
        "sim.net_send_share": tracer.total_s("sim.net_send") / leg.wall_s,
        "smr.cmds_per_batch": leg.commands / max(1, leg.batches),
        "mrpstore.apply_us": tracer.mean_us("mrpstore.apply"),
        "trace.overhead_share": (leg.wall_s - base.wall_s) / base.wall_s,
    })
    os.makedirs(out_dir, exist_ok=True)
    spans_file = f"spans-sim-mrpstore-{seed}.jsonl"
    dumped = tracer.dump(os.path.join(out_dir, spans_file))
    lines = [
        f"traced run of sim-mrpstore, seed {seed}",
        _leg_line(light), _leg_line(base), "traced:", _leg_line(leg),
        f"tracing overhead: {base.wall_s:.2f} -> {leg.wall_s:.2f} s wall",
        f"spans: {dumped} kept in perfbench/out/{spans_file}; per-layer count and self time:",
    ] + tracer.table()
    attempted = light.ops + base.ops + leg.ops
    return Outcome(_metrics(values, PER_LAYER), attempted, 0, problems, lines)
