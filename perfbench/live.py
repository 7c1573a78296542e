"""Open-loop dLog on the live backend (loopback TCP, one OS process).

Every arrival is ``("append", log, size, tag)`` submitted through the public
:meth:`repro.api.AtomicMulticast.submit`; every learner applies the
appends it delivers to its own :class:`DLogStateMachine`.  The calling
thread is the open-loop generator: it sleeps until each arrival's intended
instant and submits it, so the process has two busy threads -- this one and
the facade's event-loop thread.  Latency runs from the intended instant to
the ack at the group's witness learner; an arrival never acked counts as
``inf``.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import AtomicMulticast
from repro.config import MultiRingConfig
from repro.runtime.interfaces import StorageMode
from repro.services.dlog.state import DLogStateMachine
from repro.workloads.engine import OpenLoopSampler, PhaseSchedule

from perfbench import host
from perfbench.stats import Ladder, Rung, ladder_rates

NODES = ("n0", "n1", "n2")
#: The one ring: its group, and the dLog log every append goes to.
GROUP = "dlog"
LOG = "log"
#: How long a rung's stragglers may take to ack before they count as failed.
DRAIN_S = 2.0
#: Arrivals per measured stretch aim at this many samples so p99 has support.
RUNG_SAMPLES = 1200
#: Unmeasured load before measuring (lazy set-up, caches).
WARM_S = 1.0
#: Ladder rates climb in steps of this factor above the heavy rate.
LADDER_STEP = 1.08
#: Appends in flight in the closed loop, and the length of the windows its
#: acks are counted in (printed, to show the rate over time).
CLOSED_WINDOW = 32
CLOSED_WINDOW_S = 0.5
#: The closed loop times the host's reference kernel on the loop thread this
#: often (about 2% of the thread's time).
KERNEL_TICK_S = 0.01


@dataclass(frozen=True)
class LiveShape:
    """One live workload: acceptor storage, append size and load levels."""

    storage: str  # "memory" or a StorageMode value
    size: int
    #: Open-loop rates (appends/s) and how long each is held; both hold
    #: enough arrivals for a supported p99.
    light: float
    light_s: float
    heavy: float
    heavy_s: float
    ladder_top: float


SHAPES: Dict[str, LiveShape] = {
    "live-ring": LiveShape(
        storage="memory", size=128, light=400, light_s=3.0, heavy=1200, heavy_s=1.5,
        ladder_top=4000,
    ),
    "live-ring-sync": LiveShape(
        storage="sync-ssd", size=1024, light=150, light_s=8.0, heavy=300, heavy_s=4.0,
        ladder_top=2000,
    ),
}


def arrivals(rate: float, duration: float, seed: int) -> List[float]:
    """Arrival offsets in seconds: Poisson at ``rate`` for ``duration``.

    Times come from :class:`repro.workloads.engine.OpenLoopSampler`.
    """
    sampler = OpenLoopSampler(
        PhaseSchedule.constant(rate, duration, theta=0.0),
        key_space=1, users=1, seed=seed, op="append",
    )
    return [e.time for e in sampler.events()]


def thread_cpu(ident: int) -> float:
    return time.clock_gettime(time.pthread_getcpuclockid(ident))


class LiveDLog:
    """A live dLog deployment plus its per-learner replicas and records."""

    def __init__(self, shape: LiveShape, seed: int, storage_dir: Optional[str]) -> None:
        self.shape = shape
        mode = StorageMode.MEMORY if shape.storage == "memory" else StorageMode(shape.storage)
        config = MultiRingConfig.datacenter(rate_leveling=False)
        self.am = AtomicMulticast(
            backend="live", seed=seed, config=config, storage_dir=storage_dir
        )
        self.am.ring(
            GROUP, acceptors=list(NODES), learners=list(NODES), coordinator=NODES[0], storage=mode,
        )
        self.machines = {n: DLogStateMachine(logs=(LOG,)) for n in NODES}
        #: Per learner: tags in delivery order.
        self.sequences: Dict[str, List[str]] = {n: [] for n in NODES}
        self._counter = 0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        self.am.__enter__()
        self.call_on_loop(self._hook_learners)

    def stop(self) -> None:
        self.am.__exit__(None, None, None)

    @property
    def loop_ident(self) -> int:
        return self.am._thread.ident

    def call_on_loop(self, fn: Callable[[], object], timeout: float = 10.0) -> object:
        """Run ``fn`` on the facade's loop thread and return its result."""
        done = threading.Event()
        box: list = []

        def _run() -> None:
            try:
                box.append(fn())
            finally:
                done.set()

        self.am._loop.call_soon_threadsafe(_run)
        if not done.wait(timeout):
            raise TimeoutError("the live loop did not run a posted call")
        return box[0] if box else None

    def _hook_learners(self) -> None:
        for name in NODES:
            self.am.node(name).on_deliver(
                lambda d, name=name: self._apply(name, d)
            )

    def _apply(self, node: str, delivery) -> None:
        operation = delivery.value.payload
        self.machines[node].execute(operation, delivery.group)
        self.sequences[node].append(operation[3])

    # -- traffic ----------------------------------------------------------
    def submit(self):
        self._counter += 1
        tag = f"a{self._counter}"
        operation = ("append", LOG, self.shape.size, tag)
        return tag, self.am.submit(GROUP, operation, size_bytes=64 + self.shape.size)


class LoopProbe:
    """Measures event-loop lag: a callback re-armed every ``period`` seconds."""

    def __init__(self, loop, period: float = 0.005) -> None:
        self._loop = loop
        self._period = period
        self.lags_ms: List[float] = []
        self._stopped = False
        self._due = 0.0

    def start(self) -> None:
        self._loop.call_soon_threadsafe(self._arm)

    def _arm(self) -> None:
        self._due = self._loop.time() + self._period
        self._loop.call_at(self._due, self._fire)

    def _fire(self) -> None:
        self.lags_ms.append((self._loop.time() - self._due) * 1e3)
        if not self._stopped:
            self._arm()

    def stop(self) -> None:
        self._stopped = True


def run_rung(
    dlog: LiveDLog, rate: float, duration: float, seed: int, label: str
) -> Tuple[Rung, List[str]]:
    """Drive one fixed-rate stretch; return it and the tags that were acked."""
    schedule = arrivals(rate, duration, seed)
    n = len(schedule)
    acks = [0.0] * n
    intended = [0.0] * n
    tags: List[str] = [""] * n
    lags = [0.0] * n
    perf = time.perf_counter
    loop_ident = dlog.loop_ident
    gen_ident = threading.get_ident()
    cpu_gen0, cpu_loop0 = thread_cpu(gen_ident), thread_cpu(loop_ident)
    origin = perf() + 0.01
    wall0 = perf()

    def _acked(index: int):
        def _done(_future) -> None:
            acks[index] = perf()
        return _done

    for index, offset in enumerate(schedule):
        due = origin + offset
        delay = due - perf()
        if delay > 0:
            time.sleep(delay)
        sent = perf()
        tag, future = dlog.submit()
        future.add_done_callback(_acked(index))
        intended[index] = due
        lags[index] = (sent - due) * 1e3
        tags[index] = tag
    backlog = sum(1 for t in acks if t == 0.0)
    deadline = perf() + DRAIN_S
    while perf() < deadline and any(t == 0.0 for t in acks):
        time.sleep(0.005)
    wall = perf() - wall0
    cpu_gen = thread_cpu(gen_ident) - cpu_gen0
    cpu_loop = thread_cpu(loop_ident) - cpu_loop0
    # Snapshot: a late ack may still land; it counts as failed.
    acked = list(acks)
    rung = Rung(
        rate=rate,
        latencies_ms=[
            (a - i) * 1e3 if a > 0.0 else math.inf for a, i in zip(acked, intended)
        ],
        backlog_at_end=backlog,
        lag_ms=lags,
        gen_cpu_share=cpu_gen / wall,
        loop_cpu_share=cpu_loop / wall,
        label=label,
    )
    return rung, [tag for tag, a in zip(tags, acked) if a > 0.0]


def wait_converged(dlog: LiveDLog, expected: int, timeout: float = 10.0) -> None:
    """Wait until every learner delivered at least ``expected`` appends and all agree in length."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        lengths = {len(s) for s in dlog.sequences.values()}
        if len(lengths) == 1 and min(lengths) >= expected:
            return
        time.sleep(0.01)


def check_correct(dlog: LiveDLog, acked: List[str]) -> List[str]:
    """The correctness gate; returns the violations found (empty = correct).

    Every learner's sequence must be a prefix of the longest one (one order
    everywhere; a learner may trail only by appends that were never acked),
    nothing may be delivered twice, every acked append must be everywhere,
    and learners that delivered the same appends must hold the same dLog
    tail.
    """
    problems: List[str] = []
    sequences = dlog.sequences
    reference = max(sequences.values(), key=len)
    for name in NODES:
        if sequences[name] != reference[: len(sequences[name])]:
            problems.append(f"delivery order at {name} diverges")
    if len(set(reference)) != len(reference):
        problems.append("an append was delivered twice")
    wanted = set(acked)
    for name in NODES:
        missing = wanted - set(sequences[name])
        if missing:
            problems.append(f"{len(missing)} acked appends missing at {name}")
    tails = {
        name: (dlog.machines[name].next_position(LOG), dlog.machines[name].total_bytes(LOG))
        for name in NODES
        if len(sequences[name]) == len(reference)
    }
    if len(set(tails.values())) != 1:
        problems.append(f"dLog tails disagree: {tails}")
    return problems


def make_storage_root(shape: LiveShape, out_dir: str) -> Optional[str]:
    """A fresh directory for durable acceptor logs, or ``None`` for memory logs."""
    if shape.storage == "memory":
        return None
    os.makedirs(out_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix="store-", dir=out_dir)


def remove_storage_root(root: Optional[str]) -> None:
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)


def deploy(
    shape: LiveShape, seed: int, storage_dir: Optional[str]
) -> Tuple[float, float, LiveDLog]:
    """Start the deployment and ack one append.

    Returns the set-up time -- CPU seconds from constructing
    :class:`repro.api.AtomicMulticast` until the ack, on the calling thread
    and on the facade's loop thread -- in reference seconds and as measured,
    and the deployment.  Each thread's share is scaled by kernel timings
    taken on that thread (:mod:`perfbench.host`): the two threads may run on
    processors the host slows down differently.
    """
    kernels = host.sample(host.SETUP_KERNELS)
    begin = time.thread_time()
    dlog = LiveDLog(shape, seed, storage_dir)
    dlog.start()
    try:
        dlog.submit()[1].result(timeout=20.0)
        main_s = time.thread_time() - begin
        loop_s = dlog.call_on_loop(time.thread_time)  # the loop thread started in set-up
        loop_kernels = dlog.call_on_loop(lambda: host.sample(host.SETUP_KERNELS))
    except BaseException:
        dlog.stop()
        raise
    kernels += host.sample(host.SETUP_KERNELS)
    reference = host.reference_s([(main_s, kernels), (loop_s, loop_kernels)])
    return reference, main_s + loop_s, dlog


@dataclass
class ClosedRun:
    #: Per window of about :data:`CLOSED_WINDOW_S`, oldest first: appends
    #: acked, wall seconds, CPU seconds of the loop thread spent on the
    #: deployment, and the kernel timings taken on the loop thread.
    acks: List[int]
    wall_s: List[float]
    cpu_s: List[float]
    kernel_s: List[List[float]]
    acked: List[str]
    attempted: int

    @property
    def ops_per_cpu_s(self) -> float:
        """Appends acked per CPU second of the loop thread over all windows."""
        return sum(self.acks) / sum(self.cpu_s)

    @property
    def ops_per_ref_cpu_s(self) -> float:
        """Appends acked per reference CPU second of the loop thread (see :mod:`perfbench.host`)."""
        return sum(self.acks) / host.reference_s(zip(self.cpu_s, self.kernel_s))

    @property
    def ops_per_wall_s(self) -> float:
        return sum(self.acks) / sum(self.wall_s)

    @property
    def loop_cpu_share(self) -> float:
        return sum(self.cpu_s) / sum(self.wall_s)


class KernelTicker:
    """Times :func:`perfbench.host.kernel` on the loop thread every :data:`KERNEL_TICK_S`."""

    def __init__(self, loop) -> None:
        self._loop = loop
        self.timings: List[float] = []
        self._stopped = False

    def start(self) -> None:
        self._loop.call_soon_threadsafe(self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.timings.append(host.time_kernel())
        self._loop.call_later(KERNEL_TICK_S, self._tick)

    def stop(self) -> None:
        self._stopped = True


def run_closed(dlog: LiveDLog, seconds: float) -> ClosedRun:
    """Keep :data:`CLOSED_WINDOW` appends in flight for :data:`WARM_S` plus ``seconds``.

    The client runs on the facade's loop thread: each ack's callback submits
    the next append through :meth:`AtomicMulticast.submit`, so the measure is
    the deployment's processing capacity, free of cross-thread hand-off.
    Every window is charged the loop thread's CPU time, which runs the whole
    deployment, less the kernel runs of the :class:`KernelTicker` beside it;
    time the thread waits (on fsync, or for a processor the host gave to
    another tenant) is not charged.
    """
    acked: List[str] = []
    state = {"stop": False, "submitted": 0}

    def _submit() -> None:
        state["submitted"] += 1
        tag, future = dlog.submit()
        future.add_done_callback(lambda _f, tag=tag: _ack(tag))

    def _ack(tag: str) -> None:
        acked.append(tag)
        if not state["stop"]:
            _submit()

    def _start() -> None:
        for _ in range(CLOSED_WINDOW):
            _submit()

    def _stop() -> None:
        state["stop"] = True
        ticker.stop()

    ticker = KernelTicker(dlog.am._loop)
    ticker.start()
    dlog.call_on_loop(_start)
    time.sleep(WARM_S)
    timings = ticker.timings
    marks = []  # (wall, loop-thread CPU, appends acked so far, kernel runs so far)
    origin = time.perf_counter()
    for index in range(max(1, int(seconds / CLOSED_WINDOW_S)) + 1):
        delay = origin + index * CLOSED_WINDOW_S - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        # Read the kernel count first: a tick between the reads is charged
        # to the next window, whose kernel list includes it.
        runs = len(timings)
        marks.append((time.perf_counter(), thread_cpu(dlog.loop_ident), len(acked), runs))
    dlog.call_on_loop(_stop)
    deadline = time.perf_counter() + DRAIN_S
    while len(acked) < state["submitted"] and time.perf_counter() < deadline:
        time.sleep(0.01)
    spans = list(zip(marks, marks[1:]))
    kernel_s = [timings[k0:k1] for (_, _, _, k0), (_, _, _, k1) in spans]
    return ClosedRun(
        acks=[a1 - a0 for (_, _, a0, _), (_, _, a1, _) in spans],
        wall_s=[w1 - w0 for (w0, _, _, _), (w1, _, _, _) in spans],
        cpu_s=[c1 - c0 - sum(k) for ((_, c0, _, _), (_, c1, _, _)), k in zip(spans, kernel_s)],
        kernel_s=kernel_s,
        acked=list(acked),
        attempted=state["submitted"],
    )


@dataclass
class OpenRun:
    light: Rung
    heavy: Rung
    ladder: List[Rung]
    max_rate: float
    acked: List[str]

    @property
    def rungs(self) -> List[Rung]:
        return [self.light, self.heavy] + self.ladder


def run_open(dlog: LiveDLog, seconds: float, seed: int) -> OpenRun:
    """Warm up, hold the light and heavy rates, then climb the ladder.

    The ladder starts at the heavy rate, whose rung is the heavy one; every
    further rung, a retry of the heavy rate included, runs at the rate the
    ladder names.  It stops by its own rule or once ``seconds`` of load have
    passed.
    """
    shape = dlog.shape
    started = time.perf_counter()
    _, acked = run_rung(dlog, shape.light, WARM_S, seed * 1000, "warm-up")
    light, tags = run_rung(dlog, shape.light, shape.light_s, seed * 1000 + 1, "light")
    acked += tags
    heavy, tags = run_rung(dlog, shape.heavy, shape.heavy_s, seed * 1000 + 2, "heavy")
    acked += tags
    ladder = Ladder(ladder_rates(shape.heavy, LADDER_STEP, shape.ladder_top))
    ladder.record(heavy.meets_limit)
    rungs: List[Rung] = []
    while time.perf_counter() - started < seconds:
        rate = ladder.next_rate()
        if rate is None:
            break
        duration = max(1.0, RUNG_SAMPLES / rate)
        rung, tags = run_rung(
            dlog, rate, duration, seed * 1000 + 3 + len(rungs), f"ladder-{len(rungs)}"
        )
        acked += tags
        rungs.append(rung)
        ladder.record(rung.meets_limit)
    return OpenRun(light=light, heavy=heavy, ladder=rungs, max_rate=ladder.max_rate, acked=acked)


def finish(dlog: LiveDLog, acked: List[str]) -> List[str]:
    """Let every learner catch up, stop the deployment, apply the correctness gate."""
    wait_converged(dlog, len(acked) + 1)
    dlog.stop()
    return check_correct(dlog, acked)


def counters(dlog: LiveDLog) -> Dict[str, int]:
    """The program's public counters, summed over the nodes (read on the loop thread)."""
    from perfbench.sim import node_counters

    def _read() -> Dict[str, int]:
        nodes = list(dlog.am._live.nodes.values())
        total = node_counters(live.node for live in nodes)
        for key in ("messages_sent", "wire_bytes_sent"):
            total[key] = sum(getattr(live.runtime.network, key) for live in nodes)
        total["events"] = sum(live.runtime.sim.processed_events for live in nodes)
        total["store_ops"] = sum(store.ops for live in nodes for store in live.runtime._stores)
        return total

    return dlog.call_on_loop(_read)
