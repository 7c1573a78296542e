"""Simulator legs: MRP-Store under YCSB-A.

A leg runs on the deterministic simulator with its modelled LAN delays, so
its latencies and throughput are in *simulated* time and repeat exactly for
a seed; only its speed (``closed_ops_per_ref_cpu_s``) and set-up time depend
on the machine.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.config import MultiRingConfig
from repro.multiring.node import MultiRingNode
from repro.runtime.interfaces import StorageMode
from repro.scenarios.invariants import check_replica_convergence
from repro.services.mrpstore import MRPStore
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload

from perfbench import host

#: MRP-Store shape of the paper's Figure 4: 3 partitions x 3 replicas.
PARTITIONS = 3
RECORDS = 10_000
CLIENT_MACHINES = 4
#: Closed-loop client threads of the light leg and of the measured (heavy) leg.
LIGHT_THREADS = 12
HEAVY_THREADS = 100
#: Simulated seconds each leg runs.
LEG_S = 0.5
#: Simulated seconds at the start of a leg, while the clients ramp up, that
#: its speed leaves out.  Speed is ops per reference CPU second of the
#: simulating thread (:mod:`perfbench.host`), so neither time the host gives
#: to other tenants nor a slow phase of the host counts.
RAMP_S = 0.025
#: The measured part of a leg runs in slices of this many simulated seconds
#: (some 20 ms of CPU each), with :data:`SLICE_KERNELS` kernel timings after
#: each slice.
SLICE_S = 0.005
SLICE_KERNELS = 3
#: Simulated seconds the store keeps running after the clients stop, so
#: in-flight commands reach every replica before convergence is checked.
SETTLE_S = 0.05
SERIES = "ycsb-a"
#: Repetitions of the heavy leg in an untraced run: at least this many, then
#: more while ``--seconds`` last.
MIN_REPS = 4


@dataclass
class Leg:
    """One simulated run and its exact counts."""

    threads: int
    #: CPU seconds of this process to build the world and load the store, in
    #: reference seconds and as measured.
    setup_s: float
    setup_cpu_s: float
    wall_s: float
    #: Ops completed after :data:`RAMP_S`, and the simulating thread's CPU
    #: seconds to complete them, as measured and in reference seconds.
    measured_ops: int
    cpu_s: float
    ref_cpu_s: float
    ops: int
    events: int
    messages: int
    latencies_ms: List[float]
    commands: int = 0
    batches: int = 0
    #: Protocol counters summed over the ring nodes (see :func:`node_counters`).
    counters: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def counts(self):
        return (self.ops, self.events, self.messages)

    @property
    def ops_per_cpu_s(self) -> float:
        return self.measured_ops / self.cpu_s

    @property
    def ops_per_ref_cpu_s(self) -> float:
        return self.measured_ops / self.ref_cpu_s

    @property
    def modelled_ops_per_s(self) -> float:
        return self.ops / LEG_S


def build_store(seed: int):
    """World + MRP-Store with the global ring and async-SSD acceptors, loaded."""
    world = World(topology=lan_topology(), seed=seed, timeline_window=0.5)
    store = MRPStore(
        world,
        partitions=PARTITIONS,
        replicas_per_partition=3,
        acceptors_per_partition=3,
        use_global_ring=True,
        storage_mode=StorageMode.ASYNC_SSD,
        config=MultiRingConfig.datacenter(),
    )
    store.load(RECORDS, value_size=1000)
    return world, store


def run_mrpstore_leg(seed: int, threads: int) -> Leg:
    """Build, load and drive YCSB-A with ``threads`` closed-loop threads for :data:`LEG_S`."""
    gc.collect()  # the previous leg's garbage is not set-up work
    kernels = host.sample(host.SETUP_KERNELS)
    begin = time.process_time()
    world, store = build_store(seed)
    setup_s = time.process_time() - begin
    setup_ref_s = host.reference_s([(setup_s, kernels + host.sample(host.SETUP_KERNELS))])
    config = YCSB_WORKLOADS["A"].scaled(RECORDS)
    clients = []
    per_machine = max(1, threads // CLIENT_MACHINES)
    for index in range(CLIENT_MACHINES):
        clients.append(
            ClosedLoopClient(
                world,
                f"client-{index}",
                YCSBWorkload(store, config, series=SERIES),
                store.frontends_for_client(index),
                threads=per_machine,
                series=SERIES,
            )
        )
    events0 = world.sim.processed_events
    begin = time.perf_counter()
    world.run(until=RAMP_S)
    ramp_ops = sum(client.completed for client in clients)
    slices = []  # (CPU seconds, kernel timings after it)
    until = RAMP_S
    while until < LEG_S - 1e-12:
        until = min(LEG_S, until + SLICE_S)
        start = time.thread_time()
        world.run(until=until)
        slices.append((time.thread_time() - start, host.sample(SLICE_KERNELS)))
    wall_s = time.perf_counter() - begin
    ops = sum(client.completed for client in clients)
    events = world.sim.processed_events - events0
    messages = world.network.messages_sent
    latencies = [s * 1e3 for s in world.monitor.latencies(SERIES)]
    for client in clients:
        client.crash()
    world.run(until=LEG_S + SETTLE_S)
    frontends = {id(f): f for p in store.partitions.values() for f in p.frontends}.values()
    leg = Leg(
        threads=per_machine * CLIENT_MACHINES,
        setup_s=setup_ref_s,
        setup_cpu_s=setup_s,
        wall_s=wall_s,
        measured_ops=ops - ramp_ops,
        cpu_s=sum(cpu for cpu, _ in slices),
        ref_cpu_s=host.reference_s(slices),
        ops=ops,
        events=events,
        messages=messages,
        latencies_ms=latencies,
        commands=sum(f.commands_received for f in frontends),
        batches=sum(f.batches_sent for f in frontends),
        counters=node_counters(
            p for p in world.processes() if isinstance(p, MultiRingNode)
        ),
    )
    verdict = check_replica_convergence(store)
    if not verdict.passed:
        leg.problems.append(verdict.detail)
    if len(latencies) != ops:
        leg.problems.append(f"{ops} ops completed but {len(latencies)} latencies recorded")
    return leg


def node_counters(nodes: Iterable) -> Dict[str, int]:
    """Merge, leveling, instance and acceptor-write counters summed over ring nodes."""
    total = dict.fromkeys(("instances", "values", "skips", "delivered", "skipped", "store_writes"), 0)
    for process in nodes:
        for role in process.roles.values():
            if role.is_coordinator:
                total["instances"] += role.next_instance
                total["values"] += role.values_proposed
            if role.storage is not None:
                total["store_writes"] += role.storage.writes
        total["skips"] += sum(process.skip_statistics().values())
        total["delivered"] += process.merge.delivered_count
        total["skipped"] += process.merge.skipped_count
    return total


@dataclass
class MRPStoreResult:
    light: Leg
    heavy: List[Leg]
    problems: List[str]

    @property
    def setup_s(self) -> List[float]:
        return [self.light.setup_s] + [leg.setup_s for leg in self.heavy]

    @property
    def setup_cpu_s(self) -> List[float]:
        return [self.light.setup_cpu_s] + [leg.setup_cpu_s for leg in self.heavy]


def run_mrpstore(seed: int, seconds: float) -> MRPStoreResult:
    """The light leg once, then the heavy leg repeated for about ``seconds``.

    Every heavy repetition uses the same seed, so its op, event and message
    counts must repeat exactly -- the determinism half of the correctness gate.
    """
    light = run_mrpstore_leg(seed, LIGHT_THREADS)
    problems = list(light.problems)
    heavy: List[Leg] = []
    started = time.perf_counter()
    while len(heavy) < MIN_REPS or time.perf_counter() - started < seconds:
        leg = run_mrpstore_leg(seed, HEAVY_THREADS)
        problems += leg.problems
        if heavy and leg.counts != heavy[0].counts:
            problems.append(
                f"seed {seed} is not deterministic: (ops, events, messages) "
                f"{heavy[0].counts} then {leg.counts}"
            )
        heavy.append(leg)
    return MRPStoreResult(light=light, heavy=heavy, problems=problems)
