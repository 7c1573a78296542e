"""The host's current speed, from a fixed kernel timed beside the workload.

The benchmark gets a few cores of a shared host.  While a neighbour keeps
the host busy, the same interpreter work costs up to twice the CPU time, in
phases that last from a fraction of a second to minutes, so a CPU-time
figure moves with the neighbours as much as with the program.  The
benchmark therefore times :func:`kernel` -- a fixed piece of pure-Python
work -- next to the workload, on the same thread, and converts the
workload's CPU seconds into *reference* CPU seconds: CPU seconds scaled by
``REFERENCE_S / kernel cost``, the time the work would have taken on a host
that runs the kernel in :data:`REFERENCE_S`.  A change to the program moves
the workload's CPU time and not the kernel's, so it moves the reference
figure by the same share.

Nothing here imports the program under test.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Iterable, List, Sequence, Tuple

#: Kernel iterations: about 0.2 ms of CPU.
KERNEL_ITERATIONS = 500
#: CPU seconds of one kernel run on the reference host; it only sets the
#: scale (the kernel took about this long on a 2-core x86-64 VM).
REFERENCE_S = 2.0e-4
#: Kernel timings taken on a thread before or after a set-up.
SETUP_KERNELS = 10


def kernel() -> int:
    """Fixed pure-Python work: allocation, dict stores and loads, calls."""
    table: dict = {}
    total = 0
    for i in range(KERNEL_ITERATIONS):
        key = i & 63
        table[key] = (i, str(i))
        total += len(table[key][1])
    return total


def time_kernel(clock: Callable[[], float] = time.thread_time) -> float:
    """CPU seconds of one :func:`kernel` run on the calling thread."""
    begin = clock()
    kernel()
    return clock() - begin


def sample(count: int) -> List[float]:
    """``count`` kernel timings on the calling thread."""
    return [time_kernel() for _ in range(count)]


def reference_s(chunks: Iterable[Tuple[float, Sequence[float]]]) -> float:
    """Reference CPU seconds of work measured in chunks.

    Each chunk is ``(cpu_s, kernel_s)``: CPU seconds the work took and the
    kernel timings taken during or around it.  The median timing stands for
    the host's speed over the chunk, so one kernel run hit by an interrupt
    does not move it.  A chunk without timings (the thread was held up past
    a kernel run) takes those of the chunk before it, or of the first timed
    chunk.
    """
    chunks = list(chunks)
    timed = [kernel_s for _, kernel_s in chunks if kernel_s]
    if not timed:
        raise ValueError("the work needs at least one kernel timing")
    speed = statistics.median(timed[0])
    total = 0.0
    for cpu_s, kernel_s in chunks:
        if kernel_s:
            speed = statistics.median(kernel_s)
        total += cpu_s * REFERENCE_S / speed
    return total
