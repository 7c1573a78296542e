"""Pure helpers of the benchmark: percentiles with their support, the
load ladder's stop rule, and metric-name checks.

Nothing here imports the program under test, so these rules are testable on
their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

#: The latency limit on a rung's p99 (the paper's interactive-latency bar).
LATENCY_LIMIT_MS = 100.0

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least :data:`MIN_BEYOND` beyond quantile ``q``."""
    return count * (1.0 - q) >= MIN_BEYOND - 1e-9


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` quantile (nearest rank) of ``values``, or ``None`` when unsupported.

    Nearest rank keeps the answer an observed sample, so a failed request
    recorded as ``inf`` shows up as ``inf`` once it reaches the percentile.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(values)
    if n == 0 or not supported(n, q):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1]


@dataclass
class Rung:
    """One fixed-rate stretch of open-loop load and what it achieved."""

    rate: float
    #: Per-arrival latency in ms; ``inf`` for an arrival never acked.
    latencies_ms: List[float] = field(default_factory=list)
    #: Arrivals submitted but not yet acked when the rung's last arrival left.
    backlog_at_end: int = 0
    #: Generator lateness per arrival, ms.
    lag_ms: List[float] = field(default_factory=list)
    gen_cpu_share: float = 0.0
    loop_cpu_share: float = 0.0
    label: str = ""

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return sum(1 for v in self.latencies_ms if v == math.inf)

    def p(self, q: float) -> Optional[float]:
        return percentile(self.latencies_ms, q)

    @property
    def keeps_pace(self) -> bool:
        """No growing backlog: what is in flight at the end fits in one latency limit."""
        return self.backlog_at_end <= max(MIN_BEYOND, self.rate * LATENCY_LIMIT_MS / 1e3)

    @property
    def meets_limit(self) -> bool:
        """p99 is supported, within the limit, and the rung kept pace."""
        p99 = self.p(0.99)
        return p99 is not None and p99 <= LATENCY_LIMIT_MS and self.keeps_pace


def ladder_rates(start: float, step: float, top: float) -> List[float]:
    """Geometric rates ``start·step^k`` not above ``top`` (whole ops/s)."""
    if start <= 0 or step <= 1.0:
        raise ValueError("a ladder needs a positive start and a step above 1")
    rates: List[float] = []
    rate = start
    while rate <= top + 1e-9:
        rates.append(float(round(rate)))
        rate *= step
    return rates


class Ladder:
    """The rate ladder's stop rule.

    Rungs are tried in increasing rate.  A rung that misses the limit is run
    once more; the ladder stops when the same rate misses twice, so one
    stall of a shared machine does not end the climb.  The result is the
    highest rate that met the limit below the stopping rate.
    """

    RETRIES = 1

    def __init__(self, rates: Sequence[float]) -> None:
        self.rates = list(rates)
        self._index = 0
        self._misses = 0
        self.passed: List[float] = []
        self.stopped = False

    def next_rate(self) -> Optional[float]:
        if self.stopped or self._index >= len(self.rates):
            return None
        return self.rates[self._index]

    def record(self, met: bool) -> None:
        if met:
            self.passed.append(self.rates[self._index])
            self._index += 1
            self._misses = 0
            return
        self._misses += 1
        if self._misses > self.RETRIES:
            self.stopped = True

    @property
    def max_rate(self) -> float:
        return max(self.passed) if self.passed else 0.0


def check_metric_names(metrics: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless every name is 1-64 of ``[A-Za-z0-9_.-]`` and starts alphanumeric."""
    for name in metrics:
        if not (METRIC_NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum()):
            raise ValueError(f"bad metric name {name!r}")
