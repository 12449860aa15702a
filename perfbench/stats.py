"""Order statistics, open-loop schedules and the max-rate rule.

Everything here is pure and deterministic so ``test_perfbench.py`` can
pin it without running the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; below that a single outlier decides the value.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``): the ceil(q*n)-th smallest."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def tail(values: Sequence[float], q: float) -> float:
    """Nearest-rank tail percentile, refused when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return nearest_rank(values, q)


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 0.5)


def min_samples_for(q: float) -> int:
    """Smallest sample count whose ``q``-tail has MIN_BEYOND samples beyond."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def spread_picks(items: Sequence, count: int, key) -> list:
    """``count`` items at evenly spaced ranks of ``key``, smallest first.

    Stratified sampling: a uniform draw of a few dozen items from a
    heterogeneous set changes its mix (and so the cost of a run) from
    seed to seed; evenly spaced ranks keep the mix fixed while the items
    themselves still come from the seed.  The fixed ascending order
    matters for training too: which graph sizes meet which stage of
    learning otherwise swings a run's cost as much as the mix does.
    """
    ranked = sorted(items, key=key)
    return [ranked[int((k + 0.5) * len(ranked) / count)] for k in range(count)]


def graph_size(problem) -> tuple[int, int]:
    """Rank key for placement problems: (task-graph edges, tasks)."""
    return len(problem.graph.edges), problem.graph.num_tasks


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due ``at`` seconds into the window."""

    at: float
    kind: str  # "event" | "evaluate"


def poisson_schedule(
    rate: float, duration: float, event_share: float, seed: Sequence[int]
) -> list[Arrival]:
    """Open-loop arrivals at ``rate`` req/s over ``duration`` seconds.

    A Poisson process conditioned on its count: exactly
    ``round(rate * duration)`` arrival times, uniform over the window and
    sorted.  Fixing the count keeps the offered load identical across
    seeds, so only the arrival pattern varies.  ``event_share`` of the
    arrivals (rounded) are ``event`` requests, the rest ``evaluate``,
    in a seeded shuffled order.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(list(seed))
    count = max(1, round(rate * duration))
    times = np.sort(rng.uniform(0.0, duration, count))
    events = round(event_share * count)
    kinds = np.array(["event"] * events + ["evaluate"] * (count - events))
    rng.shuffle(kinds)
    return [Arrival(float(t), str(k)) for t, k in zip(times, kinds)]


@dataclass(frozen=True)
class RateResult:
    """Outcome of one offered rate (see ``serve_phase.run_rate``)."""

    offered_rps: float
    achieved_rps: float
    p90_ms: float  # over every request; failures count as infinitely late
    late_p90_ms: float  # how late the generator sent, 90th percentile
    max_backlog: int
    backlog_growth: float  # fitted growth of the backlog over the window
    growth_limit: float  # growth above this means the queue kept growing

    @property
    def valid(self) -> bool:
        """The generator kept to its schedule and the queue did not grow."""
        return (
            self.late_p90_ms <= GENERATOR_LATE_LIMIT_MS
            and self.backlog_growth <= self.growth_limit
        )


#: A rate whose sends ran later than this (p90) did not offer its load.
GENERATOR_LATE_LIMIT_MS = 5.0


def backlog_growth(times: Sequence[float], backlog: Sequence[int]) -> float:
    """Least-squares growth of the outstanding-request count over the window.

    A stable queue hovers around rate x latency and fits a flat line; an
    overloaded one gains (offered - served) x window requests.  A fitted
    slope, unlike a first-vs-last comparison, shrugs off one short stall.
    """
    if len(times) < 2 or times[-1] <= times[0]:
        return 0.0
    slope = float(np.polyfit(np.asarray(times), np.asarray(backlog, dtype=float), 1)[0])
    return slope * (times[-1] - times[0])


def growth_limit(rate: float, limit_ms: float) -> float:
    """Backlog growth a rate may show: what the latency limit allows to
    queue at that rate (Little's law), and never fewer than 4 requests."""
    return max(4.0, rate * limit_ms / 1000.0)


def max_rps(results: Sequence[RateResult], limit_ms: float) -> float:
    """Achieved req/s at the highest valid offered rate meeting the limit.

    Invalid rates (generator behind, growing backlog) never count; 0.0
    when no rate qualifies.
    """
    passing = [r for r in results if r.valid and r.p90_ms <= limit_ms]
    if not passing:
        return 0.0
    return max(passing, key=lambda r: r.offered_rps).achieved_rps
