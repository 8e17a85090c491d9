"""Post-processing of simulation logs: percentiles, SLO attainment, GPU cost,
and the max-throughput-under-SLO search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import MetricsLog, RequestRecord

# The share of the horizon whose arrivals latency and attainment figures
# leave out, and the capacity search's relative tolerance, unless given.
WARMUP_FRACTION = 0.1
REL_TOL = 0.02
# How often the capacity search may double its upper bracket before it
# reports the last passing rate as the capacity.
MAX_DOUBLINGS = 8


def _rank(q: float, n: int) -> int:
    """The index of the nearest-rank (lower) ``q`` quantile among ``n`` sorted values."""
    return max(0, math.ceil(q * n) - 1)


def quantile(values, q: float) -> float:
    """Nearest-rank (lower) quantile; documented so results match across tools."""
    if not len(values):
        raise ValueError("quantile of empty data")
    return sorted(values)[_rank(q, len(values))]


def miss_budget(n: int, q: float) -> int:
    """The most of ``n`` values that may exceed a limit while ``quantile(values, q)`` stays within it.

    It never falls as ``n`` grows, so once more than ``miss_budget(N, q)``
    values exceed the limit, the quantile of any superset of at most ``N``
    values does too.
    """
    return n - math.ceil(q * n)


@dataclass
class MetricStats:
    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0

    @classmethod
    def from_values(cls, values) -> "MetricStats":
        values = list(values)
        if not values:
            return cls()
        n = len(values)
        ordered = sorted(values)  # once for the three quantiles; the mean sums in the given order
        return cls(
            count=n,
            mean=sum(values) / n,
            p50=ordered[_rank(0.50, n)],
            p90=ordered[_rank(0.90, n)],
            p99=ordered[_rank(0.99, n)],
        )

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "p50": self.p50,
                "p90": self.p90, "p99": self.p99}


@dataclass
class LatencySummary:
    ttft: dict[str, MetricStats]  # overall | text-only | image-text
    tbt: dict[str, MetricStats]
    completed: int
    in_flight: int
    excluded_warmup: int

    def to_dict(self) -> dict:
        return {
            "ttft_ms": {k: v.to_dict() for k, v in self.ttft.items()},
            "tbt_p99_ms": {k: v.to_dict() for k, v in self.tbt.items()},
            "completed": self.completed,
            "in_flight": self.in_flight,
            "excluded_warmup": self.excluded_warmup,
        }


def _post_warmup(log: MetricsLog, warmup_fraction: float,
                 done: list[RequestRecord] | None) -> tuple[list[RequestRecord], int]:
    cutoff = warmup_fraction * log.horizon_ms
    if done is None:
        done = log.completed_records()
    kept = [r for r in done if r.arrival_ms >= cutoff]
    return kept, len(done) - len(kept)


# ``done``, where the functions below take it, is ``log.completed_records()``
# when the caller has listed them already, so that several summaries of one
# log list them once.
def summarize_latency(log: MetricsLog, warmup_fraction: float = WARMUP_FRACTION,
                      done: list[RequestRecord] | None = None) -> LatencySummary:
    """Exact percentiles over completed requests, split by modality.

    Requests arriving during the warm-up portion of the horizon are excluded;
    in-flight requests at the horizon are counted separately.
    """
    kept, excluded = _post_warmup(log, warmup_fraction, done)
    groups = (
        ("overall", lambda: kept),
        ("text-only", lambda: [r for r in kept if not r.multimodal]),
        ("image-text", lambda: [r for r in kept if r.multimodal]),
    )
    # One group's records are listed at a time, and from_values lists the
    # values it is given once, so a summary holds few record-sized lists.
    ttft, tbt = {}, {}
    for group, listed in groups:
        records = listed()
        ttft[group] = MetricStats.from_values(r.ttft_ms for r in records if r.ttft_ms is not None)
        tbt[group] = MetricStats.from_values(r.tbt_p99_ms for r in records if r.tbt_p99_ms is not None)
    return LatencySummary(
        ttft=ttft,
        tbt=tbt,
        completed=log.completed,
        in_flight=log.in_flight,
        excluded_warmup=excluded,
    )


@dataclass
class AttainmentWindow:
    start_ms: float
    end_ms: float
    completed: int
    attainment: float
    vacuous: bool
    p99_ttft_ms: float = 0.0


def slo_attainment(log: MetricsLog, window_ms: float,
                   done: list[RequestRecord] | None = None) -> list[AttainmentWindow]:
    """Per-window fraction of completed requests meeting both SLOs.

    Also carries the per-window P99 TTFT (tail latency is reported both
    globally and per window). Empty windows report attainment 1.0 flagged
    as vacuous.
    """
    if window_ms <= 0:
        raise ValueError("window_ms must be > 0")
    n_windows = max(1, math.ceil(log.horizon_ms / window_ms))
    counts = [0] * n_windows
    ok = [0] * n_windows
    ttfts: list[list[float]] = [[] for _ in range(n_windows)]
    last = n_windows - 1
    for rec in log.completed_records() if done is None else done:
        w = int(rec.completion_ms / window_ms)
        if w > last:
            w = last
        counts[w] += 1
        if rec.slo_ok:
            ok[w] += 1
        if rec.ttft_ms is not None:
            ttfts[w].append(rec.ttft_ms)
    out = []
    for w in range(n_windows):
        vacuous = counts[w] == 0
        out.append(
            AttainmentWindow(
                start_ms=w * window_ms,
                end_ms=min((w + 1) * window_ms, log.horizon_ms),
                completed=counts[w],
                attainment=1.0 if vacuous else ok[w] / counts[w],
                vacuous=vacuous,
                p99_ttft_ms=quantile(ttfts[w], 0.99) if ttfts[w] else 0.0,
            )
        )
    return out


def overall_attainment(log: MetricsLog, warmup_fraction: float = WARMUP_FRACTION,
                       done: list[RequestRecord] | None = None) -> float:
    kept, _ = _post_warmup(log, warmup_fraction, done)
    if not kept:
        return 1.0
    return sum(int(bool(r.slo_ok)) for r in kept) / len(kept)


@dataclass
class CostSummary:
    gpu_seconds: float
    peak_gpus: int
    timeline: list[tuple[float, int]]  # (window_start_ms, gpus at window start)


def cost_summary(log: MetricsLog, window_ms: float = 60_000.0) -> CostSummary:
    """GPU-seconds and a sampled allocation timeline from the allocation log."""
    timeline = []
    alloc = log.allocation_log or [(0.0, 0)]
    t = 0.0
    idx = 0
    current = alloc[0][1]
    while t < log.horizon_ms:
        while idx + 1 < len(alloc) and alloc[idx + 1][0] <= t:
            idx += 1
            current = alloc[idx][1]
        timeline.append((t, current))
        t += window_ms
    return CostSummary(gpu_seconds=log.gpu_seconds(), peak_gpus=log.peak_gpus(), timeline=timeline)


@dataclass
class CapacityResult:
    rate: float  # requests/sec sustained under SLO; 0 when infeasible
    feasible: bool
    probes: list[tuple[float, bool]] = field(default_factory=list)


def max_throughput(probe, lo: float, hi: float, rel_tol: float = REL_TOL) -> CapacityResult:
    """Bisection for the largest rate whose probe passes.

    `probe(rate) -> bool` must be monotone (higher rates only hurt);
    the bracket grows by doubling until a failing rate is found.
    """
    probes: list[tuple[float, bool]] = []

    def check(rate: float) -> bool:
        ok = probe(rate)
        probes.append((rate, ok))
        return ok

    if not check(lo):
        return CapacityResult(rate=0.0, feasible=False, probes=probes)
    for _ in range(MAX_DOUBLINGS):
        if not check(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        return CapacityResult(rate=lo, feasible=True, probes=probes)

    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if check(mid):
            lo = mid
        else:
            hi = mid
    return CapacityResult(rate=lo, feasible=True, probes=probes)
