import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_request, make_sim
from lmmsim.engine import MetricsLog, RequestRecord
from lmmsim.metrics import (
    MAX_DOUBLINGS,
    AttainmentWindow,
    MetricStats,
    cost_summary,
    max_throughput,
    miss_budget,
    overall_attainment,
    quantile,
    slo_attainment,
    summarize_latency,
)


def naive_quantile(values, q):
    """Reference: walk the sorted list until rank coverage reaches q."""
    ordered = sorted(values)
    n = len(ordered)
    for i, v in enumerate(ordered):
        if (i + 1) / n >= q - 1e-12:
            return v
    return ordered[-1]


def make_log(entries, horizon=100_000.0):
    """entries: list of (arrival, ttft, slo, tbt_p99, tbt_slo)."""
    log = MetricsLog(horizon, seed=0)
    for i, (arrival, ttft, slo, tbt, tbt_slo) in enumerate(entries):
        ok = ttft <= slo and (tbt is None or tbt <= tbt_slo)
        log.records[i] = RequestRecord(
            request_id=i, service_id="s", multimodal=False, arrival_ms=arrival,
            text_tokens=10, image_tokens=0, output_tokens=2, n_images=0,
            prefill_end_ms=arrival + ttft, completion_ms=arrival + ttft + 1.0,
            ttft_ms=ttft, tbt_p99_ms=tbt, ttft_slo_ms=slo, tbt_slo_ms=tbt_slo,
            slo_ok=ok,
        )
        log.arrived += 1
        log.completed += 1
    return log


class TestQuantile:
    def test_single_value(self):
        assert quantile([42.0], 0.5) == 42.0
        assert quantile([42.0], 0.99) == 42.0

    def test_two_values_nearest_rank_lower(self):
        assert quantile([100.0, 200.0], 0.5) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_matches_naive_full_sort_oracle(self, values):
        for q in (0.5, 0.9, 0.99):
            assert quantile(values, q) == naive_quantile(values, q)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=300))
    @example([float(v * 7919 % 1000) for v in range(1000)])
    @settings(max_examples=200, derandomize=True)
    def test_stats_are_the_quantiles_and_the_mean_in_order(self, values):
        # One sort serves the three quantiles; the mean sums in the given
        # order, so its float is the one a plain sum gives.
        stats = MetricStats.from_values(iter(values))
        assert (stats.count, stats.mean, stats.p50, stats.p90, stats.p99) == (
            len(values), sum(values) / len(values),
            naive_quantile(values, 0.5), naive_quantile(values, 0.9), naive_quantile(values, 0.99))

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=300))
    @settings(max_examples=100)
    def test_monotone_in_q(self, values):
        p50, p90, p99 = (quantile(values, q) for q in (0.5, 0.9, 0.99))
        assert p50 <= p90 <= p99


class TestMissBudget:
    def test_decides_the_p99_exactly(self):
        # The P99 exceeds a limit iff more than miss_budget(n) values do.
        for n in range(1, 5001):
            b = miss_budget(n, 0.99)
            for misses in range(max(0, b - 1), min(n, b + 2) + 1):
                values = [1.0] * (n - misses) + [3.0] * misses
                assert (quantile(values, 0.99) > 2.0) == (misses > b), (n, misses)

    def test_never_falls_as_n_grows(self):
        budgets = [miss_budget(n, 0.99) for n in range(100_001)]
        assert all(a <= b for a, b in zip(budgets, budgets[1:]))


class TestSummarizeLatency:
    def test_single_request_all_percentiles_equal(self):
        log = make_log([(20_000, 500.0, 1000.0, None, 150.0)])
        s = summarize_latency(log, warmup_fraction=0.1)
        assert s.ttft["overall"].p50 == s.ttft["overall"].p99 == 500.0

    def test_warmup_excluded(self):
        log = make_log([(0.0, 999.0, 1000.0, None, 1.0),
                        (50_000.0, 100.0, 1000.0, None, 1.0)])
        s = summarize_latency(log, warmup_fraction=0.1)
        assert s.excluded_warmup == 1
        assert s.ttft["overall"].count == 1
        assert s.ttft["overall"].mean == 100.0

    def test_in_flight_counted_separately(self):
        log = make_log([(20_000, 500.0, 1000.0, None, 150.0)])
        log.arrived += 1  # one request never completed
        s = summarize_latency(log)
        assert s.in_flight == 1
        assert s.completed == 1


class TestAttainment:
    def test_all_within_half_slo(self):
        log = make_log([(20_000, 400.0, 1000.0, None, 1.0)] * 4)
        assert overall_attainment(log) == 1.0

    def test_all_at_twice_slo(self):
        log = make_log([(20_000, 2000.0, 1000.0, None, 1.0)] * 4)
        assert overall_attainment(log) == 0.0

    def test_three_meet_one_miss(self):
        entries = [(20_000, 400.0, 1000.0, None, 1.0)] * 3 + [(20_000, 1400.0, 1000.0, None, 1.0)]
        assert overall_attainment(make_log(entries)) == 0.75

    def test_infinite_slo_gives_one(self):
        log = make_log([(20_000, 1e9, math.inf, None, math.inf)] * 3)
        assert overall_attainment(log) == 1.0

    def test_empty_window_vacuous(self):
        log = make_log([(20_000, 100.0, 1000.0, None, 1.0)])
        windows = slo_attainment(log, window_ms=10_000.0)
        assert all(0.0 <= w.attainment <= 1.0 for w in windows)
        empty = [w for w in windows if w.vacuous]
        assert empty and all(w.attainment == 1.0 for w in empty)

    def test_window_counting(self):
        log = make_log([(0.0, 100.0, 1000.0, None, 1.0),
                        (0.0, 2000.0, 1000.0, None, 1.0)])
        # completions land at ttft+1ms in window 0
        w0 = slo_attainment(log, window_ms=50_000.0)[0]
        assert w0.completed == 2
        assert w0.attainment == 0.5


class TestCostSummary:
    def test_timeline_integrates_to_gpu_seconds(self):
        reqs = [make_request(i, 1000.0 * i, text=200, n_images=1, out=3) for i in range(10)]
        log = make_sim(reqs, horizon_ms=120_000.0).run()
        cost = cost_summary(log, window_ms=10_000.0)
        window_sum = sum(g * 10.0 for _, g in cost.timeline)
        assert window_sum == pytest.approx(cost.gpu_seconds, abs=10.0 * cost.peak_gpus)

    def test_static_cluster_constant_allocation(self):
        log = make_sim([make_request(0, 0.0)], horizon_ms=60_000.0).run()
        cost = cost_summary(log)
        gpus = {g for _, g in cost.timeline}
        assert gpus == {8}  # 1x TP-4 text + 4x TP-1 image
        assert cost.gpu_seconds == pytest.approx(8 * 60.0)


class TestMaxThroughput:
    def test_bisection_matches_grid_scan(self):
        true_cap = 7.37

        def probe(rate):
            return rate <= true_cap

        result = max_throughput(probe, lo=1.0, hi=2.0, rel_tol=0.02)
        # Grid oracle at 1% steps.
        rate, best = 1.0, 0.0
        while rate < 32.0:
            if probe(rate):
                best = rate
            rate *= 1.01
        assert result.feasible
        assert abs(result.rate - best) <= 0.02 * best + 0.08

    def test_infeasible_at_minimum(self):
        result = max_throughput(lambda r: False, lo=1.0, hi=2.0)
        assert result.rate == 0.0
        assert not result.feasible

    def test_probe_rates_recorded(self):
        result = max_throughput(lambda r: r < 3.0, lo=1.0, hi=2.0)
        assert len(result.probes) >= 3
        assert result.probes[0] == (1.0, True)

    def test_everything_feasible_returns_cap(self):
        result = max_throughput(lambda r: True, lo=1.0, hi=2.0)
        assert result.rate == 2.0 ** MAX_DOUBLINGS
        assert len(result.probes) == 1 + MAX_DOUBLINGS
