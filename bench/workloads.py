"""The benchmark's workloads: experiment configs and inputs made from a seed.

Every input is a pure function of the benchmark seed. The configs are
written out here rather than read from ``configs/`` so that editing a demo
config does not silently change what the benchmark measures.
"""

from __future__ import annotations

import copy
import csv
import math
import random
from pathlib import Path

WORKLOADS = ("big-cluster", "day-autoscale", "capacity-mono")

# Generator block of configs/demo.json, without its seed and burst episode.
_DEMO_GENERATOR = {
    "base_rate": 5.0,
    "image_request_fraction": 0.3,
    "text_len_min": 256,
    "image_req_len_min": 1024,
    "image_dim_median_px": 430,
    "image_dim_sigma": 0.45,
    "images_per_request": {"1": 0.5, "2": 0.3, "3": 0.12, "4": 0.08},
    "output_len_median": 96,
}


def _demo_burst(horizon_ms: float) -> list[dict]:
    """The demo's burst (40-60% of its horizon, 1.5x rate, 2x images)."""
    return [{"start_ms": 0.4 * horizon_ms, "duration_ms": 0.2 * horizon_ms,
             "rate_multiplier": 1.5, "image_multiplier": 2.0}]


# ----------------------------------------------------------------------
# big-cluster: configs/demo.json scaled x32 (servers, instances, rate).
# The horizon is short so that a run holds about ten operations: host noise
# left after the host-speed correction is independent per operation.
# ----------------------------------------------------------------------
BIG_CLUSTER_HORIZON_MS = 45_000.0


def big_cluster_config(seed: int) -> dict:
    gen = dict(_DEMO_GENERATOR, base_rate=5.0 * 32, seed=0,
               burst_episodes=_demo_burst(BIG_CLUSTER_HORIZON_MS))
    return {
        "model": "internvl-26b",
        "topology": "decoupled",
        "policies": {"router": "least_pending", "scheduler": "slo_priority",
                     "aging_slo_fraction": 1.0},
        "cluster": {"servers": 128, "gpus_per_server": 8, "cpu_cores_per_server": 16},
        "instances": {"text": {"count": 224, "tp": 4}, "image": {"count": 128, "tp": 1}},
        "workload": {"generator": gen},
        "slo": {"slo_factor": 8.0},
        "transfer": {"medium": "rdma"},
        "max_batch": {"encode": 1, "prefill": 1, "decode": 64},
        "horizon_ms": BIG_CLUSTER_HORIZON_MS,
        "seeds": [seed],
    }


# ----------------------------------------------------------------------
# day-autoscale: a 2 h window of the day trace of acceptance criterion 6
# (tests/test_acceptance.py), replayed with token-aware scaling. The window
# covers 7.5-9.5 h of that day: 30 min at the base rate, the 8 h ramp
# (60 min, up to 2.5x rate and 2.5x images per request), 30 min at the base
# rate. The criterion's definition is ported to the stdlib RNG below.
# ----------------------------------------------------------------------
DAY_WINDOW_START_MS = 7.5 * 3_600_000.0
DAY_HORIZON_MS = 2 * 3_600_000.0
DAY_TRACE_NAME = "day_trace.csv"

DAY_BASE_RATE = 3.0  # req/s, the criterion's llama3.2-11b trace
DAY_IMAGE_FRACTION = 0.25
DAY_IMAGES_PER_REQUEST = {1: 0.5, 2: 0.3, 3: 0.12, 4: 0.08}
DAY_TEXT_LEN = (2.9, 256, 32768)  # power-law exponent, min, max
DAY_IMAGE_REQ_LEN = (4.4, 1024, 32768)  # of the whole prompt of an image request
DAY_IMAGE_DIM = (430.0, 0.45, 64, 4096)  # lognormal median px, sigma, min, max
DAY_OUTPUT_LEN = (96.0, 0.7, 1, 2048)  # lognormal median, sigma, min, max
# The criterion writes its trace with internvl-26b's tiling, which sets how
# much of an image request's prompt is text: 448 px tiles of 256 tokens, a
# thumbnail tile for multi-tile grids, at most 5 tiles per image.
_TILE_EDGE_PX, _TOKENS_PER_TILE, _MAX_TILES = 448, 256, 5


def _day_ramp(start_h: float, peak_mult: float, img_mult: float, total_min: float = 50):
    """The criterion's ramp: six equal stages at 0.4/0.7/1/1/0.7/0.4 of the peak."""
    steps = (0.4, 0.7, 1.0, 1.0, 0.7, 0.4)
    stage_ms = total_min * 60_000 / len(steps)
    return [(start_h * 3_600_000 + i * stage_ms, stage_ms,
             1.0 + (peak_mult - 1.0) * f, 1.0 + (img_mult - 1.0) * f)
            for i, f in enumerate(steps)]


# (start_ms, duration_ms, rate multiplier, image multiplier) over the day.
DAY_EPISODES = (_day_ramp(2.5, 2.2, 1.0) + _day_ramp(8, 2.5, 2.5, 60)
                + _day_ramp(14, 1.8, 3.0) + _day_ramp(19, 2.0, 1.2))


def _day_segments(lo_ms: float, hi_ms: float) -> list[tuple[float, float, float, float]]:
    """Piecewise-constant (start, end, rate mult, image mult) covering [lo, hi)."""
    edges = {lo_ms, hi_ms}
    for start, duration, _, _ in DAY_EPISODES:
        edges.update(min(max(t, lo_ms), hi_ms) for t in (start, start + duration))
    points = sorted(edges)
    segments = []
    for a, b in zip(points, points[1:]):
        mid = 0.5 * (a + b)
        rate_mult = img_mult = 1.0
        for start, duration, r, i in DAY_EPISODES:
            if start <= mid < start + duration:
                rate_mult *= r
                img_mult *= i
        segments.append((a, b, rate_mult, img_mult))
    return segments


def _power_law(rng: random.Random, alpha: float, lo: int, hi: int) -> float:
    """Pareto sample with density exponent ``alpha``, clamped to [lo, hi]."""
    return min(hi, lo * (1.0 - rng.random()) ** (-1.0 / (alpha - 1.0)))


def _lognormal_int(rng: random.Random, median: float, sigma: float, lo: int, hi: int) -> int:
    return int(min(hi, max(lo, median * math.exp(rng.gauss(0.0, sigma)))))


def _image_tokens(w: int, h: int) -> int:
    grid = math.ceil(w / _TILE_EDGE_PX) * math.ceil(h / _TILE_EDGE_PX)
    return min(grid + 1 if grid > 1 else grid, _MAX_TILES) * _TOKENS_PER_TILE


def day_trace_rows(seed: int) -> list[list]:
    """Trace rows in lmmsim's CSV schema, from the stdlib RNG only.

    Poisson arrivals per constant-rate segment, and per request the length,
    image and output laws of the criterion-6 generator config. The stream
    does not depend on lmmsim or numpy, so changes to lmmsim's own generator
    leave it byte-identical.
    """
    rng = random.Random(seed)
    counts = list(DAY_IMAGES_PER_REQUEST)
    weights = list(DAY_IMAGES_PER_REQUEST.values())
    rows = []
    for seg_lo, seg_hi, rate_mult, img_mult in _day_segments(
            DAY_WINDOW_START_MS, DAY_WINDOW_START_MS + DAY_HORIZON_MS):
        rate_per_ms = DAY_BASE_RATE * rate_mult / 1000.0
        t = seg_lo
        while True:
            t += rng.expovariate(rate_per_ms)
            if t >= seg_hi:
                break
            if rng.random() < DAY_IMAGE_FRACTION:
                n_images = rng.choices(counts, weights=weights)[0]
                if img_mult != 1.0:
                    n_images = min(16, max(1, round(n_images * img_mult)))
                dims = [(_lognormal_int(rng, *DAY_IMAGE_DIM), _lognormal_int(rng, *DAY_IMAGE_DIM))
                        for _ in range(n_images)]
                img_tokens = sum(_image_tokens(w, h) for w, h in dims)
                total = _power_law(rng, *DAY_IMAGE_REQ_LEN)
                text_tokens = max(DAY_TEXT_LEN[1], round(total) - img_tokens)
                service = "video" if n_images >= 8 else "vision"
            else:
                n_images, dims = 0, []
                text_tokens = round(_power_law(rng, *DAY_TEXT_LEN))
                service = "chat"
            output_tokens = _lognormal_int(rng, *DAY_OUTPUT_LEN)
            rows.append([f"{t - DAY_WINDOW_START_MS:.3f}", service, text_tokens, n_images,
                         ";".join(f"{w}x{h}" for w, h in dims), output_tokens])
    return rows


def write_day_trace(path: Path, seed: int) -> int:
    """Write the day trace for ``seed``; returns its row count."""
    rows = day_trace_rows(seed)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_ms", "service_id", "text_tokens", "num_images",
                         "image_dims", "output_tokens"])
        writer.writerows(rows)
    return len(rows)


def day_autoscale_config(seed: int) -> dict:
    return {
        "model": "llama3.2-11b",
        "topology": "decoupled",
        "policies": {"router": "least_pending", "scheduler": "slo_priority",
                     "autoscaler": "token_aware", "aging_slo_fraction": 1.0,
                     "capacity_tail_factor": 4.0},
        "cluster": {"servers": 16, "gpus_per_server": 8, "cpu_cores_per_server": 16},
        "instances": {"text": {"count": 3, "tp": 4}, "image": {"count": 4, "tp": 1}},
        "workload": {"trace": DAY_TRACE_NAME},
        "slo": {"slo_factor": 5.0},
        "transfer": {"medium": "rdma"},
        "max_batch": {"encode": 1, "prefill": 1, "decode": 96},
        "horizon_ms": DAY_HORIZON_MS,
        "seeds": [seed],
        "scale_interval_ms": 300_000,
        "start_delay_ms": 60_000,
    }


# ----------------------------------------------------------------------
# capacity-mono: run_capacity on the monolith demo with its own SLO and
# capacity block. At the demo's slo_factor 8 the 0.25x lower bracket
# already misses the SLO, so the search stops after one probe. The upper
# bracket (5 req/s) already fails, so the search bisects straight away and
# skips the costlier 2x probe, whose cost would vary most from seed to seed.
# ----------------------------------------------------------------------
CAPACITY_HORIZON_MS = 600_000.0


def capacity_mono_config(seed: int) -> dict:
    demo_horizon = 300_000.0
    gen = dict(_DEMO_GENERATOR, seed=0, burst_episodes=_demo_burst(demo_horizon))
    probe_seeds = [3 * seed + k for k in (1, 2, 3)]
    return {
        "model": "internvl-26b",
        "topology": "monolith",
        "policies": {"router": "round_robin", "scheduler": "fifo"},
        "cluster": {"servers": 4, "gpus_per_server": 8, "cpu_cores_per_server": 16},
        "instances": {"monolith": {"count": 8, "tp": 4}},
        "workload": {"generator": gen},
        "slo": {"slo_factor": 16.0},
        "transfer": {"medium": "rdma"},
        "max_batch": {"encode": 8, "prefill": 8, "decode": 64},
        "horizon_ms": demo_horizon,
        "seeds": probe_seeds,
        "capacity": {"lo_multiplier": 0.25, "hi_multiplier": 1.0, "rel_tol": 0.02,
                     "horizon_ms": CAPACITY_HORIZON_MS, "seeds": probe_seeds},
    }


def make_inputs(workload: str, seed: int, work_dir: Path) -> tuple[dict, dict]:
    """Config dict for ``workload`` plus a description of its input.

    Files the config refers to are written into ``work_dir``, which is the
    config's base directory.
    """
    if workload == "big-cluster":
        cfg = big_cluster_config(seed)
        info = {"source": "generator", "horizon_ms": cfg["horizon_ms"]}
    elif workload == "day-autoscale":
        cfg = day_autoscale_config(seed)
        rows = write_day_trace(work_dir / DAY_TRACE_NAME, seed)
        info = {"source": "trace", "horizon_ms": cfg["horizon_ms"], "rows": rows}
    elif workload == "capacity-mono":
        cfg = capacity_mono_config(seed)
        info = {"source": "generator", "horizon_ms": cfg["capacity"]["horizon_ms"],
                "probe_seeds": cfg["capacity"]["seeds"]}
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    info["seed"] = seed
    return copy.deepcopy(cfg), info
