"""Workload sources: trace replay and a bursty synthetic generator.

The generator produces Poisson arrivals with configurable burst episodes,
power-law prompt lengths per modality class, and an empirical images-per-
request distribution. Everything is deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import ImageSpec, ModelSpec, Request, SpecError


class TraceError(ValueError):
    """Unreadable or badly malformed trace file."""


TRACE_COLUMNS = ["arrival_ms", "service_id", "text_tokens", "num_images", "image_dims", "output_tokens"]
# A trace with a larger share of malformed rows is rejected, not replayed.
MAX_MALFORMED_FRAC = 0.01


@dataclass
class TraceLoadResult:
    requests: list[Request]
    malformed_rows: int


def _parse_dims(cell: str) -> list[tuple[int, int]]:
    cell = cell.strip()
    if not cell:
        return []
    dims = []
    for part in cell.split(";"):
        w, h = part.lower().split("x")
        dims.append((int(w), int(h)))
    return dims


def load_trace(path: str | Path, model: ModelSpec) -> TraceLoadResult:
    """Parse a trace CSV into Requests sorted by arrival time.

    The first row is the header, even when blank; a repeated column name
    reads its last column, and other columns are ignored. Blank lines are
    skipped and not counted. A row whose field count differs from the
    header's, or with a bad value (a non-finite or negative arrival time,
    image dims that do not match ``num_images``, ...), is malformed: counted
    and skipped. More than MAX_MALFORMED_FRAC of them is a hard error.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    requests: list[Request] = []
    malformed = 0
    total = 0
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            return TraceLoadResult([], 0)
        missing = [c for c in TRACE_COLUMNS if c not in header]
        if missing:
            raise TraceError(f"trace {path} missing columns: {missing}")
        column = {name: i for i, name in enumerate(header)}  # the last of a repeated name wins
        i_arrival, i_service, i_text, i_images, i_dims, i_output = (column[c] for c in TRACE_COLUMNS)
        width = len(header)
        for row in rows:
            if not row:
                continue
            total += 1
            try:
                if len(row) != width:
                    raise ValueError("field count differs from the header")
                arrival_ms = float(row[i_arrival])
                if not 0.0 <= arrival_ms < math.inf:  # also false for nan
                    raise ValueError("arrival time not finite and >= 0")
                # Request and ImageSpec reject the remaining bad values with
                # SpecError, a ValueError.
                cell = row[i_dims]
                images = tuple(ImageSpec.from_dims(w, h, model) for w, h in _parse_dims(cell)) if cell else ()
                if int(row[i_images]) != len(images):
                    raise ValueError("num_images does not match image_dims")
                requests.append(Request(0, arrival_ms, int(row[i_text]), images, int(row[i_output]),
                                        row[i_service] or "default"))
            except ValueError:
                malformed += 1
    if total > 0 and malformed / total > MAX_MALFORMED_FRAC:
        raise TraceError(f"{malformed}/{total} malformed rows in {path} exceeds {MAX_MALFORMED_FRAC:.0%}")
    requests.sort(key=lambda r: r.arrival_ms)
    for i, req in enumerate(requests):
        req.id = i
    return TraceLoadResult(requests, malformed)


def write_trace(path: str | Path, requests: list[Request]) -> None:
    """Write requests in the trace CSV schema (inverse of load_trace)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in requests:
            dims = ";".join(f"{img.width_px}x{img.height_px}" for img in r.images)
            writer.writerow(
                [f"{r.arrival_ms:.3f}", r.service_id, r.text_tokens, len(r.images), dims, r.output_tokens]
            )


# ----------------------------------------------------------------------
# Synthetic generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BurstEpisode:
    start_ms: float
    duration_ms: float
    rate_multiplier: float = 1.0
    image_multiplier: float = 1.0

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


# Images-per-request distribution for image-bearing requests; heavy tail up
# to 16 covers multi-image and video-style traffic.
DEFAULT_IMAGES_PER_REQUEST = {1: 0.55, 2: 0.20, 3: 0.08, 4: 0.06, 5: 0.04, 6: 0.03, 8: 0.02, 12: 0.01, 16: 0.01}


@dataclass
class GeneratorConfig:
    model: ModelSpec
    base_rate: float = 5.0  # requests/sec
    burst_episodes: tuple[BurstEpisode, ...] = ()
    text_len_alpha: float = 2.9
    image_req_len_alpha: float = 4.4
    text_len_min: int = 16
    text_len_max: int = 32768
    image_req_len_min: int = 16
    image_req_len_max: int = 32768
    image_request_fraction: float = 0.3
    images_per_request: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_IMAGES_PER_REQUEST)
    )
    image_dim_median_px: float = 500.0
    image_dim_sigma: float = 0.55
    image_dim_min_px: int = 64
    image_dim_max_px: int = 4096
    output_len_median: int = 128
    output_len_sigma: float = 0.7
    output_len_max: int = 2048
    seed: int = 0

    def validate(self) -> None:
        """Raise a SpecError whose ``field`` is the first setting that cannot generate a valid stream."""
        # A rate, a burst's multiplier or length, or a median at or below 0,
        # infinite or NaN would generate without end or clamp every draw to a
        # bound.
        positive = [(key, getattr(self, key))
                    for key in ("base_rate", "image_dim_median_px", "output_len_median")]
        for i, ep in enumerate(self.burst_episodes):
            positive += [(f"burst_episodes[{i}].{key}", getattr(ep, key))
                         for key in ("duration_ms", "rate_multiplier", "image_multiplier")]
        for key, value in positive:
            if not 0 < value < math.inf:
                raise SpecError("must be finite and > 0", key)
        # A NaN start never ends its rate segment. A lognormal's sigma is a
        # standard deviation: NaN fails its draws and infinity pins each draw
        # to a bound.
        for i, ep in enumerate(self.burst_episodes):
            if not math.isfinite(ep.start_ms):
                raise SpecError("must be finite", f"burst_episodes[{i}].start_ms")
        for key in ("image_dim_sigma", "output_len_sigma"):
            if not 0 <= getattr(self, key) < math.inf:
                raise SpecError("must be finite and >= 0", key)
        if not 0.0 <= self.image_request_fraction <= 1.0:
            raise SpecError("must be in [0, 1]", "image_request_fraction")
        for key in ("text_len_alpha", "image_req_len_alpha"):
            if not getattr(self, key) > 1:
                raise SpecError("must be > 1 (a power-law exponent)", key)
        for n, share in self.images_per_request.items():
            if not share >= 0:
                raise SpecError("must be >= 0 (a share)", f"images_per_request.{n}")
        total = sum(self.images_per_request.values())
        if abs(total - 1.0) > 1e-6:
            raise SpecError(f"probabilities sum to {total}, expected 1", "images_per_request")
        if any(k < 1 or k > 16 for k in self.images_per_request):
            raise SpecError("keys must be in 1..16", "images_per_request")
        # Each prompt needs a token and each request an output token, and an
        # image a pixel per side; a min above its max would be clamped away.
        for lo, hi in (("text_len_min", "text_len_max"), ("image_req_len_min", "image_req_len_max"),
                       ("image_dim_min_px", "image_dim_max_px")):
            for key in (lo, hi):
                if getattr(self, key) < 1:
                    raise SpecError(f"must be >= 1, got {getattr(self, key)}", key)
            low, high = getattr(self, lo), getattr(self, hi)
            if low > high:
                raise SpecError(f"must be <= {hi} ({high}), got {low}", lo)
        if self.output_len_max < 1:
            raise SpecError(f"must be >= 1, got {self.output_len_max}", "output_len_max")


def sample_power_law(rng: np.random.Generator, alpha: float, lo: int, hi: int):
    """One Pareto sample with density exponent alpha, clamped to [lo, hi]."""
    x = lo * rng.random() ** (-1.0 / (alpha - 1.0))
    return min(max(x, lo), hi)


def fit_tail_exponent(samples, tail_fraction: float = 0.1) -> float:
    """Hill estimator of the power-law density exponent on the upper tail."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    k = max(10, int(n * tail_fraction))
    if k >= n:
        raise ValueError("not enough samples for a tail fit")
    xmin = xs[n - k - 1]
    tail = xs[n - k :]
    return 1.0 + k / float(np.sum(np.log(tail / xmin)))


def _rate_segments(cfg: GeneratorConfig, horizon_ms: float) -> list[tuple[float, float, float, float]]:
    """Piecewise-constant (start, end, rate_mult, image_mult) covering the horizon."""
    edges = {0.0, horizon_ms}
    for ep in cfg.burst_episodes:
        edges.add(min(max(ep.start_ms, 0.0), horizon_ms))
        edges.add(min(max(ep.end_ms, 0.0), horizon_ms))
    points = sorted(edges)
    segments = []
    for lo, hi in zip(points, points[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        rate_mult = 1.0
        img_mult = 1.0
        for ep in cfg.burst_episodes:
            if ep.start_ms <= mid < ep.end_ms:
                rate_mult *= ep.rate_multiplier
                img_mult *= ep.image_multiplier
        segments.append((lo, hi, rate_mult, img_mult))
    return segments


def generate(cfg: GeneratorConfig, horizon_ms: float) -> list[Request]:
    """Synthesize a request stream over [0, horizon_ms)."""
    if horizon_ms <= 0:
        raise ValueError("horizon_ms must be > 0")
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    # The scalar draws below are the ones numpy's convenience methods make:
    # choice(n, p=probs) searches one random() in the normalised cumulative
    # table, exponential(scale) is scale * standard_exponential(), and
    # normal(0, s) is s * standard_normal(). So the stream is the same, at a
    # fraction of the per-call cost.
    img_counts = sorted(cfg.images_per_request)
    img_probs = np.array([cfg.images_per_request[k] for k in img_counts])
    img_cdf = (img_probs / img_probs.sum()).cumsum()
    img_cdf = (img_cdf / img_cdf[-1]).tolist()
    random, std_exponential, std_normal = rng.random, rng.standard_exponential, rng.standard_normal

    requests: list[Request] = []
    rid = 0
    for seg_start, seg_end, rate_mult, img_mult in _rate_segments(cfg, horizon_ms):
        mean_gap_ms = 1.0 / (cfg.base_rate * rate_mult / 1000.0)
        t = seg_start
        while True:
            t += mean_gap_ms * std_exponential()
            if t >= seg_end:
                break
            is_image = random() < cfg.image_request_fraction
            if is_image:
                n_images = img_counts[bisect_right(img_cdf, random())]
                if img_mult != 1.0:
                    n_images = min(16, max(1, int(round(n_images * img_mult))))
                images = []
                for _ in range(n_images):
                    w = int(min(max(cfg.image_dim_median_px * math.exp(cfg.image_dim_sigma * std_normal()),
                                    cfg.image_dim_min_px), cfg.image_dim_max_px))
                    h = int(min(max(cfg.image_dim_median_px * math.exp(cfg.image_dim_sigma * std_normal()),
                                    cfg.image_dim_min_px), cfg.image_dim_max_px))
                    images.append(ImageSpec.from_dims(w, h, cfg.model))
                img_tokens = sum(i.image_tokens for i in images)
                # Total prompt length follows its own power law; text absorbs
                # whatever the images do not account for.
                target_total = float(sample_power_law(rng, cfg.image_req_len_alpha,
                                                      cfg.image_req_len_min, cfg.image_req_len_max))
                text_tokens = max(cfg.text_len_min, int(round(target_total)) - img_tokens)
                service = "video" if n_images >= 8 else "vision"
            else:
                images = []
                text_tokens = int(round(float(sample_power_law(rng, cfg.text_len_alpha,
                                                               cfg.text_len_min, cfg.text_len_max))))
                service = "chat"
            out = int(min(max(cfg.output_len_median * math.exp(cfg.output_len_sigma * std_normal()),
                              1), cfg.output_len_max))
            requests.append(
                Request(
                    id=rid,
                    arrival_ms=t,
                    text_tokens=text_tokens,
                    images=tuple(images),
                    output_tokens=out,
                    service_id=service,
                )
            )
            rid += 1
    return requests


# ----------------------------------------------------------------------
# Stream summary
# ----------------------------------------------------------------------
@dataclass
class WorkloadSummary:
    empty: bool
    median_images_per_request: float = 0.0
    median_image_tiles: float = 0.0
    median_image_qps: float = 0.0


_SUMMARY_WINDOW_S = 60.0  # summarize counts image arrivals per window of this length


def summarize(requests: list[Request]) -> WorkloadSummary:
    """Aggregate image statistics used by initial pool sizing."""
    if not requests:
        return WorkloadSummary(empty=True)
    image_reqs = [r for r in requests if r.is_multimodal]
    images = np.array([len(r.images) for r in image_reqs]) if image_reqs else np.array([0.0])
    duration_ms = max(r.arrival_ms for r in requests) - min(r.arrival_ms for r in requests)
    duration_s = max(duration_ms / 1000.0, 1e-9)
    if image_reqs:
        # Median over fixed windows of the image arrival rate.
        t0 = min(r.arrival_ms for r in requests)
        n_windows = max(1, int(math.ceil(duration_s / _SUMMARY_WINDOW_S)))
        counts = np.zeros(n_windows)
        for r in image_reqs:
            w = min(n_windows - 1, int((r.arrival_ms - t0) / 1000.0 / _SUMMARY_WINDOW_S))
            counts[w] += len(r.images)
        median_qps = float(np.median(counts) / _SUMMARY_WINDOW_S)
    else:
        median_qps = 0.0
    return WorkloadSummary(
        empty=False,
        median_images_per_request=float(np.median(images)) if image_reqs else 0.0,
        median_image_tiles=(
            float(np.median([img.tiles for r in image_reqs for img in r.images]))
            if image_reqs
            else 0.0
        ),
        median_image_qps=median_qps,
    )
