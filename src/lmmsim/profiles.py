"""Analytic per-stage latency and capacity models, fit from reported TTFT shares.

A profile answers two questions for a given model: how long does a stage take
under a given token load, TP degree, and batch, and what sustained token rate
can a stage absorb while keeping its latency within an SLO share. Stage
constants are solved so that a reference single-image request reproduces the
configured TTFT breakdown exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import (Architecture, ModelSpec, SLOSpec, StageKind, exact, image_tokens, read_fields,
                   tile_count)

TP_POINTS = (1, 2, 4, 8)
# Read on every prefill_latency call; a member read off its Enum class costs
# several times a global under CPython 3.11.
_DEC_ONLY = Architecture.DEC_ONLY


class ProfileError(ValueError):
    """Bad inputs to a latency model (unsupported TP, empty load, ...)."""


class CalibrationError(ValueError):
    """Targets are inconsistent or cannot be reproduced."""


def _interp_tp(table: dict[int, float], tp: int | float) -> float:
    """Piecewise-linear interpolation of a per-TP table over profiled points."""
    if tp in table:
        return table[tp]
    pts = sorted(table)
    if tp < pts[0] or tp > pts[-1]:
        raise ProfileError(f"TP degree {tp} outside profiled range {pts[0]}..{pts[-1]}")
    for lo, hi in zip(pts, pts[1:]):
        if lo <= tp <= hi:
            frac = (tp - lo) / (hi - lo)
            return table[lo] + frac * (table[hi] - table[lo])
    raise ProfileError(f"cannot interpolate TP {tp}")


@dataclass(frozen=True)
class TpScaling:
    """Relative per-stage latency vs the TP-8 baseline."""

    encode: dict[int, float]
    prefill: dict[int, float]
    decode: dict[int, float]

    def scale(self, stage: StageKind, tp: int | float) -> float:
        table = {
            StageKind.ENCODE: self.encode,
            StageKind.PREFILL: self.prefill,
            StageKind.DECODE: self.decode,
        }.get(stage)
        if table is None:
            raise ProfileError(f"no TP scaling for stage {stage}")
        return _interp_tp(table, tp)


@dataclass
class CalibrationTargets:
    """Measured quantities the fitted profile must reproduce."""

    ttft_breakdown: dict[StageKind, float]
    tp_scaling: TpScaling
    mixed_modality_gain: float | None = None
    ref_text_tokens: int | None = None
    ref_image_px: tuple[int, int] = (896, 896)
    ref_cpu_cores: int = 8
    ref_ttft_ms: float = 1000.0
    tbt_ref_ms: float = 30.0
    decode_batch_slope: float = 0.02
    cross_weight: float = 0.2
    preprocess_floor_ms: float = 1.0

    def validate(self, architecture: Architecture) -> None:
        total = sum(self.ttft_breakdown.values())
        if abs(total - 1.0) > 0.01:
            raise CalibrationError(f"ttft_breakdown sums to {total:.4f}, expected 1 +- 0.01")
        for stage, frac in self.ttft_breakdown.items():
            if frac <= 0:
                raise CalibrationError(f"ttft_breakdown[{stage.value}] must be > 0")
        if self.ref_ttft_ms <= 0:
            raise CalibrationError("ref_ttft_ms must be > 0")
        if not 0 <= self.decode_batch_slope < math.inf:
            raise CalibrationError("decode_batch_slope must be finite and >= 0")
        if architecture is Architecture.CRO_ATTN:
            if self.mixed_modality_gain is None:
                raise CalibrationError("cross-attention models need mixed_modality_gain")
            if self.mixed_modality_gain <= 1.0 + self.cross_weight:
                raise CalibrationError(
                    "mixed_modality_gain must exceed 1 + cross_weight for a "
                    "monotone image-fraction curve"
                )
        else:
            if self.ref_text_tokens is None or self.ref_text_tokens < 1:
                raise CalibrationError("decoder-only models need ref_text_tokens >= 1")


@dataclass
class LatencyProfile:
    """Calibrated stage latency functions for one model."""

    model: ModelSpec
    prep_ms_per_tile_core: float
    prep_floor_ms: float
    encode_ms_per_tile: dict[int, float]
    # Decoder-only: one per-token rate over text + image tokens.
    prefill_ms_per_token: dict[int, float] | None
    # Cross-attention: self-attention rate over text tokens plus a coupled
    # term weighted by cross_weight.
    prefill_self_ms_per_token: dict[int, float] | None
    cross_weight: float
    tbt_base_ms: dict[int, float]
    decode_batch_slope: float
    ref_text_tokens: int
    ref_image_px: tuple[int, int]
    ref_cpu_cores: int
    ref_ttft_ms: float
    ttft_breakdown: dict[StageKind, float]
    mixed_modality_gain: float | None = None

    # ------------------------------------------------------------------
    # Stage latencies
    # ------------------------------------------------------------------
    def preprocess_latency(self, tiles: int, cpu_cores: int) -> float:
        """CPU preprocessing time for a batch of tiles, parallel across cores."""
        if cpu_cores < 1:
            raise ProfileError("cpu_cores must be >= 1")
        if tiles <= 0:
            return 0.0
        return max(self.prep_floor_ms, self.prep_ms_per_tile_core * tiles / cpu_cores)

    def encode_latency(self, batch_tiles: int, tp: int) -> float:
        """GPU encode time for a batch, linear in total tiles."""
        if batch_tiles < 1:
            raise ProfileError("encode batch must contain at least one tile")
        if tp not in self.model.supported_tp_encoder:
            raise ProfileError(
                f"TP-{tp} unsupported for {self.model.name} encoder "
                f"(supported: {sorted(self.model.supported_tp_encoder)})"
            )
        return _interp_tp(self.encode_ms_per_tile, tp) * batch_tiles

    def prefill_latency(self, text_tokens: int, img_tokens: int, tp: int) -> float:
        """LLM prefill time for one request's prompt."""
        if text_tokens < 0 or img_tokens < 0:
            raise ProfileError("token counts must be >= 0")
        if text_tokens + img_tokens == 0:
            raise ProfileError("prefill needs at least one token")
        if self.model.architecture is _DEC_ONLY:
            k = _interp_tp(self.prefill_ms_per_token, tp)
            return k * (text_tokens + img_tokens)
        k = _interp_tp(self.prefill_self_ms_per_token, tp)
        cross = 0.0
        if text_tokens and img_tokens:
            cross = self.cross_weight * k * (text_tokens * img_tokens) / (text_tokens + img_tokens)
        return k * text_tokens + cross

    def tbt_latency(self, batch: int, tp: int) -> float:
        """Per-token decode time at a given batch size (near-constant)."""
        if batch < 1:
            raise ProfileError("decode batch must be >= 1")
        base = _interp_tp(self.tbt_base_ms, tp)
        return base * (1.0 + self.decode_batch_slope * (batch - 1))

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def ref_image_tokens(self) -> int:
        return image_tokens(*self.ref_image_px, self.model)

    def ref_image_tiles(self) -> int:
        return tile_count(*self.ref_image_px, self.model)

    def stage_job(self, stage: StageKind, tp: int) -> tuple[float, int]:
        """(service_ms, job_tokens) of the reference request at one stage.

        The job is the unit of work used by the queueing model: an encode job
        is one reference image, a prefill job the reference prompt; monolith
        capacity uses the combined GPU service via `monolith_job`.
        """
        i_ref = self.ref_image_tokens()
        t_ref = self.ref_text_tokens
        if stage is StageKind.ENCODE:
            return self.encode_latency(self.ref_image_tiles(), tp), i_ref
        if stage is StageKind.PREFILL:
            if self.model.architecture is Architecture.CRO_ATTN:
                # Text tokens are the load unit routed to text instances.
                return self.prefill_latency(t_ref, 0, tp), t_ref
            return self.prefill_latency(t_ref, i_ref, tp), t_ref + i_ref
        raise ProfileError(f"no capacity job for stage {stage}")

    def monolith_job(self, tp: int) -> tuple[float, int]:
        """GPU service and token count of the reference request on a monolith."""
        i_ref = self.ref_image_tokens()
        enc = self.encode_latency(self.ref_image_tiles(), tp)
        pf = self.prefill_latency(self.ref_text_tokens, i_ref, tp)
        return enc + pf, self.ref_text_tokens + i_ref

    def stage_slo_share_ms(self, stage: StageKind, slo: SLOSpec) -> float:
        """Portion of the end-to-end TTFT SLO attributed to one stage."""
        frac = self.ttft_breakdown.get(stage)
        if frac is None:
            raise ProfileError(f"no TTFT share for stage {stage}")
        return frac * slo.ttft_slo_ms(multimodal=True)

    def decode_max_capacity(self, tp: int, slo: SLOSpec, max_batch: int) -> float:
        """Decode token throughput at the largest batch meeting the TBT SLO."""
        best = 0.0
        for batch in range(1, max_batch + 1):
            t = self.tbt_latency(batch, tp)
            if t > slo.tbt_slo_ms:
                break
            best = batch / t * 1000.0
        return best

    # ------------------------------------------------------------------
    # Derived SLO bases
    # ------------------------------------------------------------------
    def ttft_base_image_ms(self) -> float:
        return self.ref_ttft_ms

    def ttft_base_text_ms(self, text_tokens: int) -> float:
        """Isolated monolith TTFT of a text-only request of the given length."""
        return self.prefill_latency(text_tokens, 0, self.model.default_tp_text)

    def tbt_base(self) -> float:
        return self.tbt_latency(1, self.model.default_tp_text)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "model": self.model.name,
            "prep_ms_per_tile_core": self.prep_ms_per_tile_core,
            "prep_floor_ms": self.prep_floor_ms,
            "encode_ms_per_tile": {str(k): v for k, v in self.encode_ms_per_tile.items()},
            "prefill_ms_per_token": (
                {str(k): v for k, v in self.prefill_ms_per_token.items()}
                if self.prefill_ms_per_token
                else None
            ),
            "prefill_self_ms_per_token": (
                {str(k): v for k, v in self.prefill_self_ms_per_token.items()}
                if self.prefill_self_ms_per_token
                else None
            ),
            "cross_weight": self.cross_weight,
            "tbt_base_ms": {str(k): v for k, v in self.tbt_base_ms.items()},
            "decode_batch_slope": self.decode_batch_slope,
            "ref_text_tokens": self.ref_text_tokens,
            "ref_image_px": list(self.ref_image_px),
            "ref_cpu_cores": self.ref_cpu_cores,
            "ref_ttft_ms": self.ref_ttft_ms,
            "ttft_breakdown": {k.value: v for k, v in self.ttft_breakdown.items()},
            "mixed_modality_gain": self.mixed_modality_gain,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path, model: ModelSpec) -> "LatencyProfile":
        """The profile ``save`` wrote for ``model``; a SpecError or
        ProfileError names the key that is missing, unknown or bad."""
        d = json.loads(Path(path).read_text())
        fields = read_fields(d, _PROFILE_FIELDS, set(_PROFILE_FIELDS))
        if fields.pop("model") != model.name:
            raise ProfileError(f"profile file is for {d['model']}, not {model.name}")
        prefill = ("prefill_self_ms_per_token" if model.architecture is Architecture.CRO_ATTN
                   else "prefill_ms_per_token")
        if fields[prefill] is None:
            raise ProfileError(f"{prefill}: null, but it prices a {model.architecture.value} model's prefill")
        return cls(model=model, **fields)

    def tp_range(self) -> tuple[int, int]:
        """The lowest and highest TP degree that every per-TP table covers."""
        tables = [t for t in (self.encode_ms_per_tile, self.prefill_ms_per_token,
                              self.prefill_self_ms_per_token, self.tbt_base_ms) if t is not None]
        return max(min(t) for t in tables), min(max(t) for t in tables)


# ----------------------------------------------------------------------
# Queueing model. Capacity planning prices every stage with
# `batch_aware_capacity_tokens_per_s`; at a batch cap of 1 it is the
# closed-form inverse of `steady_state_latency_ms` at the SLO boundary, and
# the tests check it against that M/D/1 latency.
# ----------------------------------------------------------------------
def steady_state_latency_ms(service_ms: float, job_tokens: int, rate_tokens_per_s: float) -> float:
    """Predicted per-job latency (service + M/D/1 queueing wait) at a token rate."""
    if rate_tokens_per_s <= 0:
        return service_ms
    lam = rate_tokens_per_s / 1000.0 / job_tokens  # jobs per ms
    rho = lam * service_ms
    if rho >= 1.0:
        return math.inf
    return service_ms + rho * service_ms / (2.0 * (1.0 - rho))


def batch_aware_capacity_tokens_per_s(service_ms: float, job_tokens: int, slack_ms: float,
                                      batch_cap: int) -> float:
    """Sustainable token rate when jobs complete at the end of formed batches.

    Batches of B jobs serve in B*service and finish together, so the
    effective job grows with occupancy. Occupancy under Poisson arrivals is
    approximated by 1/(1-rho) capped at the configured max batch; the fixed
    point of that coupling prices uniform over-batching without extra knobs.
    """
    if slack_ms <= 0:
        return 0.0
    rho = 0.5
    for _ in range(12):
        b = min(float(batch_cap), max(1.0, 1.0 / max(1e-9, 1.0 - rho)))
        rho = 2.0 * slack_ms / (b * service_ms + 2.0 * slack_ms)
    return rho * job_tokens / service_ms * 1000.0


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def _solve_cro_attn_ref_text(s: float, w: float, i_ref: int, pf_ms: float) -> float:
    """Reference text length consistent with the prefill share.

    Solves s*T + w*s*T*I/(T+I) = pf_ms for T; the positive quadratic root.
    """
    a = s
    b = s * i_ref * (1.0 + w) - pf_ms
    c = -pf_ms * i_ref
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise CalibrationError("prefill share inconsistent with mixed_modality_gain")
    t = (-b + math.sqrt(disc)) / (2.0 * a)
    if t < 1.0:
        raise CalibrationError(
            "derived reference text length below one token; targets inconsistent"
        )
    return t


def calibrate(targets: CalibrationTargets, model: ModelSpec) -> LatencyProfile:
    """Solve stage constants reproducing the target single-request TTFT shares."""
    targets.validate(model.architecture)
    ref_tp = model.default_tp_text

    i_ref = image_tokens(*targets.ref_image_px, model)
    tiles_ref = tile_count(*targets.ref_image_px, model)
    prep_ms = targets.ttft_breakdown[StageKind.PREPROCESS] * targets.ref_ttft_ms
    enc_ms = targets.ttft_breakdown[StageKind.ENCODE] * targets.ref_ttft_ms
    pf_ms = targets.ttft_breakdown[StageKind.PREFILL] * targets.ref_ttft_ms

    prep_k = prep_ms * targets.ref_cpu_cores / tiles_ref

    enc_scale_ref = targets.tp_scaling.scale(StageKind.ENCODE, ref_tp)
    encode_ms_per_tile = {
        tp: enc_ms / tiles_ref * targets.tp_scaling.scale(StageKind.ENCODE, tp) / enc_scale_ref
        for tp in TP_POINTS
    }

    pf_scale_ref = targets.tp_scaling.scale(StageKind.PREFILL, ref_tp)
    prefill_per_token = None
    prefill_self_per_token = None
    cross_weight = 0.0
    if model.architecture is Architecture.CRO_ATTN:
        cross_weight = targets.cross_weight
        per_img_token = (prep_ms + enc_ms) / i_ref
        s = per_img_token / targets.mixed_modality_gain
        ref_text = _solve_cro_attn_ref_text(s, cross_weight, i_ref, pf_ms)
        prefill_self_per_token = {
            tp: s * targets.tp_scaling.scale(StageKind.PREFILL, tp) / pf_scale_ref
            for tp in TP_POINTS
        }
    else:
        ref_text = float(targets.ref_text_tokens)
        k = pf_ms / (ref_text + i_ref)
        prefill_per_token = {
            tp: k * targets.tp_scaling.scale(StageKind.PREFILL, tp) / pf_scale_ref
            for tp in TP_POINTS
        }

    dec_scale_ref = targets.tp_scaling.scale(StageKind.DECODE, ref_tp)
    tbt_base = {
        tp: targets.tbt_ref_ms * targets.tp_scaling.scale(StageKind.DECODE, tp) / dec_scale_ref
        for tp in TP_POINTS
    }

    profile = LatencyProfile(
        model=model,
        prep_ms_per_tile_core=prep_k,
        prep_floor_ms=targets.preprocess_floor_ms,
        encode_ms_per_tile=encode_ms_per_tile,
        prefill_ms_per_token=prefill_per_token,
        prefill_self_ms_per_token=prefill_self_per_token,
        cross_weight=cross_weight,
        tbt_base_ms=tbt_base,
        decode_batch_slope=targets.decode_batch_slope,
        ref_text_tokens=int(round(ref_text)),
        ref_image_px=targets.ref_image_px,
        ref_cpu_cores=targets.ref_cpu_cores,
        ref_ttft_ms=targets.ref_ttft_ms,
        ttft_breakdown=dict(targets.ttft_breakdown),
        mixed_modality_gain=targets.mixed_modality_gain,
    )
    _verify_round_trip(profile, targets)
    return profile


def predict_breakdown(profile: LatencyProfile) -> dict[StageKind, float]:
    """Re-predict the reference request's TTFT shares from a profile."""
    tp = profile.model.default_tp_text
    tiles = profile.ref_image_tiles()
    i_ref = profile.ref_image_tokens()
    prep = profile.preprocess_latency(tiles, profile.ref_cpu_cores)
    enc = profile.encode_latency(tiles, tp)
    pf = profile.prefill_latency(profile.ref_text_tokens, i_ref, tp)
    total = prep + enc + pf
    return {
        StageKind.PREPROCESS: prep / total,
        StageKind.ENCODE: enc / total,
        StageKind.PREFILL: pf / total,
    }


def predict_mixed_gain(profile: LatencyProfile) -> float:
    """TTFT ratio of an image-only vs text-only request of about 16,000 prompt tokens."""
    tp = profile.model.default_tp_text
    tokens_per_tile = profile.model.tokens_per_tile
    tiles = max(1, round(16000 / tokens_per_tile))
    img_tokens = tiles * tokens_per_tile
    prep = profile.preprocess_latency(tiles, profile.ref_cpu_cores)
    enc = profile.encode_latency(tiles, tp)
    image_only = prep + enc  # zero text tokens leaves no prefill work
    text_only = profile.prefill_latency(img_tokens, 0, tp)
    return image_only / text_only


def _verify_round_trip(profile: LatencyProfile, targets: CalibrationTargets) -> None:
    predicted = predict_breakdown(profile)
    for stage, want in targets.ttft_breakdown.items():
        got = predicted[stage]
        if abs(got - want) > 0.01:
            raise CalibrationError(
                f"calibration failed: {stage.value} share {got:.4f} vs target {want:.4f}"
            )
    if targets.mixed_modality_gain is not None:
        got = predict_mixed_gain(profile)
        if abs(got - targets.mixed_modality_gain) / targets.mixed_modality_gain > 0.01:
            raise CalibrationError(
                f"calibration failed: mixed gain {got:.4f} vs target "
                f"{targets.mixed_modality_gain:.4f}"
            )


# ----------------------------------------------------------------------
# Bundled targets
# ----------------------------------------------------------------------
def load_calibration_targets(name: str) -> CalibrationTargets:
    """The bundled calibration targets of a preset."""
    raw = json.loads(resources.files("lmmsim.data").joinpath("calibration_targets.json").read_text())
    if name not in raw:
        raise CalibrationError(f"no calibration targets for '{name}' (known: {sorted(raw)})")
    return targets_from_dict(raw[name])


# ----------------------------------------------------------------------
# Input files: each key of a profile file or a calibration-target object and
# the converter its value passes through (see ``read_fields``).
# ----------------------------------------------------------------------
def _tp_table(m) -> dict[int, float]:
    if not isinstance(m, dict) or not m:
        raise ValueError("must be a non-empty object of TP degree -> value")
    return {int(k): float(v) for k, v in m.items()}


def _optional(convert):
    return lambda v: None if v is None else convert(v)


def _pixels(v) -> tuple[int, int]:
    width, height = map(exact(int), v)
    return width, height


def _slope(v) -> float:
    # Decode step times must not fall as the batch grows: the engine reads
    # a TBT P99 from the largest step time down. A NaN slope deadlocks a run.
    v = float(v)
    if not 0 <= v < math.inf:
        raise ValueError("must be finite and >= 0")
    return v


def _per_stage(stages: tuple[str, ...], convert, where: str):
    """The converter of an object whose keys are exactly ``stages``."""
    return lambda m: read_fields(m, dict.fromkeys(stages, convert), set(stages), where)


# TTFT shares of the stages before the first token, and TP scaling tables.
_ttft_shares = _per_stage(("preprocess", "encode", "prefill"), float, "ttft_breakdown.")
_tp_scaling = _per_stage(("encode", "prefill", "decode"), _tp_table, "tp_scaling.")
_SHARED_FIELDS = {
    "ttft_breakdown": lambda m: {StageKind(k): v for k, v in _ttft_shares(m).items()},
    "mixed_modality_gain": _optional(float),
    "ref_image_px": _pixels,
    "ref_cpu_cores": exact(int),
    "ref_ttft_ms": float,
    "decode_batch_slope": _slope,
    "cross_weight": float,
}
# A saved profile holds every key.
_PROFILE_FIELDS = {
    **_SHARED_FIELDS, "model": str, "prep_ms_per_tile_core": float, "prep_floor_ms": float,
    "encode_ms_per_tile": _tp_table, "prefill_ms_per_token": _optional(_tp_table),
    "prefill_self_ms_per_token": _optional(_tp_table), "tbt_base_ms": _tp_table, "ref_text_tokens": exact(int),
}
# Targets need only these two; the other keys take CalibrationTargets' defaults.
_TARGET_REQUIRED = {"ttft_breakdown", "tp_scaling"}
_TARGET_FIELDS = {
    **_SHARED_FIELDS, "ref_text_tokens": _optional(float), "tbt_ref_ms": float, "preprocess_floor_ms": float,
    "tp_scaling": lambda m: TpScaling(**_tp_scaling(m)),
}


def targets_from_dict(d: dict) -> CalibrationTargets:
    """Calibration targets from their JSON object; a SpecError names the key
    that is missing, unknown or bad."""
    return CalibrationTargets(**read_fields(d, _TARGET_FIELDS, _TARGET_REQUIRED))


def default_profile(model: ModelSpec) -> LatencyProfile:
    """Calibrate a profile from the bundled targets for a preset model."""
    return calibrate(load_calibration_targets(model.name), model)
