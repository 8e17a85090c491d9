"""Core domain types: model specs, requests, SLOs, and the image->token mapping."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path


class Architecture(str, Enum):
    DEC_ONLY = "dec_only"
    CRO_ATTN = "cro_attn"


class StageKind(str, Enum):
    PREPROCESS = "preprocess"
    ENCODE = "encode"
    PREFILL = "prefill"
    DECODE = "decode"
    TRANSFER = "transfer"


class SpecError(ValueError):
    """Invalid model spec or request parameters."""


@dataclass(frozen=True)
class ModelSpec:
    """Static per-model configuration driving tiling and latency profiles."""

    name: str
    architecture: Architecture
    tile_edge_px: int
    tokens_per_tile: int
    max_tiles_per_image: int
    # Some encoders append one global thumbnail tile when an image spans
    # multiple grid tiles.
    thumbnail_tile: bool = False
    encoder_params_b: float = 0.0
    llm_params_b: float = 0.0
    default_tp_text: int = 4
    supported_tp_encoder: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        if self.tile_edge_px < 1:
            raise SpecError(f"{self.name}: tile_edge_px must be >= 1")
        if self.tokens_per_tile < 1:
            raise SpecError(f"{self.name}: tokens_per_tile must be >= 1")
        if self.max_tiles_per_image < 1:
            raise SpecError(f"{self.name}: max_tiles_per_image must be >= 1")
        if not self.supported_tp_encoder:
            raise SpecError(f"{self.name}: supported_tp_encoder must be non-empty")


def tile_count(width_px: int, height_px: int, spec: ModelSpec) -> int:
    """Number of tiles produced by preprocessing an image of the given size.

    Grid tiling (ceil in each dimension), plus one thumbnail tile for specs
    that use one whenever the grid has more than one tile, capped at the
    spec's per-image maximum.
    """
    if width_px < 1 or height_px < 1:
        raise SpecError("image dimensions must be >= 1 pixel")
    grid = math.ceil(width_px / spec.tile_edge_px) * math.ceil(height_px / spec.tile_edge_px)
    tiles = grid + 1 if (spec.thumbnail_tile and grid > 1) else grid
    return min(tiles, spec.max_tiles_per_image)


def image_tokens(width_px: int, height_px: int, spec: ModelSpec) -> int:
    """Token count an image contributes to the prompt under the given model."""
    return tile_count(width_px, height_px, spec) * spec.tokens_per_tile


@dataclass(frozen=True)
class ImageSpec:
    """One input image with its derived tile and token counts."""

    width_px: int
    height_px: int
    tiles: int
    image_tokens: int

    @classmethod
    def from_dims(cls, width_px: int, height_px: int, spec: ModelSpec) -> "ImageSpec":
        tiles = tile_count(width_px, height_px, spec)
        return cls(width_px, height_px, tiles, tiles * spec.tokens_per_tile)


@dataclass(slots=True)
class Request:
    """One inference job flowing through the simulated cluster."""

    id: int
    arrival_ms: float
    text_tokens: int
    images: tuple[ImageSpec, ...]
    output_tokens: int
    service_id: str = "default"
    # Derived from ``images``, a tuple that nothing reassigns, so they are
    # set once here and read as plain slots on the event path;
    # ``dataclasses.replace`` builds a new request and derives them again.
    total_image_tokens: int = field(init=False, repr=False, compare=False)
    is_multimodal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.text_tokens < 0:
            raise SpecError(f"request {self.id}: text_tokens must be >= 0")
        if self.output_tokens < 1:
            raise SpecError(f"request {self.id}: output_tokens must be >= 1")
        self.total_image_tokens = sum(img.image_tokens for img in self.images)
        self.is_multimodal = len(self.images) > 0


@dataclass(frozen=True)
class SLOSpec:
    """Latency targets: per-modality TTFT base, TBT base, and a scale factor.

    Bases are the isolated single-request latencies on the monolithic
    deployment; the factor relaxes or tightens both targets together.
    """

    ttft_base_text_ms: float
    ttft_base_image_ms: float
    tbt_base_ms: float
    slo_factor: float

    def __post_init__(self):
        if self.slo_factor <= 0:
            raise SpecError("slo_factor must be > 0")

    def ttft_slo_ms(self, multimodal: bool) -> float:
        base = self.ttft_base_image_ms if multimodal else self.ttft_base_text_ms
        return base * self.slo_factor

    @property
    def tbt_slo_ms(self) -> float:
        return self.tbt_base_ms * self.slo_factor


def _spec_from_dict(d: dict) -> ModelSpec:
    return ModelSpec(
        name=d["name"],
        architecture=Architecture(d["architecture"]),
        tile_edge_px=int(d["tile_edge_px"]),
        tokens_per_tile=int(d["tokens_per_tile"]),
        max_tiles_per_image=int(d["max_tiles_per_image"]),
        thumbnail_tile=bool(d.get("thumbnail_tile", False)),
        encoder_params_b=float(d.get("encoder_params_b", 0.0)),
        llm_params_b=float(d.get("llm_params_b", 0.0)),
        default_tp_text=int(d.get("default_tp_text", 4)),
        supported_tp_encoder=tuple(d.get("supported_tp_encoder", (1, 2, 4, 8))),
    )


def load_model_specs(path: str | Path | None = None) -> dict[str, ModelSpec]:
    """Load model presets from a JSON file; bundled presets when no path given."""
    if path is None:
        text = resources.files("lmmsim.data").joinpath("model_presets.json").read_text()
    else:
        text = Path(path).read_text()
    raw = json.loads(text)
    specs = {}
    for entry in raw:
        spec = _spec_from_dict(entry)
        specs[spec.name] = spec
    return specs


def get_model_spec(name: str, path: str | Path | None = None) -> ModelSpec:
    specs = load_model_specs(path)
    if name not in specs:
        raise SpecError(f"unknown model preset '{name}' (known: {sorted(specs)})")
    return specs[name]
