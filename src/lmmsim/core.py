"""Core domain types: model specs, requests, SLOs, and the image->token mapping."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple
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


class SpecError(ValueError):
    """Invalid model spec, input file or request parameters: ``reason`` says
    what is wrong with the input key at the dotted path ``field``, if any."""

    def __init__(self, reason: str, field: str = ""):
        self.field, self.reason = field, reason
        super().__init__(f"{field}: {reason}" if field else reason)


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


class ImageSpec(NamedTuple):
    """One input image with its derived tile and token counts.

    A named tuple: immutable and equal by value like a frozen dataclass, at
    a fraction of its cost to build, which a day-long trace pays per image.
    """

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
        if self.images:
            self.is_multimodal = True
            self.total_image_tokens = sum([img.image_tokens for img in self.images])
        elif self.text_tokens:
            self.is_multimodal = False
            self.total_image_tokens = 0
        else:
            raise SpecError(f"request {self.id}: an empty prompt (no text tokens, no images)")


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


def read_fields(d, converters: dict, required: set[str], where: str = "") -> dict:
    """The keys of the JSON object ``d``, each passed through its converter.

    A non-object, a key without a converter, a missing ``required`` key (an
    unknown key, often the missing one misspelt, is named first), or a value
    its converter rejects raises a SpecError whose ``field`` is the key with
    the prefix ``where`` (e.g. ``"tp_scaling."``). So a misspelt key in an
    input file is never silently ignored.
    """
    if not isinstance(d, dict):
        raise SpecError(f"must be an object, got {d!r}", where.rstrip("."))
    unknown = sorted(d.keys() - converters.keys())
    if unknown:
        raise SpecError(f"unknown key (expected one of {sorted(converters)})", where + unknown[0])
    missing = sorted(required - d.keys())
    if missing:
        raise SpecError("missing", where + missing[0])
    out = {}
    for key, value in d.items():
        try:
            out[key] = converters[key](value)
        except SpecError:  # a nested object's error already names its key
            raise
        except (TypeError, ValueError) as e:
            raise SpecError(f"bad value {value!r} ({e})", where + key)
    return out


def exact(kind: type):
    """The converter that passes only a JSON value of ``kind``, so ``1.5``
    is no int and ``"no"`` no bool (nor is ``true`` an int)."""
    def convert(value):
        if type(value) is not kind:
            raise ValueError(f"must be a JSON {kind.__name__}")
        return value
    return convert


# Each spec key's converter; the keys not required take ModelSpec's defaults.
_SPEC_FIELDS = {
    "name": exact(str), "architecture": Architecture, "tile_edge_px": exact(int),
    "tokens_per_tile": exact(int), "max_tiles_per_image": exact(int), "thumbnail_tile": exact(bool),
    "default_tp_text": exact(int), "supported_tp_encoder": lambda v: tuple(map(exact(int), v)),
}
_SPEC_REQUIRED = {"name", "architecture", "tile_edge_px", "tokens_per_tile", "max_tiles_per_image"}


def load_model_specs(path: str | Path | None = None) -> dict[str, ModelSpec]:
    """Load model presets from a JSON file; bundled presets when no path given."""
    if path is None:
        text = resources.files("lmmsim.data").joinpath("model_presets.json").read_text()
    else:
        text = Path(path).read_text()
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise SpecError("a model spec file must hold a list of specs")
    specs = {}
    for i, entry in enumerate(raw):
        spec = ModelSpec(**read_fields(entry, _SPEC_FIELDS, _SPEC_REQUIRED, f"[{i}]."))
        # A profile prices its reference request, encode included, at default_tp_text.
        if spec.default_tp_text not in spec.supported_tp_encoder:
            raise SpecError(f"[{i}].default_tp_text: {spec.default_tp_text} is not in "
                            f"supported_tp_encoder {list(spec.supported_tp_encoder)}")
        specs[spec.name] = spec
    return specs


def get_model_spec(name: str) -> ModelSpec:
    specs = load_model_specs()
    if name not in specs:
        raise SpecError(f"unknown model preset '{name}' (known: {sorted(specs)})")
    return specs[name]
