import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmsim.core import (
    Architecture,
    ImageSpec,
    ModelSpec,
    Request,
    SLOSpec,
    SpecError,
    get_model_spec,
    image_tokens,
    load_model_specs,
    tile_count,
)

LLAMA = get_model_spec("llama3.2-11b")
INTERNVL = get_model_spec("internvl-26b")
LLAVA = get_model_spec("llava-ov-7b")


class TestImageTokens:
    def test_llama_896(self):
        assert image_tokens(896, 896, LLAMA) == 6404  # 4 tiles x 1601

    def test_internvl_896(self):
        assert image_tokens(896, 896, INTERNVL) == 1280  # 5 tiles x 256

    def test_llava_896(self):
        assert image_tokens(896, 896, LLAVA) == 7290  # 10 tiles x 729

    def test_minimum_tile(self):
        for spec in (LLAMA, INTERNVL, LLAVA):
            assert image_tokens(1, 1, spec) == spec.tokens_per_tile

    def test_degenerate_dims_rejected(self):
        with pytest.raises(SpecError):
            image_tokens(0, 10, LLAMA)

    def test_deterministic(self):
        assert image_tokens(640, 480, INTERNVL) == image_tokens(640, 480, INTERNVL)

    @given(w=st.integers(1, 4000), h=st.integers(1, 4000), dw=st.integers(0, 500))
    @settings(max_examples=200)
    def test_monotone_in_width(self, w, h, dw):
        assert image_tokens(w + dw, h, INTERNVL) >= image_tokens(w, h, INTERNVL)

    @given(w=st.integers(1, 8000), h=st.integers(1, 8000))
    @settings(max_examples=200)
    def test_tile_cap(self, w, h):
        for spec in (LLAMA, INTERNVL, LLAVA):
            assert 1 <= tile_count(w, h, spec) <= spec.max_tiles_per_image

    def test_thumbnail_only_above_one_tile(self):
        # A single-grid-tile image gets no extra thumbnail tile.
        assert tile_count(448, 448, INTERNVL) == 1
        assert tile_count(896, 448, INTERNVL) == 3  # 2 grid + thumbnail


class TestRequestTotals:
    def test_text_only(self):
        r = Request(id=0, arrival_ms=0, text_tokens=100, images=(), output_tokens=1)
        assert (r.text_tokens, r.total_image_tokens) == (100, 0)

    def test_single_image(self):
        img = ImageSpec.from_dims(896, 896, INTERNVL)
        r = Request(id=0, arrival_ms=0, text_tokens=0, images=(img,), output_tokens=1)
        assert (r.text_tokens, r.total_image_tokens) == (0, 1280)

    def test_additivity(self):
        img = ImageSpec.from_dims(896, 896, INTERNVL)
        one = Request(id=0, arrival_ms=0, text_tokens=5, images=(img,), output_tokens=1)
        two = Request(id=1, arrival_ms=0, text_tokens=5, images=(img, img), output_tokens=1)
        assert two.total_image_tokens == 2 * one.total_image_tokens

    def test_invalid_counts(self):
        with pytest.raises(SpecError):
            Request(id=0, arrival_ms=0, text_tokens=-1, images=(), output_tokens=1)
        with pytest.raises(SpecError):
            Request(id=0, arrival_ms=0, text_tokens=0, images=(), output_tokens=0)

    def test_slotted(self):
        r = Request(id=0, arrival_ms=0, text_tokens=1, images=(), output_tokens=1)
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            r.is_multimodl = True  # a misspelt attribute is an error, not a new one

    def test_derived_fields_follow_replace(self):
        # The trace path's rate_multiplier builds requests with dataclasses.replace.
        img = ImageSpec.from_dims(896, 896, INTERNVL)
        base = Request(id=0, arrival_ms=10.0, text_tokens=5, images=(img,), output_tokens=1)
        for r in (base, replace(base, arrival_ms=5.0), replace(base, images=()),
                  replace(replace(base, images=()), images=(img, img))):
            assert r.is_multimodal == (len(r.images) > 0)
            assert r.total_image_tokens == sum(i.image_tokens for i in r.images)


class TestSLOSpec:
    def test_scaling(self):
        slo = SLOSpec(ttft_base_text_ms=100, ttft_base_image_ms=1000, tbt_base_ms=30, slo_factor=4)
        assert slo.ttft_slo_ms(multimodal=False) == 400
        assert slo.ttft_slo_ms(multimodal=True) == 4000
        assert slo.tbt_slo_ms == 120

    def test_factor_positive(self):
        with pytest.raises(SpecError):
            SLOSpec(ttft_base_text_ms=1, ttft_base_image_ms=1, tbt_base_ms=1, slo_factor=0)


class TestPresets:
    def test_six_presets(self):
        specs = load_model_specs()
        assert len(specs) == 6
        assert specs["llama3.2-11b"].architecture is Architecture.CRO_ATTN
        assert specs["internvl-26b"].architecture is Architecture.DEC_ONLY

    def test_unknown_model(self):
        with pytest.raises(SpecError):
            get_model_spec("gpt-oss-999t")

    def test_user_defined_spec_file(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(json.dumps([
            {"name": "toy", "architecture": "dec_only", "tile_edge_px": 100,
             "tokens_per_tile": 10, "max_tiles_per_image": 3}
        ]))
        specs = load_model_specs(path)
        assert specs["toy"].tokens_per_tile == 10
        assert image_tokens(250, 50, specs["toy"]) == 30

    def test_invalid_spec(self):
        with pytest.raises(SpecError):
            ModelSpec(name="bad", architecture=Architecture.DEC_ONLY,
                      tile_edge_px=0, tokens_per_tile=1, max_tiles_per_image=1)
