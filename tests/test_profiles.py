import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmsim.core import SLOSpec, StageKind, get_model_spec
from lmmsim.profiles import (
    CalibrationError,
    LatencyProfile,
    ProfileError,
    calibrate,
    default_profile,
    batch_aware_capacity_tokens_per_s,
    load_calibration_targets,
    predict_breakdown,
    predict_mixed_gain,
    steady_state_latency_ms,
)

LLAMA = get_model_spec("llama3.2-11b")
INTERNVL = get_model_spec("internvl-26b")
LLAMA_PROFILE = default_profile(LLAMA)
INTERNVL_PROFILE = default_profile(INTERNVL)

# Reported encode shares of single-request TTFT per preset.
ENCODE_SHARES = {
    "llama3.2-11b": 0.79,
    "llama3.2-90b": 0.65,
    "internvl-26b": 0.25,
    "nvlm-d-72b": 0.54,
}


class TestCalibration:
    @pytest.mark.parametrize("name,share", sorted(ENCODE_SHARES.items()))
    def test_encode_share_round_trip(self, name, share):
        profile = default_profile(get_model_spec(name))
        predicted = predict_breakdown(profile)
        assert predicted[StageKind.ENCODE] == pytest.approx(share, abs=0.01)

    def test_all_shares_sum_to_one(self):
        predicted = predict_breakdown(LLAMA_PROFILE)
        assert sum(predicted.values()) == pytest.approx(1.0, abs=1e-9)

    def test_mixed_gain_round_trip(self):
        assert predict_mixed_gain(LLAMA_PROFILE) == pytest.approx(1.5, rel=0.01)

    def test_zero_targets_rejected(self):
        targets = load_calibration_targets("internvl-26b")
        targets.ttft_breakdown = {k: 0.0 for k in targets.ttft_breakdown}
        with pytest.raises(CalibrationError):
            calibrate(targets, INTERNVL)

    def test_inconsistent_sum_rejected(self):
        targets = load_calibration_targets("internvl-26b")
        targets.ttft_breakdown[StageKind.ENCODE] = 0.9
        with pytest.raises(CalibrationError):
            calibrate(targets, INTERNVL)

    @pytest.mark.parametrize("slope", [-0.5, float("nan"), float("inf")])
    def test_slope_must_be_finite_and_non_negative(self, slope):
        # The engine reads TBT P99s from the largest step time down.
        targets = load_calibration_targets("internvl-26b")
        targets.decode_batch_slope = slope
        with pytest.raises(CalibrationError, match="decode_batch_slope"):
            calibrate(targets, INTERNVL)

    def test_cro_attn_needs_gain(self):
        targets = load_calibration_targets("llama3.2-11b")
        targets.mixed_modality_gain = None
        with pytest.raises(CalibrationError):
            calibrate(targets, LLAMA)

    def test_serialization_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        LLAMA_PROFILE.save(path)
        loaded = LatencyProfile.load(path, LLAMA)
        assert loaded.prefill_latency(800, 3000, 4) == pytest.approx(
            LLAMA_PROFILE.prefill_latency(800, 3000, 4)
        )
        assert loaded.encode_ms_per_tile == LLAMA_PROFILE.encode_ms_per_tile

    def test_wrong_model_file(self, tmp_path):
        path = tmp_path / "p.json"
        LLAMA_PROFILE.save(path)
        with pytest.raises(ProfileError):
            LatencyProfile.load(path, INTERNVL)


class TestEncodeLatency:
    def test_linear_in_tiles(self):
        one = LLAMA_PROFILE.encode_latency(4, 1)
        assert LLAMA_PROFILE.encode_latency(8, 1) == pytest.approx(2 * one)

    def test_strictly_increasing(self):
        assert LLAMA_PROFILE.encode_latency(5, 4) > LLAMA_PROFILE.encode_latency(4, 4)

    def test_unsupported_tp(self):
        with pytest.raises(ProfileError):
            LLAMA_PROFILE.encode_latency(4, 16)

    def test_tp_interpolation_between_points(self):
        # Intermediate TP degrees interpolate linearly between profiled points.
        lo = INTERNVL_PROFILE.prefill_latency(1000, 0, 2)
        hi = INTERNVL_PROFILE.prefill_latency(1000, 0, 4)
        got = INTERNVL_PROFILE.prefill_latency(1000, 0, 3)
        assert got == pytest.approx((lo + hi) / 2)

    def test_small_encoder_slower_at_tp8_than_tp4(self):
        assert LLAMA_PROFILE.encode_latency(4, 8) > LLAMA_PROFILE.encode_latency(4, 4)


class TestPrefillLatency:
    def test_dec_only_modality_agnostic(self):
        a = INTERNVL_PROFILE.prefill_latency(1000, 0, 8)
        b = INTERNVL_PROFILE.prefill_latency(0, 1000, 8)
        assert a == pytest.approx(b)

    def test_cross_term_symmetric(self):
        a = LLAMA_PROFILE.prefill_latency(3000, 5000, 4)
        b = LLAMA_PROFILE.prefill_latency(5000, 3000, 4)
        # Cross term is symmetric; self-attention part is not.
        cross_a = a - LLAMA_PROFILE.prefill_latency(3000, 0, 4)
        cross_b = b - LLAMA_PROFILE.prefill_latency(5000, 0, 4)
        assert cross_a == pytest.approx(cross_b)

    def test_cross_term_peaks_at_even_split(self):
        total = 16000
        def cross(text):
            return (LLAMA_PROFILE.prefill_latency(text, total - text, 4)
                    - LLAMA_PROFILE.prefill_latency(text, 0, 4))
        peak = cross(total // 2)
        for text in range(1000, total, 1000):
            assert cross(text) <= peak + 1e-9

    def test_zero_tokens_rejected(self):
        with pytest.raises(ProfileError):
            LLAMA_PROFILE.prefill_latency(0, 0, 4)


class TestPreprocess:
    def test_core_scaling(self):
        four = INTERNVL_PROFILE.preprocess_latency(4, 1)
        two = INTERNVL_PROFILE.preprocess_latency(4, 2)
        assert two == pytest.approx(four / 2)

    def test_floor(self):
        assert INTERNVL_PROFILE.preprocess_latency(1, 10_000) == INTERNVL_PROFILE.prep_floor_ms

    def test_zero_tiles(self):
        assert INTERNVL_PROFILE.preprocess_latency(0, 4) == 0.0

    def test_share_below_ten_percent(self):
        assert predict_breakdown(INTERNVL_PROFILE)[StageKind.PREPROCESS] < 0.10


class TestTbt:
    def test_batch_ratio_bounded(self):
        assert LLAMA_PROFILE.tbt_latency(8, 4) / LLAMA_PROFILE.tbt_latency(1, 4) <= 1.2

    def test_throughput_scales(self):
        t1 = LLAMA_PROFILE.tbt_latency(1, 4)
        t8 = LLAMA_PROFILE.tbt_latency(8, 4)
        assert 8 * t1 / t8 >= 6.7

    def test_positive(self):
        for batch in (1, 16, 64):
            assert LLAMA_PROFILE.tbt_latency(batch, 4) > 0

    def test_lower_tp_may_be_faster(self):
        assert LLAMA_PROFILE.tbt_latency(1, 1) < LLAMA_PROFILE.tbt_latency(1, 8)


def encode_capacity(tp: int, share_ms: float) -> float:
    """Unbatched encode capacity under an SLO share: the batch-cap-1 price."""
    service, job = INTERNVL_PROFILE.stage_job(StageKind.ENCODE, tp)
    return batch_aware_capacity_tokens_per_s(service, job, share_ms - service, 1)


class TestMaxCapacity:
    def test_monotone_in_slo_share(self):
        assert encode_capacity(4, 2000) >= encode_capacity(4, 1000)

    def test_big_encoder_gains_from_tp(self):
        share = 1250.0
        assert encode_capacity(4, share) >= encode_capacity(1, share)

    def test_infeasible_share_returns_zero(self):
        service, _ = INTERNVL_PROFILE.stage_job(StageKind.ENCODE, 4)
        assert encode_capacity(4, service * 0.5) == 0.0

    @pytest.mark.parametrize("share_ms", [600.0, 1250.0, 5000.0])
    def test_matches_rate_scan_oracle(self, share_ms):
        service, job = INTERNVL_PROFILE.stage_job(StageKind.ENCODE, 4)
        mc = encode_capacity(4, share_ms)
        best = 0.0
        rate = 1.0
        while rate < 50_000:
            if steady_state_latency_ms(service, job, rate) <= share_ms:
                best = rate
            else:
                break
            rate += 1.0
        assert abs(mc - best) <= 1.0

    @given(st.floats(min_value=400, max_value=20_000))
    @settings(max_examples=30)
    def test_latency_at_capacity_meets_share(self, share_ms):
        service, job = INTERNVL_PROFILE.stage_job(StageKind.ENCODE, 4)
        mc = encode_capacity(4, share_ms)
        if mc > 0:
            assert steady_state_latency_ms(service, job, mc) <= share_ms * (1 + 1e-9)

    @given(service=st.floats(0.01, 10_000), job=st.integers(1, 100_000),
           slack=st.floats(-1_000, 100_000), cap=st.integers(2, 128))
    @settings(max_examples=200)
    def test_batching_never_prices_above_cap_one(self, service, job, slack, cap):
        # Batched jobs finish with their batch, so a batch cap above 1 can
        # only lengthen the effective job and lower the sustainable rate.
        assert batch_aware_capacity_tokens_per_s(service, job, slack, cap) <= \
            batch_aware_capacity_tokens_per_s(service, job, slack, 1)


class TestDerivedSloBases:
    def test_image_base_is_reference_ttft(self):
        assert LLAMA_PROFILE.ttft_base_image_ms() == 1000.0

    def test_text_base_uses_prefill_only(self):
        base = LLAMA_PROFILE.ttft_base_text_ms(2048)
        assert base == pytest.approx(LLAMA_PROFILE.prefill_latency(2048, 0, 4))

    def test_decode_capacity_positive(self):
        slo = SLOSpec(ttft_base_text_ms=100, ttft_base_image_ms=1000, tbt_base_ms=30, slo_factor=5)
        assert LLAMA_PROFILE.decode_max_capacity(4, slo, 48) > 0
