import csv
import io
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmsim import workload
from lmmsim.core import ImageSpec, Request, SpecError, get_model_spec
from lmmsim.workload import (
    TRACE_COLUMNS,
    BurstEpisode,
    GeneratorConfig,
    TraceError,
    WorkloadSummary,
    fit_tail_exponent,
    generate,
    load_trace,
    summarize,
    write_trace,
)

INTERNVL = get_model_spec("internvl-26b")
LLAMA = get_model_spec("llama3.2-11b")


def make_trace(tmp_path, rows, header="arrival_ms,service_id,text_tokens,num_images,image_dims,output_tokens"):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([header] + rows) + ("\n" if rows else "\n"))
    return path


class TestLoadTrace:
    def test_image_tokens_derived(self, tmp_path):
        path = make_trace(tmp_path, ["0,vision,100,1,896x896,64"])
        result = load_trace(path, INTERNVL)
        assert result.malformed_rows == 0
        req = result.requests[0]
        assert req.text_tokens == 100
        assert req.total_image_tokens == 1280
        assert req.output_tokens == 64

    def test_empty_file(self, tmp_path):
        path = make_trace(tmp_path, [])
        result = load_trace(path, INTERNVL)
        assert result.requests == []
        assert result.malformed_rows == 0

    def test_rows_sorted_by_arrival(self, tmp_path):
        path = make_trace(tmp_path, [
            "500,chat,10,0,,1",
            "100,chat,20,0,,1",
            "300,chat,30,0,,1",
        ])
        result = load_trace(path, INTERNVL)
        assert [r.arrival_ms for r in result.requests] == [100, 300, 500]
        assert [r.text_tokens for r in result.requests] == [20, 30, 10]
        assert [r.id for r in result.requests] == [0, 1, 2]

    def test_malformed_rows_counted(self, tmp_path):
        rows = [f"{i},chat,10,0,,1" for i in range(300)]
        rows.append("bad,chat,x,0,,1")
        rows.append("5,vision,10,1,0x480,1")  # zero-pixel image
        rows.append("0,chat,10,0,,1,extra")  # more fields than the header
        path = make_trace(tmp_path, rows)
        result = load_trace(path, INTERNVL)
        assert result.malformed_rows == 3
        assert len(result.requests) == 300

    def test_empty_prompt_is_malformed(self, tmp_path):
        # No text tokens and no images: nothing to prefill.
        rows = [f"{i},chat,10,0,,1" for i in range(100)] + ["10.0,chat,0,0,,5"]
        result = load_trace(make_trace(tmp_path, rows), INTERNVL)
        assert result.malformed_rows == 1
        assert len(result.requests) == 100

    def test_short_row_is_malformed(self, tmp_path):
        # A row with fewer fields than the header is malformed, not padded.
        rows = [f"{i},chat,10,0,,1" for i in range(299)] + ["2.0,chat"]
        result = load_trace(make_trace(tmp_path, rows), INTERNVL)
        assert result.malformed_rows == 1
        assert len(result.requests) == 299
        with pytest.raises(TraceError):
            load_trace(make_trace(tmp_path, ["0,chat,10,0,,1", "2.0,chat"]), INTERNVL)

    def test_too_many_malformed_is_hard_error(self, tmp_path):
        rows = ["0,chat,10,0,,1", "bad,chat,x,0,,1"]
        path = make_trace(tmp_path, rows)
        with pytest.raises(TraceError):
            load_trace(path, INTERNVL)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "nope.csv", INTERNVL)

    def test_missing_columns(self, tmp_path):
        path = make_trace(tmp_path, ["1,2"], header="arrival_ms,text_tokens")
        with pytest.raises(TraceError):
            load_trace(path, INTERNVL)

    def test_round_trip(self, tmp_path):
        cfg = GeneratorConfig(model=INTERNVL, base_rate=20, seed=3)
        reqs = generate(cfg, 20_000)
        path = tmp_path / "rt.csv"
        write_trace(path, reqs)
        back = load_trace(path, INTERNVL)
        assert len(back.requests) == len(reqs)
        assert [r.total_image_tokens for r in back.requests] == [
            r.total_image_tokens for r in reqs
        ]


    def test_non_finite_arrival_is_malformed(self, tmp_path):
        # Each would be dropped later by the horizon filter, not counted.
        rows = [f"{i},chat,10,0,,1" for i in range(400)]
        rows += ["nan,chat,10,0,,1", "inf,chat,10,0,,1", "-inf,chat,10,0,,1", "-1,chat,10,0,,1"]
        result = load_trace(make_trace(tmp_path, rows), INTERNVL)
        assert result.malformed_rows == 4
        assert len(result.requests) == 400


def _reference_load(path, model):
    """What a trace file means, read with csv.DictReader one dict per row.

    Returns ``(requests, malformed, total)`` before the malformed-share rule,
    or raises TraceError for a missing column.
    """
    requests, malformed, total = [], 0, 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return [], 0, 0
        if any(c not in reader.fieldnames for c in TRACE_COLUMNS):
            raise TraceError("missing columns")
        for row in reader:
            total += 1
            try:
                if None in row.values() or None in row:  # a short or a long row
                    raise ValueError("field count")
                dims = []
                cell = row["image_dims"].strip()
                for part in cell.split(";") if cell else []:
                    w, h = part.lower().split("x")
                    dims.append((int(w), int(h)))
                if int(row["num_images"]) != len(dims):
                    raise ValueError("num_images")
                arrival_ms = float(row["arrival_ms"])
                if arrival_ms != arrival_ms or arrival_ms in (float("inf"), float("-inf")) or arrival_ms < 0:
                    raise ValueError("arrival_ms")
                requests.append(Request(
                    id=0, arrival_ms=arrival_ms, text_tokens=int(row["text_tokens"]),
                    images=tuple(ImageSpec.from_dims(w, h, model) for w, h in dims),
                    output_tokens=int(row["output_tokens"]), service_id=row["service_id"] or "default"))
            except ValueError:
                malformed += 1
    requests.sort(key=lambda r: r.arrival_ms)
    for i, req in enumerate(requests):
        req.id = i
    return requests, malformed, total


def _assert_reads_as_reference(path):
    """load_trace gives the reference's requests and malformed count, and
    rejects the file exactly when the reference's malformed share is too high."""
    try:
        expected, malformed, total = _reference_load(path, INTERNVL)
    except TraceError:
        with pytest.raises(TraceError):
            load_trace(path, INTERNVL)
        return
    with mock.patch.object(workload, "MAX_MALFORMED_FRAC", 1.0):
        result = load_trace(path, INTERNVL)
    assert (result.requests, result.malformed_rows) == (expected, malformed)
    if total and malformed / total > workload.MAX_MALFORMED_FRAC:
        with pytest.raises(TraceError):
            load_trace(path, INTERNVL)
    else:
        assert load_trace(path, INTERNVL) == result


HEADER = ",".join(TRACE_COLUMNS)
READER_CASES = {
    "empty file": "",
    "header only": HEADER + "\n",
    "header without newline": HEADER,
    "blank first line": "\n" + HEADER + "\n0,chat,10,0,,1\n",
    "blank lines between and after": HEADER + "\n\n0,chat,10,0,,1\n\n\n5,chat,3,0,,2\n\n",
    "only blank lines": "\n\n\n",
    "crlf": HEADER + "\r\n0,chat,10,0,,1\r\n\r\n7.5,vision,10,2,64x64;900X20,3\r\n",
    "quoted cells": HEADER + '\n1,"a,b",10,0,,1\n2,"say ""hi""",10,1,"64x64",1\n3,"two\nlines",5,0,"",2\n',
    "empty service": HEADER + "\n1,,10,0,,1\n",
    "reordered and extra columns":
        "note,output_tokens,image_dims,num_images,text_tokens,service_id,arrival_ms\n"
        "x,4,64x64,1,10,chat,3.5\ny,2,,0,7,,1\n",
    "duplicated column reads the last":
        "arrival_ms,service_id,text_tokens,num_images,image_dims,output_tokens,text_tokens\n"
        "1,chat,bad,0,,1,12\n2,chat,5,0,,1,x\n",
    "short and long rows": HEADER + "\n" + "\n".join(
        [f"{i},chat,10,0,,1" for i in range(200)] + ["5,chat,10,0,", "6,chat,10,0,,1,extra"]) + "\n",
    "one empty cell line": HEADER + '\n""\n' + "\n".join(f"{i},c,1,0,,1" for i in range(150)) + "\n",
    "missing column": "arrival_ms,service_id,text_tokens,num_images,output_tokens\n1,chat,10,0,1\n",
    "bad values": HEADER + "\n" + "\n".join(
        ["nan,chat,10,0,,1", "1,chat,10,2,64x64,1", "1,chat,10,1,64x64x2,1", "1,chat,10,1,0x64,1",
         "1,chat,0,0,,1", "1,chat,10,0,,0", "1,chat, 10 ,0, ,1", "1e3,chat,1_0,0,,1"]) + "\n",
}


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_reader_matches_dictreader_reference(name, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(READER_CASES[name].encode())
    _assert_reads_as_reference(path)


# Cells per column: mostly valid values, some that are not.
_CELLS = {
    "arrival_ms": ["0", "12.5", "300", "7", "1e3", "-1", "nan", "inf", "x", ""],
    "service_id": ["chat", "vision", "", "a,b", 'q"q', "two\nlines", " "],
    "text_tokens": ["10", "250", "0", "-3", "x"],
    "num_images": ["0", "0", "1", "2", "x"],
    "image_dims": ["", "", "64x64", "900x20;33x77", "0x5", "5", " "],
    "output_tokens": ["1", "64", "0", "x"],
}
_OTHER_CELLS = ["", "z", "1,2", "x"]


@st.composite
def trace_texts(draw):
    """A trace file's text: shuffled, repeated and extra columns, rows of any
    length, blank lines, and LF or CRLF line ends."""
    header = draw(st.permutations(TRACE_COLUMNS))
    header = header[:len(header) - draw(st.integers(0, 1))]  # sometimes a column short
    header += draw(st.lists(st.sampled_from(TRACE_COLUMNS + ["note", "extra"]), max_size=2))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])  # a blank line
            continue
        width = len(header) + draw(st.sampled_from([0, 0, 0, 0, -1, 1, -len(header) + 1]))
        rows.append([draw(st.sampled_from(_CELLS.get(name, _OTHER_CELLS)))
                     for name in (header + ["note"] * 2)[:width]])
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows([header] + rows)
    return buf.getvalue()


@given(trace_texts())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reader_matches_dictreader_reference_on_generated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_bytes(text.encode())
    _assert_reads_as_reference(path)


class TestGenerator:
    def test_deterministic_under_seed(self):
        cfg = GeneratorConfig(model=INTERNVL, base_rate=50, seed=11)
        a = generate(cfg, 60_000)
        b = generate(cfg, 60_000)
        assert [(r.arrival_ms, r.text_tokens, r.total_image_tokens) for r in a] == [
            (r.arrival_ms, r.text_tokens, r.total_image_tokens) for r in b
        ]

    def test_seed_changes_stream(self):
        a = generate(GeneratorConfig(model=INTERNVL, base_rate=50, seed=1), 60_000)
        b = generate(GeneratorConfig(model=INTERNVL, base_rate=50, seed=2), 60_000)
        assert [r.arrival_ms for r in a] != [r.arrival_ms for r in b]

    def test_image_counts_bounded(self):
        cfg = GeneratorConfig(
            model=INTERNVL, base_rate=100, seed=5, image_request_fraction=1.0,
            burst_episodes=(BurstEpisode(0, 30_000, 1.0, image_multiplier=4.0),),
        )
        reqs = generate(cfg, 60_000)
        assert all(0 <= len(r.images) <= 16 for r in reqs)
        assert all(img.width_px > 0 and img.height_px > 0 for r in reqs for img in r.images)

    def test_invalid_config(self):
        cfg = GeneratorConfig(model=INTERNVL, base_rate=0)
        with pytest.raises(ValueError):
            generate(cfg, 1000)
        cfg = GeneratorConfig(model=INTERNVL, images_per_request={1: 0.5})
        with pytest.raises(ValueError):
            generate(cfg, 1000)

    @pytest.mark.parametrize("changes, field", [
        ({"burst_episodes": (BurstEpisode(1_000, 5_000, rate_multiplier=-2.0),)},
         "burst_episodes[0].rate_multiplier"),
        ({"burst_episodes": (BurstEpisode(1_000, 5_000, rate_multiplier=0.0),)},
         "burst_episodes[0].rate_multiplier"),
        ({"burst_episodes": (BurstEpisode(0, 1_000), BurstEpisode(2_000, 0.0))},
         "burst_episodes[1].duration_ms"),
        ({"burst_episodes": (BurstEpisode(1_000, 5_000, image_multiplier=-1.0),)},
         "burst_episodes[0].image_multiplier"),
        ({"image_dim_median_px": 0.0}, "image_dim_median_px"),
        ({"output_len_median": 0}, "output_len_median"),
        ({"base_rate": float("nan")}, "base_rate"),
        ({"base_rate": float("inf")}, "base_rate"),
        ({"images_per_request": {1: -0.5, 2: 1.5}}, "images_per_request.1"),
        ({"images_per_request": {1: 1.5, 2: -0.5}}, "images_per_request.2"),
        ({"burst_episodes": (BurstEpisode(0, 1_000), BurstEpisode(float("nan"), 5_000))},
         "burst_episodes[1].start_ms"),
        ({"image_dim_sigma": float("nan")}, "image_dim_sigma"),
        ({"image_dim_sigma": float("inf")}, "image_dim_sigma"),
        ({"image_dim_sigma": -0.1}, "image_dim_sigma"),
        ({"output_len_sigma": float("nan")}, "output_len_sigma"),
        ({"output_len_sigma": float("inf")}, "output_len_sigma"),
        ({"output_len_sigma": -1.0}, "output_len_sigma"),
    ])
    def test_meaningless_value_fails_validate(self, changes, field):
        # validate() alone: generate() would not end on a negative rate
        # multiplier or a NaN start.
        with pytest.raises(SpecError) as raised:
            GeneratorConfig(model=INTERNVL, **changes).validate()
        assert raised.value.field == field

    def test_image_prompt_tail_exponent(self):
        # Image-text totals above the image-token atoms follow the configured
        # power law; fitted exponent recovers it.
        cfg = GeneratorConfig(
            model=INTERNVL,
            base_rate=240,
            seed=42,
            image_request_fraction=1.0,
            images_per_request={1: 0.7, 2: 0.3},
            image_req_len_alpha=4.4,
            image_req_len_min=4096,
        )
        reqs = generate(cfg, 500_000)
        assert len(reqs) >= 100_000
        totals = [r.text_tokens + r.total_image_tokens for r in reqs]
        alpha = fit_tail_exponent(totals, tail_fraction=0.3)
        assert alpha == pytest.approx(4.4, abs=0.3)

    def test_text_tail_exponent(self):
        cfg = GeneratorConfig(
            model=INTERNVL, base_rate=240, seed=9, image_request_fraction=0.0,
            text_len_alpha=2.9, text_len_min=256,
        )
        reqs = generate(cfg, 500_000)
        alpha = fit_tail_exponent([r.text_tokens for r in reqs], tail_fraction=0.3)
        assert alpha == pytest.approx(2.9, abs=0.3)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_stream_at_a_rate_multiplier_is_a_compressed_copy_without_bursts(self, seed):
        # The same draws in the same order: at m times the rate each request is
        # the unit-rate one, arriving at (to rounding) its arrival over m.
        # Burst episodes sit at fixed times and break this.
        horizon = 600_000.0
        cfg = GeneratorConfig(model=INTERNVL, base_rate=5.0, seed=seed, text_len_min=256,
                              image_req_len_min=1024, image_dim_median_px=430, image_dim_sigma=0.45,
                              images_per_request={1: 0.5, 2: 0.3, 3: 0.12, 4: 0.08},
                              output_len_median=96)
        unit = generate(cfg, horizon * 1.7)
        for m in (0.5, 0.64, 0.78, 1.7):
            scaled = generate(replace(cfg, base_rate=cfg.base_rate * m), horizon)
            assert len(scaled) == sum(r.arrival_ms / m < horizon for r in unit) > 1000
            for a, b in zip(scaled, unit):
                assert (a.id, a.service_id, a.text_tokens, a.images, a.output_tokens) == \
                    (b.id, b.service_id, b.text_tokens, b.images, b.output_tokens)
                assert a.arrival_ms == pytest.approx(b.arrival_ms / m, rel=1e-14, abs=0)

    def test_burst_rate_multiplier(self):
        mult = 3.0
        ratios = []
        for seed in range(10):
            cfg = GeneratorConfig(
                model=INTERNVL, base_rate=40, seed=seed,
                burst_episodes=(BurstEpisode(100_000, 100_000, rate_multiplier=mult),),
            )
            reqs = generate(cfg, 300_000)
            burst = sum(1 for r in reqs if 100_000 <= r.arrival_ms < 200_000)
            base = sum(1 for r in reqs if r.arrival_ms < 100_000 or r.arrival_ms >= 200_000)
            ratios.append((burst / 100.0) / (base / 200.0))
        mean_ratio = sum(ratios) / len(ratios)
        assert mean_ratio == pytest.approx(mult, rel=0.10)


class TestSummarize:
    def test_all_text_stream(self):
        cfg = GeneratorConfig(model=INTERNVL, base_rate=50, seed=1, image_request_fraction=0.0)
        s = summarize(generate(cfg, 60_000))
        assert s.median_image_qps == 0.0

    def test_identical_requests(self, tmp_path):
        rows = [f"{i * 1000},chat,77,0,,5" for i in range(20)]
        path = tmp_path / "t.csv"
        path.write_text("arrival_ms,service_id,text_tokens,num_images,image_dims,output_tokens\n"
                        + "\n".join(rows) + "\n")
        result = load_trace(path, INTERNVL)
        s = summarize(result.requests)
        assert s == WorkloadSummary(empty=False)  # text only: no image statistics

    def test_empty_stream(self):
        s = summarize([])
        assert s.empty

    def test_image_qps_counted(self):
        cfg = GeneratorConfig(model=INTERNVL, base_rate=50, seed=1, image_request_fraction=1.0)
        s = summarize(generate(cfg, 120_000))
        assert s.median_image_qps > 0
        assert s.median_images_per_request >= 1
