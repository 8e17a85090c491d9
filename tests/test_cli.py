import contextlib
import csv
import functools
import itertools
import json
import multiprocessing
import re
import shlex
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmsim import experiment
from lmmsim.cli import _json_list, build_parser, main
from lmmsim.core import get_model_spec
from lmmsim.engine import Simulation
from lmmsim.experiment import (
    _capacity_probe_worker,
    build_simulation,
    config_from_dict,
    config_with,
    load_config,
    run_capacity,
    run_experiment,
    validate_config,
)
from lmmsim.metrics import miss_budget, summarize_latency
from lmmsim.profiles import default_profile


def p99_verdict(exp, log) -> bool:
    """A full run's capacity verdict from its nearest-rank P99s: some request
    completed after the warm-up, and each group's P99 meets its SLO."""
    latency = summarize_latency(log, exp.warmup_fraction)
    checks = [(latency.ttft[group], exp.slo.ttft_slo_ms(multimodal))
              for group, multimodal in (("text-only", False), ("image-text", True))]
    checks.append((latency.tbt["overall"], exp.slo.tbt_slo_ms))
    return (latency.ttft["overall"].count > 0
            and all(stats.p99 <= limit for stats, limit in checks if stats.count))


BASE_CONFIG = {
    "model": "internvl-26b",
    "topology": "decoupled",
    "policies": {"router": "least_pending", "scheduler": "slo_priority"},
    "cluster": {"servers": 1, "gpus_per_server": 8, "cpu_cores_per_server": 16},
    "instances": {"text": {"count": 1, "tp": 4}, "image": {"count": 4, "tp": 1}},
    "workload": {"generator": {"base_rate": 2.0, "image_request_fraction": 0.3, "seed": 0}},
    "slo": {"slo_factor": 5.0},
    "transfer": {"medium": "rdma"},
    "horizon_ms": 60_000,
    "seeds": [1, 2],
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return path


class TestSimulate:
    def test_minimal_config_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "requests_seed1.csv").exists()
        assert (out / "requests_seed2.csv").exists()
        assert (out / "series.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aggregate"]["completed_total"] > 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("requests_seed1.csv", "requests_seed2.csv", "series.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seeds", "7"]) == 0
        assert (out / "requests_seed7.csv").exists()
        assert not (out / "requests_seed1.csv").exists()
        # The echoed config reproduces the run.
        assert json.loads((out / "summary.json").read_text())["config"]["seeds"] == [7]

    def test_missing_trace_exits_2_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"workload": {"trace": "missing.csv"}})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "workload.trace" in capsys.readouterr().err

    def test_bad_topology_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"topology": "serverless"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "topology" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"policies": {"max_fanout": 0}}, "policies.max_fanout"),
        ({"max_batch": {"prefil": 4}}, "max_batch.prefil"),
        ({"max_batch": {"decode": 0}}, "max_batch.decode"),
        ({"slo": {"slo_factor": 5.0, "percentile": 0.95}}, "slo.percentile"),
        ({"warmup_fraction": 2.0}, "warmup_fraction"),
        ({"warmup_fraction": -0.1}, "warmup_fraction"),
        ({"scale_interval_ms": 0}, "scale_interval_ms"),
        ({"start_delay_ms": -1}, "start_delay_ms"),
        ({"rate_multiplier": 0}, "rate_multiplier"),
        ({"seeds": ["a"]}, "seeds"),
        ({"slo": {"slo_factor": "x"}}, "slo.slo_factor"),
        ({"horizon_ms": "abc"}, "horizon_ms"),
        ({"capacity": {"lo_multiplier": "x"}}, "capacity.lo_multiplier"),
        ({"transfer": "tcp"}, "transfer"),
        ({"policies": "least_pending"}, "policies"),
        ({"horizn_ms": 60_000}, "horizn_ms"),
        ({"policies": {"routr": "round_robin"}}, "policies.routr"),
        ({"slo": {"slo_factr": 5.0}}, "slo.slo_factr"),
        ({"transfer": {"medium": "rdma", "gbps": 100}}, "transfer.gbps"),
        ({"cluster": {"servers": 1, "gpus_per_server": 8, "gpu": 8}}, "cluster.gpu"),
        ({"capacity": {"lo": 0.5}}, "capacity.lo"),
        ({"workload": {"generator": {"base_rat": 2.0}}}, "workload.generator.base_rat"),
        ({"capacity": {"lo_multiplier": 2.0, "hi_multiplier": 0.5}}, "capacity.hi_multiplier"),
        ({"capacity": {"lo_multiplier": 1.0, "hi_multiplier": 1.0}}, "capacity.hi_multiplier"),
        ({"workload": {"generator": {"base_rate": 2.0, "burst_episodes": [
            {"start_ms": 0, "duration_ms": 1000, "rate_mult": 2.0}]}}},
         "workload.generator.burst_episodes[0].rate_mult"),
        ({"instances": {"text": {"cnt": 1, "tp": 4}, "image": {"count": 4, "tp": 1}}},
         "instances.text.cnt"),
        ({"workload": {"generator": "x"}}, "workload.generator"),
        ({"workload": {"generator": {"base_rate": 2.0}, "trace_path": "t.csv"}}, "workload.trace_path"),
        ({"workload": {"generator": {"base_rate": 2.0, "images_per_request": {"a": 1}}}},
         "workload.generator.images_per_request.a"),
        ({"workload": {"generator": {"base_rate": 2.0, "images_per_request": {"1": "x"}}}},
         "workload.generator.images_per_request.1"),
        ({"policies": {"aging_slo_fraction": None}}, "policies.aging_slo_fraction"),
        ({"policies": {"router": "x"}}, "policies.router"),
        ({"slo": {"slo_factor": -1}}, "slo.slo_factor"),
        ({"slo": {"slo_factor": 5.0, "ttft_base_text_ms": -5}}, "slo.ttft_base_text_ms"),
        ({"slo": {"slo_factor": 5.0, "tbt_base_ms": 0}}, "slo.tbt_base_ms"),
        ({"slo": {"slo_factor": 5.0, "ref_text_tokens": -100}}, "slo.ref_text_tokens"),
        ({"instances": {"text": {"count": 1, "tp": 0}, "image": {"count": 4, "tp": 1}}},
         "instances.text.tp"),
        ({"instances": {"text": {"count": -1, "tp": 4}, "image": {"count": 4, "tp": 1}}},
         "instances.text.count"),
        ({"instances": {"text": {"count": 0, "tp": 4}, "image": {"count": 4, "tp": 1}}},
         "instances.text.count"),
        ({"cluster": {"servers": 1, "gpus_per_server": 8, "cpu_cores_per_server": 0}},
         "cluster.cpu_cores_per_server"),
        # A repeated seed reruns the same simulation; a fractional or
        # negative one cannot seed a run.
        ({"seeds": [1, 1]}, "seeds"),
        ({"capacity": {"seeds": [2, 2]}}, "capacity.seeds"),
        ({"seeds": [1.5]}, "seeds"),
        ({"seeds": [-1]}, "seeds"),
        ({"seeds": []}, "seeds"),
        ({"seeds": [True]}, "seeds"),
        ({"cluster": {"servers": True, "gpus_per_server": 8}}, "cluster.servers"),
        # The generator seeds the run's numpy RNG: only a JSON integer does.
        ({"workload": {"generator": {"seed": 1.5}}}, "workload.generator.seed"),
        ({"workload": {"generator": {"seed": True}}}, "workload.generator.seed"),
        ({"workload": {"generator": {"seed": "3"}}}, "workload.generator.seed"),
        # Keys with one value in every use are constants, not config keys.
        ({"policies": {"shrink_windows": 5}}, "policies.shrink_windows"),
        ({"policies": {"shrink_utilization": 0.7}}, "policies.shrink_utilization"),
        ({"policies": {"attainment_threshold": 0.99}}, "policies.attainment_threshold"),
        ({"slo": {"slo_factor": 5.0, "percentile": 0.99}}, "slo.percentile"),
        # A TP degree the profile does not price, that no server holds, or
        # that the encoder of the pool running it does not support.
        ({"cluster": {"servers": 2, "gpus_per_server": 16},
          "instances": {"text": {"count": 1, "tp": 16}, "image": {"count": 4, "tp": 1}}},
         "instances.text.tp"),
        ({"cluster": {"servers": 2, "gpus_per_server": 4},
          "instances": {"text": {"count": 1, "tp": 8}, "image": {"count": 4, "tp": 1}}},
         "instances.text.tp"),
        ({"instances": {"text": {"count": 1, "tp": 4}, "image": {"count": 1, "tp": 3}}},
         "instances.image.tp"),
        ({"topology": "monolith", "instances": {"monolith": {"count": 1, "tp": 3}}},
         "instances.monolith.tp"),
        ({"model": {"spec_path": "models.json", "nme": "internvl-26b"}}, "model.nme"),
        # Generator bounds that would draw an empty prompt, no output token
        # or a zero-pixel image, or a min that its max would clamp away.
        ({"workload": {"generator": {"text_len_min": 0}}}, "workload.generator.text_len_min"),
        ({"workload": {"generator": {"text_len_max": 0}}}, "workload.generator.text_len_max"),
        ({"workload": {"generator": {"text_len_min": -5}}}, "workload.generator.text_len_min"),
        ({"workload": {"generator": {"text_len_min": 40000}}}, "workload.generator.text_len_min"),
        ({"workload": {"generator": {"image_req_len_min": 0}}},
         "workload.generator.image_req_len_min"),
        ({"workload": {"generator": {"image_req_len_min": 40000}}},
         "workload.generator.image_req_len_min"),
        ({"workload": {"generator": {"image_dim_min_px": 0}}}, "workload.generator.image_dim_min_px"),
        ({"workload": {"generator": {"image_dim_min_px": 5000}}},
         "workload.generator.image_dim_min_px"),
        ({"workload": {"generator": {"image_dim_max_px": 0}}}, "workload.generator.image_dim_max_px"),
        ({"workload": {"generator": {"output_len_max": 0}}}, "workload.generator.output_len_max"),
        # A number must be a JSON number of its field's type: no string, no
        # true/false, and no fraction where the field counts.
        ({"policies": {"max_fanout": 2.5}}, "policies.max_fanout"),
        ({"policies": {"max_fanout": True}}, "policies.max_fanout"),
        ({"slo": {"slo_factor": "8"}}, "slo.slo_factor"),
        ({"horizon_ms": "30000"}, "horizon_ms"),
        ({"slo": {"slo_factor": True}}, "slo.slo_factor"),
        ({"policies": {"aging_slo_fraction": True}}, "policies.aging_slo_fraction"),
        ({"workload": {"generator": {"base_rate": True}}}, "workload.generator.base_rate"),
        ({"workload": {"generator": {"base_rate": 2.0, "burst_episodes": [
            {"start_ms": "120000", "duration_ms": 1000}]}}},
         "workload.generator.burst_episodes[0].start_ms"),
        ({"workload": {"generator": {"text_len_min": 256.5}}}, "workload.generator.text_len_min"),
        ({"workload": {"generator": {"image_dim_min_px": 64.5}}}, "workload.generator.image_dim_min_px"),
        ({"workload": {"generator": {"output_len_median": 96.5}}}, "workload.generator.output_len_median"),
        # A generator value of the wrong type names its key, not only its section.
        ({"workload": {"generator": {"base_rate": "x"}}}, "workload.generator.base_rate"),
        # A value that would be clamped or ignored: a tail factor of 0 or
        # less prices as 1e-9, and a generator next to a trace never ran.
        ({"policies": {"capacity_tail_factor": 0}}, "policies.capacity_tail_factor"),
        ({"policies": {"capacity_tail_factor": -1.0}}, "policies.capacity_tail_factor"),
        ({"workload": {"generator": {"base_rate": 2.0}, "trace": "demo.csv"}}, "'workload'"),
        # A burst that would stop arrivals, reverse time (generating without
        # end) or end before it starts.
        ({"workload": {"generator": {"burst_episodes": [
            {"start_ms": 1000, "duration_ms": 5000, "rate_multiplier": 0}]}}},
         "workload.generator.burst_episodes[0].rate_multiplier"),
        ({"workload": {"generator": {"burst_episodes": [
            {"start_ms": 1000, "duration_ms": 5000, "rate_multiplier": -2.0}]}}},
         "workload.generator.burst_episodes[0].rate_multiplier"),
        ({"workload": {"generator": {"burst_episodes": [{"start_ms": 1000, "duration_ms": -5000}]}}},
         "workload.generator.burst_episodes[0].duration_ms"),
        ({"workload": {"generator": {"burst_episodes": [
            {"start_ms": 1000, "duration_ms": 5000, "image_multiplier": 0}]}}},
         "workload.generator.burst_episodes[0].image_multiplier"),
        # A median of 0 clamps every image to its minimum width and every
        # output to one token; a negative share makes the others sum past 1.
        ({"workload": {"generator": {"image_dim_median_px": 0}}}, "workload.generator.image_dim_median_px"),
        ({"workload": {"generator": {"output_len_median": 0}}}, "workload.generator.output_len_median"),
        ({"workload": {"generator": {"images_per_request": {"1": -0.5, "2": 1.5}}}},
         "workload.generator.images_per_request.1"),
        ({"workload": {"generator": {"images_per_request": {"1": 1.5, "2": -0.5}}}},
         "workload.generator.images_per_request.2"),
        # NaN and Infinity, which Python's json reads, are no JSON numbers. A
        # NaN or infinite rate, or a NaN burst start, would generate without
        # end, and a NaN exponent fails the run (exit 1) at its first draw.
        ({"workload": {"generator": {"base_rate": float("nan")}}}, "workload.generator.base_rate"),
        ({"workload": {"generator": {"base_rate": float("inf")}}}, "workload.generator.base_rate"),
        ({"workload": {"generator": {"text_len_alpha": float("nan")}}}, "workload.generator.text_len_alpha"),
        ({"workload": {"generator": {"burst_episodes": [{"start_ms": float("nan"), "duration_ms": 5000}]}}},
         "workload.generator.burst_episodes[0].start_ms"),
        ({"horizon_ms": float("inf")}, "horizon_ms"),
        ({"horizon_ms": 10 ** 400}, "horizon_ms"),  # an integer too large for a float
    ])
    def test_meaningless_value_exits_2_naming_field(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, overrides)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["1,a", ",", "1,1", "", "1,", "-1", "2.5"])
    def test_meaningless_seeds_flag_exits_2_naming_field(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seeds", seeds]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-3, 0, 7])
    def test_generator_seed_takes_any_integer(self, seed):
        # A negative seed stays valid: each run offsets it by its run seed.
        raw = {**BASE_CONFIG, "workload": {"generator": {"base_rate": 2.0, "seed": seed}}}
        assert validate_config(config_from_dict(raw)).source.seed == seed

    def test_auto_instances_runs(self, tmp_path):
        cfg = write_config(tmp_path, {"instances": "auto", "seeds": [1]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aggregate"]["completed_total"] > 0

    def test_auto_instances_fit_the_servers(self):
        # On 8-GPU servers auto sizing gives this model TP-8 text instances.
        raw = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())
        raw.update(model="llama3.2-90b", instances="auto", horizon_ms=20_000, seeds=[1],
                   cluster={"servers": 8, "gpus_per_server": 2})
        exp = validate_config(config_from_dict(raw))
        assert max(plan.tp for plan in exp.instances(1)) <= 2
        assert build_simulation(exp, 1).run().completed > 0

    def test_auto_instances_without_a_fitting_encoder_tp_exit_2(self, tmp_path, capsys):
        spec = {**_preset("internvl-26b"), "supported_tp_encoder": [2, 4, 8]}
        (tmp_path / "models.json").write_text(json.dumps([spec]))
        cfg = write_config(tmp_path, {"model": {"spec_path": "models.json", "name": "internvl-26b"},
                                      "instances": "auto",
                                      "cluster": {"servers": 8, "gpus_per_server": 1}})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "'instances'" in capsys.readouterr().err

    def test_pool_mismatch_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"instances": {"monolith": {"count": 2, "tp": 4}}})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "instances" in capsys.readouterr().err

    def test_trace_replay(self, tmp_path):
        trace = tmp_path / "trace.csv"
        rows = ["arrival_ms,service_id,text_tokens,num_images,image_dims,output_tokens"]
        rows += [f"{i * 500},chat,200,1,640x480,4" for i in range(40)]
        trace.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {"workload": {"trace": "trace.csv"}, "seeds": [1]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"]["1"]["arrived"] == 40


class TestPoolOrder:
    """The order of the keys of ``instances`` means nothing: permuting them
    leaves every simulate output byte-identical, apart from the config that
    summary.json echoes."""

    _AUTOSCALED = {"policies": {"autoscaler": "token_aware", "placement": "spread"},
                   "scale_interval_ms": 10_000, "start_delay_ms": 2_000}

    @pytest.mark.parametrize("topology, pools, overrides", [
        ("monolith", {"monolith": (8, 4)}, {}),  # one pool: one order
        ("decoupled", {"text": (7, 4), "image": (4, 1)}, {}),
        ("decoupled_pd", {"prefill": (3, 4), "decode": (3, 4), "image": (4, 1)}, {}),
        # Autoscaling from an empty image pool, placed with spread.
        ("decoupled_pd", {"prefill": (2, 4), "decode": (2, 4), "image": (0, 1)}, _AUTOSCALED),
        ("monolith_pd", {"prefill": (2, 4), "decode": (2, 4)},
         {**_AUTOSCALED, "policies": {"autoscaler": "token_aware"}}),
    ])
    def test_pool_order_leaves_outputs_unchanged(self, tmp_path, topology, pools, overrides):
        raw = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())
        raw.update(topology=topology, horizon_ms=120_000, seeds=[1], **overrides)
        outputs = []
        for i, order in enumerate(itertools.permutations(pools)):
            raw["instances"] = {pool: {"count": pools[pool][0], "tp": pools[pool][1]} for pool in order}
            out = tmp_path / str(i)
            summary = run_experiment(config_from_dict(raw), out)
            del summary["config"]
            outputs.append((summary, {p.name: p.read_bytes() for p in sorted(out.iterdir())
                                      if p.name != "summary.json"}))
        assert summary["aggregate"]["completed_total"] > 0
        assert all(output == outputs[0] for output in outputs[1:])


def _write_trace(path, n):
    rows = ["arrival_ms,service_id,text_tokens,num_images,image_dims,output_tokens"]
    rows += [f"{i * 500},chat,200,{i % 2},{'640x480' if i % 2 else ''},4" for i in range(n)]
    path.write_text("\n".join(rows) + "\n")


class TestTraceCache:
    @pytest.fixture
    def loads(self, monkeypatch):
        """The paths ``experiment.load_trace`` parses, starting from an empty cache."""
        monkeypatch.setattr(experiment, "_trace_cache", None)
        parsed = []
        load = experiment.load_trace

        def counted(path, model):
            parsed.append(path)
            return load(path, model)

        monkeypatch.setattr(experiment, "load_trace", counted)
        return parsed

    def _exp(self, tmp_path):
        return validate_config(config_from_dict(
            {**BASE_CONFIG, "workload": {"trace": "trace.csv"}}, tmp_path))

    def test_parsed_once_until_rewritten(self, tmp_path, loads):
        _write_trace(tmp_path / "trace.csv", 40)
        exp = self._exp(tmp_path)
        assert len(exp.workload(1, 1.0, 60_000)) == 40
        assert len(exp.workload(2, 1.0, 60_000)) == 40
        assert experiment._offered_rate(exp) > 0
        assert len(loads) == 1
        _write_trace(tmp_path / "trace.csv", 30)
        assert len(exp.workload(1, 1.0, 60_000)) == 30
        assert len(loads) == 2

    def test_rate_multiplier_leaves_cached_requests_untouched(self, tmp_path, loads):
        _write_trace(tmp_path / "trace.csv", 40)
        exp = self._exp(tmp_path)
        cached = exp.workload(1, 1.0, 60_000)
        before = [(r.id, r.arrival_ms, r.is_multimodal) for r in cached]
        faster = exp.workload(1, 2.0, 60_000)
        assert [r.arrival_ms for r in faster] == [a / 2.0 for _, a, _ in before]
        assert [r.is_multimodal for r in faster] == [m for *_, m in before]
        again = exp.workload(1, 1.0, 60_000)
        assert [(r.id, r.arrival_ms, r.is_multimodal) for r in again] == before
        assert len(loads) == 1


class TestCapacity:
    def test_capacity_smoke(self, tmp_path):
        cfg = write_config(tmp_path, {
            "horizon_ms": 30_000,
            "capacity": {"lo_multiplier": 0.25, "hi_multiplier": 1.0,
                         "seeds": [1, 2, 3], "rel_tol": 0.05},
        })
        out = tmp_path / "out"
        assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "capacity.json").read_text())
        assert result["rate_req_per_s"] >= 0.0
        assert result["probes"]

    def test_each_seed_runs_once_per_probe(self, tmp_path, monkeypatch):
        # Runs are deterministic, so simulating a seed twice adds nothing.
        seeds_run = []
        run = Simulation.run

        def counted_run(sim):
            seeds_run.append(sim.seed)
            return run(sim)

        monkeypatch.setattr(Simulation, "run", counted_run)
        raw = {**BASE_CONFIG, "horizon_ms": 10_000,
               "capacity": {"lo_multiplier": 0.5, "hi_multiplier": 1.0, "seeds": [1]}}
        result = run_capacity(config_from_dict(raw, tmp_path))
        assert result.probes
        assert seeds_run == [1] * len(result.probes)

    # One 8-GPU server's pools under each topology.
    POOLS = {
        "monolith": {"monolith": {"count": 2, "tp": 4}},
        "decoupled": {"text": {"count": 1, "tp": 4}, "image": {"count": 4, "tp": 1}},
        "decoupled_pd": {"prefill": {"count": 1, "tp": 2}, "decode": {"count": 1, "tp": 2},
                         "image": {"count": 4, "tp": 1}},
        "monolith_pd": {"prefill": {"count": 1, "tp": 4}, "decode": {"count": 1, "tp": 4}},
    }

    @given(topology=st.sampled_from(sorted(POOLS)),
           router=st.sampled_from(["least_pending", "round_robin"]),
           scheduler=st.sampled_from(["fifo", "slo_priority"]),
           max_batch=st.sampled_from([{"encode": 1, "prefill": 1, "decode": 64},
                                      {"encode": 8, "prefill": 4, "decode": 8}]),
           slo_factor=st.sampled_from([3.0, 8.0, 16.0]),
           rate_multiplier=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
           seed=st.integers(1, 3))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_early_verdict_equals_full_run(self, topology, router, scheduler, max_batch,
                                           slo_factor, rate_multiplier, seed):
        raw = {**BASE_CONFIG, "topology": topology, "instances": self.POOLS[topology],
               "policies": {"router": router, "scheduler": scheduler}, "max_batch": max_batch,
               "slo": {"slo_factor": slo_factor}}
        exp = validate_config(config_from_dict(raw))
        early = _capacity_probe_worker(exp, seed, rate_multiplier, 20_000, 1)
        full = build_simulation(exp, seed, rate_multiplier, 20_000).run()
        assert early["ok"] == p99_verdict(exp, full)

    def test_tally_counts_the_post_warmup_records(self):
        # Half the outputs are one token, so many requests have no TBT
        # samples; the warm-up's first 6 s complete requests too. The TBT
        # SLO (33.6 ms) sits inside the spread of the TBT P99s.
        raw = {**BASE_CONFIG, "slo": {"slo_factor": 8.0, "tbt_base_ms": 4.2},
               "workload": {"generator": {"base_rate": 2.0, "image_request_fraction": 0.3,
                                          "output_len_median": 2, "seed": 0}}}
        exp = validate_config(config_from_dict(raw))
        cutoff = exp.warmup_fraction * 60_000
        sim = build_simulation(exp, 1, 1.0, 60_000, validate=True)
        groups = ("text-only", "image-text", "tbt")
        budgets = dict(zip(groups, (10**6, 10**6 + 1, 10**6 + 2)))
        sim.stop_when_missed(budgets, cutoff)
        log = sim.run()
        assert log.stopped_ms is None
        done = log.completed_records()
        kept = [r for r in done if r.arrival_ms >= cutoff]
        by_group = {"text-only": [(r.ttft_ms, r.ttft_slo_ms) for r in kept if not r.multimodal],
                    "image-text": [(r.ttft_ms, r.ttft_slo_ms) for r in kept if r.multimodal],
                    "tbt": [(r.tbt_p99_ms, r.tbt_slo_ms) for r in kept if r.tbt_p99_ms is not None]}
        assert sim.tally == tuple([len(by_group[g]), sum(v > slo for v, slo in by_group[g]), budgets[g]]
                                  for g in groups)
        # Each part of the rule is exercised: warm-up completions left out,
        # completions without TBT samples, and misses and hits in each group.
        assert len(kept) < len(done)
        assert len(by_group["tbt"]) < len(kept)
        for n, misses, _ in sim.tally:
            assert 0 < misses < n

    def test_stops_at_the_miss_over_budget(self):
        # 60 s at 4 req/s under a tight SLO: every group misses many times.
        exp = validate_config(config_from_dict({**BASE_CONFIG, "slo": {"slo_factor": 1.5}}))
        horizon = 60_000
        cutoff = exp.warmup_fraction * horizon
        full = build_simulation(exp, 1, 2.0, horizon).run()
        kept = [r for r in full.completed_records() if r.arrival_ms >= cutoff]
        missed = {
            "text-only": [r for r in kept if not r.multimodal and r.ttft_ms > r.ttft_slo_ms],
            "image-text": [r for r in kept if r.multimodal and r.ttft_ms > r.ttft_slo_ms],
            "tbt": [r for r in kept if r.tbt_p99_ms is not None and r.tbt_p99_ms > r.tbt_slo_ms],
        }
        never = dict.fromkeys(missed, len(full.records))
        for group, records in missed.items():
            times = sorted(r.completion_ms for r in records)
            assert len(times) >= 2, group
            for budget in (0, 1, len(times) - 1, len(times)):
                sim = build_simulation(exp, 1, 2.0, horizon)
                sim.stop_when_missed({**never, group: budget}, cutoff)
                log = sim.run()
                if budget < len(times):
                    assert log.stopped_ms == times[budget], (group, budget)
                else:
                    assert log.stopped_ms is None
                    assert ([(r.request_id, r.completion_ms) for r in log.records.values()]
                            == [(r.request_id, r.completion_ms) for r in full.records.values()])

    def test_stopped_probe_keeps_invariants(self, monkeypatch):
        runs, budgets = [], []
        run, stop = Simulation.run, Simulation.stop_when_missed
        monkeypatch.setattr(Simulation, "run", lambda sim: runs.append((sim, run(sim))) or runs[-1][1])
        monkeypatch.setattr(Simulation, "stop_when_missed",
                            lambda sim, b, after, decided: budgets.append((b, after, decided))
                            or stop(sim, b, after, decided))
        monkeypatch.setattr(experiment, "build_simulation",
                            functools.partial(experiment.build_simulation, validate=True))
        exp = validate_config(config_from_dict(BASE_CONFIG))
        result = _capacity_probe_worker(exp, 1, 2.0, 60_000, 1)
        ((sim, log),) = runs
        assert not result["ok"] and result["stopped_ms"] == log.stopped_ms < 60_000
        assert log.completed >= 1
        assert len(log.records) == log.arrived
        # Arrivals after the stop were never simulated.
        assert max(r.arrival_ms for r in log.records.values()) <= log.stopped_ms
        # Each group's budget is taken over all its post-warm-up arrivals.
        counted = [r for r in sim.workload if r.arrival_ms >= 6_000]
        image = sum(r.is_multimodal for r in counted)
        assert budgets == [({"text-only": miss_budget(len(counted) - image, 0.99),
                             "image-text": miss_budget(image, 0.99),
                             "tbt": miss_budget(len(counted), 0.99)}, 6_000, None)]
        assert budgets[0][0]["text-only"] != budgets[0][0]["image-text"]

    def test_seed_scheduling_cannot_change_the_answer(self, monkeypatch):
        # At slo_factor 8, seed 1 fails four of the probes that seeds 2 and 3
        # pass; with two workers, seed 3 then never starts.
        raw = {**BASE_CONFIG, "horizon_ms": 20_000, "slo": {"slo_factor": 8.0},
               "capacity": {"lo_multiplier": 0.25, "hi_multiplier": 1.0, "seeds": [1, 2, 3]}}
        monkeypatch.setattr(experiment, "_POOL_WORKERS", 2)
        pooled = run_capacity(config_from_dict(raw))
        monkeypatch.setattr(experiment, "_pool", lambda *_: contextlib.nullcontext())
        in_process = run_capacity(config_from_dict(raw))
        assert pooled == in_process
        assert [ok for _, ok in pooled.probes].count(False) == 4

    def test_decided_probe_abandons_at_the_first_completion(self, monkeypatch):
        exp = validate_config(config_from_dict(BASE_CONFIG))
        full = build_simulation(exp, 1, 1.0, 60_000).run()
        first = min(r.completion_ms for r in full.completed_records())
        # As a pool worker's initializer leaves it once probe 3 has failed.
        monkeypatch.setattr(experiment, "_decided_probe", multiprocessing.Value("q", 3, lock=False))
        assert _capacity_probe_worker(exp, 1, 1.0, 60_000, 3) == {
            "seed": 1, "ok": False, "abandoned": True, "stopped_ms": first}
        assert not _capacity_probe_worker(exp, 1, 1.0, 60_000, 4).get("abandoned")

    def test_pooled_search_abandons_decided_seeds_under_spawn(self, monkeypatch):
        # Every image request misses its SLO here, and each seed's miss
        # budget is 0, so a probe fails at the first image request after the
        # warm-up. At multipliers 0.4375-1.0 seed 27 meets one 25-58 % into
        # its run; seed 13 meets none, so it would run to the horizon.
        raw = {**BASE_CONFIG, "horizon_ms": 3_600_000,
               "slo": {"slo_factor": 20.0, "ttft_base_image_ms": 0.001},
               "workload": {"generator": {"base_rate": 2.0, "image_request_fraction": 0.0005,
                                          "seed": 0}},
               "capacity": {"lo_multiplier": 0.25, "hi_multiplier": 1.0, "rel_tol": 0.5,
                            "seeds": [27, 13]}}
        monkeypatch.setattr(experiment, "_POOL_WORKERS", 2)
        # Spawned workers inherit nothing: the shared counter reaches them
        # through the pool's initializer or not at all.
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
        futures = []
        submit = ProcessPoolExecutor.submit
        monkeypatch.setattr(ProcessPoolExecutor, "submit",
                            lambda pool, *args: futures.append(submit(pool, *args)) or futures[-1])
        pooled = run_capacity(config_from_dict(raw))
        monkeypatch.setattr(experiment, "_pool", lambda *_: contextlib.nullcontext())
        assert pooled == run_capacity(config_from_dict(raw))
        assert [ok for _, ok in pooled.probes] == [True, False, False, False]
        abandoned = [f.result()["seed"] for f in futures if f.result().get("abandoned")]
        assert abandoned and set(abandoned) == {13}

    def test_inverted_bracket_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "horizon_ms": 10_000,
            "capacity": {"lo_multiplier": 2.0, "hi_multiplier": 0.5, "seeds": [1]},
        })
        assert main(["capacity", "--config", str(cfg)]) == 2
        assert "capacity.hi_multiplier" in capsys.readouterr().err

    def test_infeasible_slo_reports_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "horizon_ms": 30_000,
            "slo": {"slo_factor": 0.01},
            "capacity": {"lo_multiplier": 0.1, "hi_multiplier": 0.2, "seeds": [1]},
        })
        assert main(["capacity", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "capacity: 0.000" in out
        assert "warning" in out


class TestSweep:
    def test_ratio_sweep_rows(self, tmp_path):
        # A pool split is one `instances` object per value; the commas inside
        # it are quoted in sweep.csv, which reads back with one row per value.
        cfg = write_config(tmp_path, {
            "seeds": [1],
            "horizon_ms": 30_000,
            "cluster": {"servers": 2, "gpus_per_server": 8, "cpu_cores_per_server": 16},
        })
        splits = [{"text": {"count": t, "tp": 4}, "image": {"count": i, "tp": 1}}
                  for t, i in ((1, 4), (2, 8), (1, 8), (2, 4), (3, 4))]
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--axis", "instances",
                     "--values", ",".join(json.dumps(v) for v in splits), "--out", str(out)])
        assert code == 0
        with (out / "sweep.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [json.loads(row[header.index("value")]) for row in rows] == splits
        assert {row[header.index("axis")] for row in rows} == {"instances"}

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--axis", "gpu_color",
                     "--values", "1,2"]) == 2
        assert "'gpu_color'" in capsys.readouterr().err

    def test_fraction_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {"seeds": [1], "horizon_ms": 30_000})
        code = main(["sweep", "--config", str(cfg), "--axis",
                     "workload.generator.image_request_fraction", "--values", "0.1,0.5"])
        assert code == 0

    @pytest.mark.parametrize("overrides, axis, field", [
        ({"instances": "auto"}, "instances.text.count", "instances"),
        ({"workload": {"generator": {"base_rate": 2.0, "burst_episodes": [
            {"start_ms": 0, "duration_ms": 1000}]}}},
         "workload.generator.burst_episodes.0.start_ms", "workload.generator.burst_episodes"),
        ({}, "slo.slo_fator", "slo.slo_fator"),
    ])
    def test_bad_path_exits_2_naming_field(self, tmp_path, capsys, overrides, axis, field):
        cfg = write_config(tmp_path, overrides)
        assert main(["sweep", "--config", str(cfg), "--axis", axis, "--values", "1"]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["x", "0.1,", "", "{'a': 1}"])
    def test_values_not_json_exits_2(self, tmp_path, capsys, values):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--axis", "slo.slo_factor",
                     "--values", values]) == 2
        assert "--values" in capsys.readouterr().err


def test_config_with_creates_a_missing_section():
    cfg = config_from_dict(json.loads(json.dumps(BASE_CONFIG)))
    changed = config_with(cfg, "capacity.rel_tol", 0.1)
    assert changed.raw["capacity"] == {"rel_tol": 0.1}
    assert "capacity" not in cfg.raw
    assert validate_config(changed).capacity[2] == 0.1


def test_readme_sweeps_are_valid():
    # Each `lmmsim sweep` command in README.md parses, and its axis and first
    # value give a valid config, so the documented sweeps cannot go stale.
    root = Path(__file__).parent.parent
    lines = (root / "README.md").read_text().replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("lmmsim sweep")]
    assert commands
    for argv in commands:
        args = build_parser().parse_args(argv)
        first = _json_list(args.values, "--values")[0]
        validate_config(config_with(load_config(root / args.config), args.axis, first))


class TestCalibrate:
    def test_writes_profile_and_caches(self, tmp_path, capsys):
        out = tmp_path / "profiles"
        assert main(["calibrate", "--model", "llama3.2-11b", "--out", str(out)]) == 0
        path = out / "llama3.2-11b.json"
        assert path.exists()
        first = path.read_bytes()
        capsys.readouterr()

        assert main(["calibrate", "--model", "llama3.2-11b", "--out", str(out)]) == 0
        assert "reusing cached profile" in capsys.readouterr().out
        assert path.read_bytes() == first

        assert main(["calibrate", "--model", "llama3.2-11b", "--out", str(out),
                     "--force"]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_round_trip_shares_printed(self, tmp_path, capsys):
        assert main(["calibrate", "--model", "internvl-26b",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "encode 25.0%" in out

    def test_inconsistent_targets_exit_2(self, tmp_path, capsys):
        bad = {
            "ttft_breakdown": {"preprocess": 0.5, "encode": 0.9, "prefill": 0.7},
            "tp_scaling": {"encode": {"8": 1.0}, "prefill": {"8": 1.0}, "decode": {"8": 1.0}},
            "ref_text_tokens": 128,
        }
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(bad))
        code = main(["calibrate", "--model", "internvl-26b", "--targets", str(path),
                     "--out", str(tmp_path / "p"), "--force"])
        assert code == 2
        assert "ttft_breakdown" in capsys.readouterr().err

    def test_unknown_model_is_runtime_error(self, tmp_path):
        assert main(["calibrate", "--model", "nope", "--out", str(tmp_path)]) == 1


def _preset(name):
    """A bundled model spec entry, as a spec file holds it."""
    data = Path(experiment.__file__).parent / "data" / "model_presets.json"
    return next(e for e in json.loads(data.read_text()) if e["name"] == name)


def _profile_dict():
    return default_profile(get_model_spec("internvl-26b")).to_dict()


def _bundled_targets():
    data = Path(experiment.__file__).parent / "data" / "calibration_targets.json"
    return json.loads(data.read_text())["internvl-26b"]


_DELETE = object()


def _changed(d, path, value=_DELETE):
    """A copy of ``d`` with the key at the dotted ``path`` set to ``value``, or deleted."""
    d = json.loads(json.dumps(d))
    *parents, key = path.split(".")
    inner = d
    for p in parents:
        inner = inner[p]
    if value is _DELETE:
        del inner[key]
    else:
        inner[key] = value
    return d


class TestInputFiles:
    """The model spec file, the profile file and ``calibrate --targets`` are
    checked as configs are: a missing, unknown or bad key exits 2 naming it."""

    @pytest.mark.parametrize("path, value, key", [
        ("thumbnail_tiles", True, "thumbnail_tiles"),
        ("tokens_per_tile", _DELETE, "tokens_per_tile"),
        ("tile_edge_px", 0, "tile_edge_px"),
        ("tile_edge_px", "wide", "tile_edge_px"),
        ("tile_edge_px", 448.9, "tile_edge_px"),
        ("thumbnail_tile", "no", "thumbnail_tile"),
        ("supported_tp_encoder", [1, 2.5], "supported_tp_encoder"),
        ("architecture", "moe", "architecture"),
        # The profile prices the reference request's encode at default_tp_text (8).
        ("supported_tp_encoder", [2, 4], "default_tp_text"),
        # Unknown keys, as in spec files that still carry parameter counts.
        ("encoder_params_b", 0.63, "encoder_params_b"),
        ("llm_params_b", 8.0, "llm_params_b"),
    ])
    def test_spec_file(self, tmp_path, capsys, path, value, key):
        (tmp_path / "models.json").write_text(json.dumps([_changed(_preset("internvl-26b"), path, value)]))
        cfg = write_config(tmp_path, {"model": {"spec_path": "models.json", "name": "internvl-26b"}})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "model.spec_path" in err and key in err

    @pytest.mark.parametrize("path, value, key", [
        ("prep_floor_mss", 1.0, "prep_floor_mss"),
        ("ttft_breakdown.decode", 0.1, "ttft_breakdown.decode"),
        ("tbt_base_ms", _DELETE, "tbt_base_ms"),
        ("prefill_ms_per_token", None, "prefill_ms_per_token"),
        ("encode_ms_per_tile", {}, "encode_ms_per_tile"),
        ("ref_image_px", [896], "ref_image_px"),
        ("ref_cpu_cores", 8.5, "ref_cpu_cores"),
        ("model", "llama3.2-11b", "llama3.2-11b"),
        ("decode_batch_slope", -0.5, "decode_batch_slope"),
        ("decode_batch_slope", float("nan"), "decode_batch_slope"),
    ])
    def test_profile_file(self, tmp_path, capsys, path, value, key):
        (tmp_path / "profile.json").write_text(json.dumps(_changed(_profile_dict(), path, value)))
        cfg = write_config(tmp_path, {"profile": "profile.json"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "profile" in err and key in err

    def test_saved_profile_runs(self, tmp_path):
        (tmp_path / "profile.json").write_text(json.dumps(_profile_dict()))
        cfg = write_config(tmp_path, {"profile": "profile.json", "seeds": [1]})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_flat_decode_slope_runs(self, tmp_path):
        # Slope 0: every batch size decodes at one step time.
        (tmp_path / "profile.json").write_text(json.dumps({**_profile_dict(), "decode_batch_slope": 0.0}))
        cfg = write_config(tmp_path, {"profile": "profile.json", "seeds": [1]})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("path, value, key", [
        ("decode_batch_slop", 0.05, "decode_batch_slop"),
        ("tp_scaling", _DELETE, "tp_scaling"),
        ("tp_scaling.decode", _DELETE, "tp_scaling.decode"),
        ("ttft_breakdown.encode", "x", "ttft_breakdown.encode"),
        ("ref_cpu_cores", [8], "ref_cpu_cores"),
        ("ref_image_px", [896.5, 896], "ref_image_px"),
        ("decode_batch_slope", -0.5, "decode_batch_slope"),
    ])
    def test_targets_file(self, tmp_path, capsys, path, value, key):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"internvl-26b": _changed(_bundled_targets(), path, value)}))
        code = main(["calibrate", "--model", "internvl-26b", "--targets", str(targets),
                     "--out", str(tmp_path / "p"), "--force"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--targets" in err and key in err

    def test_bundled_targets_file_calibrates(self, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps(_bundled_targets()))
        assert main(["calibrate", "--model", "internvl-26b", "--targets", str(targets),
                     "--out", str(tmp_path / "p"), "--force"]) == 0
        saved = json.loads((tmp_path / "p" / "internvl-26b.json").read_text())
        assert saved == _profile_dict()


def test_every_config_key_is_documented():
    # A key a config may set is named in README.md after a backtick, bare
    # or with its section (e.g. `policies.router`).
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    tables = [("", experiment._CONFIG), ("model.", experiment._MODEL),
              ("policies.", experiment._POLICIES), ("cluster.", experiment._CLUSTER),
              ("slo.", experiment._SLO), ("transfer.", experiment._TRANSFER),
              ("max_batch.", experiment._MAX_BATCH), ("capacity.", experiment._CAPACITY),
              ("workload.", experiment._WORKLOAD), ("workload.generator.", experiment._GENERATOR),
              ("workload.generator.burst_episodes[i].", experiment._EPISODE),
              ("instances.<pool>.", experiment._POOL)]
    undocumented = sorted(prefix + k for prefix, table in tables for k in table
                          if not re.search(rf"`({re.escape(prefix)})?{re.escape(k)}\b", readme))
    assert not undocumented
