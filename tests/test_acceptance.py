"""End-to-end acceptance suite.

Each criterion runs a frozen experiment configuration and prints one
PASS/FAIL line. Workloads, seeds, and cluster shapes are pinned, and the
simulator is deterministic, so every number below reproduces exactly.
"""

import json
import time

import numpy as np
import pytest

from conftest import PROFILES, make_request, make_slo
from lmmsim.core import ImageSpec, Request, SLOSpec, StageKind, get_model_spec
from lmmsim.engine import InstancePlan, LoadIndex, ServerSpec, Simulation, TransferMedium
from lmmsim.experiment import build_simulation, config_from_dict, run_capacity, validate_config
from lmmsim.metrics import overall_attainment, cost_summary, quantile, summarize_latency
from lmmsim.policies import (
    LoadWindow,
    PolicySet,
    PoolState,
    RouterKind,
    SchedulerKind,
    TokenAwareAutoscaler,
    Topology,
    load_key,
    route_image,
    route_text,
    schedule_order,
    split_by_tiles,
)
from lmmsim.profiles import calibrate, load_calibration_targets, predict_breakdown
from lmmsim.workload import BurstEpisode, GeneratorConfig, generate, write_trace

SEEDS = (1, 2, 3)

MB_MONO = {"encode": 8, "prefill": 8, "decode": 96}
MB_DEC = {"encode": 1, "prefill": 1, "decode": 96}
FIFO_RR = {"router": "round_robin", "scheduler": "fifo"}
SLO_RR = {"router": "round_robin", "scheduler": "slo_priority", "aging_slo_fraction": 1.0}
SLO_LP = {"router": "least_pending", "scheduler": "slo_priority", "aging_slo_fraction": 1.0}

# Shared synthetic workload shape: heavy-tailed prompt lengths, a minority of
# image-bearing requests, and rate bursts over a 10-minute horizon.
BASE_GEN = {
    "image_request_fraction": 0.45,
    "seed": 0,
    "text_len_min": 256,
    "image_req_len_min": 1024,
    "image_dim_median_px": 430,
    "image_dim_sigma": 0.45,
    "images_per_request": {1: 0.5, 2: 0.3, 3: 0.12, 4: 0.08},
    "output_len_median": 96,
    "burst_episodes": [
        {"start_ms": 90_000, "duration_ms": 60_000, "rate_multiplier": 1.5, "image_multiplier": 1.0},
        {"start_ms": 240_000, "duration_ms": 50_000, "rate_multiplier": 1.3, "image_multiplier": 1.0},
        {"start_ms": 420_000, "duration_ms": 60_000, "rate_multiplier": 1.6, "image_multiplier": 1.0},
    ],
}

STATIC = {
    "llama3.2-11b": {
        "rate": 12.0, "slo_factor": 5.0,
        "decoupled": {"text": {"count": 4, "tp": 4}, "image": {"count": 16, "tp": 1}},
    },
    "internvl-26b": {
        "rate": 6.0, "slo_factor": 8.0,
        "decoupled": {"text": {"count": 7, "tp": 4}, "image": {"count": 4, "tp": 1}},
    },
}
MONO_POOL = {"monolith": {"count": 8, "tp": 4}}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def experiment(model, topology, instances, policies, rate, max_batch, seed,
               slo_factor, gen_overrides=None, medium="rdma", servers=4,
               horizon_ms=600_000.0):
    gen = json.loads(json.dumps(BASE_GEN))
    gen.update(gen_overrides or {})
    gen["base_rate"] = rate
    raw = {
        "model": model,
        "topology": topology,
        "policies": policies,
        "cluster": {"servers": servers, "gpus_per_server": 8, "cpu_cores_per_server": 16},
        "instances": instances,
        "workload": {"generator": gen},
        "slo": {"slo_factor": slo_factor},
        "transfer": {"medium": medium},
        "max_batch": max_batch,
        "horizon_ms": horizon_ms,
        "seeds": [seed],
    }
    exp = validate_config(config_from_dict(raw, "."))
    return exp, build_simulation(exp, seed)


def mean_and_p99(model, topology, instances, policies, rate, max_batch, slo_factor,
                 gen_overrides=None, medium="rdma", servers=4):
    means, p99s = [], []
    for seed in SEEDS:
        _, sim = experiment(model, topology, instances, policies, rate, max_batch,
                            seed, slo_factor, gen_overrides, medium, servers)
        lat = summarize_latency(sim.run(), 0.1)
        means.append(lat.ttft["overall"].mean)
        p99s.append(lat.ttft["overall"].p99)
    return float(np.mean(means)), float(np.mean(p99s))


# ----------------------------------------------------------------------
# 1. Calibration fidelity
# ----------------------------------------------------------------------
ENCODE_SHARES = {
    "llama3.2-11b": 0.79,
    "llama3.2-90b": 0.65,
    "internvl-26b": 0.25,
    "nvlm-d-72b": 0.54,
}


def test_criterion_1_calibration_fidelity():
    t0 = time.time()
    worst = 0.0
    details = []
    for name, target in ENCODE_SHARES.items():
        model = get_model_spec(name)
        profile = calibrate(load_calibration_targets(name), model)
        slo = SLOSpec(
            ttft_base_text_ms=profile.ttft_base_text_ms(2048),
            ttft_base_image_ms=profile.ttft_base_image_ms(),
            tbt_base_ms=profile.tbt_base(),
            slo_factor=5.0,
        )
        req = Request(
            id=0, arrival_ms=0.0, text_tokens=profile.ref_text_tokens,
            images=(ImageSpec.from_dims(*profile.ref_image_px, model),),
            output_tokens=1,
        )
        # Server cores sized so the instance gets the calibration's reference
        # CPU allocation at its default TP.
        cores = profile.ref_cpu_cores * 8 // model.default_tp_text
        sim = Simulation(
            profile=profile, slo=slo,
            policies=PolicySet(topology=Topology.MONOLITH,
                               router=RouterKind.ROUND_ROBIN,
                               scheduler=SchedulerKind.FIFO),
            servers=[ServerSpec(0, 8, cores)],
            instance_plan=[InstancePlan("monolith", model.default_tp_text, 1)],
            workload=[req], horizon_ms=60_000.0, seed=1,
            transfer_medium=TransferMedium.NONE,
        )
        rec = sim.run().records[0]
        encode_share = (rec.encode_end_ms - rec.encode_start_ms) / rec.ttft_ms
        worst = max(worst, abs(encode_share - target))
        details.append(f"{name} {encode_share:.3f} vs {target}")
    elapsed = time.time() - t0
    report(1, "calibration fidelity", worst <= 0.02 and elapsed < 1.0,
           f"max share error {worst:.4f} (<=0.02), {elapsed:.2f}s (<1s); " + "; ".join(details))


# ----------------------------------------------------------------------
# 2. Mixed-modality curve
# ----------------------------------------------------------------------
def test_criterion_2_mixed_modality_curve():
    t0 = time.time()
    model = get_model_spec("llama3.2-11b")
    profile = PROFILES["llama3.2-11b"]
    slo = make_slo(5.0)
    tokens_per_image = model.tokens_per_tile  # one 560x560 tile per image
    n_images_max = 10
    total = tokens_per_image * n_images_max

    ttfts = []
    cross_terms = []
    for n in range(n_images_max + 1):
        img_tokens = n * tokens_per_image
        text_tokens = total - img_tokens
        images = tuple(ImageSpec.from_dims(560, 560, model) for _ in range(n))
        req = Request(id=0, arrival_ms=0.0, text_tokens=text_tokens,
                      images=images, output_tokens=1)
        sim = Simulation(
            profile=profile, slo=slo,
            policies=PolicySet(topology=Topology.MONOLITH,
                               router=RouterKind.ROUND_ROBIN,
                               scheduler=SchedulerKind.FIFO),
            servers=[ServerSpec(0, 8, 16)],
            instance_plan=[InstancePlan("monolith", 4, 1)],
            workload=[req], horizon_ms=120_000.0, seed=1,
            transfer_medium=TransferMedium.NONE,
        )
        ttfts.append(sim.run().records[0].ttft_ms)
        if text_tokens and img_tokens:
            cross_terms.append(profile.prefill_latency(text_tokens, img_tokens, 4)
                               - profile.prefill_latency(text_tokens, 0, 4))
        else:
            cross_terms.append(0.0)

    monotone = all(b > a for a, b in zip(ttfts, ttfts[1:]))
    ratio = ttfts[-1] / ttfts[0]
    cross_peak = int(np.argmax(cross_terms))
    elapsed = time.time() - t0
    ok = monotone and abs(ratio - 1.5) <= 0.15 and abs(cross_peak - 5) <= 1 and elapsed < 10
    report(2, "mixed-modality curve", ok,
           f"monotone={monotone}, end-to-end ratio {ratio:.3f} (1.5+-0.15), "
           f"cross peak at {cross_peak * 10}% (50% +- one step), {elapsed:.1f}s (<10s)")


# ----------------------------------------------------------------------
# 3. Static decoupling gain
# ----------------------------------------------------------------------
def test_criterion_3_static_decoupling_gain():
    t0 = time.time()
    gains = {}
    for name, cfg in STATIC.items():
        mono = mean_and_p99(name, "monolith", MONO_POOL, FIFO_RR,
                            cfg["rate"], MB_MONO, cfg["slo_factor"])
        dec = mean_and_p99(name, "decoupled", cfg["decoupled"], FIFO_RR,
                           cfg["rate"], MB_DEC, cfg["slo_factor"])
        gains[name] = (1 - dec[0] / mono[0], 1 - dec[1] / mono[1])
    elapsed = time.time() - t0
    ok = all(g[0] >= 0.20 and g[1] >= 0.30 for g in gains.values())
    ordering = gains["internvl-26b"][0] > gains["llama3.2-11b"][0]
    detail = ", ".join(
        f"{n}: mean {g[0]:+.1%} p99 {g[1]:+.1%}" for n, g in gains.items()
    )
    report(3, "static decoupling gain", ok and ordering and elapsed < 300,
           f"{detail}; DecOnly > CroAttn mean gain: {ordering}; {elapsed:.0f}s (<300s)")


# ----------------------------------------------------------------------
# 4. Throughput gain
# ----------------------------------------------------------------------
def capacity_config(model, topology, instances, policies, frac, slo_factor, max_batch):
    gen = json.loads(json.dumps(BASE_GEN))
    gen["image_request_fraction"] = frac
    gen["base_rate"] = 4.0
    gen["burst_episodes"] = [
        {"start_ms": 60_000, "duration_ms": 45_000, "rate_multiplier": 1.5, "image_multiplier": 1.0},
        {"start_ms": 180_000, "duration_ms": 40_000, "rate_multiplier": 1.3, "image_multiplier": 1.5},
    ]
    return config_from_dict({
        "model": model, "topology": topology, "policies": policies,
        "cluster": {"servers": 4, "gpus_per_server": 8, "cpu_cores_per_server": 16},
        "instances": instances, "workload": {"generator": gen},
        "slo": {"slo_factor": slo_factor}, "transfer": {"medium": "rdma"},
        "max_batch": max_batch, "horizon_ms": 300_000, "seeds": [1],
        "capacity": {"lo_multiplier": 0.2, "hi_multiplier": 1.0, "rel_tol": 0.02,
                     "seeds": [1, 2, 3]},
    }, ".")


def test_criterion_4_throughput_gain():
    t0 = time.time()
    ratios = {}
    for model, frac, slo in (("llama3.2-11b", 0.5, 5.0), ("internvl-26b", 0.2, 8.0)):
        mono = run_capacity(capacity_config(model, "monolith", MONO_POOL, FIFO_RR,
                                            frac, slo, MB_MONO))
        inst = STATIC[model]["decoupled"]
        full = run_capacity(capacity_config(model, "decoupled", inst, SLO_LP,
                                            frac, slo, MB_DEC))
        ratios[model] = full.rate / max(mono.rate, 1e-9)
    elapsed = time.time() - t0
    in_range = all(2.0 <= r <= 7.0 for r in ratios.values())
    ordering = ratios["internvl-26b"] > ratios["llama3.2-11b"]
    report(4, "throughput gain", in_range and ordering and elapsed < 900,
           f"capacity ratios {'; '.join(f'{m}: {r:.2f}x' for m, r in ratios.items())} "
           f"(in [2,7], DecOnly > CroAttn: {ordering}); {elapsed:.0f}s (<900s)")


# ----------------------------------------------------------------------
# 5. Ablation ordering
# ----------------------------------------------------------------------
def test_criterion_5_ablation_ordering():
    rate = 9.0
    gen = {"image_request_fraction": 0.2, "burst_episodes": [
        {"start_ms": 90_000, "duration_ms": 60_000, "rate_multiplier": 1.25, "image_multiplier": 1.5},
        {"start_ms": 240_000, "duration_ms": 50_000, "rate_multiplier": 1.35, "image_multiplier": 1.0},
        {"start_ms": 420_000, "duration_ms": 60_000, "rate_multiplier": 1.3, "image_multiplier": 1.5},
    ]}
    dec_pool = STATIC["internvl-26b"]["decoupled"]
    variants = [
        ("monolith", "monolith", MONO_POOL, FIFO_RR, MB_MONO),
        ("decoup", "decoupled", dec_pool, FIFO_RR, MB_DEC),
        ("+sched", "decoupled", dec_pool, SLO_RR, MB_DEC),
        ("+routing", "decoupled", dec_pool, SLO_LP, MB_DEC),
    ]
    p99s = []
    for name, topo, inst, pol, mb in variants:
        _, p99 = mean_and_p99("internvl-26b", topo, inst, pol, rate, mb, 8.0, gen)
        p99s.append((name, p99))
    strict = all(b[1] < a[1] for a, b in zip(p99s, p99s[1:]))
    sched_gain = 1 - p99s[2][1] / p99s[1][1]
    routing_gain = 1 - p99s[3][1] / p99s[2][1]
    ok = strict and sched_gain >= 0.10 and routing_gain >= 0.10
    report(5, "ablation ordering", ok,
           "P99 " + " -> ".join(f"{n}={v:.0f}" for n, v in p99s)
           + f"; +sched {sched_gain:+.1%} (>=10%), +routing {routing_gain:+.1%} (>=10%)")


# ----------------------------------------------------------------------
# 6. Autoscaling cost
# ----------------------------------------------------------------------
DAY_MS = 86_400_000.0


def _ramp(start_ms, peak_mult, img_mult, total_min=50):
    steps = [0.4, 0.7, 1.0, 1.0, 0.7, 0.4]
    stage_ms = total_min * 60_000 / len(steps)
    return [
        BurstEpisode(
            start_ms=start_ms + i * stage_ms, duration_ms=stage_ms,
            rate_multiplier=1.0 + (peak_mult - 1.0) * f,
            image_multiplier=1.0 + (img_mult - 1.0) * f,
        )
        for i, f in enumerate(steps)
    ]


@pytest.fixture(scope="module")
def day_traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("day_traces")
    episodes = (
        _ramp(2.5 * 3_600_000, 2.2, 1.0)
        + _ramp(8 * 3_600_000, 2.5, 2.5, 60)
        + _ramp(14 * 3_600_000, 1.8, 3.0, 50)
        + _ramp(19 * 3_600_000, 2.0, 1.2)
    )
    paths = {}
    for name, base in (("llama3.2-11b", 3.0), ("internvl-26b", 2.0)):
        cfg = GeneratorConfig(
            model=get_model_spec("internvl-26b"),  # dims in the CSV are model-free
            base_rate=base, seed=0, image_request_fraction=0.25,
            text_len_min=256, image_req_len_min=1024,
            image_dim_median_px=430, image_dim_sigma=0.45,
            images_per_request={1: 0.5, 2: 0.3, 3: 0.12, 4: 0.08},
            output_len_median=96, burst_episodes=tuple(episodes),
        )
        path = root / f"day_{name}.csv"
        write_trace(path, generate(cfg, DAY_MS))
        paths[name] = path
    return paths


def _autoscale_run(model, topology, trace, slo_factor, init):
    raw = {
        "model": model, "topology": topology,
        "policies": {"router": "least_pending", "scheduler": "slo_priority",
                     "autoscaler": "token_aware", "aging_slo_fraction": 1.0,
                     "capacity_tail_factor": 4.0},
        "cluster": {"servers": 16, "gpus_per_server": 8, "cpu_cores_per_server": 16},
        "instances": init, "workload": {"trace": str(trace)},
        "slo": {"slo_factor": slo_factor}, "transfer": {"medium": "rdma"},
        "max_batch": MB_MONO if topology == "monolith" else MB_DEC,
        "horizon_ms": DAY_MS, "seeds": [1],
        "scale_interval_ms": 300_000, "start_delay_ms": 60_000,
    }
    log = build_simulation(validate_config(config_from_dict(raw, ".")), 1).run()
    return overall_attainment(log, 0.05), cost_summary(log).gpu_seconds


def test_criterion_6_autoscaling_cost(day_traces):
    t0 = time.time()
    savings = {}
    atts = {}
    pools = {
        "llama3.2-11b": (5.0, {"count": 4, "tp": 1}),
        "internvl-26b": (8.0, {"count": 2, "tp": 2}),
    }
    for model, (slo, img_pool) in pools.items():
        att_m, gpu_m = _autoscale_run(model, "monolith", day_traces[model], slo,
                                      {"monolith": {"count": 4, "tp": 4}})
        att_d, gpu_d = _autoscale_run(model, "decoupled", day_traces[model], slo,
                                      {"text": {"count": 3, "tp": 4}, "image": img_pool})
        savings[model] = 1 - gpu_d / gpu_m
        atts[model] = (att_m, att_d)
    elapsed = time.time() - t0
    attained = all(a >= 0.99 and b >= 0.99 for a, b in atts.values())
    enough = all(s >= 0.15 for s in savings.values())
    ordering = savings["llama3.2-11b"] > savings["internvl-26b"]
    report(6, "autoscaling cost", attained and enough and ordering and elapsed < 600,
           f"savings {'; '.join(f'{m}: {s:.1%}' for m, s in savings.items())} (>=15%), "
           f"attainment {'; '.join(f'{m}: {a:.4f}/{b:.4f}' for m, (a, b) in atts.items())} (>=0.99), "
           f"CroAttn > DecOnly: {ordering}; {elapsed:.0f}s (<600s)")


# ----------------------------------------------------------------------
# 7. PD composability
# ----------------------------------------------------------------------
def test_criterion_7_pd_composability():
    gen = {"image_request_fraction": 0.3, "burst_episodes": [
        {"start_ms": 120_000, "duration_ms": 60_000, "rate_multiplier": 1.4, "image_multiplier": 1.5},
        {"start_ms": 360_000, "duration_ms": 60_000, "rate_multiplier": 1.5, "image_multiplier": 1.0},
    ]}
    pd_mono = {"prefill": {"count": 4, "tp": 8}, "decode": {"count": 2, "tp": 8}}
    pd_dec = {"prefill": {"count": 6, "tp": 4}, "image": {"count": 8, "tp": 1},
              "decode": {"count": 2, "tp": 8}}
    slo_ms = 8.0 * 1000.0  # image TTFT SLO at factor 8

    results = {}
    for rate in (5.0, 6.0, 7.0):
        mono_mean, _ = mean_and_p99("internvl-26b", "monolith_pd", pd_mono, FIFO_RR,
                                    rate, MB_MONO, 8.0, gen, servers=6)
        dec_mean, _ = mean_and_p99("internvl-26b", "decoupled_pd", pd_dec, SLO_LP,
                                   rate, MB_DEC, 8.0, gen, servers=6)
        results[rate] = (mono_mean, dec_mean)
    feasible = [r for r, (_, d) in results.items() if d <= slo_ms]
    ok = bool(feasible)
    detail = "no feasible load"
    if feasible:
        peak = max(feasible)
        mono_mean, dec_mean = results[peak]
        ratio = mono_mean / dec_mean
        ok = ratio >= 2.0
        detail = (f"highest feasible load {peak} req/s: PD-monolith mean {mono_mean:.0f} ms "
                  f"vs decoupled {dec_mean:.0f} ms, ratio {ratio:.2f}x (>=2x)")
    report(7, "PD composability", ok, detail)


# ----------------------------------------------------------------------
# 8. Transfer sensitivity
# ----------------------------------------------------------------------
def test_criterion_8_transfer_sensitivity():
    cfg = STATIC["internvl-26b"]
    mono_mean, _ = mean_and_p99("internvl-26b", "monolith", MONO_POOL, FIFO_RR,
                                cfg["rate"], MB_MONO, cfg["slo_factor"])
    rdma_mean, _ = mean_and_p99("internvl-26b", "decoupled", cfg["decoupled"], SLO_LP,
                                cfg["rate"], MB_DEC, cfg["slo_factor"], medium="rdma")
    tcp_mean, _ = mean_and_p99("internvl-26b", "decoupled", cfg["decoupled"], SLO_LP,
                               cfg["rate"], MB_DEC, cfg["slo_factor"], medium="tcp")
    degraded = tcp_mean > rdma_mean
    tcp_gain = 1 - tcp_mean / mono_mean
    ok = degraded and tcp_gain >= 0.25
    report(8, "transfer sensitivity", ok,
           f"mean TTFT gain vs monolith: RDMA {1 - rdma_mean / mono_mean:+.1%}, "
           f"TCP {tcp_gain:+.1%} (>=25%); TCP degrades advantage: {degraded}")


# ----------------------------------------------------------------------
# 9. Property suites
# ----------------------------------------------------------------------
def test_criterion_9_property_suites():
    t0 = time.time()
    checks = {}

    # Determinism: bit-identical logs across reruns.
    def one_run():
        _, sim = experiment("internvl-26b", "decoupled", STATIC["internvl-26b"]["decoupled"],
                            SLO_LP, 4.0, MB_DEC, 1, 8.0, horizon_ms=120_000.0)
        log = sim.run()
        return [(r.request_id, r.ttft_ms, r.completion_ms) for r in log.records.values()]

    checks["determinism"] = one_run() == one_run()

    # Conservation and causality on a run with scaling churn.
    _, sim = experiment("internvl-26b", "decoupled", STATIC["internvl-26b"]["decoupled"],
                        SLO_LP, 4.0, MB_DEC, 2, 8.0, horizon_ms=120_000.0)
    sim.validate = True  # per-event pending-token and GPU accounting asserts
    log = sim.run()
    checks["conservation"] = log.arrived == log.completed + log.in_flight
    causal = True
    for rec in log.completed_records():
        seqs = [rec.arrival_ms]
        if rec.multimodal:  # first start and last end across the request's shards
            causal &= (rec.prep_start_ms <= rec.prep_end_ms <= rec.encode_end_ms
                       and rec.prep_start_ms <= rec.encode_start_ms <= rec.encode_end_ms)
        seqs += [rec.prefill_start_ms, rec.prefill_end_ms, rec.completion_ms]
        causal &= all(a <= b + 1e-9 for a, b in zip(seqs, seqs[1:]))
    checks["causality"] = causal
    checks["gpu_accounting"] = True  # validate=True would have raised otherwise

    # Routing argmin oracle over pools of <= 8 instances.
    from types import SimpleNamespace
    rng = np.random.default_rng(0)
    routing_ok = True
    for _ in range(300):
        n = int(rng.integers(1, 9))
        pend = rng.integers(0, 10_000, size=n)
        insts = {i: SimpleNamespace(id=i, pending_image_tokens=int(pend[i]),
                                    pending_text_tokens=int(pend[i]) // 2) for i in range(n)}
        pool = LoadIndex(load_key("image"), insts)
        for inst in insts.values():
            pool.add(inst)
        req = make_request(0, 0, n_images=1, model="internvl-26b")
        [(inst, _)] = route_image(req, pool, RouterKind.LEAST_PENDING, 8, {})
        expect = min(range(n), key=lambda i: (pend[i], i))
        routing_ok &= inst.id == expect
    checks["routing_oracle"] = routing_ok

    # Autoscaler ceil(ML / MC) unit table.
    scaler = TokenAwareAutoscaler(PROFILES["internvl-26b"], make_slo(model="internvl-26b"),
                                  PolicySet(topology=Topology.DECOUPLED), 1024)
    mc = scaler._capacity("image", 1)
    table_ok = True
    for mult, want in ((0.1, 1), (1.0, 1), (1.5, 2), (2.5, 3), (4.0, 4), (7.3, 8)):
        got = scaler.decide(
            LoadWindow(image_token_rate=mult * mc),
            {"image": PoolState(1, 1), "text": PoolState(1, 4)},
        ).targets["image"]
        table_ok &= got == max(1, int(np.ceil(mult - 1e-9)))
    checks["autoscaler_table"] = table_ok

    # Scheduler starvation bound under continuous small arrivals.
    slo_ms, service = 1000.0, 50.0
    big = SimpleNamespace(seq=0, size_tokens=100_000, enqueue_ms=0.0, ttft_slo_ms=slo_ms)
    queue, now, seq, served_at = [big], 0.0, 1, None
    while now < 2 * slo_ms:
        queue.append(SimpleNamespace(seq=seq, size_tokens=10, enqueue_ms=now,
                                     ttft_slo_ms=slo_ms))
        seq += 1
        idx = schedule_order(queue, now, SchedulerKind.SLO_PRIORITY, 0.5)[0]
        if queue.pop(idx) is big:
            served_at = now
            break
        now += service
    checks["starvation_bound"] = served_at is not None and served_at <= 0.5 * slo_ms + service

    # Quantile vs full-sort oracle.
    data = rng.uniform(0, 1e6, size=997)
    q_ok = True
    for q in (0.5, 0.9, 0.99):
        ordered = sorted(data)
        q_ok &= quantile(list(data), q) == ordered[int(np.ceil(q * len(data))) - 1]
    checks["quantile_oracle"] = q_ok

    # Encode sharding: 4x makespan reduction against the analytic schedule.
    req16 = make_request(0, 0.0, text=100, n_images=16)
    plans = {
        4: [InstancePlan("text", 4, 1), InstancePlan("image", 1, 4)],
        1: [InstancePlan("text", 4, 1), InstancePlan("image", 1, 1)],
    }
    spans = {}
    for n, plan in plans.items():
        sim = Simulation(
            profile=PROFILES["llama3.2-11b"],
            slo=make_slo(), policies=PolicySet(topology=Topology.DECOUPLED, max_fanout=4),
            servers=[ServerSpec(0, 8, 16)], instance_plan=plan,
            workload=[req16], horizon_ms=600_000.0, seed=1,
            transfer_medium=TransferMedium.NONE,
        )
        rec = sim.run().records[0]
        spans[n] = rec.encode_end_ms - rec.encode_start_ms
    checks["shard_makespan"] = abs(spans[4] - spans[1] / 4) < 1e-6
    tiles16 = [img.tiles for img in req16.images]
    checks["shard_partition"] = [len(s) for s in split_by_tiles(tiles16, 4)] == [4, 4, 4, 4]

    elapsed = time.time() - t0
    ok = all(checks.values()) and elapsed < 60
    report(9, "property suites", ok,
           f"{'; '.join(f'{k}={v}' for k, v in checks.items())}; {elapsed:.0f}s (<60s per suite)")
