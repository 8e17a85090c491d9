import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODELS, PROFILES, make_request, make_sim, make_slo
from lmmsim.core import Architecture, StageKind, get_model_spec
from lmmsim.engine import LoadIndex
from lmmsim.experiment import build_simulation, config_from_dict, validate_config
from lmmsim.policies import (
    AutoscalerKind,
    LoadWindow,
    NO_HISTORY_TARGETS,
    PlacementKind,
    PolicySet,
    POOL_ROLES,
    PoolState,
    RouterKind,
    SchedulerKind,
    ServerView,
    TokenAwareAutoscaler,
    Topology,
    initial_sizing,
    load_key,
    place,
    route_image,
    route_text,
    schedule_order,
    select_sharding,
    split_by_tiles,
)
from lmmsim.workload import WorkloadSummary


def fake_pool(pendings, role="image", architecture=None):
    """The engine's load index over instances with (text, image) pending
    token tuples, ids in list order, keyed for a pool playing ``role``."""
    insts = [SimpleNamespace(id=i, pending_text_tokens=t, pending_image_tokens=g)
             for i, (t, g) in enumerate(pendings)]
    index = LoadIndex(load_key(role, architecture), {inst.id: inst for inst in insts})
    for inst in insts:
        index.add(inst)
    return index


class TestRouteImage:
    def test_least_pending_argmin(self):
        pool = fake_pool([(0, 100), (0, 50), (0, 200)])
        req = make_request(0, 0, n_images=1)
        [(inst, idx)] = route_image(req, pool, RouterKind.LEAST_PENDING, 8, {})
        assert inst.id == 1
        assert idx == [0]

    def test_fanout_min_rule(self):
        pool = fake_pool([(0, 0)] * 3)
        req = make_request(0, 0, n_images=4)
        assignment = route_image(req, pool, RouterKind.LEAST_PENDING, 4, {})
        assert len(assignment) == 3  # min(#images=4, #instances=3, fanout=4)

    def test_tie_breaks_lowest_id(self):
        pool = fake_pool([(0, 70), (0, 70), (0, 70)])
        req = make_request(0, 0, n_images=1)
        [(inst, _)] = route_image(req, pool, RouterKind.LEAST_PENDING, 8, {})
        assert inst.id == 0

    def test_round_robin_ignores_load_but_still_shards(self):
        pool = fake_pool([(0, 10_000), (0, 0), (0, 0)])
        state = {}
        req1 = make_request(0, 0, n_images=1)
        first = route_image(req1, pool, RouterKind.ROUND_ROBIN, 8, state)
        second = route_image(req1, pool, RouterKind.ROUND_ROBIN, 8, state)
        # Walks ids in order regardless of pending load.
        assert first[0][0].id == 0 and second[0][0].id == 1
        req4 = make_request(1, 0, n_images=4)
        sharded = route_image(req4, pool, RouterKind.ROUND_ROBIN, 8, state)
        assert len(sharded) == 3  # fanout still min(#images, #instances)

    def test_empty_pool(self):
        req = make_request(0, 0, n_images=1)
        assert route_image(req, fake_pool([]), RouterKind.LEAST_PENDING, 8, {}) is None

    @given(
        pendings=st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
        n_images=st.integers(1, 3),
    )
    @settings(max_examples=200)
    def test_matches_exhaustive_argmin_oracle(self, pendings, n_images):
        pool = fake_pool([(0, p) for p in pendings])
        req = make_request(0, 0, n_images=n_images)
        assignment = route_image(req, pool, RouterKind.LEAST_PENDING, 8, {})
        k = min(n_images, len(pool), 8)
        expected = sorted(range(len(pendings)), key=lambda i: (pendings[i], i))[:k]
        assert sorted(inst.id for inst, _ in assignment) == sorted(expected)


class TestRouteText:
    def test_dec_only_uses_total(self):
        pool = fake_pool([(100, 900), (500, 0)], "text", Architecture.DEC_ONLY)
        req = make_request(0, 0)
        inst = route_text(req, pool, RouterKind.LEAST_PENDING, {})
        assert inst.id == 1

    def test_cro_attn_uses_text_only(self):
        pool = fake_pool([(100, 900), (500, 0)], "text", Architecture.CRO_ATTN)
        req = make_request(0, 0)
        inst = route_text(req, pool, RouterKind.LEAST_PENDING, {})
        assert inst.id == 0

    def test_single_instance(self):
        pool = fake_pool([(123, 456)], "text", Architecture.DEC_ONLY)
        req = make_request(0, 0)
        assert route_text(req, pool, RouterKind.LEAST_PENDING, {}).id == 0

    @given(
        pendings=st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
                          min_size=1, max_size=8),
        arch=st.sampled_from([Architecture.DEC_ONLY, Architecture.CRO_ATTN]),
    )
    @settings(max_examples=200)
    def test_matches_argmin_oracle(self, pendings, arch):
        pool = fake_pool(pendings, "text", arch)
        req = make_request(0, 0)
        inst = route_text(req, pool, RouterKind.LEAST_PENDING, {})
        if arch is Architecture.DEC_ONLY:
            keyed = [(t + g, i) for i, (t, g) in enumerate(pendings)]
        else:
            keyed = [(t, i) for i, (t, g) in enumerate(pendings)]
        assert inst.id == min(keyed)[1]


def item(seq, size, enqueue, slo=1000.0):
    return SimpleNamespace(seq=seq, size_tokens=size, enqueue_ms=enqueue, ttft_slo_ms=slo)


def schedule_first(items, now, scheduler):
    return schedule_order(items, now, scheduler, 0.5)[0]


class TestScheduler:
    def test_fifo_oldest_first(self):
        items = [item(0, 10, 2.0), item(1, 5, 1.0)]
        assert schedule_first(items, 3.0, SchedulerKind.FIFO) == 1

    def test_slo_priority_smallest_first(self):
        items = [item(0, 8000, 0.0), item(1, 100, 1.0)]
        assert schedule_first(items, 2.0, SchedulerKind.SLO_PRIORITY) == 1

    def test_aged_item_regains_priority(self):
        big = item(0, 8000, 0.0, slo=1000.0)
        small = item(1, 10, 600.0, slo=1000.0)
        # At t=600 the big item has waited 600 > 0.5 * 1000, so it runs first.
        assert schedule_first([big, small], 601.0, SchedulerKind.SLO_PRIORITY) == 0

    def test_starvation_bound(self):
        # A big item plus a stream of small newcomers: the big one is scheduled
        # no later than aging_threshold after enqueue.
        slo = 1000.0
        threshold = 0.5 * slo
        big = item(0, 100_000, 0.0, slo=slo)
        now = 0.0
        served_big_at = None
        seq = 1
        queue = [big]
        service = 50.0
        while now < 2 * slo:
            queue.append(item(seq, 10, now, slo=slo))
            seq += 1
            idx = schedule_first(queue, now, SchedulerKind.SLO_PRIORITY)
            chosen = queue.pop(idx)
            if chosen is big:
                served_big_at = now
                break
            now += service
        assert served_big_at is not None
        assert served_big_at <= threshold + service


class TestSplitByTiles:
    def test_greedy_balance(self):
        tiles = [5, 4, 3, 3, 1]
        shards = split_by_tiles(tiles, 2)
        loads = sorted(sum(tiles[i] for i in s) for s in shards)
        assert loads == [8, 8]

    @given(st.lists(st.integers(1, 10), min_size=1, max_size=16), st.integers(1, 8))
    @settings(max_examples=200)
    def test_partition_is_complete(self, tiles, shards_n):
        shards = split_by_tiles(tiles, shards_n)
        seen = sorted(i for s in shards for i in s)
        assert seen == list(range(len(tiles)))


def _autoscaler(model="internvl-26b", topology=Topology.DECOUPLED, budget=64):
    return TokenAwareAutoscaler(
        PROFILES[model], make_slo(model=model), PolicySet(topology=topology), budget,
    )


class TestAutoscaler:
    def test_ceiling_rule(self):
        scaler = _autoscaler()
        mc = scaler._capacity("image", 1)
        window = LoadWindow(image_token_rate=2.5 * mc, text_token_rate=0.0, slo_attainment=1.0)
        decision = scaler.decide(window, {"image": PoolState(1, 1), "text": PoolState(1, 4)})
        assert decision.targets["image"] == 3

    def test_zero_load_floors_at_one(self):
        scaler = _autoscaler()
        window = LoadWindow()
        decision = scaler.decide(window, {"image": PoolState(3, 1), "text": PoolState(2, 4)})
        # Hysteresis holds counts for one window, then shrinks to the floor.
        decision = scaler.decide(window, {"image": PoolState(3, 1), "text": PoolState(2, 4)})
        assert decision.targets["image"] == 1
        assert decision.targets["text"] == 1

    def test_monotone_in_load(self):
        scaler = _autoscaler()
        mc = scaler._capacity("image", 1)
        pools = {"image": PoolState(1, 1), "text": PoolState(1, 4)}
        counts = []
        for mult in (0.5, 1.1, 2.2, 4.4, 8.8):
            window = LoadWindow(image_token_rate=mult * mc)
            counts.append(
                TokenAwareAutoscaler(PROFILES["internvl-26b"], make_slo(model="internvl-26b"),
                                     PolicySet(topology=Topology.DECOUPLED), 1024).decide(
                    window, pools).targets["image"]
            )
        assert counts == sorted(counts)

    def test_attainment_shortfall_adds_replica(self):
        scaler = _autoscaler()
        mc = scaler._capacity("image", 1)
        window = LoadWindow(
            image_token_rate=1.5 * mc, text_token_rate=0.0,
            slo_attainment=0.95, completed=100,
            queue_delay_ms={"encode": 900.0, "prefill": 10.0},
        )
        decision = scaler.decide(window, {"image": PoolState(2, 1), "text": PoolState(1, 4)})
        assert decision.targets["image"] == 2 + 1  # ceil(1.5)=2 plus the trigger
        assert any("attainment" in f for f in decision.flags)

    @pytest.mark.parametrize("topology, stage, pool", [
        (Topology.DECOUPLED_PD, "encode", "image"),
        (Topology.DECOUPLED_PD, "prefill", "prefill"),
        (Topology.MONOLITH_PD, "encode", "prefill"),
        (Topology.MONOLITH_PD, "prefill", "prefill"),
    ])
    @pytest.mark.parametrize("decode_first", [False, True])
    def test_pd_shortfall_adds_replica_to_slow_stage(self, topology, stage, pool, decode_first):
        others = sorted(POOL_ROLES[topology].pools - {"decode"})
        names = ["decode", *others] if decode_first else [*others, "decode"]
        pools = {name: PoolState(2, 1 if name == "image" else 4) for name in names}
        delays = {"encode": 10.0, "prefill": 10.0, stage: 900.0}
        met = LoadWindow(completed=100, queue_delay_ms=delays)
        short = LoadWindow(completed=100, slo_attainment=0.5, queue_delay_ms=delays)
        base = _autoscaler(topology=topology, budget=1024).decide(met, pools).targets
        got = _autoscaler(topology=topology, budget=1024).decide(short, pools).targets
        assert got == {**base, pool: base[pool] + 1}

    def test_hysteresis_two_low_windows(self):
        scaler = _autoscaler()
        mc = scaler._capacity("image", 1)
        pools = {"image": PoolState(4, 1), "text": PoolState(1, 4)}
        low = LoadWindow(image_token_rate=0.5 * mc)
        first = scaler.decide(low, pools)
        assert first.targets["image"] == 4  # held
        second = scaler.decide(low, pools)
        assert second.targets["image"] == 1  # shrinks after 2 windows

    def test_clamped_to_inventory(self):
        scaler = _autoscaler(budget=6)
        mc = scaler._capacity("image", 1)
        window = LoadWindow(image_token_rate=20 * mc)
        decision = scaler.decide(window, {"image": PoolState(1, 1), "text": PoolState(1, 4)})
        used = decision.targets["image"] * 1 + decision.targets["text"] * 4
        assert used <= 6
        assert "clamped to inventory" in decision.flags

    def test_scale_invariance(self):
        scaler = _autoscaler()
        mc = scaler._capacity("image", 1)
        pools = {"image": PoolState(1, 1), "text": PoolState(1, 4)}
        a = _autoscaler().decide(
            LoadWindow(image_token_rate=3.3 * mc), pools).targets["image"]
        # Same ratio of load to capacity at a different absolute scale.
        slo2 = make_slo(model="internvl-26b", factor=10.0)
        scaler2 = TokenAwareAutoscaler(PROFILES["internvl-26b"], slo2,
                                       PolicySet(topology=Topology.DECOUPLED), 64)
        mc2 = scaler2._capacity("image", 1)
        b = scaler2.decide(
            LoadWindow(image_token_rate=3.3 * mc2), pools).targets["image"]
        assert a == b


    def test_prices_the_engine_batch_caps(self):
        # A token-aware demo that sets no max_batch: the autoscaler sizes
        # pools for the batches the engine forms (prefill 8), not for caps
        # of its own.
        configs = Path(__file__).resolve().parent.parent / "configs"
        raw = json.loads((configs / "demo.json").read_text())
        del raw["max_batch"]
        raw["policies"]["autoscaler"] = "token_aware"
        sim = build_simulation(validate_config(config_from_dict(raw, configs)), 1)
        assert sim.max_batch["prefill"] == 8
        assert sim.autoscaler.max_batch == sim.max_batch

    @pytest.mark.parametrize("model", ["llama3.2-11b", "internvl-26b"])
    def test_colocated_prefill_pool_is_priced_as_a_monolith(self, model):
        # Under monolith_pd the prefill pool runs the encoder too: the same
        # work, priced and loaded as a monolith instance.
        mono = _autoscaler(model, Topology.MONOLITH)
        pd = _autoscaler(model, Topology.MONOLITH_PD)
        for tp in MODELS[model].supported_tp_encoder:
            assert pd._capacity("prefill", tp) == mono._capacity("monolith", tp)
        window = LoadWindow(image_token_rate=3_000.0, text_token_rate=5_000.0,
                            output_token_rate=700.0)
        assert pd._load("prefill", window) == mono._load("monolith", window) == 8_000.0

    def test_simulation_built_directly_scales(self):
        # A Simulation given a token_aware PolicySet builds its own autoscaler,
        # priced for the whole inventory, and ticks without being handed one.
        reqs = [make_request(i, i * 200.0, n_images=i % 2) for i in range(20)]
        sim = make_sim(reqs, policies=PolicySet(autoscaler=AutoscalerKind.TOKEN_AWARE),
                       scale_interval_ms=1_000.0, horizon_ms=5_000.0)
        log = sim.run()
        assert sim.autoscaler.gpu_budget == 8 and sim.autoscaler.max_batch is sim.max_batch
        assert [e["time_ms"] for e in log.scale_events] == [1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0]


class TestInitialSizing:
    def test_stated_formula(self):
        # 10 image/s at 0.8 s per image -> 8 image instances; 4 images per
        # request -> 2 text instances.
        profile = PROFILES["internvl-26b"]
        tiles = 4
        assert profile.encode_latency(tiles, 1) == pytest.approx(800.0)
        summary = WorkloadSummary(
            empty=False, median_image_qps=10.0,
            median_images_per_request=4.0, median_image_tiles=float(tiles),
        )
        assert initial_sizing(summary, profile, image_tp=1) == {"image": 8, "text": 2}

    def test_no_history_overprovisions(self):
        targets = initial_sizing(WorkloadSummary(empty=True), PROFILES["internvl-26b"], 1)
        assert targets == NO_HISTORY_TARGETS == {"image": 4, "text": 4}


class TestSelectSharding:
    def test_small_encoder_never_tp8(self):
        profile = PROFILES["llama3.2-11b"]
        for factor in (2.0, 4.0, 8.0, 16.0):
            tp, feasible = select_sharding("image", profile, make_slo(factor=factor), 8)
            assert tp <= 4

    def test_big_encoder_tp4_over_tp8_when_both_feasible(self):
        # At a latency budget where only TP-4 and TP-8 qualify, two TP-4
        # encoders beat one TP-8 encoder on throughput per GPU.
        profile = PROFILES["nvlm-d-72b"]
        tp, feasible = select_sharding("image", profile,
                                       make_slo(factor=2.0, model="nvlm-d-72b"), 8)
        assert feasible
        assert tp == 4

    def test_big_encoder_very_loose_slo_prefers_tp1(self):
        profile = PROFILES["nvlm-d-72b"]
        tp, feasible = select_sharding("image", profile,
                                       make_slo(factor=16.0, model="nvlm-d-72b"), 8)
        assert feasible and tp == 1

    def test_single_supported_tp(self):
        from dataclasses import replace
        model = replace(MODELS["internvl-26b"], supported_tp_encoder=(2,))
        profile = replace(PROFILES["internvl-26b"], model=model)
        tp, _ = select_sharding("image", profile, make_slo(model="internvl-26b"), 8)
        assert tp == 2

    def test_at_most_one_servers_gpus(self):
        profile = PROFILES["llama3.2-90b"]
        slo = make_slo(model="llama3.2-90b")
        assert [select_sharding("text", profile, slo, gpus) for gpus in (1, 2, 4, 8)] == [
            (1, False), (2, True), (4, True), (8, True)]

    def test_infeasible_flags_largest(self):
        profile = PROFILES["internvl-26b"]
        slo = make_slo(factor=0.05, model="internvl-26b")
        tp, feasible = select_sharding("image", profile, slo, 8)
        assert not feasible
        assert tp == 8


class TestPlacement:
    def test_colocate_example(self):
        servers = [ServerView(0, 8, 8), ServerView(1, 8, 8)]
        placements, unplaced = place(
            [("text", 4), ("image", 2), ("image", 2)], servers, PlacementKind.COLOCATE)
        assert not unplaced
        assert {s for _, _, s in placements} == {0}

    def test_tp8_text_alone(self):
        servers = [ServerView(0, 8, 8), ServerView(1, 8, 8)]
        placements, unplaced = place(
            [("text", 8), ("image", 1)], servers, PlacementKind.COLOCATE)
        text_srv = next(s for k, _, s in placements if k == "text")
        img_srv = next(s for k, _, s in placements if k == "image")
        assert not unplaced and img_srv != text_srv

    def test_spread_round_robin(self):
        servers = [ServerView(i, 8, 8) for i in range(4)]
        placements, unplaced = place(
            [("image", 1)] * 4, servers, PlacementKind.SPREAD)
        assert not unplaced
        assert [s for _, _, s in placements] == [0, 1, 2, 3]

    def test_impossible_fit_flagged(self):
        servers = [ServerView(0, 4, 4)]
        placements, unplaced = place(
            [("text", 4), ("text", 4)], servers, PlacementKind.COLOCATE)
        assert len(placements) == 1 and len(unplaced) == 1

    def test_no_gpu_left_unused_while_unplaced(self):
        servers = [ServerView(0, 8, 8), ServerView(1, 8, 8)]
        additions = [("text", 4)] + [("image", 1)] * 12
        placements, unplaced = place(additions, servers, PlacementKind.COLOCATE)
        assert not unplaced
        used = {}
        for _, tp, s in placements:
            used[s] = used.get(s, 0) + tp
        assert used == {0: 8, 1: 8}
