import csv
import dataclasses
import gc
import heapq
import io
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MODELS, PROFILES, make_request, make_sim, make_slo
from lmmsim import engine, experiment
from lmmsim.core import Architecture, StageKind
from lmmsim.engine import (
    CSV_FIELDS,
    EV_ARRIVAL,
    EV_CPU_FREE,
    EV_DECODE_ARRIVAL,
    EV_DECODE_DONE,
    EV_GPU_FREE,
    EV_INSTANCE_STARTED,
    EV_SCALE_TICK,
    EV_TRANSFER_DONE,
    DecodeLane,
    InstancePlan,
    InstanceState,
    MetricsLog,
    ServerSpec,
    Simulation,
    SimulationError,
    TransferMedium,
    RequestRecord,
    WorkItem,
    _STAGES,
    form_batch,
    sample_transfer_ms,
    weighted_quantile,
)
from lmmsim.policies import (
    AutoscalerKind,
    PolicySet,
    RouterKind,
    ScalingDecision,
    SchedulerKind,
    Topology,
    route_image,
    route_text,
    schedule_order,
    split_by_tiles,
)

LLAMA_PROFILE = PROFILES["llama3.2-11b"]


def csv_bytes(log):
    import tempfile, os
    fd, path = tempfile.mkstemp()
    os.close(fd)
    log.to_csv(path)
    with open(path, "rb") as fh:
        data = fh.read()
    os.unlink(path)
    return data


class TestSingleRequest:
    def test_ttft_is_sum_of_stage_latencies(self):
        req = make_request(0, 0.0, text=1577, n_images=1)
        sim = make_sim([req], plan=[InstancePlan("text", 4, 1), InstancePlan("image", 4, 1)])
        log = sim.run()
        rec = log.records[0]
        prep = rec.prep_end_ms - rec.prep_start_ms
        enc = rec.encode_end_ms - rec.encode_start_ms
        pf = rec.prefill_end_ms - rec.prefill_start_ms
        assert rec.ttft_ms == pytest.approx(prep + enc + pf)
        assert rec.prep_start_ms == 0.0
        assert enc == pytest.approx(LLAMA_PROFILE.encode_latency(4, 4))
        assert pf == pytest.approx(LLAMA_PROFILE.prefill_latency(1577, 6404, 4))

    def test_transfer_included_in_ttft(self):
        req = make_request(0, 0.0, text=1577, n_images=1)
        sim = make_sim([req], transfer=TransferMedium.RDMA,
                       plan=[InstancePlan("text", 4, 1), InstancePlan("image", 4, 1)])
        log = sim.run()
        rec = log.records[0]
        transfer = rec.transfer_end_ms - rec.encode_end_ms
        assert transfer > 0
        assert rec.ttft_ms == pytest.approx(
            (rec.prep_end_ms - rec.prep_start_ms)
            + (rec.encode_end_ms - rec.encode_start_ms)
            + transfer
            + (rec.prefill_end_ms - rec.prefill_start_ms)
        )

    def test_text_only_skips_image_stages(self):
        req = make_request(0, 0.0, text=500, n_images=0)
        log = make_sim([req]).run()
        rec = log.records[0]
        assert rec.prep_start_ms is None
        assert rec.encode_start_ms is None
        assert rec.transfer_end_ms is None
        assert rec.ttft_ms == pytest.approx(LLAMA_PROFILE.prefill_latency(500, 0, 4))

    def test_decode_completion(self):
        out = 9
        req = make_request(0, 0.0, text=500, out=out)
        sim = make_sim([req])
        log = sim.run()
        rec = log.records[0]
        tbt = LLAMA_PROFILE.tbt_latency(1, 4)
        assert rec.completion_ms == pytest.approx(rec.prefill_end_ms + (out - 1) * tbt)
        assert rec.tbt_p99_ms == pytest.approx(tbt)
        lane = next(i.decode for i in sim.instances.values() if i.pool == "text")
        assert lane.members == {} and lane.heap == []  # nothing is kept once it completes

    def test_single_output_token_completes_at_prefill(self):
        req = make_request(0, 0.0, text=500, out=1)
        log = make_sim([req]).run()
        rec = log.records[0]
        assert rec.completion_ms == rec.prefill_end_ms
        assert rec.tbt_p99_ms is None


class TestQueueing:
    def test_serial_encode_queueing(self):
        reqs = [make_request(0, 0.0, text=200, n_images=1),
                make_request(1, 0.0, text=200, n_images=1)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 4, 1), InstancePlan("image", 4, 1)])
        log = sim.run()
        enc = LLAMA_PROFILE.encode_latency(4, 4)
        assert log.records[1].ttft_ms == pytest.approx(log.records[0].ttft_ms + enc)

    def test_work_conservation_no_idle_gap(self):
        reqs = [make_request(i, 0.0, text=200, n_images=1) for i in range(3)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 4, 1), InstancePlan("image", 4, 1)])
        log = sim.run()
        recs = sorted(log.records.values(), key=lambda r: r.encode_start_ms)
        for prev, nxt in zip(recs, recs[1:]):
            assert nxt.encode_start_ms == pytest.approx(prev.encode_end_ms)

    def test_decode_batch_step_time(self):
        # Two overlapping decodes share a batch, so per-token time reflects batch 2.
        reqs = [make_request(0, 0.0, text=500, out=50),
                make_request(1, 0.0, text=500, out=50)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 1)])
        log = sim.run()
        r0, r1 = log.records[0], log.records[1]
        tbt2 = LLAMA_PROFILE.tbt_latency(2, 4)
        # The later-starting request decodes fully inside a batch of 2.
        later = max((r0, r1), key=lambda r: r.prefill_end_ms)
        assert later.tbt_p99_ms == pytest.approx(tbt2, rel=1e-6)


class TestDeterminism:
    def _run(self, seed=7):
        reqs = [make_request(i, 37.0 * i, text=100 + i, n_images=i % 3, out=5)
                for i in range(40)]
        sim = make_sim(reqs, transfer=TransferMedium.RDMA, seed=seed)
        return sim.run()

    def test_bit_identical_logs(self):
        a, b = self._run(), self._run()
        assert csv_bytes(a) == csv_bytes(b)
        assert a.allocation_log == b.allocation_log

    def test_seed_changes_transfer_samples(self):
        a, b = self._run(seed=1), self._run(seed=2)
        ta = [r.transfer_end_ms for r in a.records.values() if r.transfer_end_ms]
        tb = [r.transfer_end_ms for r in b.records.values() if r.transfer_end_ms]
        assert ta != tb


class TestCausality:
    def test_timestamps_monotone(self):
        rng = np.random.default_rng(3)
        reqs = [make_request(i, float(rng.integers(0, 5000)), text=int(rng.integers(50, 2000)),
                             n_images=int(rng.integers(0, 4)), out=int(rng.integers(1, 30)))
                for i in range(120)]
        sim = make_sim(reqs, transfer=TransferMedium.RDMA)
        log = sim.run()
        for rec in log.completed_records():
            if rec.multimodal:
                # First start and last end across the request's shards: a
                # shard encodes after its preprocess ends.
                assert rec.arrival_ms <= rec.prep_start_ms <= rec.prep_end_ms <= rec.encode_end_ms
                assert rec.prep_start_ms <= rec.encode_start_ms <= rec.encode_end_ms
                assert rec.encode_end_ms <= rec.transfer_end_ms <= rec.prefill_start_ms
            tail = [rec.arrival_ms, rec.prefill_start_ms, rec.prefill_end_ms, rec.completion_ms]
            assert all(a <= b + 1e-9 for a, b in zip(tail, tail[1:])), tail

    def test_prefill_waits_for_all_shards(self):
        req = make_request(0, 0.0, text=100, n_images=4)
        sim = make_sim([req], plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 4)])
        log = sim.run()
        rec = log.records[0]
        assert rec.prefill_start_ms >= rec.encode_end_ms


def _tiles(images):
    return [img.tiles for img in images]


class TestEncodeShard:
    def test_even_split(self):
        images = make_request(0, 0, n_images=4).images
        shards = split_by_tiles(_tiles(images), 4)
        assert sorted(len(s) for s in shards) == [1, 1, 1, 1]

    def test_single_image_single_shard(self):
        images = make_request(0, 0, n_images=1).images
        assert split_by_tiles(_tiles(images), 4) == [[0]]

    def test_balanced_by_tiles(self):
        spec = MODELS["internvl-26b"]
        from lmmsim.core import ImageSpec
        images = [ImageSpec.from_dims(448, 448, spec), ImageSpec.from_dims(896, 896, spec),
                  ImageSpec.from_dims(448, 448, spec), ImageSpec.from_dims(448, 448, spec)]
        shards = split_by_tiles(_tiles(images), 2)
        loads = [sum(images[i].tiles for i in s) for s in shards]
        assert max(loads) - min(loads) <= 2

    @staticmethod
    def _greedy(tiles, n_shards):
        """Reference: the largest-first greedy, onto the least-loaded (then lowest) shard."""
        n_shards = max(1, min(n_shards, len(tiles)))
        loads, shards = [0] * n_shards, [[] for _ in range(n_shards)]
        for idx in sorted(range(len(tiles)), key=lambda i: (-tiles[i], i)):
            best = min(range(n_shards), key=lambda s: (loads[s], s))
            shards[best].append(idx)
            loads[best] += tiles[idx]
        return [sorted(s) for s in shards if s]

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_one_image_per_shard_in_size_order(self, tiles):
        # As many shards as images: one image each, largest first, ties by index.
        by_size = sorted(range(len(tiles)), key=lambda i: (-tiles[i], i))
        assert split_by_tiles(tiles, len(tiles)) == [[i] for i in by_size]
        for n in range(1, len(tiles) + 3):
            assert split_by_tiles(tiles, n) == self._greedy(tiles, n)

    def test_sharded_makespan_quarter_of_unsharded(self):
        # 16 equal images over 4 idle instances vs 1: encode span shrinks 4x,
        # matching the analytic schedule of a linear encode model.
        req16 = make_request(0, 0.0, text=100, n_images=16)
        sharded = make_sim([req16], plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 4)],
                           policies=PolicySet(topology=Topology.DECOUPLED, max_fanout=4)).run()
        single = make_sim([req16], plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 1)]).run()
        span_sharded = sharded.records[0].encode_end_ms - sharded.records[0].encode_start_ms
        span_single = single.records[0].encode_end_ms - single.records[0].encode_start_ms
        assert span_sharded == pytest.approx(span_single / 4)


class TestTransferModel:
    def test_rdma_p99(self):
        rng = np.random.default_rng(0)
        samples = sorted(sample_transfer_ms(TransferMedium.RDMA, rng) for _ in range(200_000))
        p99 = samples[int(0.99 * len(samples))]
        assert p99 == pytest.approx(5.0, rel=0.05)

    def test_tcp_quantiles(self):
        rng = np.random.default_rng(0)
        samples = sorted(sample_transfer_ms(TransferMedium.TCP, rng) for _ in range(200_000))
        p50 = samples[len(samples) // 2]
        p99 = samples[int(0.99 * len(samples))]
        assert p50 == pytest.approx(100.0, rel=0.05)
        assert p99 == pytest.approx(180.0, rel=0.05)

    def test_text_only_no_transfer(self):
        req = make_request(0, 0, text=10, n_images=0)
        rec = make_sim([req], transfer=TransferMedium.TCP).run().records[0]
        assert rec.transfer_end_ms is None
        assert rec.prefill_start_ms == 0.0


class TestFormBatch:
    def _item(self, seq, stage, size, enqueue=0.0):
        # Batch formation reads neither the request nor its record.
        return WorkItem(seq=seq, stage=stage, size_tokens=size, tiles=1, enqueue_ms=enqueue,
                        ttft_slo_ms=1000.0, req=None, rec=None)

    def test_queue_of_five_max_two(self):
        queue = [self._item(i, StageKind.ENCODE, 10, enqueue=i) for i in range(5)]
        batch = form_batch(queue, 10.0, SchedulerKind.FIFO, 0.5, {"encode": 2})
        assert [it.seq for it in batch] == [0, 1]
        assert [it.seq for it in queue] == [2, 3, 4]

    def test_stages_never_mixed(self):
        queue = [self._item(0, StageKind.ENCODE, 10),
                 self._item(1, StageKind.PREFILL, 10),
                 self._item(2, StageKind.ENCODE, 10)]
        batch = form_batch(queue, 10.0, SchedulerKind.FIFO, 0.5, {"encode": 4, "prefill": 4})
        assert [it.seq for it in batch] == [0, 2]
        assert [it.seq for it in queue] == [1]

    def test_single_item_batches_for_image_default(self):
        queue = [self._item(i, StageKind.ENCODE, 10, enqueue=i) for i in range(3)]
        batch = form_batch(queue, 10.0, SchedulerKind.FIFO, 0.5, {"encode": 1})
        assert [it.seq for it in batch] == [0]
        assert [it.seq for it in queue] == [1, 2]

    @pytest.mark.parametrize("scheduler", list(SchedulerKind))
    @pytest.mark.parametrize("enqueue", [0.0, 990.0])  # aged, then fresh, at 1000 ms
    @pytest.mark.parametrize("cap", [1, 4])
    def test_one_item_queue_is_taken_whole(self, scheduler, enqueue, cap):
        queue = [self._item(7, StageKind.PREFILL, 10, enqueue=enqueue)]
        copy = list(queue)
        batch = form_batch(queue, 1000.0, scheduler, 0.5, {"prefill": cap})
        assert batch == copy and queue == []
        # The general path takes the scheduler's first item and up to cap >= 1 of its stage.
        assert schedule_order(copy, 1000.0, scheduler, 0.5) == [0]


class TestScaling:
    def _scale_sim(self, decision_targets, workload=None, plan=None):
        sim = make_sim(
            workload or [],
            plan=plan or [InstancePlan("text", 4, 1), InstancePlan("image", 1, 2)],
            servers=[ServerSpec(0, 8, 16), ServerSpec(1, 8, 16)],
        )
        return sim

    def test_added_instances_start_delayed(self):
        sim = self._scale_sim(None)
        sim.apply_scaling(ScalingDecision(targets={"image": 4, "text": 1}))
        starting = [i for i in sim.instances.values() if i.state.value == "starting"]
        assert len(starting) == 2
        # Starting instances are not routable yet.
        assert all(i not in sim.load_index["image"].active for i in starting)

    def test_colocation_example(self):
        # One TP-4 text plus two TP-2 image instances fill one 8-GPU server.
        sim = make_sim([], plan=[InstancePlan("text", 4, 1), InstancePlan("image", 2, 2)],
                       servers=[ServerSpec(0, 8, 16)])
        servers_used = {i.server_id for i in sim.instances.values()}
        assert servers_used == {0}

    def test_drain_completes_queue_then_stops(self):
        reqs = [make_request(i, 0.0, text=200, n_images=1) for i in range(4)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 2)],
                       servers=[ServerSpec(0, 8, 16)])
        # Drain every image instance but one right after arrival events queue work.
        orig_tick = sim._on_arrival
        drained = {}

        def arrival_then_drain(idx):
            orig_tick(idx)
            if not drained:
                sim.apply_scaling(ScalingDecision(targets={"image": 1, "text": 1}))
                drained["done"] = True

        sim._on_arrival = arrival_then_drain
        log = sim.run()
        assert log.completed == 4
        stopped = [i for i in sim.instances.values() if i.state.value == "stopped"]
        assert len(stopped) == 1
        assert stopped[0].idle()

    def test_scale_to_zero_text_rejected(self):
        sim = self._scale_sim(None)
        sim.apply_scaling(ScalingDecision(targets={"image": 2, "text": 0}))
        live_text = [i for i in sim.instances.values()
                     if i.pool == "text" and i.state.value in ("active", "starting")]
        assert len(live_text) == 1

    def test_text_pool_without_active_instance_breaks_invariant(self):
        sim = self._scale_sim(None)
        text = next(i for i in sim.instances.values() if i.pool == "text")
        sim._set_state(text, InstanceState.DRAINING)
        with pytest.raises(AssertionError, match="no active text instance"):
            sim._check_invariants()

    def test_gpu_accounting_never_oversubscribed(self):
        # validate=True asserts inventory on every event.
        reqs = [make_request(i, 100.0 * i, text=300, n_images=1) for i in range(20)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 2)],
                       servers=[ServerSpec(0, 8, 16)])
        sim.apply_scaling(ScalingDecision(targets={"image": 40, "text": 1}))
        log = sim.run()
        assert log.completed == 20
        assert any("unplaced" in f for e in log.scale_events for f in e["flags"])


class TestDrainWaitsForRoutedWork:
    """A draining instance stops only once work already routed to it has run."""

    @staticmethod
    def _scale_after(sim, route: str, rid: int, decision: ScalingDecision) -> None:
        """Apply ``decision`` right after request ``rid`` is routed by ``route``."""
        orig = getattr(sim, route)

        def route_then_scale(req, *args):
            orig(req, *args)
            if req.id == rid:
                sim.apply_scaling(decision)

        setattr(sim, route, route_then_scale)

    @staticmethod
    def _stopped(sim, pool):
        [inst] = [i for i in sim.instances.values()
                  if i.pool == pool and i.state is InstanceState.STOPPED]
        return inst

    def test_token_transfer_in_flight(self):
        # Request 1's image tokens are on their way to the second text
        # instance when the text pool is scaled down to one.
        reqs = [make_request(0, 0.0, text=20_000),
                make_request(1, 1.0, text=100, n_images=1)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 2, 2), InstancePlan("image", 1, 4)],
                       transfer=TransferMedium.TCP)
        self._scale_after(sim, "_route_to_text_pool", 1,
                          ScalingDecision(targets={"text": 1, "image": 4}))
        log = sim.run()
        assert log.completed == 2
        rec = log.records[1]
        assert rec.encode_end_ms < rec.transfer_end_ms
        assert self._stopped(sim, "text").stopped_ms >= rec.completion_ms

    def test_decode_hand_off_in_flight(self):
        # Request 0 decodes on the first decode instance, so request 1's
        # hand-off goes to the second, which is then drained.
        reqs = [make_request(0, 0.0, text=500, out=400),
                make_request(1, 1000.0, text=500, out=20)]
        sim = make_sim(reqs, topology=Topology.DECOUPLED_PD,
                       plan=[InstancePlan("prefill", 2, 1), InstancePlan("decode", 2, 2),
                             InstancePlan("image", 1, 2)],
                       transfer=TransferMedium.TCP)
        self._scale_after(sim, "_route_to_decode_pool", 1,
                          ScalingDecision(targets={"prefill": 1, "decode": 1, "image": 2}))
        log = sim.run()
        assert log.completed == 2
        assert self._stopped(sim, "decode").stopped_ms >= log.records[1].completion_ms


_INDEX_STEP = st.one_of(
    st.tuples(st.just("reserve"), st.integers(0, 99),
              st.sampled_from([0, 100, 200]), st.sampled_from([0, 100, 200])),
    st.tuples(st.just("release"), st.integers(0, 99)),
    st.tuples(st.just("admit"), st.integers(0, 99)),
    st.tuples(st.just("scale"), st.integers(1, 5), st.integers(1, 5), st.integers(0, 8)),
    st.tuples(st.just("start"), st.integers(0, 99)),
)


class TestLoadIndex:
    """The engine routes from its per-pool load index; that must pick what a
    linear scan over every ACTIVE instance of the pool would pick."""

    @staticmethod
    def _step(sim, step, rid):
        kind, n, *rest = step
        insts = list(sim.instances.values())
        if kind == "reserve":
            active = [i for i in insts if i.state is InstanceState.ACTIVE]
            sim._reserve(active[n % len(active)], rid, *rest)
        elif kind == "release":
            held = [(i, r) for i in insts for r in i.reserved]
            if held:
                inst, r = held[n % len(held)]
                sim._release(inst, r)
                sim._maybe_stop_drained(inst)
        elif kind == "admit":
            active = [i for i in insts if i.pool == "decode" and i.state is InstanceState.ACTIVE]
            sim._decode_admit(active[n % len(active)], rid, 10)
        elif kind == "scale":
            sim.apply_scaling(ScalingDecision(
                targets={"prefill": n, "decode": rest[0], "image": rest[1]}))
        else:
            starting = [i for i in insts if i.state is InstanceState.STARTING]
            if starting:
                sim._on_instance_started(starting[n % len(starting)].id)

    @staticmethod
    def _check_routing(sim, model, router):
        active = {pool: [i for i in sim.instances.values()
                         if i.pool == pool and i.state is InstanceState.ACTIVE]
                  for pool in ("prefill", "image", "decode")}
        cro = MODELS[model].architecture is Architecture.CRO_ATTN
        keys = {"prefill": lambda i: (i.pending_text_tokens
                                      + (0 if cro else i.pending_image_tokens), i.id),
                "image": lambda i: (i.pending_image_tokens, i.id),
                "decode": lambda i: (i.decode.load(), i.id)}
        for pool, key in keys.items():
            # The index holds the whole pool, in id order and in (load, id) order.
            index = sim.load_index[pool]
            assert index.active == active[pool]
            assert index[:] == sorted(active[pool], key=key)
        # Round-robin walks the pool in id order; least-pending takes the argmin.
        expect = {pool: active[pool] if router is RouterKind.ROUND_ROBIN
                  else sorted(active[pool], key=keys[pool]) for pool in ("prefill", "image")}
        req = make_request(0, 0.0, n_images=8, model=model)
        text = route_text(req, sim.load_index["prefill"], router, {})
        assert text is expect["prefill"][0]
        for n_images in (1, 3, 8):
            req = make_request(0, 0.0, n_images=n_images, model=model)
            fanout = min(n_images, sim.policies.max_fanout)
            assignment = route_image(req, sim.load_index["image"], router,
                                     sim.policies.max_fanout, {}) or []
            assert [inst for inst, _ in assignment] == expect["image"][:fanout]
        # Decode goes to the least-loaded instance whatever the router.
        decode = sim.load_index["decode"][0]
        assert decode is min(active["decode"], key=keys["decode"])

    @pytest.mark.parametrize("model,router", [
        ("llama3.2-11b", RouterKind.LEAST_PENDING),
        ("internvl-26b", RouterKind.LEAST_PENDING),
        ("internvl-26b", RouterKind.ROUND_ROBIN),
    ])
    @given(steps=st.lists(_INDEX_STEP, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_routing_matches_a_linear_scan(self, model, router, steps):
        sim = make_sim([], model=model, topology=Topology.DECOUPLED_PD,
                       policies=PolicySet(router=router, max_fanout=4),
                       plan=[InstancePlan("prefill", 2, 3), InstancePlan("decode", 2, 3),
                             InstancePlan("image", 1, 4)],
                       servers=[ServerSpec(0, 16, 32), ServerSpec(1, 16, 32)],
                       max_batch={"decode": 2})
        self._check_routing(sim, model, router)
        for rid, step in enumerate(steps):
            self._step(sim, step, rid)
            sim._check_invariants()
            self._check_routing(sim, model, router)


class TestConservation:
    def test_arrived_equals_completed_plus_in_flight(self):
        rng = np.random.default_rng(5)
        reqs = [make_request(i, float(rng.uniform(0, 60_000)), text=int(rng.integers(100, 3000)),
                             n_images=int(rng.integers(0, 3)), out=int(rng.integers(1, 50)))
                for i in range(300)]
        sim = make_sim(reqs, horizon_ms=65_000.0, transfer=TransferMedium.RDMA)
        log = sim.run()
        assert log.arrived == 300
        assert log.arrived == log.completed + log.in_flight

    def test_no_loss_across_scaling_events(self):
        reqs = [make_request(i, 50.0 * i, text=200, n_images=1, out=3) for i in range(100)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 2)],
                       servers=[ServerSpec(0, 8, 16), ServerSpec(1, 8, 16)],
                       horizon_ms=300_000.0)

        fired = {}
        orig = sim._on_arrival

        def arrival_with_churn(idx):
            orig(idx)
            n = len(fired)
            if n == 0:
                sim.apply_scaling(ScalingDecision(targets={"image": 4, "text": 1}))
                fired[0] = True
            elif n == 1 and sim.now > 2000:
                sim.apply_scaling(ScalingDecision(targets={"image": 1, "text": 1}))
                fired[1] = True

        sim._on_arrival = arrival_with_churn
        log = sim.run()
        assert log.arrived == 100
        assert log.completed == 100


class TestStartDelay:
    def test_starting_instance_accepts_no_work(self):
        reqs = [make_request(0, 0.0, text=100, n_images=1, out=1)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 1)],
                       servers=[ServerSpec(0, 8, 16)], start_delay_ms=10_000.0)
        sim.apply_scaling(ScalingDecision(targets={"image": 2, "text": 1}))
        log = sim.run()
        rec = log.records[0]
        # Work ran on the原 active instance; the new one was still starting.
        assert rec.completion_ms is not None
        assert rec.encode_start_ms < 10_000.0


class TestPDTopologies:
    def test_decoupled_pd_pipeline(self):
        req = make_request(0, 0.0, text=500, n_images=1, out=10, model="internvl-26b")
        sim = make_sim(
            [req], model="internvl-26b", topology=Topology.DECOUPLED_PD,
            plan=[InstancePlan("prefill", 4, 1), InstancePlan("decode", 4, 1),
                  InstancePlan("image", 1, 2)],
            servers=[ServerSpec(0, 16, 32)], transfer=TransferMedium.RDMA,
        )
        log = sim.run()
        rec = log.records[0]
        assert rec.completion_ms is not None
        assert rec.ttft_ms == pytest.approx(rec.prefill_end_ms - rec.arrival_ms)

    def test_monolith_pd_keeps_encode_on_prefill(self):
        req = make_request(0, 0.0, text=500, n_images=1, out=10, model="internvl-26b")
        sim = make_sim(
            [req], model="internvl-26b", topology=Topology.MONOLITH_PD,
            plan=[InstancePlan("prefill", 8, 1), InstancePlan("decode", 8, 1)],
            servers=[ServerSpec(0, 16, 32)], transfer=TransferMedium.RDMA,
        )
        log = sim.run()
        rec = log.records[0]
        assert rec.encode_end_ms is not None
        assert rec.transfer_end_ms is None  # no image-token hop, only KV transfer
        assert rec.completion_ms is not None


class TestDeadlock:
    def test_waiting_forever_raises_diagnostic(self):
        # An image request with an image pool that never activates.
        req = make_request(0, 0.0, text=100, n_images=1)
        sim = make_sim([req], plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 1)])
        sim.apply_scaling(ScalingDecision(targets={"image": 0, "text": 1}))
        assert [i.state for i in sim.instances.values() if i.pool == "image"] == [
            InstanceState.STOPPED]
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()


class TestCyclicGCPause:
    """``Simulation.run`` pauses the cyclic collector; that is sound only if
    the caller gets it back as it was and the loop makes no cycles."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_callers_state(self, enabled):
        done = make_sim([make_request(0, 0.0, n_images=1)])
        # No image instance and no autoscaler: the image request deadlocks.
        stuck = make_sim([make_request(0, 0.0, n_images=1)],
                         plan=[InstancePlan("text", 4, 1), InstancePlan("image", 1, 0)])
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            done.run()
            assert gc.isenabled() is enabled
            with pytest.raises(SimulationError, match="deadlock"):
                stuck.run()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_loop_makes_no_reference_cycles(self):
        demo = Path(__file__).parent.parent / "configs" / "demo.json"
        exp = experiment.validate_config(experiment.load_config(demo))
        was = gc.isenabled()
        gc.disable()
        try:
            sim = experiment.build_simulation(exp, 1, horizon_ms=60_000.0, validate=True)
            gc.collect()
            log = sim.run()
            assert log.completed > 100
            assert gc.collect() == 0  # nothing the run dropped needs the collector
            assert sim.log is log
        finally:
            if was:
                gc.enable()


class TestStopWhenDecided:
    def test_ends_at_the_completion_after_the_predicate_turns(self):
        reqs = [make_request(i, 150.0 * i, text=300, n_images=i % 2, out=1 + i % 7) for i in range(60)]
        times = sorted(r.completion_ms for r in make_sim(reqs).run().records.values())
        assert len(set(times)) == len(times)
        never = dict.fromkeys(("text-only", "image-text", "tbt"), len(reqs))
        for n in (0, 1, 25, 59):
            sim = make_sim(reqs)  # validate=True: invariants hold at every event
            sim.stop_when_missed(never, 0.0, lambda: sim.log.completed >= n)
            log = sim.run()  # raises no deadlock error for the work left in flight
            assert log.completed == n + 1
            assert log.stopped_ms == times[n]
            assert len(log.records) == log.arrived


class _HeapArrivals(Simulation):
    """The engine with every arrival pushed on the event heap, as one heap of
    all events orders them: each arrival pushes the next as it is handled,
    so the heap never holds two. Arrivals read beside the heap must
    reproduce this run record for record."""

    def _push_arrival(self, idx: int) -> None:
        # Each arrival is pushed once, in order, however often it is asked for.
        if (idx == self._arrivals_pushed and idx < len(self.workload)
                and self.workload[idx].arrival_ms <= self.horizon_ms):
            self._arrivals_pushed += 1
            self._push(self.workload[idx].arrival_ms, EV_ARRIVAL, idx)

    def _heap_arrival(self, idx: int) -> None:
        self._push_arrival(idx + 1)
        self._on_arrival(idx)

    def run(self):
        self._arrivals_pushed = 0
        self._push_arrival(0)
        if self.autoscaler is not None:
            self._push(self.scale_interval_ms, EV_SCALE_TICK)
        handlers = {
            EV_INSTANCE_STARTED: self._on_instance_started,
            EV_CPU_FREE: self._on_lane_free,
            EV_GPU_FREE: self._on_lane_free,
            EV_DECODE_DONE: self._on_decode_done,
            EV_TRANSFER_DONE: self._on_transfer_done,
            EV_DECODE_ARRIVAL: self._on_decode_arrival,
            EV_ARRIVAL: self._heap_arrival,
            EV_SCALE_TICK: self._on_scale_tick,
        }
        self._stop_ms = self.horizon_ms
        reached_stop = False
        while self.heap:
            time_ms, kind, _seq, data = heapq.heappop(self.heap)
            if time_ms > self._stop_ms:
                reached_stop = True
                break
            self.now = time_ms
            handlers[kind](data)
            if self.validate:
                self._check_invariants()
        if not reached_stop and self.log.in_flight and self.log.stopped_ms is None:
            raise SimulationError(self._deadlock_dump())
        self.now = self.horizon_ms
        self._allocation_changed()
        return self.log


# internvl-26b with every stage latency a multiple of 100 ms for the requests
# of _grid_workload: one-tile images, prompts of 1,600 tokens per 100 ms,
# decodes of a multiple of 4 steps at 25 ms whatever the batch.
_GRID_PROFILE = dataclasses.replace(
    PROFILES["internvl-26b"], prep_ms_per_tile_core=0.0, prep_floor_ms=100.0,
    encode_ms_per_tile=dict.fromkeys((1, 2, 4, 8), 100.0),
    prefill_ms_per_token=dict.fromkeys((1, 2, 4, 8), 1 / 16),
    tbt_base_ms=dict.fromkeys((1, 2, 4, 8), 25.0), decode_batch_slope=0.0)


def _grid_workload(n: int, model: str = "internvl-26b"):
    """Two arrivals per 100 ms grid point, each prompt a multiple of 1,600 tokens."""
    reqs = []
    for i in range(n):
        images = i % 4
        reqs.append(make_request(i, 100.0 * (i // 2), text=1600 * (1 + i % 3) - 256 * images,
                                 n_images=images, px=448, out=1 + 4 * (i % 5), model=model))
    return reqs


def _arrival_pair(workload, profile=_GRID_PROFILE, horizon_ms=12_000.0, **options):
    """The engine and the heap-arrival oracle on one scenario."""
    kwargs = dict(profile=profile, slo=make_slo(model="internvl-26b"),
                  servers=[ServerSpec(0, 8, 16), ServerSpec(1, 8, 16)], workload=workload,
                  horizon_ms=horizon_ms, seed=3, transfer_medium=TransferMedium.NONE,
                  max_batch={"encode": 2, "prefill": 2, "decode": 4}, validate=True)
    kwargs.update(options)
    return Simulation(**kwargs), _HeapArrivals(**kwargs)


def _outcome(sim):
    log = sim.run()
    names = [f.name for f in dataclasses.fields(RequestRecord)]
    return ([tuple(getattr(r, n) for n in names) for r in log.records.values()],
            log.allocation_log, log.scale_events, log.stopped_ms, log.arrived, log.completed)


def _stamps(log):
    """Every time a lane or a decode finished something."""
    return {t for r in log.records.values()
            for t in (r.prep_end_ms, r.encode_end_ms, r.prefill_end_ms, r.completion_ms)
            if t is not None}


_TOKEN_AWARE = PolicySet(autoscaler=AutoscalerKind.TOKEN_AWARE)


class TestArrivalsBesideTheHeap:
    def test_static_pools(self):
        sim, oracle = _arrival_pair(
            _grid_workload(160), policies=PolicySet(scheduler=SchedulerKind.FIFO),
            instance_plan=[InstancePlan("text", 2, 2), InstancePlan("image", 1, 2)])
        assert _outcome(sim) == _outcome(oracle)
        arrivals = {r.arrival_ms for r in sim.log.records.values()}
        assert arrivals & _stamps(sim.log), "no arrival ties with a completion"
        assert sim.log.arrived == 160

    def test_token_aware_with_short_ticks_and_start_delays(self):
        # No image instance at first: image-bearing arrivals wait for one to start.
        sim, oracle = _arrival_pair(
            _grid_workload(200), policies=_TOKEN_AWARE, scale_interval_ms=1_000.0,
            start_delay_ms=500.0,
            instance_plan=[InstancePlan("text", 2, 1), InstancePlan("image", 1, 0)])
        assert _outcome(sim) == _outcome(oracle)
        arrivals = {r.arrival_ms for r in sim.log.records.values()}
        ticks = {e["time_ms"] for e in sim.log.scale_events}
        started = {t + 500.0 for t in ticks}
        assert arrivals & ticks and arrivals & started and arrivals & _stamps(sim.log)
        assert any(i.pool == "image" and i.state is InstanceState.ACTIVE for i in sim.instances.values())

    def test_token_aware_pd_with_transfers(self):
        # Calibrated latencies and sampled transfers: ties only at ticks and starts.
        reqs = [make_request(i, 100.0 * (i // 2), text=200 * (1 + i % 3), n_images=i % 3, px=448,
                             out=1 + 4 * (i % 5), model="internvl-26b") for i in range(200)]
        sim, oracle = _arrival_pair(
            reqs, profile=PROFILES["internvl-26b"], horizon_ms=20_000.0,
            policies=PolicySet(autoscaler=AutoscalerKind.TOKEN_AWARE, topology=Topology.DECOUPLED_PD),
            scale_interval_ms=1_000.0, start_delay_ms=500.0, transfer_medium=TransferMedium.RDMA,
            instance_plan=[InstancePlan("prefill", 2, 1), InstancePlan("decode", 2, 1),
                           InstancePlan("image", 1, 1)])
        assert _outcome(sim) == _outcome(oracle)
        assert sim.log.scale_events and sim.log.completed > 50

    def test_stopped_run(self):
        sims = _arrival_pair(_grid_workload(160), slo=make_slo(factor=0.5, model="internvl-26b"),
                             policies=PolicySet(),
                             instance_plan=[InstancePlan("text", 2, 1), InstancePlan("image", 1, 1)])
        for s in sims:
            s.stop_when_missed({"text-only": 3, "image-text": 3, "tbt": 3}, 1_000.0)
        sim, oracle = sims
        assert _outcome(sim) == _outcome(oracle)
        assert sim.log.stopped_ms is not None and sim.log.arrived < 160


class TestEventLayout:
    """``bench/tracing.py`` counts events by swapping ``engine.heapq`` for a
    stand-in and reading every item as ``(time, kind, seq, data)``, a
    decode-done's data as ``(instance id, epoch)``."""

    def test_heap_items(self, monkeypatch):
        kinds = {getattr(engine, n) for n in dir(engine) if n.startswith("EV_")}
        pushed, popped = [], []

        class Recording:
            @staticmethod
            def heappush(heap, item):
                pushed.append(item)
                heapq.heappush(heap, item)

            @staticmethod
            def heappop(heap):
                item = heapq.heappop(heap)
                popped.append(item)
                return item

        monkeypatch.setattr(engine, "heapq", Recording)
        sim, _ = _arrival_pair(
            _grid_workload(120), profile=PROFILES["internvl-26b"], policies=_TOKEN_AWARE,
            scale_interval_ms=1_000.0, start_delay_ms=500.0, transfer_medium=TransferMedium.RDMA,
            instance_plan=[InstancePlan("text", 2, 1), InstancePlan("image", 1, 0)])
        sim.run()
        assert popped and len(popped) <= len(pushed)
        for item in pushed:
            time_ms, kind, seq, data = item
            assert kind in kinds and isinstance(time_ms, float) and isinstance(seq, int), item
            if kind == EV_DECODE_DONE:
                inst_id, epoch = data
                assert inst_id in sim.instances and isinstance(epoch, int), item
                assert sim.instances[inst_id].decode.epoch >= epoch
        seen = {kind for _, kind, _, _ in popped}
        assert {EV_INSTANCE_STARTED, EV_CPU_FREE, EV_GPU_FREE, EV_DECODE_DONE, EV_TRANSFER_DONE,
                EV_SCALE_TICK} <= seen


def _watch_decode(sim) -> list[tuple[float, int, int]]:
    """Record the simulation's decode admissions as (time_ms, rid, steps), and
    fail once its EV_DECODE_DONE pops exceed twice the admissions so far.

    Each pushed decode-done event comes from an admission or from a pop that
    completed a member, so pops stay within twice the admissions unless a
    lane reschedules without finishing anyone, as one without its tolerance
    would forever.
    """
    admitted, pops = [], 0
    admit, decode_done = sim._decode_admit, sim._on_decode_done

    def spy_admit(inst, rid, steps):
        admitted.append((sim.now, rid, steps))
        admit(inst, rid, steps)

    def spy_decode_done(data):
        nonlocal pops
        pops += 1
        assert pops <= 2 * len(admitted), "decode-done pops outrun admissions"
        decode_done(data)

    sim._decode_admit, sim._on_decode_done = spy_admit, spy_decode_done
    return admitted


class TestDecodeLane:
    @staticmethod
    def _reference(admissions, cap, step_of):
        """{rid: (completion_ms, TBT P99)} for one lane's admissions, given as
        (time_ms, rid, steps) in order: the per-member model, which subtracts
        every advance from each member's remaining steps and logs it as a TBT
        sample of that member."""
        members, remaining, hist, queue, done = [], {}, {}, deque(), {}
        anchor = step = 0.0
        due = None

        def advance(now):
            nonlocal anchor
            if members and now > anchor:
                steps = (now - anchor) / step
                for r in members:
                    remaining[r] -= steps
                    hist[r].append((step, steps))
            anchor = max(anchor, now)

        def reschedule(now):
            nonlocal anchor, step
            if not members:
                return None
            step, anchor = step_of(len(members)), now
            return now + max(min(remaining[r] for r in members) * step, 0.0)

        pending = deque(admissions)
        while pending or due is not None:
            # An admission at a completion's time comes first (GPU_FREE < DECODE_DONE).
            if pending and (due is None or pending[0][0] <= due):
                now, rid, steps = pending.popleft()
                hist[rid] = []
                if len(members) >= cap:
                    queue.append((rid, now, steps))
                    continue
                advance(now)
                members.append(rid)
                remaining[rid] = float(steps)
            else:
                now = due
                advance(now)
                for rid in [r for r in members if remaining[r] <= 1e-6]:
                    members.remove(rid)
                    done[rid] = (now, weighted_quantile(hist[rid], 0.99))
                while queue and len(members) < cap:
                    rid, ready, steps = queue.popleft()
                    if now - ready > 1e-6:
                        hist[rid].append((now - ready, 1.0))
                    members.append(rid)
                    remaining[rid] = float(steps)
            due = reschedule(now)
        return done

    @given(st.lists(st.tuples(st.floats(0.0, 300.0), st.integers(1, 80)), min_size=1, max_size=25),
           st.integers(1, 4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_per_member_reference(self, requests, cap):
        reqs, t = [], 0.0
        for rid, (gap, out) in enumerate(requests):
            t += gap
            reqs.append(make_request(rid, t, text=200, out=out))
        sim = make_sim(reqs, max_batch={"decode": cap})
        admitted = _watch_decode(sim)
        log = sim.run()
        expected = self._reference(admitted, cap, lambda n: LLAMA_PROFILE.tbt_latency(n, 4))
        assert sorted(expected) == [r.id for r in reqs if r.output_tokens > 1]
        for rid, (completion_ms, tbt_p99_ms) in expected.items():
            rec = log.records[rid]
            assert rec.completion_ms == pytest.approx(completion_ms, rel=0, abs=1e-6)
            # The same sample; an admit wait is measured from a completion
            # time, so it may differ from the model's in the last bits.
            assert rec.tbt_p99_ms == pytest.approx(tbt_p99_ms, rel=1e-12, abs=0)

    @staticmethod
    def _drive(lane, requests):
        """Run ``requests``, (gap_ms, steps) each, through ``lane`` alone as
        the engine does: {rid: (its TBT P99, its TBT samples by a full walk)}.
        The samples are its admit wait and, per step time served, the steps
        gained at it against the histogram at its join."""
        pending, t, due = deque(), 0.0, None
        for rid, (gap, steps) in enumerate(requests):
            t += gap
            pending.append((t, rid, steps))
        queued, joined, out = {}, {}, {}
        while pending or due is not None:
            if pending and (due is None or pending[0][0] <= due):
                now, rid, steps = pending.popleft()
                if not lane.admit(rid, steps, now):
                    queued[rid] = now
                    continue
            else:
                now = due
                for rid, p99 in lane.pop_finished(now):
                    snap, samples = joined.pop(rid)
                    samples += [(step, w) for step, s in lane.served.items()
                                if (w := s - snap.get(step, 0.0))]
                    out[rid] = (p99, samples)
            for rid in lane.members.keys() - joined.keys():
                wait = now - queued.pop(rid, now)
                joined[rid] = (lane.served.copy(), [(wait, 1.0)] if wait > 1e-6 else [])
            dt = lane.restart()
            due = None if dt is None else now + dt
        assert len(out) == len(requests) and not lane.members
        return out

    # Bursts that fill the batch and its queue, and gaps that let it drain.
    @given(st.lists(st.tuples(st.one_of(st.floats(0.0, 30.0), st.floats(0.0, 3000.0)),
                              st.integers(1, 400)), min_size=1, max_size=60),
           st.integers(6, 10), st.sampled_from([0.02, 0.0]), st.booleans())
    # Flat step times: every batch size has one step time.
    @example([(0.0, 40)] * 8 + [(5.0, 100), (2000.0, 3)], 6, 0.0, True)
    # Member 0's batch falls from 4 to 1, rises to 6 and falls again, then to 3.
    @example([(0.0, 300)] + [(0.0, 30)] * 3 + [(2000.0, 30)] + [(0.0, 30)] * 4 + [(3000.0, 30), (0.0, 30)],
             6, 0.02, False)
    # Member 0 spikes to 3 members for a step, under 1 % of its steps: its
    # read passes batch size 2, which only another lane of the TP has run.
    @example([(0.0, 400), (3000.0, 1), (0.0, 1)], 6, 0.02, True)
    # A tie: member 1 waits 5 steps and runs 99, so its wait weighs exactly 1 % of 100.
    @example([(0.0, 5), (0.0, 99)], 1, 0.02, False)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_walk_matches_full_walk(self, requests, cap, slope, shared):
        # Each completion's TBT P99 equals, exactly, weighted_quantile over a
        # walk of every served step time against the histogram at its join,
        # plus its admit wait. With ``shared`` another lane of the TP has run
        # every batch size, so the step table holds steps this lane never ran.
        profile = dataclasses.replace(LLAMA_PROFILE, decode_batch_slope=slope)
        table = [None] + [profile.tbt_latency(n, 4) if shared else None for n in range(1, cap + 1)]
        lane = DecodeLane(cap, 4, table, profile.tbt_latency)
        for rid, (p99, samples) in self._drive(lane, requests).items():
            assert p99 == weighted_quantile(samples, 0.99), rid

    def test_near_tie_takes_the_full_walk(self, monkeypatch):
        # Member 1 waits 5 steps and runs 99: its wait weighs exactly the 1 %
        # line of T = 100, so the top-down read hands over to the full walk.
        calls = []
        full_walk = DecodeLane._full_walk
        monkeypatch.setattr(DecodeLane, "_full_walk",
                            lambda lane, *args: calls.append(args) or full_walk(lane, *args))
        lane = DecodeLane(1, 4, [None, None], LLAMA_PROFILE.tbt_latency)
        out = self._drive(lane, [(0.0, 5), (0.0, 99)])
        wait = out[1][1][0]
        assert wait == (5 * LLAMA_PROFILE.tbt_latency(1, 4), 1.0)
        assert [args[2] for args in calls] == [wait[0]]  # member 1's read, only
        assert all(p99 == weighted_quantile(samples, 0.99) for p99, samples in out.values())

    def test_read_starts_at_the_largest_batch_since_the_join(self):
        # Six members run together, then member 6 runs alone: its read looks
        # up the step time of batch size 1 and no other.
        class Reads(list):
            def __getitem__(self, n):
                self.read.append(n)
                return super().__getitem__(n)

        table = Reads([None] * 7)
        table.read = []
        lane = DecodeLane(6, 4, table, LLAMA_PROFILE.tbt_latency)
        for rid in range(6):
            lane.admit(rid, 10, 0.0)
        due = lane.restart()
        assert [rid for rid, _ in lane.pop_finished(due)] == list(range(6))
        assert lane.restart() is None
        lane.admit(6, 10, 1000.0)
        due = 1000.0 + lane.restart()
        step = LLAMA_PROFILE.tbt_latency(1, 4)
        table.read.clear()
        assert lane.pop_finished(due) == [(6, step)]
        assert table.read == [1]

    @pytest.mark.parametrize("slope", [-0.5, float("nan")])
    def test_falling_step_times_are_refused(self, monkeypatch, slope):
        # The read needs step times that do not fall as the batch grows.
        monkeypatch.setitem(PROFILES, "llama3.2-11b",
                            dataclasses.replace(LLAMA_PROFILE, decode_batch_slope=slope))
        with pytest.raises(SimulationError, match="decode_batch_slope"):
            make_sim([make_request(0, 0.0)])

    def test_step_table_is_the_profile_per_tp(self):
        # One table per TP, shared by the lanes of that TP and filled once per
        # batch size from the profile, float for float.
        reqs = [make_request(i, 5.0 * i, text=200, out=400) for i in range(40)]
        sim = make_sim(reqs, plan=[InstancePlan("text", 4, 2), InstancePlan("image", 1, 4)],
                       servers=[ServerSpec(0, 8, 16), ServerSpec(1, 8, 16)], max_batch={"decode": 16})
        calls = []
        tbt_latency = sim.profile.tbt_latency
        for inst in sim.instances.values():
            assert inst.decode._steps_ms is sim._steps_ms[inst.tp]
            inst.decode._tbt_latency = lambda n, tp: calls.append((n, tp)) or tbt_latency(n, tp)
        sim.run()
        assert sorted(sim._steps_ms) == [1, 4]
        for tp, table in sim._steps_ms.items():
            assert len(table) == 16 + 1
            filled = [n for n, step in enumerate(table) if step is not None]
            assert all(table[n] == LLAMA_PROFILE.tbt_latency(n, tp) for n in filled)
            assert sorted(n for n, t in calls if t == tp) == filled
        assert sorted(n for n, t in calls if t == 4) == list(range(1, 17))

    def test_day_scale_times_complete_without_spinning(self):
        # Near 7e6 ms one ulp of time is about 1e-9 ms: without its tolerance a
        # lane puts a completion due in ~1e-10 ms onto the same instant, again
        # and again.
        start = 7_000_000.0
        reqs = [make_request(i, start + 37.0 * i, text=300, out=20 + 13 * i % 150)
                for i in range(60)]
        sim = make_sim(reqs, horizon_ms=start + 600_000.0, max_batch={"decode": 8})
        admitted = _watch_decode(sim)
        log = sim.run()
        assert log.completed == len(reqs) == len(admitted)
        assert all(r.completion_ms > start for r in log.records.values())


class TestSlottedRecords:
    def _record(self):
        return RequestRecord(request_id=0, service_id="s", multimodal=False, arrival_ms=0.0,
                             text_tokens=1, image_tokens=0, output_tokens=1, n_images=0)

    def test_stamps_are_record_fields(self):
        # Lanes stamp records with setattr by these names; with slots a
        # misspelt one raises instead of adding an attribute.
        names = {f.name for f in dataclasses.fields(RequestRecord)}
        for facts in _STAGES.values():
            assert {facts.start, facts.end} <= names
        with pytest.raises(AttributeError):
            setattr(self._record(), "prep_strat_ms", 1.0)

    def test_no_instance_dict(self):
        req = make_request(0, 0.0, n_images=1)
        item = WorkItem(seq=1, stage=StageKind.PREFILL, size_tokens=1, tiles=0, enqueue_ms=0.0,
                        ttft_slo_ms=1.0, req=req, rec=self._record())
        for obj in (req, self._record(), item):
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_completed_stays_a_property(self):
        rec = self._record()
        assert not rec.completed
        rec.completion_ms = 5.0
        assert rec.completed


def _walked_quantile(pairs, q):
    """Reference: the cumulative walk over sorted pairs, one addition at a time.

    The total is the same left-to-right sum: under CPython 3.11 that is what
    ``sum`` computes, and from 3.12 ``sum`` compensates its rounding.
    """
    if not pairs:
        return 0.0
    ordered = sorted(pairs)
    total = 0.0
    for _, w in ordered:
        total += w
    acc = 0.0
    for value, w in ordered:
        acc += w
        if acc >= q * total - 1e-12:
            return value
    return ordered[-1][0]


# With q = 0.5, the first pair's weight is its prefix sum, and the rank
# target is 0.5 * (w + 1.0) - 1e-12: these weights put the prefix at the
# target, one ulp below it and one ulp above it (TestWeightedQuantile checks).
_AT_TARGET = 0.999999999998
_ULP_BELOW = 0.9999999999979998
_ULP_ABOVE = 0.9999999999980003


def _boundary(w):
    return [(1.0, w), (2.0, 1.0)]


class TestWeightedQuantile:
    def test_single_value(self):
        assert weighted_quantile([(5.0, 3.0)], 0.99) == 5.0

    @given(st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(1e-12, 1e6)), max_size=40),
           st.sampled_from([0.5, 0.9, 0.99]))
    @example(_boundary(_AT_TARGET), 0.5)
    @example(_boundary(_ULP_BELOW), 0.5)
    @example(_boundary(_ULP_ABOVE), 0.5)
    @example([(3.0, 2.0), (3.0, 0.5), (1.0, 1.0), (3.0, 1e-3)], 0.5)  # equal values, other weights
    @example([(7.0, 0.25)], 0.99)  # a single pair
    @example([(41.5, 1.0), (25.0, 96.0), (26.5, 3.25)], 0.99)  # an admit wait, weight 1.0
    @settings(max_examples=300, deadline=None)
    def test_equals_the_cumulative_walk(self, pairs, q):
        # TBT samples have positive weights; the answer must be bit-identical.
        assert weighted_quantile(pairs, q) == _walked_quantile(pairs, q)

    def test_weighted_mass(self):
        pairs = [(1.0, 99.0), (100.0, 1.0)]
        assert weighted_quantile(pairs, 0.5) == 1.0
        assert weighted_quantile(pairs, 0.999) == 100.0

    @pytest.mark.parametrize("w,ulps,answer", [(_AT_TARGET, 0, 1.0), (_ULP_BELOW, -1, 2.0),
                                               (_ULP_ABOVE, 1, 1.0)])
    def test_rank_boundary(self, w, ulps, answer):
        target = 0.5 * (w + 1.0) - 1e-12
        assert w - target == ulps * math.ulp(target)
        # A prefix that reaches the target, however narrowly, takes the rank.
        assert weighted_quantile(_boundary(w), 0.5) == answer


def _reference_csv(log: MetricsLog) -> str:
    """The request CSV as csv.writer writes it, one value at a time: empty for
    None, four decimals for a float, 0/1 for a bool, the value otherwise."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_FIELDS)
    for rec in log.records.values():
        writer.writerow(["" if x is None else f"{x:.4f}" if isinstance(x, float)
                         else int(x) if isinstance(x, bool) else x
                         for x in (getattr(rec, name) for name in CSV_FIELDS)])
    return buf.getvalue()


def _written_csv(log: MetricsLog, path: Path) -> str:
    log.to_csv(path)
    with open(path, newline="") as fh:
        return fh.read()


class _Tokens(int):
    """An int whose text is not its decimal: the CSV writes it as text."""

    def __str__(self):
        return f"{int(self)} tokens, counted"


def _record(rid, service_id="chat", **stamps):
    return RequestRecord(rid, service_id, rid % 2 == 1, 10.0 * rid, 100, 0, 8, 0,
                         ttft_slo_ms=500.0, tbt_slo_ms=50.0, **stamps)


class TestRequestCsv:
    def test_matches_the_csv_writer_reference(self, tmp_path):
        done = dict(prefill_start_ms=1.0, prefill_end_ms=2.5, completion_ms=9.0, ttft_ms=2.5,
                    tbt_p99_ms=0.75)
        records = [
            _record(0, "a,b", slo_ok=True, **done),
            _record(1, 'say "hi"', slo_ok=False, **done),
            _record(2, "two\nlines", **done),  # completed with slo_ok unset
            _record(3, "cr\rreturn", slo_ok=True, **done),
            _record(4, ""),  # in flight: every stamp None
            _record(5, "default", prep_start_ms=0.5),  # in flight, one stage started
            _record(6, " spaced ;'quoted' é", slo_ok=True, **done),
            _record(10, StageKind.PREFILL, **done),  # a str subclass: its characters, not its str()
            # An int where a float goes; numpy scalars; signed zero and infinities.
            _record(7, slo_ok=True, **{**done, "ttft_ms": 3, "completion_ms": 12}),
            _record(8, slo_ok=np.bool_(True), **{**done, "ttft_ms": np.float64(1 / 3),
                                                 "completion_ms": np.float64(1e6 + 0.00005)}),
            _record(9, slo_ok=False, **{**done, "ttft_ms": -0.0, "tbt_p99_ms": math.inf,
                                        "completion_ms": -math.inf, "prefill_end_ms": math.nan}),
        ]
        records[8].text_tokens = np.int64(42)
        records[8].output_tokens = _Tokens(8)
        records[8].arrival_ms = np.float64(2.00005)
        records[9].arrival_ms = 5  # an int in a float column
        log = MetricsLog(horizon_ms=100.0, seed=1)
        log.records = {r.request_id: r for r in records}
        assert _written_csv(log, tmp_path / "r.csv") == _reference_csv(log)

    @given(st.lists(st.text(alphabet=st.sampled_from(list('ab ,"\r\n\'é;')), max_size=6), max_size=12))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_service_ids_quote_as_the_reference(self, tmp_path_factory, services):
        log = MetricsLog(horizon_ms=100.0, seed=1)
        log.records = {i: _record(i, service, **({"completion_ms": 3.0, "slo_ok": True} if i % 3 else {}))
                       for i, service in enumerate(services)}
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        assert _written_csv(log, path) == _reference_csv(log)

    def test_simulated_log_matches_the_reference(self, tmp_path):
        reqs = [make_request(i, 40.0 * i, text=200 + 7 * i, n_images=i % 3, out=4 + i % 9)
                for i in range(80)]
        log = make_sim(reqs, horizon_ms=2_500.0).run()
        assert 0 < log.completed < len(reqs)  # some records still in flight
        assert _written_csv(log, tmp_path / "r.csv") == _reference_csv(log)
