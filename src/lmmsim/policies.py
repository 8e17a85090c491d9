"""Pluggable routing, scheduling, autoscaling, sharding, and placement policies.

Each axis ships the load-aware policy plus the baseline it is ablated
against (round-robin routing, FIFO scheduling, no autoscaling, spread
placement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from .core import Architecture, SLOSpec, StageKind
from .profiles import LatencyProfile, batch_aware_capacity_tokens_per_s
from .workload import WorkloadSummary


class RouterKind(str, Enum):
    ROUND_ROBIN = "round_robin"
    LEAST_PENDING = "least_pending"


class SchedulerKind(str, Enum):
    FIFO = "fifo"
    SLO_PRIORITY = "slo_priority"


# The members the per-request calls test, bound once: under CPython 3.11,
# reading a member off its Enum class costs several times reading a global.
_ROUND_ROBIN, _FIFO = RouterKind.ROUND_ROBIN, SchedulerKind.FIFO


class AutoscalerKind(str, Enum):
    NONE = "none"
    TOKEN_AWARE = "token_aware"


class PlacementKind(str, Enum):
    SPREAD = "spread"
    COLOCATE = "colocate"


class Topology(str, Enum):
    MONOLITH = "monolith"
    DECOUPLED = "decoupled"
    DECOUPLED_PD = "decoupled_pd"
    # Prefill/decode split with encoders still coupled to prefill instances;
    # the baseline the fully decoupled PD setup is compared against.
    MONOLITH_PD = "monolith_pd"


@dataclass(frozen=True)
class PoolRoles:
    """Which pool plays which part of the pipeline under one topology."""

    text: str  # runs prefill, and decode too when there is no decode pool
    image_entry: str  # where image-bearing requests enter
    decode: str | None = None

    @property
    def pools(self) -> set[str]:
        """The pools a config of this topology must declare."""
        return {p for p in (self.text, self.image_entry, self.decode) if p is not None}

    @property
    def colocated_encoder(self) -> bool:
        return self.image_entry != "image"


POOL_ROLES = {
    Topology.MONOLITH: PoolRoles(text="monolith", image_entry="monolith"),
    Topology.DECOUPLED: PoolRoles(text="text", image_entry="image"),
    Topology.DECOUPLED_PD: PoolRoles(text="prefill", image_entry="image", decode="decode"),
    Topology.MONOLITH_PD: PoolRoles(text="prefill", image_entry="prefill", decode="decode"),
}


def is_text_family(pool: str) -> bool:
    """Every pool but the image pool runs LLM work: it keeps at least one
    instance when scaling down and is placed first when colocating."""
    return pool != "image"


# Per-stage batch caps of the engine when a config sets none.
DEFAULT_MAX_BATCH = {"preprocess": 8, "encode": 1, "prefill": 8, "decode": 48}

# The token-aware autoscaler adds a replica when a window's SLO attainment
# falls below ATTAINMENT_THRESHOLD, and shrinks a pool only after
# SHRINK_WINDOWS consecutive windows whose load is below SHRINK_UTILIZATION
# of the pool's current capacity.
ATTAINMENT_THRESHOLD = 0.99
SHRINK_UTILIZATION = 0.7
SHRINK_WINDOWS = 2

# Pool sizes when there is no image history to size from.
NO_HISTORY_TARGETS = {"image": 4, "text": 4}


@dataclass(frozen=True)
class PolicySet:
    router: RouterKind = RouterKind.LEAST_PENDING
    scheduler: SchedulerKind = SchedulerKind.SLO_PRIORITY
    autoscaler: AutoscalerKind = AutoscalerKind.NONE
    placement: PlacementKind = PlacementKind.COLOCATE
    topology: Topology = Topology.DECOUPLED
    max_fanout: int = 8
    aging_slo_fraction: float = 0.5
    # Queueing budget divisor when sizing pools: >1 targets tail latency
    # rather than mean latency inside each stage's SLO share.
    capacity_tail_factor: float = 1.0


@dataclass
class ScalingDecision:
    targets: dict[str, int]  # instance kind name -> replica count
    flags: list[str] = field(default_factory=list)


@dataclass
class LoadWindow:
    image_token_rate: float = 0.0  # tokens/sec offered
    text_token_rate: float = 0.0
    output_token_rate: float = 0.0
    slo_attainment: float = 1.0
    completed: int = 0
    queue_delay_ms: dict[str, float] = field(default_factory=dict)  # stage -> mean wait

    @property
    def total_token_rate(self) -> float:
        return self.image_token_rate + self.text_token_rate


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def split_by_tiles(tile_sizes: list[int], n_shards: int) -> list[list[int]]:
    """Greedy largest-first partition of image indices balanced by tile count."""
    n_shards = max(1, min(n_shards, len(tile_sizes)))
    # Largest first; a reversed sort keeps equal sizes in index order.
    order = sorted(range(len(tile_sizes)), key=tile_sizes.__getitem__, reverse=True)
    if n_shards == len(tile_sizes):
        # Every image has at least one tile, so the greedy then gives each
        # image, largest first, the next empty shard.
        return [[idx] for idx in order]
    loads = [0] * n_shards
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    for idx in order:
        best = min(range(n_shards), key=loads.__getitem__)  # the first least-loaded shard
        shards[best].append(idx)
        loads[best] += tile_sizes[idx]
    return [sorted(s) for s in shards if s]


def load_key(role: str, architecture: Architecture | None = None):
    """The load least-pending routing minimizes over a pool playing ``role``
    (``"text"``, ``"image"`` or ``"decode"``); ties go to the lower id.

    A cross-attention model's text pool does not hold image tokens in its
    prompt, so only its text tokens count. The engine keeps each routed
    pool's active instances in a load index sorted by ``(key, id)``, so the
    least-loaded instances are at its head.
    """
    if role == "image":
        return attrgetter("pending_image_tokens")
    if role == "decode":
        return lambda i: i.decode.load()
    if architecture is Architecture.CRO_ATTN:
        return attrgetter("pending_text_tokens")
    return lambda i: i.pending_text_tokens + i.pending_image_tokens


def route_image(request, index, router: RouterKind, max_fanout: int, rr_state: dict):
    """Assign a request's images to image instances.

    ``index`` is the image pool's load index: its active instances in id
    order (``index.active``) and, as a sequence, in ``(load, id)`` order.
    Sharding across instances comes with the decoupled topology; the router
    only decides which instances receive the shards. Least-pending picks the
    least image-token-loaded instances, round-robin walks the pool blindly.
    Returns a list of (instance, image_indices).
    """
    if not index:
        return None
    tile_sizes = [img.tiles for img in request.images]
    fanout = min(len(tile_sizes), len(index), max_fanout)
    if router is _ROUND_ROBIN:
        active = index.active
        pos = rr_state.get("image", 0)
        rr_state["image"] = pos + fanout
        chosen = [active[(pos + k) % len(active)] for k in range(fanout)]
    else:
        chosen = index[:fanout]
    shards = split_by_tiles(tile_sizes, len(chosen))
    return [(chosen[k], shard) for k, shard in enumerate(shards)]


def route_text(request, index, router: RouterKind, rr_state: dict):
    """Pick the text (or prefill) instance for a request's LLM work from the
    pool's load index (see ``route_image``)."""
    if router is _ROUND_ROBIN:
        pos = rr_state.get("text", 0) % len(index)
        rr_state["text"] = pos + 1
        return index.active[pos]
    return index[0]


# ----------------------------------------------------------------------
# Instance-level scheduling
# ----------------------------------------------------------------------
def schedule_order(items, now: float, scheduler: SchedulerKind, aging_slo_fraction: float):
    """Indices of the items in execution order.

    SLO-priority runs the smallest item first, except that items older than
    a fraction of their TTFT SLO regain FIFO priority, which bounds
    starvation.
    """
    if scheduler is _FIFO:
        return sorted(range(len(items)), key=lambda i: (items[i].enqueue_ms, items[i].seq))
    aged = []
    fresh = []
    for i, it in enumerate(items):
        if now - it.enqueue_ms > aging_slo_fraction * it.ttft_slo_ms:
            aged.append(i)
        else:
            fresh.append(i)
    aged.sort(key=lambda i: (items[i].enqueue_ms, items[i].seq))
    fresh.sort(key=lambda i: (items[i].size_tokens, items[i].enqueue_ms, items[i].seq))
    return aged + fresh


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
@dataclass
class PoolState:
    count: int
    tp: int


class TokenAwareAutoscaler:
    """Replica targets from offered token load over per-stage max capacity.

    Scale-downs require consecutive low-utilization windows; an SLO
    attainment shortfall adds one replica to the stage with the largest
    queueing share.
    """

    def __init__(self, profile: LatencyProfile, slo: SLOSpec, policies: PolicySet,
                 gpu_budget: int, max_batch: dict = DEFAULT_MAX_BATCH):
        self.profile = profile
        self.slo = slo
        self.policies = policies
        self.roles = POOL_ROLES[policies.topology]
        self.gpu_budget = gpu_budget
        # The engine's per-stage batch caps; batching inflates completion
        # latency of compute-bound stages, which capacity planning prices in.
        self.max_batch = max_batch
        self._low_windows: dict[str, int] = {}

    def _capacity(self, pool: str, tp: int) -> float:
        """Token rate one instance of ``pool`` sustains, priced by the work
        its role gives it under the topology."""
        p, slo, roles = self.profile, self.slo, self.roles
        if pool == roles.decode:
            return max(p.decode_max_capacity(tp, slo, self.max_batch["decode"]), 1e-9)
        if pool == roles.text and roles.colocated_encoder:
            # Encode and prefill share the instance's GPU: the monolith job.
            service, job = p.monolith_job(tp)
            # A one-token text prompt prices exactly the prefill rate at a TP.
            text_service = slo.ttft_base_text_ms * p.prefill_latency(1, 0, tp) / p.prefill_latency(
                1, 0, p.model.default_tp_text)
            slack = min(slo.ttft_slo_ms(True) - service, slo.ttft_slo_ms(False) - text_service)
            cap = self.max_batch["prefill"]
        else:
            stage = StageKind.PREFILL if pool == roles.text else StageKind.ENCODE
            service, job = p.stage_job(stage, tp)
            slack = p.stage_slo_share_ms(stage, slo) - service
            cap = self.max_batch[stage.value]
        # The tail factor shrinks only the queueing slack, which targets tail waits.
        slack /= max(self.policies.capacity_tail_factor, 1e-9)
        return max(batch_aware_capacity_tokens_per_s(service, job, slack, cap), 1e-9)

    def _load(self, pool: str, window: LoadWindow) -> float:
        """The offered token rate ``pool`` serves, in the unit its capacity is priced in."""
        roles = self.roles
        if pool == roles.decode:
            return window.output_token_rate
        if pool != roles.text:
            return window.image_token_rate
        if not roles.colocated_encoder and self.profile.model.architecture is Architecture.CRO_ATTN:
            return window.text_token_rate
        return window.total_token_rate

    def _target(self, kind: str, window: LoadWindow, current: PoolState) -> int:
        mc = self._capacity(kind, current.tp)
        ml = self._load(kind, window)
        want = max(1, math.ceil(ml / mc))
        if want < current.count:
            # Hysteresis: only shrink after sustained low utilization.
            low = ml < SHRINK_UTILIZATION * current.count * mc
            streak = self._low_windows.get(kind, 0) + 1 if low else 0
            self._low_windows[kind] = streak
            if streak < SHRINK_WINDOWS:
                return current.count
            return want
        self._low_windows[kind] = 0
        return want

    def decide(self, window: LoadWindow, pools: dict[str, PoolState]) -> ScalingDecision:
        targets = {kind: self._target(kind, window, state) for kind, state in pools.items()}
        flags = []
        if window.completed > 0 and window.slo_attainment < ATTAINMENT_THRESHOLD:
            stage_for = {"encode": self.roles.image_entry, "prefill": self.roles.text}
            delays = {s: window.queue_delay_ms.get(s, 0.0) for s in stage_for}
            worst = max(delays, key=lambda s: (delays[s], s))
            pool = stage_for[worst]
            targets[pool] += 1
            flags.append(f"attainment {window.slo_attainment:.3f} -> +1 {pool}")

        # Clamp to GPU inventory, trimming the largest GPU consumer first.
        def used():
            return sum(targets[k] * pools[k].tp for k in targets)

        if used() > self.gpu_budget:
            flags.append("clamped to inventory")
        while used() > self.gpu_budget:
            candidates = [k for k in targets if targets[k] > 1]
            if not candidates:
                break
            victim = max(candidates, key=lambda k: (targets[k] * pools[k].tp, k))
            targets[victim] -= 1
        return ScalingDecision(targets=targets, flags=flags)


def initial_sizing(summary: WorkloadSummary, profile: LatencyProfile, image_tp: int) -> dict[str, int]:
    """Starting pool sizes from workload history, or NO_HISTORY_TARGETS without one.

    Image instances cover the median image arrival rate times the median
    per-image encode latency at ``image_tp``; text instances follow from the
    median number of images per request.
    """
    if summary.empty or summary.median_image_qps <= 0:
        return dict(NO_HISTORY_TARGETS)
    tiles = max(1, int(round(summary.median_image_tiles)))
    encode_s = profile.encode_latency(tiles, image_tp) / 1000.0
    n_image = max(1, math.ceil(summary.median_image_qps * encode_s))
    images_per_req = max(1.0, summary.median_images_per_request)
    n_text = max(1, math.ceil(n_image / images_per_req))
    return {"image": n_image, "text": n_text}


def select_sharding(kind: str, profile: LatencyProfile, slo: SLOSpec, max_tp: int) -> tuple[int, bool]:
    """TP degree maximizing per-GPU capacity among SLO-feasible choices of
    at most ``max_tp`` (the GPUs of one server, which holds an instance).

    Returns (tp, feasible); when nothing meets the latency share, the
    largest supported TP is returned with feasible=False.
    """
    if kind == "image":
        stage = StageKind.ENCODE
        candidates = sorted(profile.model.supported_tp_encoder)
    else:
        stage = StageKind.PREFILL
        candidates = [1, 2, 4, 8]
    candidates = [tp for tp in candidates if tp <= max_tp]
    share = profile.stage_slo_share_ms(stage, slo)
    best_tp = None
    best_score = -1.0
    for tp in candidates:
        service, job = profile.stage_job(stage, tp)
        if service > share:
            continue
        score = batch_aware_capacity_tokens_per_s(service, job, share - service, 1) / tp
        if score > best_score + 1e-12:
            best_score = score
            best_tp = tp
    if best_tp is None:
        return candidates[-1], False
    return best_tp, True


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
@dataclass
class ServerView:
    server_id: int
    gpus_total: int
    gpus_free: int
    hosts_text: bool = False


def place(additions: list[tuple[str, int]], servers: list[ServerView],
          mode: PlacementKind) -> tuple[list[tuple[str, int, int]], list[tuple[str, int]]]:
    """Map new instances to servers.

    Colocation puts one text-family instance per server first, then packs
    image instances into the leftover GPUs of those servers (best-fit),
    spilling onto the emptiest remaining servers. Spread round-robins all
    instances across servers. Returns (placements, unplaced).
    """
    servers = sorted(servers, key=lambda s: s.server_id)
    placements: list[tuple[str, int, int]] = []
    unplaced: list[tuple[str, int]] = []

    if mode is PlacementKind.SPREAD:
        cursor = 0
        for kind, tp in additions:
            placed = False
            for off in range(len(servers)):
                srv = servers[(cursor + off) % len(servers)]
                if srv.gpus_free >= tp:
                    srv.gpus_free -= tp
                    placements.append((kind, tp, srv.server_id))
                    cursor = (cursor + off + 1) % len(servers)
                    placed = True
                    break
            if not placed:
                unplaced.append((kind, tp))
        return placements, unplaced

    text_like = [(k, tp) for k, tp in additions if is_text_family(k)]
    image_like = [(k, tp) for k, tp in additions if not is_text_family(k)]

    for kind, tp in sorted(text_like, key=lambda a: -a[1]):
        pool = [s for s in servers if s.gpus_free >= tp]
        if not pool:
            unplaced.append((kind, tp))
            continue
        fresh = [s for s in pool if not s.hosts_text]
        srv = min(fresh or pool, key=lambda s: (-s.gpus_free, s.server_id))
        srv.gpus_free -= tp
        srv.hosts_text = True
        placements.append((kind, tp, srv.server_id))

    for kind, tp in sorted(image_like, key=lambda a: -a[1]):
        pool = [s for s in servers if s.gpus_free >= tp]
        if not pool:
            unplaced.append((kind, tp))
            continue
        with_text = [s for s in pool if s.hosts_text]
        if with_text:
            srv = min(with_text, key=lambda s: (s.gpus_free, s.server_id))
        else:
            srv = min(pool, key=lambda s: (-s.gpus_free, s.server_id))
        srv.gpus_free -= tp
        placements.append((kind, tp, srv.server_id))

    return placements, unplaced
