"""Deterministic discrete-event simulator of a multimodal serving cluster.

Instances expose up to three lanes: a CPU lane for preprocessing, a GPU lane
for encode/prefill batches, and a decode lane running continuous batching.
Decode progress is advanced analytically between membership changes, which
keeps event counts proportional to requests rather than generated tokens
while preserving batch-dependent per-token latency.

Event ordering is total: (time, event-type rank, sequence number), so a run
is bit-reproducible for a fixed (workload, config, seed). Arrivals are not
pushed on the event heap: the run reads them from the sorted workload beside
it, and the next arrival goes first iff (arrival time, EV_ARRIVAL) is below
the heap head's (time, kind). That is the order one heap of all events would
give, because it would never hold two arrivals at once.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
import math
import operator
from bisect import bisect_left, bisect_right, insort
from collections import deque
from collections.abc import Callable
# Bound here, so bench/tracing.py's stand-in ``heapq`` sees only event-heap calls.
from heapq import heappop as _heappop, heappush as _heappush
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import Request, SLOSpec, StageKind
from .profiles import LatencyProfile
from . import policies as pol
from .policies import (
    DEFAULT_MAX_BATCH,
    AutoscalerKind,
    POOL_ROLES,
    PolicySet,
    SchedulerKind,
    ServerView,
    TokenAwareAutoscaler,
    PoolState,
    is_text_family,
)


class SimulationError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Transfer model
# ----------------------------------------------------------------------
class TransferMedium(str, Enum):
    NONE = "none"
    RDMA = "rdma"
    TCP = "tcp"


_Z99 = 2.3263478740408408
# Lognormal (mu, sigma) hitting the observed (P50, P99) latencies in ms.
_TRANSFER_PARAMS = {
    TransferMedium.RDMA: (math.log(2.0), math.log(5.0 / 2.0) / _Z99),
    TransferMedium.TCP: (math.log(100.0), math.log(180.0 / 100.0) / _Z99),
}


def sample_transfer_ms(medium: TransferMedium, rng: np.random.Generator) -> float:
    if medium is TransferMedium.NONE:
        return 0.0
    mu, sigma = _TRANSFER_PARAMS[medium]
    return math.exp(mu + sigma * rng.standard_normal())


# ----------------------------------------------------------------------
# Work items and batch formation
# ----------------------------------------------------------------------
@dataclass(slots=True)
class WorkItem:
    """One stage of one request (or one image shard of it) on a batch lane.

    It carries its request and that request's record, so a lane reaches
    both without a lookup by id.
    """

    seq: int
    stage: StageKind
    size_tokens: int
    tiles: int
    enqueue_ms: float
    ttft_slo_ms: float
    req: Request
    rec: RequestRecord


def form_batch(queue: list[WorkItem], now: float, scheduler: SchedulerKind,
               aging_slo_fraction: float, max_batch: dict) -> list[WorkItem]:
    """Take the next batch off ``queue``: scheduler order, one stage, capped."""
    order = pol.schedule_order(queue, now, scheduler, aging_slo_fraction)
    if not order:
        return []
    stage = queue[order[0]].stage
    # A StageKind member hashes and compares as its value, so it finds its
    # cap in ``max_batch``, keyed by stage name, without reading ``.value``.
    cap = max_batch.get(stage, 1)
    picked = [i for i in order if queue[i].stage is stage][:cap]
    batch = [queue[i] for i in picked]
    queue[:] = [it for i, it in enumerate(queue) if i not in picked]
    return batch


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
class InstanceState(str, Enum):
    STARTING = "starting"
    ACTIVE = "active"
    DRAINING = "draining"
    STOPPED = "stopped"


# The members the event path tests, bound once: under CPython 3.11, reading
# a member off its Enum class costs several times reading a global.
_PREPROCESS, _ENCODE, _PREFILL = StageKind.PREPROCESS, StageKind.ENCODE, StageKind.PREFILL
_ACTIVE, _DRAINING = InstanceState.ACTIVE, InstanceState.DRAINING


# Tolerance in decode steps: a member this close to its finish has finished.
_EPS = 1e-6


class DecodeLane:
    """Continuous batching on a virtual clock, at no cost per member per step.

    ``progress + frac`` counts the decode steps served, in whole steps and a
    fraction in [0, 1), so a remaining count keeps its precision however long
    the lane runs. Members wait in ``heap`` by the (whole, fraction) at which
    they finish. ``served[step_ms]`` counts the steps run at each batch size's
    step time: a member's TBT samples are what it gained while a member.
    ``touched[step_ms]`` is the ``tick`` of that entry's last advance, in
    last-advanced order, so a completion reads only the entries advanced
    since its request joined; every other entry gained it exactly 0.
    ``peak_ticks`` and ``peak_sizes`` are the suffix maxima of the batch
    sizes advanced at: ticks rising, sizes falling, and ``peak_sizes[i]`` is
    the largest batch size of any advance from ``peak_ticks[i]`` on. Their
    first entry, tick 0 and size ``cap + 1``, precedes every advance.

    ``steps_ms[n]`` is the step time at batch size ``n`` and TP ``tp``, or
    None until a lane of that TP first runs ``n`` members; the lanes of one
    TP share the list and fill it from ``tbt_latency(n, tp)``. Step times do
    not fall as the batch grows (``decode_batch_slope >= 0``), which the
    top-down read of ``_p99`` relies on.
    """

    __slots__ = ("members", "heap", "served", "touched", "tick", "progress", "frac", "step_ms",
                 "size", "peak_ticks", "peak_sizes", "anchor_ms", "epoch", "admit_queue", "cap",
                 "tp", "_steps_ms", "_tbt_latency")

    def __init__(self, cap: int, tp: int, steps_ms: list[float | None],
                 tbt_latency: Callable[[int, int], float]):
        # rid -> (served at join, tick at join, admit wait or 0.0, decode steps)
        self.members: dict[int, tuple[dict, int, float, int]] = {}
        self.heap: list[tuple[float, float, int]] = []  # (whole, fraction of finish, rid)
        self.served: dict[float, float] = {}  # a plain dict: it copies faster than a defaultdict
        self.touched: dict[float, int] = {}
        self.peak_ticks: list[int] = [0]
        self.peak_sizes: list[int] = [cap + 1]
        self.progress = self.frac = self.step_ms = self.anchor_ms = 0.0
        self.epoch = self.tick = self.size = 0
        self.admit_queue: deque[tuple[int, float, int]] = deque()  # (rid, queued_ms, steps)
        self.cap = cap
        self.tp = tp
        self._steps_ms = steps_ms
        self._tbt_latency = tbt_latency

    def load(self) -> int:
        return len(self.members) + len(self.admit_queue)

    def advance(self, now: float) -> None:
        if self.members and now > self.anchor_ms:
            step = self.step_ms
            steps = (now - self.anchor_ms) / step
            whole, self.frac = divmod(self.frac + steps, 1.0)
            self.progress += whole
            served, touched = self.served, self.touched
            served[step] = served.get(step, 0.0) + steps
            self.tick = tick = self.tick + 1
            touched.pop(step, None)
            touched[step] = tick
            size, ticks, sizes = self.size, self.peak_ticks, self.peak_sizes
            while sizes[-1] <= size:  # never the first entry, cap + 1
                sizes.pop()
                ticks.pop()
            sizes.append(size)
            ticks.append(tick)
        self.anchor_ms = now

    def _join(self, rid: int, steps: int, wait: float) -> None:
        _heappush(self.heap, (self.progress + steps, self.frac, rid))
        self.members[rid] = (self.served.copy(), self.tick, wait if wait > _EPS else 0.0, steps)

    def admit(self, rid: int, steps: int, now: float) -> bool:
        """Join the batch at ``now`` if it has room, else queue; True if it joined."""
        if len(self.members) >= self.cap:
            self.admit_queue.append((rid, now, steps))
            return False
        self.advance(now)
        self._join(rid, steps, 0.0)
        return True

    def pop_finished(self, now: float) -> list[tuple[int, float | None]]:
        """Advance to ``now``, pop the finished as (rid, TBT P99 or None), refill from the queue."""
        self.advance(now)
        heap, members, done = self.heap, self.members, []
        progress, frac = self.progress, self.frac
        # ``remaining`` inlined: the same float expression, against the clock just advanced.
        while heap and (heap[0][0] - progress) + (heap[0][1] - frac) <= _EPS:
            rid = _heappop(heap)[2]
            done.append((rid, self._p99(*members.pop(rid))))
        while self.admit_queue and len(self.members) < self.cap:
            rid, ready, steps = self.admit_queue.popleft()
            self._join(rid, steps, now - ready)
        return done

    def _p99(self, joined: dict, since: int, wait: float, steps: int) -> float | None:
        """``weighted_quantile(samples, 0.99)`` of a finished member, read from the top.

        The samples are the admit wait (weight 1) and, per step time advanced
        at since the join, the steps gained at it. Walking down the batch
        sizes from the largest run since the join meets the step times in
        falling order; the answer is the first value at which the weight
        from the top exceeds 1 % of T, the member's decode steps plus 1 for
        a wait. The weights' sum W is not exactly T, so the read decides
        only on a running weight more than ``margin`` off that line, where
        ``margin`` bounds how far the sorted walk's line and sums can lie
        from this read's:
          - 0.01 * |W - T|: a member finishes within _EPS = 1e-6 steps of
            its count, or past it by a rounding of the event time, and the
            weights carry the rounding of the lane's ``tick - since``
            additions to ``served`` and of one subtraction per step time;
          - the rounding of the sums, two in weighted_quantile and one here,
            of at most ``size + 1`` terms each.
        Each rounding errs by at most 2**-53 of a value below
        ``progress + T + 1``, which the second term of ``margin`` covers;
        its first, 2e-8, covers 0.01 * _EPS, an overshoot of up to 9.9e-7
        steps and weighted_quantile's 1e-12. Otherwise, or if the weight
        never clears the line, the full walk decides.
        """
        ticks = self.peak_ticks
        i = bisect_right(ticks, since)
        if i < len(ticks):
            size = self.peak_sizes[i]
            total = steps + 1.0 if wait else float(steps)
            margin = 2e-8 + 4e-16 * (self.tick - since + size + 2) * (self.progress + total + 1.0)
            line = 0.01 * total
            low, high = line - margin, line + margin
            table, served, touched = self._steps_ms, self.served, self.touched
            above = last = 0.0
            rank = wait  # the wait, until the walk passes its value
            for n in range(size, 0, -1):
                step = table[n]
                if step is None or step == last:
                    continue
                last = step
                if rank >= step:
                    rank = 0.0
                    above += 1.0
                    if above > high:
                        return wait
                    if above >= low:
                        break
                if touched.get(step, 0) > since:
                    above += served[step] - joined.get(step, 0.0)
                    if above > high:
                        return step
                    if above >= low:
                        break
            else:
                if rank and above + 1.0 > high:
                    return wait
        return self._full_walk(joined, since, wait)

    def _full_walk(self, joined: dict, since: int, wait: float) -> float | None:
        """``weighted_quantile`` over all of a finished member's TBT samples, None if it has none."""
        tbt = [(wait, 1.0)] if wait else []
        served = self.served
        for step, tick in reversed(self.touched.items()):
            if tick <= since:
                break
            if w := served[step] - joined.get(step, 0.0):
                tbt.append((step, w))
        return weighted_quantile(tbt, 0.99) if tbt else None

    def remaining(self, entry: tuple[float, float, int]) -> float:
        return (entry[0] - self.progress) + (entry[1] - self.frac)

    def restart(self) -> float | None:
        """Start a step period from the last advance: the time to the next completion, None if empty."""
        self.epoch += 1
        n = len(self.members)
        if not n:
            return None
        step = self._steps_ms[n]
        if step is None:
            step = self._steps_ms[n] = self._tbt_latency(n, self.tp)
        self.step_ms, self.size = step, n
        whole, frac, _rid = self.heap[0]
        return max(((whole - self.progress) + (frac - self.frac)) * step, 0.0)  # ``remaining``, inlined


class Lane:
    """A batch lane: work items queued in (enqueue_ms, seq) order, one batch
    running at a time, and the event kind pushed when a batch ends.

    A lane that is not busy holds no queued work between events.
    """

    __slots__ = ("queue", "busy", "free_event")

    def __init__(self, free_event: int):
        self.queue: list[WorkItem] = []
        self.busy = False
        self.free_event = free_event


class Instance:
    def __init__(self, inst_id: int, pool: str, tp: int, server_id: int, cpu_cores: int,
                 decode: DecodeLane, index: LoadIndex | None):
        self.id = inst_id
        self.pool = pool  # image | text | prefill | decode | monolith
        self.index = index  # the pool's load index; None if the pool is not routed
        self.tp = tp
        self.server_id = server_id
        self.cpu_cores = cpu_cores
        self.state = InstanceState.STARTING  # until Simulation._spawn sets it
        self.cpu = Lane(EV_CPU_FREE)  # preprocess
        self.gpu = Lane(EV_GPU_FREE)  # encode and prefill
        self.decode = decode
        # Tokens routed here and not yet served, in total and per request id
        # as (text, image); any entry, even a (0, 0) decode hand-off, is work
        # still on its way, so the instance is not idle.
        self.pending_text_tokens = 0
        self.pending_image_tokens = 0
        self.reserved: dict[int, tuple[int, int]] = {}
        self.stopped_ms: float | None = None

    def idle(self) -> bool:
        cpu, gpu = self.cpu, self.gpu
        return not (cpu.busy or cpu.queue or gpu.busy or gpu.queue or self.decode.load() or self.reserved)

    def __repr__(self):
        return f"<Instance {self.id} {self.pool} tp={self.tp} {self.state.value}>"


_instance_id = operator.attrgetter("id")
_arrival_ms = operator.attrgetter("arrival_ms")
_arrival_order = operator.attrgetter("arrival_ms", "id")


class LoadIndex:
    """One routed pool's ACTIVE instances, in id order and by (load, id).

    ``key`` is the pool's least-pending load (``policies.load_key``). The
    engine adds and removes instances as they enter and leave ACTIVE and
    calls ``update`` whenever an active instance's load may have changed.
    The routers take the index itself: round-robin walks ``active``, and
    least-pending takes the head of the sequence, which reads in (load, id)
    order, instead of scanning the pool.
    """

    def __init__(self, key, instances: dict[int, Instance]):
        self.key = key
        self.active: list[Instance] = []
        self.by_load: list[tuple[int, int]] = []
        self._entry: dict[int, tuple[int, int]] = {}  # instance id -> its by_load entry
        self._instances = instances

    def add(self, inst: Instance) -> None:
        insort(self.active, inst, key=_instance_id)
        entry = (self.key(inst), inst.id)
        insort(self.by_load, entry)
        self._entry[inst.id] = entry

    def remove(self, inst: Instance) -> None:
        del self.active[bisect_left(self.active, inst.id, key=_instance_id)]
        entry = self._entry.pop(inst.id)
        del self.by_load[bisect_left(self.by_load, entry)]

    def update(self, inst: Instance) -> None:
        old = self._entry[inst.id]
        load = self.key(inst)
        if load != old[0]:
            by_load = self.by_load
            del by_load[bisect_left(by_load, old)]
            self._entry[inst.id] = new = (load, inst.id)
            insort(by_load, new)

    def __len__(self) -> int:
        return len(self.by_load)

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return [self._instances[i] for _, i in self.by_load[pos]]
        return self._instances[self.by_load[pos][1]]


@dataclass
class ServerSpec:
    server_id: int
    gpus: int
    cpu_cores: int


@dataclass
class InstancePlan:
    pool: str
    tp: int
    count: int


# ----------------------------------------------------------------------
# Per-request accounting
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RequestRecord:
    request_id: int
    service_id: str
    multimodal: bool
    arrival_ms: float
    text_tokens: int
    image_tokens: int
    output_tokens: int
    n_images: int
    ttft_slo_ms: float = 0.0
    tbt_slo_ms: float = 0.0
    prep_start_ms: float | None = None
    prep_end_ms: float | None = None
    encode_start_ms: float | None = None
    encode_end_ms: float | None = None
    transfer_end_ms: float | None = None
    prefill_start_ms: float | None = None
    prefill_end_ms: float | None = None
    completion_ms: float | None = None
    ttft_ms: float | None = None
    tbt_p99_ms: float | None = None
    slo_ok: bool | None = None

    @property
    def completed(self) -> bool:
        return self.completion_ms is not None

    @property
    def modality(self) -> str:
        return "image-text" if self.multimodal else "text-only"


CSV_FIELDS = [
    "request_id", "service_id", "modality", "arrival_ms", "text_tokens", "image_tokens",
    "output_tokens", "n_images", "prep_start_ms", "prep_end_ms", "encode_start_ms",
    "encode_end_ms", "transfer_end_ms", "prefill_start_ms", "prefill_end_ms",
    "ttft_ms", "completion_ms", "tbt_p99_ms", "ttft_slo_ms", "tbt_slo_ms", "slo_ok",
]


class MetricsLog:
    """Per-request stage timestamps plus cluster allocation over time."""

    def __init__(self, horizon_ms: float, seed: int):
        self.horizon_ms = horizon_ms
        self.seed = seed
        self.records: dict[int, RequestRecord] = {}
        self.allocation_log: list[tuple[float, int]] = []
        self.scale_events: list[dict] = []
        self.arrived = 0
        self.completed = 0
        # When a run ended before its horizon because a miss budget was
        # exceeded or its verdict was decided elsewhere
        # (Simulation.stop_when_missed); None for a full run.
        self.stopped_ms: float | None = None

    @property
    def in_flight(self) -> int:
        return self.arrived - self.completed

    def completed_records(self) -> list[RequestRecord]:
        return [r for r in self.records.values() if r.completed]

    def gpu_seconds(self) -> float:
        total = 0.0
        log = self.allocation_log
        for (t0, g), (t1, _) in zip(log, log[1:]):
            total += g * (t1 - t0)
        if log:
            t_last, g_last = log[-1]
            total += g_last * max(0.0, self.horizon_ms - t_last)
        return total / 1000.0

    def peak_gpus(self) -> int:
        return max((g for _, g in self.allocation_log), default=0)

    def to_csv(self, path) -> None:
        """One row per record, streamed to ``path``; ``_csv_row_format`` gives the cells."""
        row = operator.attrgetter(*CSV_FIELDS)
        formats: dict[tuple[type, ...], tuple[str, tuple]] = {}
        cell = functools.cache(_csv_text)
        with open(path, "w", newline="") as fh:
            write = fh.write
            write(",".join(CSV_FIELDS) + "\r\n")
            for rec in self.records.values():
                values = row(rec)
                kinds = tuple(map(type, values))
                fmt = formats.get(kinds)
                if fmt is None:
                    fmt = formats[kinds] = _csv_row_format(kinds)
                template, texts = fmt
                if texts:
                    values = list(values)
                    for i, to_text in texts:
                        values[i] = cell(to_text(values[i]))
                    values = tuple(values)
                write(template % values)


def _csv_text(text: str) -> str:
    """``text`` as a cell of the default ``csv`` dialect (QUOTE_MINIMAL):
    quoted, its quotes doubled, if it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_row_format(kinds: tuple[type, ...]) -> tuple[str, tuple]:
    """The ``%`` template of a CSV row whose values have these types, and the
    ``(index, to_text)`` of each value that goes in as ``_csv_text`` of its text.

    A cell is empty for None, four decimals for a float (or a subclass),
    0/1 for a bool and decimal for an int; any other value is its text, a
    string's own characters, quoted as ``csv.writer`` quotes it.
    """
    specs, texts = [], []
    for i, kind in enumerate(kinds):
        if kind is type(None):
            specs.append("%.0s")  # str(None) cut to no characters
        elif issubclass(kind, float):
            specs.append("%.4f")
        elif kind is bool or kind is int:
            specs.append("%d")
        else:
            specs.append("%s")
            texts.append((i, str.__str__ if issubclass(kind, str) else str))
    return ",".join(specs) + "\r\n", tuple(texts)


def weighted_quantile(pairs: list[tuple[float, float]], q: float) -> float:
    """Nearest-rank (lower) quantile over weighted samples.

    The answer is the first value, in sorted order, whose running weight
    reaches ``q`` of the total, less 1e-12. The total is the same
    left-to-right sum as the running weights (``sum`` compensates its
    rounding from Python 3.12), so the last running weight is the total.
    """
    if len(pairs) < 2:  # the one value is every quantile
        return pairs[0][0] if pairs else 0.0
    ordered = sorted(pairs)
    total = 0.0
    for _, w in ordered:
        total += w
    target = q * total - 1e-12
    running = 0.0
    for value, w in ordered:
        running += w
        if running >= target:
            return value
    return value


# ----------------------------------------------------------------------
# Event kinds (the int doubles as the tie-break rank)
# ----------------------------------------------------------------------
EV_INSTANCE_STARTED = 0
EV_CPU_FREE = 1
EV_GPU_FREE = 2
EV_DECODE_DONE = 3
EV_TRANSFER_DONE = 4
EV_DECODE_ARRIVAL = 5
EV_ARRIVAL = 6
EV_SCALE_TICK = 7


class StageFacts(NamedTuple):
    """One stage a batch lane runs: the RequestRecord stamps it sets (the
    first start and the last end across a request's shards), and whether
    its queueing delay counts in the autoscaler's window. How long a batch
    of it runs is stated in ``Simulation._dispatch``."""

    start: str
    end: str
    waits: bool


_STAGES = {
    StageKind.PREPROCESS: StageFacts("prep_start_ms", "prep_end_ms", False),
    StageKind.ENCODE: StageFacts("encode_start_ms", "encode_end_ms", True),
    StageKind.PREFILL: StageFacts("prefill_start_ms", "prefill_end_ms", True),
}
_NO_ARRIVAL = (math.inf, EV_ARRIVAL)  # the arrival key once the workload is spent


class Simulation:
    def __init__(
        self,
        profile: LatencyProfile,
        slo: SLOSpec,
        policies: PolicySet,
        servers: list[ServerSpec],
        instance_plan: list[InstancePlan],
        workload: list[Request],
        horizon_ms: float,
        seed: int = 0,
        transfer_medium: TransferMedium = TransferMedium.RDMA,
        max_batch: dict | None = None,
        scale_interval_ms: float = 300_000.0,
        start_delay_ms: float = 60_000.0,
        validate: bool = False,
    ):
        if not 0 <= profile.decode_batch_slope < math.inf:  # see DecodeLane._p99
            raise SimulationError(f"decode_batch_slope must be finite and >= 0, "
                                  f"got {profile.decode_batch_slope}")
        self.model = profile.model
        self.profile = profile
        self.slo = slo
        # The SLO targets, indexed by Request.is_multimodal for TTFT.
        self._ttft_slo_ms = (slo.ttft_slo_ms(False), slo.ttft_slo_ms(True))
        self._tbt_slo_ms = slo.tbt_slo_ms
        self.policies = policies
        self.roles = POOL_ROLES[policies.topology]
        self.servers = {s.server_id: s for s in servers}
        # The arrivals, in (arrival_ms, id) order, up to the horizon.
        self.workload = sorted(workload, key=_arrival_order)
        del self.workload[bisect_right(self.workload, horizon_ms, key=_arrival_ms):]
        self.horizon_ms = horizon_ms
        self.seed = seed
        self.transfer_medium = transfer_medium
        self.max_batch = dict(DEFAULT_MAX_BATCH)
        if max_batch:
            self.max_batch.update(max_batch)
        self.autoscaler = None
        if policies.autoscaler is AutoscalerKind.TOKEN_AWARE:
            # Priced for the batches the engine forms: its caps, merged with the config's.
            self.autoscaler = TokenAwareAutoscaler(profile, slo, policies,
                                                   sum(s.gpus for s in servers), self.max_batch)
        self.scale_interval_ms = scale_interval_ms
        self.start_delay_ms = start_delay_ms
        self.validate = validate

        self.now = 0.0
        self.rng = np.random.default_rng(seed)
        self.heap: list = []
        self._event_seqs = itertools.count(1)  # the tie-break of events at one (time, kind)
        self.instances: dict[int, Instance] = {}
        self._next_instance_id = 0
        self._item_seqs = itertools.count(1)  # a lane queue's tie-break at one enqueue_ms
        # Image-bearing requests that found no active image instance, in
        # arrival order; routed again when an instance starts. Text-family
        # pools always keep an active instance, so nothing waits for them.
        self.image_waiting: list[tuple[Request, RequestRecord]] = []
        self.rr_state: dict[str, int] = {}
        self.shards_pending: dict[int, int] = {}
        self.log = MetricsLog(horizon_ms, seed)
        self.tally: tuple[list[int], ...] | None = None  # see stop_when_missed
        self._pool_tp = {entry.pool: entry.tp for entry in instance_plan}
        # Decode step times by batch size, one list per TP (see DecodeLane).
        self._steps_ms = {entry.tp: [None] * (self.max_batch["decode"] + 1) for entry in instance_plan}
        # One load index per routed pool, keyed by the load its router uses.
        routed = {self.roles.text: pol.load_key("text", self.model.architecture)}
        if not self.roles.colocated_encoder:
            routed[self.roles.image_entry] = pol.load_key("image")
        if self.roles.decode is not None:
            routed[self.roles.decode] = pol.load_key("decode")
        self.load_index = {pool: LoadIndex(key, self.instances) for pool, key in routed.items()}

        # Window accumulators for autoscaling decisions.
        self._win_reset()

        unplaced = self._place([(e.pool, e.tp) for e in instance_plan for _ in range(e.count)],
                               starting=False)
        if unplaced:
            raise SimulationError(f"initial instances do not fit inventory: {unplaced}")
        for pool in (self.roles.text, self.roles.decode):
            if pool is not None and not self.load_index[pool].active:
                raise SimulationError(f"cluster needs at least one {pool} instance")
        self._allocation_changed()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _place(self, additions: list[tuple[str, int]], starting: bool) -> list[tuple[str, int]]:
        """Place new (pool, tp) instances on the servers' free GPUs and spawn
        them; returns the ones that did not fit."""
        placements, unplaced = pol.place(additions, self._server_views(), self.policies.placement)
        for pool, tp, server_id in placements:
            self._spawn(pool, tp, server_id, starting)
        return unplaced

    def _spawn(self, pool: str, tp: int, server_id: int, starting: bool) -> Instance:
        server = self.servers[server_id]
        cores = max(1, server.cpu_cores * tp // server.gpus)
        lane = DecodeLane(self.max_batch["decode"], tp, self._steps_ms[tp], self.profile.tbt_latency)
        inst = Instance(self._next_instance_id, pool, tp, server_id, cores, lane,
                        self.load_index.get(pool))
        self._next_instance_id += 1
        self.instances[inst.id] = inst
        if starting:
            self._push(self.now + self.start_delay_ms, EV_INSTANCE_STARTED, inst.id)
        else:
            self._set_state(inst, InstanceState.ACTIVE)
        return inst

    def _set_state(self, inst: Instance, state: InstanceState) -> None:
        """Every state change goes through here, so each load index holds
        exactly the ACTIVE instances of its pool."""
        index = inst.index
        active = InstanceState.ACTIVE
        if index is not None and (inst.state is active) != (state is active):
            if state is active:
                index.add(inst)
            else:
                index.remove(inst)
        inst.state = state
        if state is InstanceState.STOPPED:
            inst.stopped_ms = self.now

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, time_ms: float, kind: int, data=None) -> None:
        heapq.heappush(self.heap, (time_ms, kind, next(self._event_seqs), data))

    def _allocation_changed(self) -> None:
        gpus = sum(i.tp for i in self.instances.values() if i.state is not InstanceState.STOPPED)
        log = self.log.allocation_log
        if log and log[-1][0] == self.now:
            log[-1] = (self.now, gpus)
        else:
            log.append((self.now, gpus))

    def _win_reset(self) -> None:
        self._win_text_tokens = 0
        self._win_image_tokens = 0
        self._win_output_tokens = 0
        self._win_completed = 0
        self._win_slo_ok = 0
        # Queueing delay of the stages the autoscaler weighs, as [total, count].
        self._win_wait = {stage: [0.0, 0] for stage, facts in _STAGES.items() if facts.waits}

    # ------------------------------------------------------------------
    # Pools and routing
    # ------------------------------------------------------------------
    # Instance ids only increase, so self.instances is in id order and so
    # is this list.
    def _live(self, pool: str) -> list[Instance]:
        """The instances that count toward a pool's size: active or starting."""
        return [i for i in self.instances.values()
                if i.pool == pool and i.state in (InstanceState.ACTIVE, InstanceState.STARTING)]

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def stop_when_missed(self, budgets: dict[str, int], after_ms: float,
                         decided: Callable[[], bool] | None = None) -> None:
        """End the run once a group's SLO misses exceed its budget, or once
        ``decided()`` is true.

        The groups are "text-only" and "image-text" (TTFT over its SLO) and
        "tbt" (TBT P99 over its SLO). ``tally`` holds each group's
        [completions, misses, budget] in that order, counted as requests that
        arrived at or after ``after_ms`` complete; "tbt" counts only those
        with TBT samples. ``decided`` is polled at every completion. The run
        ends at the next event and its log's ``stopped_ms`` says when; the
        partial log means nothing beyond the reason it stopped.
        """
        self.tally = tuple([0, 0, budgets[group]] for group in ("text-only", "image-text", "tbt"))
        self._miss_after_ms = after_ms
        self._decided = decided

    def _missed(self, counts: list[int]) -> None:
        counts[1] += 1
        if counts[1] > counts[2]:
            self._stop()

    def _stop(self) -> None:
        self.log.stopped_ms = self.now
        self._stop_ms = -math.inf  # the loop's next pop ends the run

    def run(self) -> MetricsLog:
        """Run the event loop to the horizon (or to a stop) and return the log.

        Arrivals are read from ``workload`` beside the event heap: the next
        one goes first iff ``(arrival_ms, EV_ARRIVAL)`` is below the heap
        head's ``(time, kind)``. That is the order one heap holding every
        event would give, because the heap would never hold two arrivals at
        once: each arrival would push the next as it is handled.

        The cyclic garbage collector is paused while the loop runs and left
        as the caller had it: the loop creates no reference cycles, so
        reference counting frees all it discards and a collection would
        only scan the live records and events.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            if self.autoscaler is not None:
                self._push(self.scale_interval_ms, EV_SCALE_TICK)

            handlers = {
                EV_INSTANCE_STARTED: self._on_instance_started,
                EV_CPU_FREE: self._on_lane_free,
                EV_GPU_FREE: self._on_lane_free,
                EV_DECODE_DONE: self._on_decode_done,
                EV_TRANSFER_DONE: self._on_transfer_done,
                EV_DECODE_ARRIVAL: self._on_decode_arrival,
                EV_SCALE_TICK: self._on_scale_tick,
            }
            on_arrival = self._on_arrival
            self._stop_ms = self.horizon_ms
            reached_stop = False
            heap, validate, workload = self.heap, self.validate, self.workload
            # Read at the start of the run, so a stand-in ``heapq`` (bench/tracing.py) sees every pop.
            heappop = heapq.heappop
            n_arrivals, arrived = len(workload), 0
            arrival = (workload[0].arrival_ms, EV_ARRIVAL) if workload else _NO_ARRIVAL
            while True:
                if heap and heap[0] < arrival:
                    time_ms, kind, _seq, data = heappop(heap)
                    if time_ms > self._stop_ms:
                        reached_stop = True
                        break
                    self.now = time_ms
                    handlers[kind](data)
                elif arrived < n_arrivals:
                    if arrival[0] > self._stop_ms:
                        reached_stop = True
                        break
                    self.now = arrival[0]
                    arrived += 1
                    arrival = ((workload[arrived].arrival_ms, EV_ARRIVAL) if arrived < n_arrivals
                               else _NO_ARRIVAL)
                    on_arrival(arrived - 1)
                else:
                    break
                if validate:
                    self._check_invariants()

            if not reached_stop and self.log.in_flight and self.log.stopped_ms is None:
                raise SimulationError(self._deadlock_dump())
        finally:
            if gc_was_enabled:
                gc.enable()
        self.now = self.horizon_ms
        self._allocation_changed()
        return self.log

    def _deadlock_dump(self) -> str:
        stuck = [r.request_id for r in self.log.records.values() if not r.completed][:10]
        insts = {
            i.id: (i.pool, i.state.value, len(i.gpu.queue), len(i.cpu.queue), i.decode.load())
            for i in self.instances.values()
        }
        return (f"deadlock: in-flight={self.log.in_flight} stuck={stuck} "
                f"image-waiting={len(self.image_waiting)} instances={insts}")

    # ------------------------------------------------------------------
    # Arrival and routing
    # ------------------------------------------------------------------
    def _on_arrival(self, idx: int) -> None:
        req = self.workload[idx]
        multimodal = req.is_multimodal
        rec = RequestRecord(req.id, req.service_id, multimodal, req.arrival_ms, req.text_tokens,
                            req.total_image_tokens, req.output_tokens, len(req.images),
                            self._ttft_slo_ms[multimodal], self._tbt_slo_ms)
        self.log.records[req.id] = rec
        self.log.arrived += 1
        self._win_text_tokens += req.text_tokens
        self._win_image_tokens += req.total_image_tokens
        self._win_output_tokens += req.output_tokens

        if multimodal and not self.roles.colocated_encoder:
            self._route_to_image_pool(req, rec)
        else:
            self._route_to_text_pool(req, rec)

    def _route_to_image_pool(self, req: Request, rec: RequestRecord) -> None:
        assignment = pol.route_image(req, self.load_index[self.roles.image_entry],
                                     self.policies.router, self.policies.max_fanout, self.rr_state)
        if assignment is None:
            self.image_waiting.append((req, rec))
            return
        self.shards_pending[req.id] = len(assignment)
        for inst, image_idx in assignment:
            self._enqueue_shard(inst, req, rec, image_idx, reserve=True)

    def _route_to_text_pool(self, req: Request, rec: RequestRecord) -> None:
        """Reserve a text instance: on arrival, or once a request's images are encoded."""
        inst = pol.route_text(req, self.load_index[self.roles.text], self.policies.router, self.rr_state)
        self._reserve(inst, req.id, req.text_tokens, req.total_image_tokens)
        if not req.is_multimodal:
            self._enqueue_prefill(inst, req, rec)
        elif self.roles.colocated_encoder:
            # The whole pipeline runs on this one instance.
            self._enqueue_shard(inst, req, rec, list(range(len(req.images))), reserve=False)
        else:
            delay = sample_transfer_ms(self.transfer_medium, self.rng)
            self._push(self.now + delay, EV_TRANSFER_DONE, (req, rec, inst))

    def _route_to_decode_pool(self, req: Request, steps: int) -> None:
        target = self.load_index[self.roles.decode][0]  # least loaded, whatever the router
        self._reserve(target, req.id, 0, 0)  # the hand-off, until it arrives
        delay = sample_transfer_ms(self.transfer_medium, self.rng)
        self._push(self.now + delay, EV_DECODE_ARRIVAL, (req.id, target.id, steps))

    def _on_transfer_done(self, data) -> None:
        req, rec, inst = data
        rec.transfer_end_ms = self.now
        self._enqueue_prefill(inst, req, rec)

    # ------------------------------------------------------------------
    # Pending-token reservations
    # ------------------------------------------------------------------
    # A request holds at most one reservation per instance: its image shards
    # go to distinct instances, and its text and decode reservations to
    # different pools. So a reservation is released whole.
    def _reserve(self, inst: Instance, rid: int, text: int, image: int) -> None:
        inst.reserved[rid] = (text, image)
        inst.pending_text_tokens += text
        inst.pending_image_tokens += image
        if inst.index is not None and inst.state is _ACTIVE:
            inst.index.update(inst)  # its load changed

    def _release(self, inst: Instance, rid: int) -> None:
        text, image = inst.reserved.pop(rid)
        inst.pending_text_tokens -= text
        inst.pending_image_tokens -= image
        if inst.index is not None and inst.state is _ACTIVE:
            inst.index.update(inst)  # its load changed

    # ------------------------------------------------------------------
    # Batch lanes: CPU (preprocess) and GPU (encode + prefill)
    # ------------------------------------------------------------------
    def _enqueue_shard(self, inst: Instance, req: Request, rec: RequestRecord,
                       image_idx: list[int], reserve: bool) -> None:
        images = req.images
        tiles = sum([images[k].tiles for k in image_idx])
        size = tiles * self.model.tokens_per_tile
        if reserve:
            self._reserve(inst, req.id, 0, size)
        inst.cpu.queue.append(WorkItem(next(self._item_seqs), _PREPROCESS, size, tiles, self.now,
                                       rec.ttft_slo_ms, req, rec))
        self._dispatch(inst, inst.cpu)

    def _enqueue_prefill(self, inst: Instance, req: Request, rec: RequestRecord) -> None:
        inst.gpu.queue.append(WorkItem(next(self._item_seqs), _PREFILL,
                                       req.text_tokens + req.total_image_tokens, 0, self.now,
                                       rec.ttft_slo_ms, req, rec))
        self._dispatch(inst, inst.gpu)

    def _dispatch(self, inst: Instance, lane: Lane) -> None:
        """Start the lane's next batch if it is free and has work queued.

        A queue of one item is its own batch: any scheduler order of one
        item is that item, and every cap is at least 1. A longer queue goes
        through ``form_batch``. The same loop then stamps each item, counts
        its wait and prices it. A prefill batch runs for the sum of its
        items' prefills; a preprocess or encode batch for its total tiles.
        """
        queue = lane.queue
        if lane.busy or not queue:
            return
        now = self.now
        if len(queue) == 1:
            batch = [queue.pop()]
        else:
            policies = self.policies
            batch = form_batch(queue, now, policies.scheduler, policies.aging_slo_fraction,
                               self.max_batch)
        stage = batch[0].stage
        start = _STAGES[stage].start
        wait = self._win_wait.get(stage)
        prefill = stage is _PREFILL
        profile, tp = self.profile, inst.tp
        service_ms, tiles = 0.0, 0
        for it in batch:
            rec = it.rec
            if getattr(rec, start) is None:
                setattr(rec, start, now)
            if wait is not None:
                wait[0] += now - it.enqueue_ms
                wait[1] += 1
            if prefill:
                req = it.req
                service_ms += profile.prefill_latency(req.text_tokens, req.total_image_tokens, tp)
            else:
                tiles += it.tiles
        if stage is _ENCODE:
            service_ms = profile.encode_latency(tiles, tp)
        elif not prefill:
            service_ms = profile.preprocess_latency(tiles, inst.cpu_cores)
        lane.busy = True
        heapq.heappush(self.heap, (now + service_ms, lane.free_event, next(self._event_seqs),
                                   (inst, lane, batch)))

    def _on_lane_free(self, data) -> None:
        inst, lane, batch = data
        lane.busy = False
        stage = batch[0].stage
        end = _STAGES[stage].end
        now = self.now
        for it in batch:
            req, rec = it.req, it.rec
            setattr(rec, end, now)
            if stage is _PREPROCESS:  # the shard's encode: its tiles and size, queued now
                inst.gpu.queue.append(WorkItem(next(self._item_seqs), _ENCODE, it.size_tokens,
                                               it.tiles, now, it.ttft_slo_ms, req, rec))
            elif stage is _ENCODE:
                self._encode_item_done(inst, req, rec)
            else:
                self._prefill_done(inst, req, rec)
        if lane is inst.cpu:
            # The batch's encodes start before the CPU lane's next batch.
            self._dispatch(inst, inst.gpu)
        if lane.queue:
            self._dispatch(inst, lane)
        if inst.state is _DRAINING:
            self._maybe_stop_drained(inst)

    def _encode_item_done(self, inst: Instance, req: Request, rec: RequestRecord) -> None:
        rid = req.id
        if inst.pool == "image":
            self._release(inst, rid)
            self.shards_pending[rid] -= 1
            if self.shards_pending[rid] == 0:
                del self.shards_pending[rid]
                self._route_to_text_pool(req, rec)
        else:
            # Colocated encoder: continue to prefill on the same instance.
            self._enqueue_prefill(inst, req, rec)

    def _prefill_done(self, inst: Instance, req: Request, rec: RequestRecord) -> None:
        rid = req.id
        rec.ttft_ms = self.now - req.arrival_ms
        self._release(inst, rid)
        decode_steps = req.output_tokens - 1
        if decode_steps <= 0:
            self._complete(rec)
            return
        if self.roles.decode is not None:
            self._route_to_decode_pool(req, decode_steps)
        else:
            self._decode_admit(inst, rid, decode_steps)

    # ------------------------------------------------------------------
    # Decode lane
    # ------------------------------------------------------------------
    def _on_decode_arrival(self, data) -> None:
        rid, inst_id, steps = data
        inst = self.instances[inst_id]
        self._release(inst, rid)
        self._decode_admit(inst, rid, steps)

    def _decode_admit(self, inst: Instance, rid: int, steps: int) -> None:
        self._decode_changed(inst, inst.decode.admit(rid, steps, self.now))

    def _on_decode_done(self, data) -> None:
        inst_id, epoch = data
        inst = self.instances[inst_id]
        if epoch != inst.decode.epoch:
            return
        records = self.log.records
        for rid, tbt_p99 in inst.decode.pop_finished(self.now):
            self._complete(records[rid], tbt_p99)
        self._decode_changed(inst, restart=True)
        if inst.state is _DRAINING:
            self._maybe_stop_drained(inst)

    def _decode_changed(self, inst: Instance, restart: bool) -> None:
        """A lane's queue, or if ``restart`` its batch, changed: reschedule it, re-sort its load."""
        lane = inst.decode
        next_dt = lane.restart() if restart else None
        if next_dt is not None:
            heapq.heappush(self.heap, (self.now + next_dt, EV_DECODE_DONE, next(self._event_seqs),
                                       (inst.id, lane.epoch)))
        if inst.pool == self.roles.decode and inst.state is _ACTIVE:
            inst.index.update(inst)

    def _complete(self, rec: RequestRecord, tbt_p99: float | None = None) -> None:
        rec.completion_ms = self.now
        ttft = rec.ttft_ms
        ttft_ok = ttft is not None and ttft <= rec.ttft_slo_ms
        tbt_ok = True  # a request without TBT samples meets the TBT SLO
        if tbt_p99 is not None:
            rec.tbt_p99_ms = tbt_p99
            tbt_ok = tbt_p99 <= rec.tbt_slo_ms
        rec.slo_ok = ok = ttft_ok and tbt_ok
        if (tally := self.tally) is not None:
            if rec.arrival_ms >= self._miss_after_ms:
                counts = tally[rec.multimodal]
                counts[0] += 1
                if not ttft_ok:
                    self._missed(counts)
                if tbt_p99 is not None:
                    counts = tally[2]
                    counts[0] += 1
                    if not tbt_ok:
                        self._missed(counts)
            if self._decided is not None and self._decided():
                self._stop()
        self.log.completed += 1
        self._win_completed += 1
        self._win_slo_ok += ok

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def _on_instance_started(self, inst_id: int) -> None:
        inst = self.instances[inst_id]
        if inst.state is InstanceState.STARTING:
            self._set_state(inst, InstanceState.ACTIVE)
            self._flush_waiting()

    def _flush_waiting(self) -> None:
        waiting, self.image_waiting = self.image_waiting, []
        for req, rec in waiting:
            self._route_to_image_pool(req, rec)

    def _on_scale_tick(self, _data) -> None:
        interval_s = self.scale_interval_ms / 1000.0
        window = pol.LoadWindow(
            image_token_rate=self._win_image_tokens / interval_s,
            text_token_rate=self._win_text_tokens / interval_s,
            output_token_rate=self._win_output_tokens / interval_s,
            slo_attainment=(self._win_slo_ok / self._win_completed) if self._win_completed else 1.0,
            completed=self._win_completed,
            queue_delay_ms={
                s.value: (tot / n if n else 0.0) for s, (tot, n) in self._win_wait.items()
            },
        )
        pools = {p: PoolState(count=len(self._live(p)), tp=tp) for p, tp in self._pool_tp.items()}
        decision = self.autoscaler.decide(window, pools)
        self.apply_scaling(decision)
        self._win_reset()
        next_tick = self.now + self.scale_interval_ms
        if next_tick <= self.horizon_ms:
            self._push(next_tick, EV_SCALE_TICK)

    def apply_scaling(self, decision: pol.ScalingDecision) -> None:
        additions: list[tuple[str, int]] = []
        event = {"time_ms": self.now, "targets": dict(decision.targets), "flags": list(decision.flags)}
        for pool_name, target in decision.targets.items():
            live = self._live(pool_name)
            delta = target - len(live)
            if delta > 0:
                additions.extend([(pool_name, self._pool_tp[pool_name])] * delta)
            elif delta < 0:
                active = [i for i in live if i.state is InstanceState.ACTIVE]
                floor = 1 if is_text_family(pool_name) else 0
                starting = [i for i in live if i.state is InstanceState.STARTING]
                to_remove = -delta
                # Cancel instances that never started first, newest first;
                # then drain the newest active ones.
                for inst in reversed(starting):
                    if to_remove == 0:
                        break
                    self._set_state(inst, InstanceState.STOPPED)
                    to_remove -= 1
                keep = max(floor, len(active) - to_remove)
                for inst in active[keep:]:
                    self._set_state(inst, InstanceState.DRAINING)
                    self._maybe_stop_drained(inst)
        if additions:
            unplaced = self._place(additions, starting=True)
            if unplaced:
                event["flags"].append(f"unplaced: {unplaced}")
        self._allocation_changed()
        self.log.scale_events.append(event)

    def _server_views(self) -> list[ServerView]:
        used = dict.fromkeys(self.servers, 0)
        hosts_text = set()
        for i in self.instances.values():
            if i.state is not InstanceState.STOPPED:
                used[i.server_id] += i.tp
                if is_text_family(i.pool):
                    hosts_text.add(i.server_id)
        return [ServerView(sid, s.gpus, s.gpus - used[sid], sid in hosts_text)
                for sid, s in self.servers.items()]

    def _maybe_stop_drained(self, inst: Instance) -> None:
        if inst.state is InstanceState.DRAINING and inst.idle():
            self._set_state(inst, InstanceState.STOPPED)
            self._allocation_changed()

    # ------------------------------------------------------------------
    # Invariant checks (test mode)
    # ------------------------------------------------------------------
    def _check_invariants(self) -> None:
        for inst in self.instances.values():
            pending = (inst.pending_text_tokens, inst.pending_image_tokens)
            reserved = (sum(t for t, _ in inst.reserved.values()),
                        sum(i for _, i in inst.reserved.values()))
            assert pending == reserved, f"{inst}: pending {pending} != reserved {reserved}"
            assert inst.state not in (InstanceState.STARTING, InstanceState.STOPPED) or inst.idle(), \
                f"{inst} holds work"
            for lane in (inst.cpu, inst.gpu):
                q = lane.queue
                assert lane.busy or not q, f"{inst}: a free lane holds queued work"
                assert all((a.enqueue_ms, a.seq) < (b.enqueue_ms, b.seq) for a, b in zip(q, q[1:])), \
                    f"{inst}: lane queue out of (enqueue_ms, seq) order"
            lane, cap = inst.decode, self.max_batch["decode"]
            assert sorted(r for *_, r in lane.heap) == sorted(lane.members), f"{inst}: decode heap != members"
            assert len(lane.members) == cap if lane.admit_queue else len(lane.members) <= cap, f"{inst}: decode cap"
            assert all(lane.remaining(e) >= -_EPS for e in lane.heap), f"{inst}: overdue decode"
            ticks = list(lane.touched.values())
            assert lane.touched.keys() == lane.served.keys(), f"{inst}: touched != served"
            assert all(a < b for a, b in zip(ticks, ticks[1:])) and max(ticks, default=0) <= lane.tick, \
                f"{inst}: decode ticks out of order"
            ticks, sizes = lane.peak_ticks, lane.peak_sizes
            assert len(ticks) == len(sizes) <= cap + 1 and (ticks[0], sizes[0]) == (0, cap + 1) \
                and sizes[-1] >= 1, f"{inst}: decode peaks {list(zip(ticks, sizes))}"
            assert all(a < b for a, b in zip(ticks, ticks[1:])) and ticks[-1] <= lane.tick, \
                f"{inst}: decode peak ticks out of order"
            assert all(a > b for a, b in zip(sizes, sizes[1:])), f"{inst}: decode peak sizes not falling"
        views = self._server_views()
        for v in views:
            assert v.gpus_free >= 0, f"server {v.server_id} oversubscribed: {v.gpus_total - v.gpus_free}/{v.gpus_total}"
        used = sum(v.gpus_total - v.gpus_free for v in views)
        logged = self.log.allocation_log[-1][1]
        assert logged == used, f"allocation log says {logged} GPUs, instances hold {used}"
        for pool in (self.roles.text, self.roles.decode):
            # Routing to a text-family pool never waits: each keeps an active instance.
            assert pool is None or self.load_index[pool].active, f"no active {pool} instance"
        for pool, index in self.load_index.items():
            active = [i for i in self.instances.values()
                      if i.pool == pool and i.state is InstanceState.ACTIVE]
            assert index.active == active, f"{pool} index holds {index.active}, active are {active}"
            by_load = sorted((index.key(i), i.id) for i in active)
            assert index.by_load == by_load, f"{pool} index by load {index.by_load} != {by_load}"
