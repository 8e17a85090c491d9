"""Shims that time lmmsim's public callables from outside, and restore them.

Nothing under ``src/`` is edited: each shim replaces a module or class
attribute with a wrapper for the lifetime of an ``installed`` block.

Two levels:

* always (the minimum the end-to-end metrics need): the start, end
  and request counts of every ``Simulation.run``, the start of the first
  capacity probe and of the first task sent to a process pool, and a shim on
  ``ProcessPoolExecutor.submit`` (which ``map`` goes through too) that
  carries the records of pool workers back, however the pool is used;
* ``detailed`` (the traced run): a span per call of each layer's public
  functions, call counts of the latency-profile methods, and event counts
  taken at the engine's calls into ``heapq``.

Spans live in memory as ``(name, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing span or -1, and are written out by
the caller after the measurement.

The recorder also samples the host's speed while the work runs: every
``REF_PERIOD_S`` of CPU time a process spends (``ITIMER_PROF``, so waiting
processes are not sampled), it times a fixed piece of work shaped like an
event loop's: pushing and popping tuples on a heap and counting in a dict.
The sample's items are built once, so a sample allocates next to nothing
and never triggers a garbage collection of the simulator's heap. The mean
sample time, less its slowest and fastest tenth, tracks how fast this host
runs the simulator's kind of code at the moment, which on a shared VM
drifts by more than half over minutes.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import heapq
import signal
import time
from collections import Counter

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across forked workers

REF_ITEMS = tuple((i * 7919 % 1000, i) for i in range(1_000))
REF_PERIOD_S = 0.05
REF_TRIM = 0.1  # share of samples dropped at each end before averaging
# Sample time that defines nominal speed: end-to-end times are reported as
# the seconds they would have taken had a sample taken this long. Only
# ratios between commits matter; on a 2-vCPU cloud VM a sample took
# 0.6-1.2 ms during the work, so times there read about 1.4x raw.
REF_NOMINAL_S = 0.0015

# The recorder of the installed shims. Forked pool workers inherit it with
# the shims, and the pool shim's worker entry point finds it here.
_ACTIVE: "Recorder | None" = None
_WORKER_SHIMS = None  # the shims a spawned pool worker installs for itself

PROFILE_METHODS = ("preprocess_latency", "encode_latency", "prefill_latency", "tbt_latency")
METRIC_FUNCTIONS = ("summarize_latency", "slo_attainment", "cost_summary", "overall_attainment")


class Recorder:
    """Spans, counters and per-simulation records of one process."""

    def __init__(self, detailed: bool):
        self.detailed = detailed
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # Per Simulation.run: (start, end, arrived, completed, in_flight, conserved).
        self.runs: list[tuple] = []
        self.first_probe: float | None = None
        self.first_submit: float | None = None
        # Records of finished pool tasks with the span open at submit time,
        # appended by the pool's result thread and merged by ``drain``.
        self.pending: list[tuple[dict, int]] = []
        self.heap_peak = 0
        self.sim = None  # simulation whose event loop is running
        self.ref: list[float] = []  # host-speed sample times

    def reset(self) -> None:
        """Forget everything recorded; shims keep their references to the containers."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.runs.clear()
        self.first_probe = None
        self.first_submit = None
        self.pending.clear()
        self.heap_peak = 0
        self.sim = None
        self.ref.clear()

    # -- host speed ----------------------------------------------------
    def _sample(self, _signum, _frame) -> None:
        start = _clock()
        heap: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        push, pop = heapq.heappush, heapq.heappop
        for item in REF_ITEMS:
            push(heap, item)
            key = item[1] & 255
            counts[key] = counts.get(key, 0) + 1
        while heap:
            pop(heap)
        self.ref.append(_clock() - start)

    def ref_mean(self) -> float | None:
        """Trimmed mean sample time, or None without samples."""
        if not self.ref:
            return None
        times = sorted(self.ref)
        cut = int(len(times) * REF_TRIM)
        kept = times[cut:len(times) - cut]
        return sum(kept) / len(kept)

    def start_sampling(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REF_PERIOD_S, REF_PERIOD_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, _clock(), 0.0, self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, _clock(), parent)

    # -- transport from pool workers ------------------------------------
    def export(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts),
                "runs": list(self.runs), "heap_peak": self.heap_peak,
                "ref": list(self.ref)}

    def drain(self) -> None:
        """Merge the records pool workers have sent back so far."""
        while self.pending:
            self.merge(*self.pending.pop(0))

    def merge(self, part: dict, parent: int) -> None:
        """Add a worker's record; its top-level spans hang off span ``parent``."""
        offset = len(self.spans)
        self.spans.extend(
            (name, start, end, parent if p < 0 else p + offset)
            for name, start, end, p in part["spans"]
        )
        self.counts.update(part["counts"])
        self.runs.extend(part["runs"])
        self.heap_peak = max(self.heap_peak, part["heap_peak"])
        self.ref.extend(part["ref"])


def _run_in_worker(detailed: bool, fn, *args, **kwargs):
    """A pool task: run ``fn`` and return its result with this task's record."""
    global _WORKER_SHIMS
    rec = _ACTIVE
    if rec is None:
        # A spawned worker does not inherit the shims: install them for the
        # worker's lifetime (the worker ends with its pool). The reference
        # keeps the context manager, and so the shims, from being collected.
        _WORKER_SHIMS = installed(Recorder(detailed))
        rec = _WORKER_SHIMS.__enter__()
    rec.reset()
    rec.start_sampling()  # interval timers are not inherited across fork
    try:
        result = fn(*args, **kwargs)
    finally:
        rec.stop_sampling()
    return result, rec.export()


def _relayed(rec: Recorder, inner: concurrent.futures.Future, parent: int):
    """A future that gets ``inner``'s result once the worker's record is queued.

    The returned future is already running, so callers cannot cancel it; if
    the pool cancels the task, it fails with ``CancelledError``.
    """
    outer = concurrent.futures.Future()
    outer.set_running_or_notify_cancel()

    def relay(done):
        if done.cancelled():
            outer.set_exception(concurrent.futures.CancelledError())
        elif done.exception() is not None:
            outer.set_exception(done.exception())
        else:
            result, part = done.result()
            rec.pending.append((part, parent))
            outer.set_result(result)

    inner.add_done_callback(relay)
    return outer


class _Patcher:
    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        An attribute the owner no longer has is left alone: the layer it
        traced then reports nothing, and the checks of the end-to-end
        figures name what is missing.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def _span(rec: Recorder, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def installed(rec: Recorder):
    """Install the shims for ``rec`` and restore every original on exit."""
    global _ACTIVE
    from lmmsim import engine, experiment, metrics, policies, profiles

    patch = _Patcher()
    _ACTIVE = rec
    try:
        _install_always(rec, patch, engine, experiment)
        if rec.detailed:
            _install_detailed(rec, patch, engine, experiment, metrics, policies, profiles)
        yield rec
    finally:
        patch.restore()
        _ACTIVE = None


def _install_always(rec, patch, engine, experiment) -> None:
    def sim_run(run):
        return functools.wraps(run)(lambda self: _timed_run(rec, run, self))

    patch.wrap(engine.Simulation, "run", sim_run)

    def traced_max_throughput(max_throughput):
        @functools.wraps(max_throughput)
        def wrapper(probe, *args, **kwargs):
            def timed_probe(multiplier):
                if rec.first_probe is None:
                    rec.first_probe = _clock()
                if not rec.detailed:
                    return probe(multiplier)
                idx = rec.begin("experiment.probe")
                try:
                    return probe(multiplier)
                finally:
                    rec.end(idx)
                    rec.drain()

            return max_throughput(timed_probe, *args, **kwargs)

        return wrapper

    patch.wrap(experiment, "max_throughput", traced_max_throughput)

    # Patched on the class itself, so any pool of the process is covered,
    # whatever name it is looked up by.
    def init(pool_init):
        @functools.wraps(pool_init)
        def wrapper(self, *args, **kwargs):
            rec.counts["experiment.pool_starts"] += 1
            pool_init(self, *args, **kwargs)

        return wrapper

    def submit(pool_submit):
        @functools.wraps(pool_submit)
        def wrapper(self, fn, /, *args, **kwargs):
            if rec.first_submit is None:
                rec.first_submit = _clock()
            parent = rec.stack[-1] if rec.stack else -1
            task = functools.partial(_run_in_worker, rec.detailed, fn)
            return _relayed(rec, pool_submit(self, task, *args, **kwargs), parent)

        return wrapper

    pool_cls = concurrent.futures.ProcessPoolExecutor
    patch.wrap(pool_cls, "__init__", init)
    patch.wrap(pool_cls, "submit", submit)


def _timed_run(rec: Recorder, run, sim):
    """``Simulation.run`` with its start, end and request counts recorded."""
    rec.sim = sim
    idx = rec.begin("engine.run") if rec.detailed else None
    start = _clock()
    log = run(sim)
    end = _clock()
    if idx is not None:
        rec.end(idx)
    # Every arrival has a record, and the completed records are the
    # completions counted. (arrived == completed + in_flight holds by
    # definition: MetricsLog.in_flight is arrived - completed.)
    records = log.records.values()
    conserved = (len(records) == log.arrived
                 and sum(r.completed for r in records) == log.completed)
    rec.runs.append((start, end, log.arrived, log.completed, log.in_flight, conserved))
    return log


def _install_detailed(rec, patch, engine, experiment, metrics, policies, profiles) -> None:
    counts = rec.counts

    def add_len(key: str, arg: int):
        def on_result(args, _result):
            counts[key] += len(args[arg])
        return on_result

    def add_requests(_args, result):
        counts["workload.requests"] += len(getattr(result, "requests", result))

    def add_batch(_args, picked):
        counts["engine.batch_items"] += len(picked)

    spans = (
        (experiment, "build_simulation", "experiment.build_simulation", None),
        (experiment, "calibrate", "profiles.calibrate", None),
        (experiment, "generate", "workload.generate", add_requests),
        (experiment, "load_trace", "workload.load_trace", add_requests),
        (engine, "form_batch", "engine.form_batch", add_batch),
        (engine.MetricsLog, "to_csv", "engine.to_csv", None),
        (policies, "schedule_order", "policies.schedule_order",
         add_len("policies.schedule_order_items", 0)),
        (policies, "route_text", "policies.route_text", add_len("policies.route_text_candidates", 1)),
        (policies, "route_image", "policies.route_image",
         add_len("policies.route_image_candidates", 1)),
        (policies, "place", "policies.place", None),
        (policies.TokenAwareAutoscaler, "decide", "policies.decide", None),
    )
    for owner, attr, name, on_result in spans:
        patch.wrap(owner, attr, functools.partial(_span, rec, name, on_result=on_result))
    for fn_name in METRIC_FUNCTIONS:
        for owner in (metrics, experiment):
            patch.wrap(owner, fn_name, functools.partial(_span, rec, f"metrics.{fn_name}"))
    for method in PROFILE_METHODS:
        patch.wrap(profiles.LatencyProfile, method,
                   functools.partial(_counted, rec, f"profiles.{method}"))

    kind_names = {getattr(engine, n): n[3:].lower() for n in dir(engine) if n.startswith("EV_")}
    decode_done = engine.EV_DECODE_DONE

    class HeapProxy:
        """The engine's ``heapq``: counts events popped inside the horizon."""

        @staticmethod
        def heappush(heap, item):
            heapq.heappush(heap, item)
            if len(heap) > rec.heap_peak:
                rec.heap_peak = len(heap)

        @staticmethod
        def heappop(heap):
            item = heapq.heappop(heap)
            try:
                time_ms, kind, _seq, data = item
                sim = rec.sim
                if time_ms <= sim.horizon_ms:
                    counts[f"engine.events.{kind_names[kind]}"] += 1
                    if kind == decode_done and sim.instances[data[0]].decode.epoch != data[1]:
                        counts["engine.decode_done_stale"] += 1
            except Exception:  # an event layout this shim does not know
                counts["engine.events_unknown"] += 1
            return item

    patch.wrap(engine, "heapq", lambda _heapq: HeapProxy)
