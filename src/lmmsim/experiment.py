"""Experiment configs and runners tying workload, cluster, and policies together.

A config JSON is self-contained: rerunning it reproduces byte-identical
per-seed outputs. ``validate_config`` resolves a config once into an
``Experiment``, which the runners ship to their workers. Multi-seed runs and
sweeps execute in parallel processes; each simulation stays single-threaded.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import json
import math
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import count, islice
from pathlib import Path

from .core import ModelSpec, Request, SLOSpec, SpecError, exact, get_model_spec, load_model_specs, read_fields
from .engine import (
    InstancePlan,
    MetricsLog,
    RequestRecord,
    ServerSpec,
    Simulation,
    TransferMedium,
)
from .metrics import (
    REL_TOL,
    WARMUP_FRACTION,
    CapacityResult,
    CostSummary,
    cost_summary,
    max_throughput,
    miss_budget,
    overall_attainment,
    slo_attainment,
    summarize_latency,
)
from .policies import (
    DEFAULT_MAX_BATCH,
    POOL_ROLES,
    PolicySet,
    Topology,
    initial_sizing,
    is_text_family,
    select_sharding,
)
from .profiles import LatencyProfile, calibrate, load_calibration_targets
from .workload import BurstEpisode, GeneratorConfig, generate, load_trace, summarize


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


@contextlib.contextmanager
def _naming(where: str = ""):
    """Re-raise a SpecError as a ConfigError naming its field, prefixed by ``where``."""
    try:
        yield
    except SpecError as e:
        raise ConfigError(where + e.field, e.reason) from None


# ----------------------------------------------------------------------
# Reading: each config object is read by ``core.read_fields`` with its
# converter table below. A key outside its table is rejected, so a misspelt
# one is never silently ignored; a converter rejects a value that cannot
# mean what it says with a ValueError stating its rule.
# ----------------------------------------------------------------------
def _number(test=None, rule: str = ""):
    """A JSON number (no string, no true/false, and no NaN or Infinity, which
    Python's json reads) as a float that passes ``test``."""
    def convert(value):
        try:
            ok = (type(value) in (int, float) and math.isfinite(value)
                  and (test is None or test(value)))
        except OverflowError:  # an integer too large for a float
            ok = False
        if not ok:
            raise ValueError(f"must be a finite number{rule}")
        return float(value)
    return convert


_REAL = _number()
_POSITIVE = _number(lambda v: v > 0, " > 0")
_NON_NEGATIVE = _number(lambda v: v >= 0, " >= 0")
_FRACTION = _number(lambda v: 0 <= v < 1, " in [0, 1)")


def _at_least(least: int):
    """A JSON integer >= ``least``; true and false are no counts."""
    def convert(value):
        if type(value) is not int or value < least:
            raise ValueError(f"must be an integer >= {least}")
        return value
    return convert


def _member(kind: type[Enum]):
    """A member of ``kind``, by its value."""
    def convert(value):
        try:
            return kind(value)
        except ValueError:
            raise ValueError(f"expected one of {[k.value for k in kind]}") from None
    return convert


def _typed(cls, skip: set[str]) -> dict:
    """A converter for each field of the dataclass ``cls`` outside ``skip``,
    by its default's type: an Enum's member, an integer or a number."""
    return {f.name: _member(type(f.default)) if isinstance(f.default, Enum)
            else {int: exact(int), float: _REAL}[type(f.default)]
            for f in fields(cls) if f.name not in skip}


def _object(table: dict, where: str, required: set[str] = frozenset()):
    """The converter of a nested object, whose keys ``table`` reads."""
    return lambda value: read_fields(value, table, required, where)


def _seeds(value) -> list[int]:
    """A non-empty list of distinct seeds. Runs are deterministic, so a
    repeated seed would only run the same simulation again (and write the
    same files twice)."""
    if not isinstance(value, list) or not value or any(type(s) is not int or s < 0 for s in value):
        raise ValueError("must be a non-empty list of integers >= 0")
    repeated = sorted({s for s in value if value.count(s) > 1})
    if repeated:
        raise ValueError(f"repeats seed(s) {repeated}; each seed runs once")
    return list(value)


def seed_list(value, field: str) -> list[int]:
    """``value`` as a list of seeds, or a ConfigError naming ``field``."""
    with _naming():
        return read_fields({field: value}, {field: _seeds}, set())[field]


def _pools(value):
    """``"auto"``, or each pool's entry read with ``_POOL``."""
    if value == "auto":
        return value
    if not isinstance(value, dict):
        raise ValueError("must be 'auto' or a pool mapping")
    return {pool: read_fields(entry, _POOL, set(_POOL), f"instances.{pool}.")
            for pool, entry in value.items()}


def _episodes(episodes) -> tuple[BurstEpisode, ...]:
    return tuple(BurstEpisode(**read_fields(e, _EPISODE, {"start_ms", "duration_ms"},
                                            f"workload.generator.burst_episodes[{i}]."))
                 for i, e in enumerate(episodes))


def _image_shares(shares) -> dict[int, float]:
    """images_per_request: the share of each image count, 1 to 16."""
    where = "workload.generator.images_per_request."
    return {int(n): share for n, share in read_fields(shares, _IMAGE_COUNTS, set(), where).items()}


_MODEL = {"spec_path": exact(str), "name": exact(str)}
_POOL = {"count": _at_least(0), "tp": _at_least(1)}
_POLICIES = {**_typed(PolicySet, {"topology"}), "max_fanout": _at_least(1), "capacity_tail_factor": _POSITIVE}
_CLUSTER = {"servers": _at_least(1), "gpus_per_server": _at_least(1), "cpu_cores_per_server": _at_least(1)}
_SLO = {"slo_factor": _POSITIVE, "ref_text_tokens": _at_least(1), "ttft_base_text_ms": _POSITIVE,
        "ttft_base_image_ms": _POSITIVE, "tbt_base_ms": _POSITIVE}
_TRANSFER = {"medium": _member(TransferMedium)}
_MAX_BATCH = dict.fromkeys(DEFAULT_MAX_BATCH, _at_least(1))
_CAPACITY = {"lo_multiplier": _POSITIVE, "hi_multiplier": _POSITIVE, "rel_tol": _POSITIVE,
             "horizon_ms": _POSITIVE, "seeds": _seeds}
_EPISODE = dict.fromkeys(("start_ms", "duration_ms", "rate_multiplier", "image_multiplier"), _REAL)
_IMAGE_COUNTS = {str(n): _REAL for n in range(1, 17)}
_GENERATOR = {**_typed(GeneratorConfig, {"model", "burst_episodes", "images_per_request"}),
              "burst_episodes": _episodes, "images_per_request": _image_shares}
_WORKLOAD = {"trace": exact(str), "generator": _object(_GENERATOR, "workload.generator.")}
_CONFIG = {
    "model": lambda m: (read_fields(m, _MODEL, set(_MODEL), "model.") if isinstance(m, dict)
                        else exact(str)(m)),
    "profile": exact(str), "topology": _member(Topology), "instances": _pools,
    "policies": _object(_POLICIES, "policies."), "slo": _object(_SLO, "slo."),
    "cluster": _object(_CLUSTER, "cluster.", {"servers", "gpus_per_server"}),
    "workload": _object(_WORKLOAD, "workload."), "transfer": _object(_TRANSFER, "transfer."),
    "max_batch": _object(_MAX_BATCH, "max_batch."), "capacity": _object(_CAPACITY, "capacity."),
    "horizon_ms": _POSITIVE, "seeds": _seeds, "warmup_fraction": _FRACTION, "rate_multiplier": _POSITIVE,
    "scale_interval_ms": _POSITIVE, "start_delay_ms": _NON_NEGATIVE,
}
_CONFIG_REQUIRED = {"model", "topology", "cluster", "instances", "workload", "horizon_ms"}


@dataclass
class ExperimentConfig:
    """A config as read: the raw dict and the directory its paths are relative to."""

    raw: dict
    base_dir: Path


@dataclass(frozen=True)
class Experiment:
    """A config resolved once by ``validate_config``: every value a run needs, checked.

    A value the config leaves out takes the default of the code that uses
    it, so ``engine_options`` holds only the ``Simulation`` keywords the
    config sets.
    """

    profile: LatencyProfile  # for the config's model, which is ``profile.model``
    slo: SLOSpec
    policies: PolicySet
    servers: list[ServerSpec]
    engine_options: dict
    seeds: list[int]
    horizon_ms: float
    warmup_fraction: float
    rate_multiplier: float
    capacity: tuple[float, float, float, float, list[int]]  # (lo, hi, rel_tol, horizon_ms, seeds)
    source: Path | GeneratorConfig  # a trace file, or the generator before its per-seed offset
    instance_plan: list[InstancePlan] | None  # None for "auto": sized per seed

    def workload(self, seed: int, rate_multiplier: float, horizon_ms: float) -> list[Request]:
        if isinstance(self.source, GeneratorConfig):
            gen = self.source
            return generate(replace(gen, seed=gen.seed + seed,
                                    base_rate=gen.base_rate * rate_multiplier), horizon_ms)
        requests = _trace_requests(self.source, self.profile.model)
        if rate_multiplier != 1.0:
            requests = [replace(r, arrival_ms=r.arrival_ms / rate_multiplier) for r in requests]
        return [r for r in requests if r.arrival_ms <= horizon_ms]

    def instances(self, seed: int, workload: list[Request] | None = None) -> list[InstancePlan]:
        """The initial pools; "auto" sizes them from this seed's workload at the config's rate and horizon."""
        if self.instance_plan is not None:
            return self.instance_plan
        gpus = self.servers[0].gpus
        image_tp, _ = select_sharding("image", self.profile, self.slo, gpus)
        text_tp, _ = select_sharding("text", self.profile, self.slo, gpus)
        workload = self.workload(seed, self.rate_multiplier, self.horizon_ms) if workload is None else workload
        targets = initial_sizing(summarize(workload), self.profile, image_tp)
        return [InstancePlan("image", image_tp, targets["image"]),
                InstancePlan("text", text_tp, targets["text"])]


# The last trace parsed in this process: (key, requests). Parsing a day-long
# trace costs seconds, and a capacity search, or runs that each validate
# their own Experiment from one trace, read it many times; so the cache
# belongs to the process, not to an Experiment. A pool worker forked after
# the parent parsed the trace inherits it.
_trace_cache: tuple[tuple, tuple[Request, ...]] | None = None


def _trace_requests(path: Path, model: ModelSpec) -> tuple[Request, ...]:
    """The requests of a trace file, parsed at most once while the file is unchanged.

    The cache holds one trace, keyed by the file's resolved path, its
    modification time and size, and the model. Callers must not modify the
    requests; ``dataclasses.replace`` makes changed copies.
    """
    global _trace_cache
    stat = path.stat()
    key = (path.resolve(), stat.st_mtime_ns, stat.st_size, model)
    if _trace_cache is None or _trace_cache[0] != key:
        _trace_cache = (key, tuple(load_trace(path, model).requests))
    return _trace_cache[1]


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON: {e}")
    cfg = ExperimentConfig(raw=raw, base_dir=path.parent)
    validate_config(cfg)
    return cfg


def config_from_dict(raw: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    return ExperimentConfig(raw=raw, base_dir=Path(base_dir))


def config_with(cfg: ExperimentConfig, path: str, value) -> ExperimentConfig:
    """A deep copy of ``cfg`` with the dotted ``path`` (e.g. ``slo.slo_factor``)
    set to ``value``, creating missing objects along the way.

    Only the objects on the path are checked here; ``validate_config`` checks
    the key and the value as it checks every config.
    """
    raw = copy.deepcopy(cfg.raw)
    *parents, key = path.split(".")
    inner = raw
    for i, part in enumerate(parents):
        inner = inner.setdefault(part, {})
        if not isinstance(inner, dict):
            raise ConfigError(".".join(parents[:i + 1]),
                              f"is {json.dumps(inner)}, not an object, so '{path}' cannot be set")
    inner[key] = value
    return ExperimentConfig(raw=raw, base_dir=cfg.base_dir)


def validate_config(cfg: ExperimentConfig) -> Experiment:
    """Resolve and check every value of a config, so errors surface before any run.

    Reads every object with its converter table, then resolves the keys
    that mean something only together with others (``model``, ``profile``,
    ``instances`` and ``workload``). Reads no trace and generates no workload.
    """
    base_dir = cfg.base_dir
    with _naming():
        c = read_fields(cfg.raw, _CONFIG, _CONFIG_REQUIRED)
    model = _model(c["model"], base_dir)
    profile = _profile(c.get("profile", "auto"), model, base_dir)
    cluster, slo, capacity = c["cluster"], c.get("slo", {}), c.get("capacity", {})
    gpus = cluster["gpus_per_server"]
    bases = {"ttft_base_text_ms": profile.ttft_base_text_ms(slo.get("ref_text_tokens", 2048)),
             "ttft_base_image_ms": profile.ttft_base_image_ms(), "tbt_base_ms": profile.tbt_base()}
    lo, hi = capacity.get("lo_multiplier", 0.25), capacity.get("hi_multiplier", 2.0)
    if lo >= hi:
        raise ConfigError("capacity.hi_multiplier", f"must be > capacity.lo_multiplier ({lo})")
    # The Simulation keywords the config sets; the engine's defaults fill the rest.
    engine_options = {key: c[key] for key in ("scale_interval_ms", "start_delay_ms", "max_batch") if key in c}
    if "medium" in c.get("transfer", {}):
        engine_options["transfer_medium"] = c["transfer"]["medium"]
    seeds, horizon_ms = c.get("seeds", [1]), c["horizon_ms"]
    return Experiment(
        profile=profile,
        slo=SLOSpec(**{key: slo.get(key, base) for key, base in bases.items()},
                    slo_factor=slo.get("slo_factor", 5.0)),
        policies=PolicySet(topology=c["topology"], **c.get("policies", {})),
        servers=[ServerSpec(i, gpus, cluster.get("cpu_cores_per_server", 2 * gpus))
                 for i in range(cluster["servers"])],
        engine_options=engine_options,
        seeds=seeds,
        horizon_ms=horizon_ms,
        warmup_fraction=c.get("warmup_fraction", WARMUP_FRACTION),
        rate_multiplier=c.get("rate_multiplier", 1.0),
        capacity=(lo, hi, capacity.get("rel_tol", REL_TOL), capacity.get("horizon_ms", horizon_ms),
                  capacity.get("seeds", seeds)),
        source=_source(c["workload"], model, base_dir),
        instance_plan=_instance_plan(c["instances"], c["topology"], profile, gpus),
    )


def _model(m: str | dict, base_dir: Path) -> ModelSpec:
    if isinstance(m, dict):
        path = base_dir / m["spec_path"]
        if not path.is_file():
            raise ConfigError("model.spec_path", f"file not found: {path}")
        try:
            specs = load_model_specs(path)
        except ValueError as e:  # SpecError, or the file is not JSON
            raise ConfigError("model.spec_path", str(e))
        if m["name"] not in specs:
            raise ConfigError("model.name", f"not in {sorted(specs)}")
        return specs[m["name"]]
    try:
        return get_model_spec(m)
    except SpecError as e:
        raise ConfigError("model", str(e))


def _profile(p: str, model: ModelSpec, base_dir: Path) -> LatencyProfile:
    if p == "auto":
        return calibrate(load_calibration_targets(model.name), model)
    path = base_dir / p
    if not path.is_file():
        raise ConfigError("profile", f"file not found: {path}")
    try:
        return LatencyProfile.load(path, model)
    except ValueError as e:  # SpecError, ProfileError, or the file is not JSON
        raise ConfigError("profile", str(e))


def _source(w: dict, model: ModelSpec, base_dir: Path) -> Path | GeneratorConfig:
    if ("trace" in w) == ("generator" in w):
        raise ConfigError("workload", "needs exactly one of 'trace' and 'generator'")
    if "trace" in w:
        path = base_dir / w["trace"]
        if not path.exists():
            raise ConfigError("workload.trace", f"file not found: {path}")
        return path
    gen = GeneratorConfig(model=model, **w["generator"])
    with _naming("workload.generator."):
        gen.validate()
    return gen


def _instance_plan(pools: str | dict, topology: Topology, profile: LatencyProfile,
                   gpus_per_server: int) -> list[InstancePlan] | None:
    """The configured pools, or None for "auto" (see ``Experiment.instances``)."""
    if pools == "auto":
        if topology is not Topology.DECOUPLED:
            raise ConfigError("instances", "auto sizing supports the decoupled topology only")
        # A text instance can always take TP 1; the image pool needs an encoder TP.
        encoder_tps = sorted(profile.model.supported_tp_encoder)
        if encoder_tps[0] > gpus_per_server:
            raise ConfigError("instances", f"auto sizing needs an encoder TP of at most "
                                           f"cluster.gpus_per_server ({gpus_per_server}); "
                                           f"the encoder supports {encoder_tps}")
        return None
    roles = POOL_ROLES[topology]
    plan = []
    for pool, entry in pools.items():
        if pool not in roles.pools:
            raise ConfigError(
                "instances", f"pool '{pool}' invalid for topology {topology.value} "
                f"(expected {sorted(roles.pools)})"
            )
        # Every request passes through the pools that run LLM work, so each
        # needs an instance; the image pool may start empty.
        if is_text_family(pool) and entry["count"] < 1:
            raise ConfigError(f"instances.{pool}.count", "must be >= 1 in a pool that runs the LLM")
        tp = _tp(entry["tp"], pool, pool == roles.image_entry, profile, gpus_per_server)
        plan.append(InstancePlan(pool, tp, entry["count"]))
    missing = roles.pools - {p.pool for p in plan}
    if missing:
        raise ConfigError("instances", f"missing pools for topology: {sorted(missing)}")
    # The engine places and scales pools in plan order, so the plan takes
    # one order, whatever the order of the keys of ``instances``.
    order = [roles.text, roles.decode, roles.image_entry]
    return sorted(plan, key=lambda p: order.index(p.pool))


def _tp(tp: int, pool: str, runs_encoder: bool, profile: LatencyProfile, gpus_per_server: int) -> int:
    """A pool's TP degree: one server's GPUs hold an instance, the profile
    prices that degree, and the encoder supports it if the pool runs it."""
    field = f"instances.{pool}.tp"
    if tp > gpus_per_server:
        raise ConfigError(field, f"TP {tp} exceeds cluster.gpus_per_server ({gpus_per_server})")
    lo, hi = profile.tp_range()
    if not lo <= tp <= hi:
        raise ConfigError(field, f"TP {tp} outside the profile's TP range {lo}..{hi}")
    supported = profile.model.supported_tp_encoder
    if runs_encoder and tp not in supported:
        raise ConfigError(field, f"pool '{pool}' runs the encoder, which supports TP "
                                 f"{sorted(supported)}, not {tp}")
    return tp


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def build_simulation(exp: Experiment, seed: int, rate_multiplier: float | None = None,
                     horizon_ms: float | None = None, validate: bool = False) -> Simulation:
    horizon = horizon_ms if horizon_ms is not None else exp.horizon_ms
    mult = rate_multiplier if rate_multiplier is not None else exp.rate_multiplier
    workload = exp.workload(seed, mult, horizon)
    at_config_rate = (mult, horizon) == (exp.rate_multiplier, exp.horizon_ms)
    return Simulation(
        profile=exp.profile,
        slo=exp.slo,
        policies=exp.policies,
        servers=exp.servers,
        instance_plan=exp.instances(seed, workload if at_config_rate else None),
        workload=workload,
        horizon_ms=horizon,
        seed=seed,
        validate=validate,
        **exp.engine_options,
    )


def seed_summary(exp: Experiment, log: MetricsLog, cost: CostSummary, done: list[RequestRecord]) -> dict:
    """The summary of one seed's run; ``done`` is ``log.completed_records()``."""
    latency = summarize_latency(log, exp.warmup_fraction, done)
    return {
        "seed": log.seed,
        "arrived": log.arrived,
        "completed": log.completed,
        "in_flight": log.in_flight,
        "latency": latency.to_dict(),
        "attainment": overall_attainment(log, exp.warmup_fraction, done),
        "gpu_seconds": cost.gpu_seconds,
        "peak_gpus": cost.peak_gpus,
    }


def _write_json(path: Path, data) -> None:
    """Write one runner output as indented JSON with a final newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, default=str) + "\n")


def _simulate_worker(exp: Experiment, seed: int, out_dir: str | None) -> dict:
    log = build_simulation(exp, seed).run()
    cost = cost_summary(log)
    done = log.completed_records()
    summary = seed_summary(exp, log, cost, done)
    if out_dir is not None:
        windows = slo_attainment(log, 60_000.0, done)
        del done  # not held while the outputs are written
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log.to_csv(out / f"requests_seed{seed}.csv")
        rows = ["seed,window_start_ms,gpus,completed,attainment,p99_ttft_ms,vacuous"]
        window_dicts = []
        # Both grids are the ceil(horizon / 60 s) windows from 0.
        for w, (_, gpus) in zip(windows, cost.timeline, strict=True):
            rows.append(
                f"{seed},{w.start_ms:.0f},{gpus},{w.completed},{w.attainment:.6f},"
                f"{w.p99_ttft_ms:.3f},{int(w.vacuous)}"
            )
            window_dicts.append({
                "start_ms": w.start_ms, "end_ms": w.end_ms, "gpus": gpus,
                "completed": w.completed, "attainment": w.attainment,
                "p99_ttft_ms": w.p99_ttft_ms, "vacuous": w.vacuous,
            })
        (out / f"series_seed{seed}.csv").write_text("\n".join(rows) + "\n")
        _write_json(out / f"windows_seed{seed}.json",
                    {"seed": seed, "gpu_seconds": cost.gpu_seconds,
                     "peak_gpus": cost.peak_gpus, "windows": window_dicts})
    return summary


# Worker processes of a pool; a capacity probe keeps at most this many seeds running.
_POOL_WORKERS = max(1, min(os.cpu_count() or 1, 8))

# In a pool worker, the shared number of the last capacity probe a failed
# seed decided (see run_capacity); None elsewhere.
_decided_probe = None


def _init_worker(decided_probe) -> None:
    global _decided_probe
    _decided_probe = decided_probe


def _pool(n_jobs: int, decided_probe=None):
    """A process pool for batches of ``n_jobs`` jobs, or a null context (no
    pool) when there is only one job at a time to run.

    Each worker receives ``decided_probe`` through its initializer, so it
    reaches workers under every start method, not only under fork.
    """
    if n_jobs > 1:
        return ProcessPoolExecutor(max_workers=_POOL_WORKERS, initializer=_init_worker,
                                   initargs=(decided_probe,))
    return contextlib.nullcontext()


def _map(fn, jobs: list[tuple], pool: ProcessPoolExecutor | None) -> list:
    """``fn(*job)`` for each job, in ``pool`` if there is one."""
    if pool is None:
        return [fn(*job) for job in jobs]
    return list(pool.map(fn, *zip(*jobs)))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Run all seeds, write per-seed artifacts, and aggregate a summary."""
    exp = validate_config(cfg)
    out = str(out_dir) if out_dir is not None else None
    with _pool(len(exp.seeds)) as pool:
        results = _map(_simulate_worker, [(exp, s, out) for s in exp.seeds], pool)
    by_seed = {r["seed"]: r for r in results}
    agg = aggregate_summaries(list(by_seed.values()))
    summary = {"config": cfg.raw, "seeds": by_seed, "aggregate": agg}
    if out is not None:
        path = Path(out)
        _write_json(path / "summary.json", summary)
        combined = []
        for s in exp.seeds:
            part = (path / f"series_seed{s}.csv").read_text().splitlines()
            combined.extend(part[1:] if combined else part)
        (path / "series.csv").write_text("\n".join(combined) + "\n")
    return summary


def aggregate_summaries(results: list[dict]) -> dict:
    def mean(key_path):
        vals = []
        for r in results:
            v = r
            for k in key_path:
                v = v[k]
            vals.append(v)
        return sum(vals) / len(vals)

    return {
        "n_seeds": len(results),
        "mean_ttft_ms": mean(["latency", "ttft_ms", "overall", "mean"]),
        "p99_ttft_ms_worst": max(r["latency"]["ttft_ms"]["overall"]["p99"] for r in results),
        "p99_ttft_ms_mean": mean(["latency", "ttft_ms", "overall", "p99"]),
        "attainment_min": min(r["attainment"] for r in results),
        "gpu_seconds_mean": mean(["gpu_seconds"]),
        "completed_total": sum(r["completed"] for r in results),
    }


# ----------------------------------------------------------------------
# Capacity search
# ----------------------------------------------------------------------
def _capacity_probe_worker(exp: Experiment, seed: int, rate: float, horizon_ms: float,
                           probe: int) -> dict:
    """One seed's verdict in capacity probe number ``probe``.

    In a pool worker the run also stops at the first completion after
    another seed has failed the probe; it then reports ``abandoned``.
    """
    sim = build_simulation(exp, seed, rate_multiplier=rate, horizon_ms=horizon_ms)
    # A group's P99 fails iff more of its post-warm-up completions miss than
    # miss_budget allows. Completions never undo a miss, so the run stops once
    # the misses exceed the budget of all its post-warm-up arrivals (the
    # workload ends at the horizon); a run that does not stop is judged here.
    cutoff = exp.warmup_fraction * horizon_ms
    counted = [r.is_multimodal for r in sim.workload if r.arrival_ms >= cutoff]
    n_image = sum(counted)
    budgets = {"text-only": miss_budget(len(counted) - n_image, 0.99),
               "image-text": miss_budget(n_image, 0.99),
               "tbt": miss_budget(len(counted), 0.99)}
    decided = None if _decided_probe is None else lambda: _decided_probe.value == probe
    sim.stop_when_missed(budgets, cutoff, decided)
    log = sim.run()
    if log.stopped_ms is not None:
        return {"seed": seed, "ok": False, "abandoned": decided is not None and decided(),
                "stopped_ms": log.stopped_ms}
    text, image, _ = sim.tally
    ok = text[0] + image[0] > 0 and all(misses <= miss_budget(n, 0.99) for n, misses, _ in sim.tally)
    return {"seed": seed, "ok": ok}


def run_capacity(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> CapacityResult:
    """Largest request rate (req/s) meeting tail SLOs, via bisection; with
    ``out_dir``, also written to ``capacity.json`` there.

    Each probe simulates each capacity seed at most once; runs are
    deterministic, so a repeated seed would add nothing. A probe passes when
    every seed passes, so once one seed has failed it starts no further
    seed, and the seeds still running stop at their next completion: the
    probe's number goes into a shared integer that their workers poll.
    """
    exp = validate_config(cfg)
    lo, hi, rel_tol, horizon, seeds = exp.capacity
    base_rate = _offered_rate(exp)
    decided_probe = multiprocessing.Value("q", 0, lock=False)  # only this process writes it
    numbers = count(1)

    with _pool(len(seeds), decided_probe) as pool:
        def probe(multiplier: float) -> bool:
            number = next(numbers)
            jobs = ((exp, s, multiplier, horizon, number) for s in seeds)
            if pool is None:
                return all(_capacity_probe_worker(*job)["ok"] for job in jobs)
            running = {pool.submit(_capacity_probe_worker, *job) for job in islice(jobs, _POOL_WORKERS)}
            ok = True
            while running:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                ok = all([f.result()["ok"] for f in done]) and ok
                if ok:  # refill the freed workers
                    running |= {pool.submit(_capacity_probe_worker, *job)
                                for job in islice(jobs, len(done))}
                else:  # decided: the seeds still running can stop
                    decided_probe.value = number
            return ok

        result = max_throughput(probe, lo, hi, rel_tol=rel_tol)
    capacity = CapacityResult(
        rate=result.rate * base_rate,
        feasible=result.feasible,
        probes=[(m * base_rate, ok) for m, ok in result.probes],
    )
    if out_dir is not None:
        _write_json(Path(out_dir) / "capacity.json", {"rate_req_per_s": capacity.rate,
                                                      "feasible": capacity.feasible,
                                                      "probes": capacity.probes})
    return capacity


def _offered_rate(exp: Experiment) -> float:
    """Baseline request rate of the configured workload, req/s."""
    if isinstance(exp.source, GeneratorConfig):
        return exp.source.base_rate
    requests = _trace_requests(exp.source, exp.profile.model)
    if not requests:
        return 0.0
    span = max(r.arrival_ms for r in requests) / 1000.0
    return len(requests) / max(span, 1e-9)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def run_sweep(cfg: ExperimentConfig, path: str, values: list,
              out_dir: str | Path | None = None) -> list[dict]:
    """One experiment per value of the config field at the dotted ``path``
    (see ``config_with``); rows are independent of execution order, and each
    row's ``value`` is the JSON text of its value."""
    exps = [validate_config(config_with(cfg, path, v)) for v in values]
    jobs = [(exp, s, None) for exp in exps for s in exp.seeds]
    with _pool(len(jobs)) as pool:
        results = iter(_map(_simulate_worker, jobs, pool))
    rows = []
    for value, exp in zip(values, exps):
        by_seed = {r["seed"]: r for r in islice(results, len(exp.seeds))}
        rows.append({"axis": path, "value": json.dumps(value),
                     **aggregate_summaries(list(by_seed.values()))})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "sweep.csv").open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return rows
