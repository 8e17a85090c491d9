"""Experiment configs and runners tying workload, cluster, and policies together.

A config JSON is self-contained: rerunning it reproduces byte-identical
per-seed outputs. Multi-seed runs and sweeps execute in parallel processes;
each simulation stays single-threaded.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .core import ModelSpec, Request, SLOSpec, get_model_spec, load_model_specs
from .engine import (
    InstancePlan,
    MetricsLog,
    ServerSpec,
    Simulation,
    TransferMedium,
)
from .metrics import (
    CapacityResult,
    cost_summary,
    max_throughput,
    overall_attainment,
    slo_attainment,
    summarize_latency,
)
from .policies import (
    DEFAULT_MAX_BATCH,
    POOL_ROLES,
    AutoscalerKind,
    PlacementKind,
    PolicySet,
    RouterKind,
    SchedulerKind,
    TokenAwareAutoscaler,
    Topology,
    initial_sizing,
    select_sharding,
)
from .profiles import LatencyProfile, calibrate, load_calibration_targets
from .workload import BurstEpisode, GeneratorConfig, generate, load_trace, summarize


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


# The keys a config may use: at the top level, in each object section, and in
# workload.generator. Any other key is rejected, so a misspelt one is never
# silently ignored.
_TOP_LEVEL_KEYS = {
    "model", "profile", "topology", "policies", "cluster", "instances", "workload", "slo",
    "transfer", "max_batch", "horizon_ms", "seeds", "warmup_fraction", "rate_multiplier",
    "scale_interval_ms", "start_delay_ms", "capacity",
}
_SECTION_KEYS = {
    "policies": {f.name for f in fields(PolicySet)} - {"topology"},
    "slo": {"slo_factor", "percentile", "ref_text_tokens", "ttft_base_text_ms",
            "ttft_base_image_ms", "tbt_base_ms"},
    "transfer": {"medium"},
    "cluster": {"servers", "gpus_per_server", "cpu_cores_per_server"},
    "capacity": {"lo_multiplier", "hi_multiplier", "rel_tol", "horizon_ms", "seeds"},
}
_GENERATOR_KEYS = {f.name for f in fields(GeneratorConfig)} - {"model"}
_EPISODE_KEYS = {f.name for f in fields(BurstEpisode)}
_INSTANCE_KEYS = {"count", "tp"}


def _check_keys(obj, known: set[str], where: str) -> None:
    """Reject a non-object or any key outside ``known``; ``where`` is the
    field path prefix, e.g. ``"policies."``."""
    if not isinstance(obj, dict):
        raise ConfigError(where.rstrip("."), "must be an object")
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}", f"unknown key (expected one of {sorted(known)})")


def _num(value, field: str, kind=float):
    """``value`` converted by ``kind``, or a ConfigError naming ``field``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"must be a number, got {value!r}")


_RANGES = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, "in [0, 1)": lambda v: 0 <= v < 1}


def _in_range(value, field: str, rule: str) -> float:
    v = _num(value, field)
    if not _RANGES[rule](v):
        raise ConfigError(field, f"must be {rule}")
    return v


def _seed_list(value, field: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(field, "must be a non-empty list of integers")
    return [_num(s, field, int) for s in value]


@dataclass
class ExperimentConfig:
    raw: dict
    base_dir: Path

    # ------------------------------------------------------------------
    def _get(self, key: str, default=None, required: bool = False):
        if required and key not in self.raw:
            raise ConfigError(key, "missing")
        return self.raw.get(key, default)

    def _section(self, key: str, required: bool = False) -> dict:
        """The object at ``key`` ({} when absent), with unknown keys rejected."""
        s = self._get(key, {}, required)
        _check_keys(s, _SECTION_KEYS[key], f"{key}.")
        return s

    @property
    def seeds(self) -> list[int]:
        return _seed_list(self._get("seeds", [1]), "seeds")

    @property
    def horizon_ms(self) -> float:
        return _in_range(self._get("horizon_ms", required=True), "horizon_ms", "> 0")

    @property
    def warmup_fraction(self) -> float:
        return _in_range(self._get("warmup_fraction", 0.1), "warmup_fraction", "in [0, 1)")

    @property
    def scale_interval_ms(self) -> float:
        return _in_range(self._get("scale_interval_ms", 300_000.0), "scale_interval_ms", "> 0")

    @property
    def start_delay_ms(self) -> float:
        return _in_range(self._get("start_delay_ms", 60_000.0), "start_delay_ms", ">= 0")

    @property
    def topology(self) -> Topology:
        t = self._get("topology", required=True)
        try:
            return Topology(t)
        except ValueError:
            raise ConfigError("topology", f"unknown value {t!r}")

    @property
    def transfer_medium(self) -> TransferMedium:
        medium = self._section("transfer").get("medium", "rdma")
        try:
            return TransferMedium(medium)
        except ValueError:
            raise ConfigError("transfer.medium", f"unknown value {medium!r}")

    @property
    def rate_multiplier(self) -> float:
        return _in_range(self._get("rate_multiplier", 1.0), "rate_multiplier", "> 0")

    def policies(self) -> PolicySet:
        p = self._section("policies")
        try:
            policies = PolicySet(
                router=RouterKind(p.get("router", "least_pending")),
                scheduler=SchedulerKind(p.get("scheduler", "slo_priority")),
                autoscaler=AutoscalerKind(p.get("autoscaler", "none")),
                placement=PlacementKind(p.get("placement", "colocate")),
                topology=self.topology,
                max_fanout=int(p.get("max_fanout", 8)),
                aging_slo_fraction=float(p.get("aging_slo_fraction", 0.5)),
                attainment_threshold=float(p.get("attainment_threshold", 0.99)),
                shrink_utilization=float(p.get("shrink_utilization", 0.7)),
                shrink_windows=int(p.get("shrink_windows", 2)),
                capacity_tail_factor=float(p.get("capacity_tail_factor", 1.0)),
            )
        except ValueError as e:
            raise ConfigError("policies", str(e))
        if policies.max_fanout < 1:
            raise ConfigError("policies.max_fanout", "must be >= 1")
        return policies

    def model(self) -> ModelSpec:
        m = self._get("model", required=True)
        if isinstance(m, dict):
            path = self.base_dir / m.get("spec_path", "")
            if not path.exists():
                raise ConfigError("model.spec_path", f"file not found: {path}")
            specs = load_model_specs(path)
            name = m.get("name")
            if name is None or name not in specs:
                raise ConfigError("model.name", f"not in {sorted(specs)}")
            return specs[name]
        try:
            return get_model_spec(m)
        except Exception as e:
            raise ConfigError("model", str(e))

    def profile(self, model: ModelSpec) -> LatencyProfile:
        p = self._get("profile", "auto")
        if p == "auto":
            return calibrate(load_calibration_targets(model.name), model)
        path = self.base_dir / p
        if not path.exists():
            raise ConfigError("profile", f"file not found: {path}")
        return LatencyProfile.load(path, model)

    def slo(self, profile: LatencyProfile) -> SLOSpec:
        s = self._section("slo")
        # Every tail (TTFT/TBT P99, capacity probes, windowed P99) is the 99th
        # percentile; the field is accepted only with that value.
        if s.get("percentile", 0.99) != 0.99:
            raise ConfigError("slo.percentile", "only 0.99 is supported")
        factor = _num(s.get("slo_factor", 5.0), "slo.slo_factor")
        ref_text = _num(s.get("ref_text_tokens", 2048), "slo.ref_text_tokens", int)
        return SLOSpec(
            ttft_base_text_ms=_num(
                s.get("ttft_base_text_ms") or profile.ttft_base_text_ms(ref_text),
                "slo.ttft_base_text_ms",
            ),
            ttft_base_image_ms=_num(
                s.get("ttft_base_image_ms") or profile.ttft_base_image_ms(),
                "slo.ttft_base_image_ms",
            ),
            tbt_base_ms=_num(s.get("tbt_base_ms") or profile.tbt_base(), "slo.tbt_base_ms"),
            slo_factor=factor,
        )

    def servers(self) -> list[ServerSpec]:
        c = self._section("cluster", required=True)
        try:
            n = int(c["servers"])
            gpus = int(c["gpus_per_server"])
            cores = int(c.get("cpu_cores_per_server", 2 * gpus))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError("cluster", f"needs servers/gpus_per_server: {e}")
        if n < 1 or gpus < 1:
            raise ConfigError("cluster", "servers and gpus_per_server must be >= 1")
        return [ServerSpec(i, gpus, cores) for i in range(n)]

    def max_batch(self) -> dict:
        """The engine's per-stage batch caps: the defaults, overridden by the config."""
        caps = dict(self._get("max_batch", {}))
        for stage, cap in caps.items():
            if stage not in DEFAULT_MAX_BATCH:
                raise ConfigError(f"max_batch.{stage}",
                                  f"unknown stage (expected one of {sorted(DEFAULT_MAX_BATCH)})")
            if not isinstance(cap, int) or cap < 1:
                raise ConfigError(f"max_batch.{stage}", "must be an integer >= 1")
        return {**DEFAULT_MAX_BATCH, **caps}

    def capacity(self) -> tuple[float, float, float, float, list[int]]:
        """The capacity search's (lo, hi, rel_tol, horizon_ms, seeds)."""
        cap = self._section("capacity")
        lo = _in_range(cap.get("lo_multiplier", 0.25), "capacity.lo_multiplier", "> 0")
        hi = _in_range(cap.get("hi_multiplier", 2.0), "capacity.hi_multiplier", "> 0")
        if lo >= hi:
            raise ConfigError("capacity.hi_multiplier", f"must be > capacity.lo_multiplier ({lo})")
        return (
            lo,
            hi,
            _in_range(cap.get("rel_tol", 0.02), "capacity.rel_tol", "> 0"),
            _in_range(cap.get("horizon_ms", self.horizon_ms), "capacity.horizon_ms", "> 0"),
            _seed_list(cap.get("seeds", self.seeds), "capacity.seeds"),
        )

    def workload(self, model: ModelSpec, seed: int, rate_multiplier: float,
                 horizon_ms: float) -> list[Request]:
        w = self._get("workload", required=True)
        if "trace" in w:
            path = self.base_dir / w["trace"]
            if not path.exists():
                raise ConfigError("workload.trace", f"file not found: {path}")
            result = load_trace(path, model)
            requests = result.requests
            if rate_multiplier != 1.0:
                requests = [
                    Request(
                        id=r.id,
                        arrival_ms=r.arrival_ms / rate_multiplier,
                        text_tokens=r.text_tokens,
                        images=r.images,
                        output_tokens=r.output_tokens,
                        service_id=r.service_id,
                    )
                    for r in requests
                ]
            return [r for r in requests if r.arrival_ms <= horizon_ms]
        if "generator" in w:
            gen = self.generator(model, seed)
            gen.base_rate *= rate_multiplier
            return generate(gen, horizon_ms)
        raise ConfigError("workload", "needs either 'trace' or 'generator'")

    def generator(self, model: ModelSpec, seed: int) -> GeneratorConfig:
        g = self._get("workload", required=True).get("generator", {})
        _check_keys(g, _GENERATOR_KEYS, "workload.generator.")
        episodes = []
        for i, e in enumerate(g.get("burst_episodes", [])):
            where = f"workload.generator.burst_episodes[{i}]"
            _check_keys(e, _EPISODE_KEYS, f"{where}.")
            if "start_ms" not in e or "duration_ms" not in e:
                raise ConfigError(where, "needs start_ms and duration_ms")
            episodes.append(BurstEpisode(**{k: _num(v, f"{where}.{k}") for k, v in e.items()}))
        kwargs = {k: v for k, v in g.items()
                  if k not in ("burst_episodes", "images_per_request", "seed")}
        if "images_per_request" in g:
            kwargs["images_per_request"] = {int(k): float(v) for k, v in g["images_per_request"].items()}
        base_seed = int(g.get("seed", 0))
        try:
            cfg = GeneratorConfig(model=model, seed=base_seed + seed,
                                  burst_episodes=tuple(episodes), **kwargs)
            cfg.validate()
        except (TypeError, ValueError) as e:
            raise ConfigError("workload.generator", str(e))
        return cfg

    def instance_plan(self, model: ModelSpec, profile: LatencyProfile, slo: SLOSpec,
                      seed: int) -> list[InstancePlan]:
        inst = self._get("instances", required=True)
        topo_pools = POOL_ROLES[self.topology].pools
        if inst == "auto":
            if self.topology is not Topology.DECOUPLED:
                raise ConfigError("instances", "auto sizing supports the decoupled topology only")
            image_tp, _ = select_sharding("image", model, profile, slo)
            text_tp, _ = select_sharding("text", model, profile, slo)
            workload = self.workload(model, seed, self.rate_multiplier, self.horizon_ms)
            decision = initial_sizing(summarize(workload), profile, slo, image_tp, text_tp)
            return [
                InstancePlan("image", decision.tp["image"], decision.targets["image"]),
                InstancePlan("text", decision.tp["text"], decision.targets["text"]),
            ]
        if not isinstance(inst, dict):
            raise ConfigError("instances", "must be 'auto' or a pool mapping")
        plan = []
        for pool, entry in inst.items():
            if pool not in topo_pools:
                raise ConfigError(
                    "instances", f"pool '{pool}' invalid for topology {self.topology.value} "
                    f"(expected {sorted(topo_pools)})"
                )
            _check_keys(entry, _INSTANCE_KEYS, f"instances.{pool}.")
            try:
                plan.append(InstancePlan(pool, int(entry["tp"]), int(entry["count"])))
            except (KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"instances.{pool}", f"needs count/tp: {e}")
        missing = topo_pools - {p.pool for p in plan}
        if missing:
            raise ConfigError("instances", f"missing pools for topology: {sorted(missing)}")
        return plan


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


def validate_config(cfg: ExperimentConfig) -> None:
    """Eagerly resolve every section so errors surface before any run."""
    _check_keys(cfg.raw, _TOP_LEVEL_KEYS, "")
    model = cfg.model()
    profile = cfg.profile(model)
    slo = cfg.slo(profile)
    cfg.policies()
    cfg.servers()
    cfg.seeds
    cfg.horizon_ms
    cfg.transfer_medium
    cfg.warmup_fraction
    cfg.rate_multiplier
    cfg.scale_interval_ms
    cfg.start_delay_ms
    cfg.capacity()
    cfg.max_batch()
    w = cfg._get("workload", required=True)
    if "trace" in w:
        path = cfg.base_dir / w["trace"]
        if not path.exists():
            raise ConfigError("workload.trace", f"file not found: {path}")
    elif "generator" in w:
        cfg.generator(model, 0)
    else:
        raise ConfigError("workload", "needs either 'trace' or 'generator'")
    cfg.instance_plan(model, profile, slo, cfg.seeds[0])


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def build_simulation(cfg: ExperimentConfig, seed: int, rate_multiplier: float | None = None,
                     horizon_ms: float | None = None, validate: bool = False) -> Simulation:
    model = cfg.model()
    profile = cfg.profile(model)
    slo = cfg.slo(profile)
    policies = cfg.policies()
    servers = cfg.servers()
    horizon = horizon_ms if horizon_ms is not None else cfg.horizon_ms
    mult = rate_multiplier if rate_multiplier is not None else cfg.rate_multiplier
    workload = cfg.workload(model, seed, mult, horizon)
    plan = cfg.instance_plan(model, profile, slo, seed)
    max_batch = cfg.max_batch()
    autoscaler = None
    if policies.autoscaler is AutoscalerKind.TOKEN_AWARE:
        budget = sum(s.gpus for s in servers)
        autoscaler = TokenAwareAutoscaler(profile, slo, policies, cfg.topology, budget, max_batch)
    return Simulation(
        model=model,
        profile=profile,
        slo=slo,
        policies=policies,
        servers=servers,
        instance_plan=plan,
        workload=workload,
        horizon_ms=horizon,
        seed=seed,
        transfer_medium=cfg.transfer_medium,
        max_batch=max_batch,
        autoscaler=autoscaler,
        scale_interval_ms=cfg.scale_interval_ms,
        start_delay_ms=cfg.start_delay_ms,
        validate=validate,
    )


def seed_summary(cfg: ExperimentConfig, log: MetricsLog) -> dict:
    latency = summarize_latency(log, cfg.warmup_fraction)
    cost = cost_summary(log)
    return {
        "seed": log.seed,
        "arrived": log.arrived,
        "completed": log.completed,
        "in_flight": log.in_flight,
        "latency": latency.to_dict(),
        "attainment": overall_attainment(log, cfg.warmup_fraction),
        "gpu_seconds": cost.gpu_seconds,
        "peak_gpus": cost.peak_gpus,
    }


def _simulate_worker(raw: dict, base_dir: str, seed: int, out_dir: str | None,
                     rate_multiplier: float | None, horizon_ms: float | None) -> dict:
    cfg = config_from_dict(raw, base_dir)
    sim = build_simulation(cfg, seed, rate_multiplier, horizon_ms)
    log = sim.run()
    summary = seed_summary(cfg, log)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log.to_csv(out / f"requests_seed{seed}.csv")
        windows = slo_attainment(log, window_ms=60_000.0)
        cost = cost_summary(log)
        gpus_by_window = dict(cost.timeline)
        rows = ["seed,window_start_ms,gpus,completed,attainment,p99_ttft_ms,vacuous"]
        window_dicts = []
        for w in windows:
            gpus = gpus_by_window.get(w.start_ms, cost.timeline[-1][1] if cost.timeline else 0)
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
        (out / f"windows_seed{seed}.json").write_text(
            json.dumps({"seed": seed, "gpu_seconds": cost.gpu_seconds,
                        "peak_gpus": cost.peak_gpus, "windows": window_dicts}, indent=2)
            + "\n"
        )
    return summary


def _pool_size() -> int:
    return max(1, min(os.cpu_count() or 1, 8))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   seeds: list[int] | None = None, parallel: bool = True) -> dict:
    """Run all seeds, write per-seed artifacts, and aggregate a summary."""
    seeds = seeds if seeds is not None else cfg.seeds
    out = str(out_dir) if out_dir is not None else None
    jobs = [(cfg.raw, str(cfg.base_dir), s, out, None, None) for s in seeds]
    if parallel and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=_pool_size()) as pool:
            results = list(pool.map(_simulate_worker, *zip(*jobs)))
    else:
        results = [_simulate_worker(*j) for j in jobs]
    by_seed = {r["seed"]: r for r in results}
    agg = aggregate_summaries(list(by_seed.values()))
    summary = {"config": cfg.raw, "seeds": by_seed, "aggregate": agg}
    if out is not None:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / "summary.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")
        combined = []
        for s in seeds:
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
def _capacity_probe_worker(raw: dict, base_dir: str, seed: int, rate: float,
                           horizon_ms: float) -> dict:
    cfg = config_from_dict(raw, base_dir)
    sim = build_simulation(cfg, seed, rate_multiplier=rate, horizon_ms=horizon_ms)
    log = sim.run()
    latency = summarize_latency(log, cfg.warmup_fraction)
    checks = {}
    for group, multimodal in (("text-only", False), ("image-text", True)):
        stats = latency.ttft[group]
        if stats.count:
            checks[f"ttft_{group}"] = (stats.p99, sim.slo.ttft_slo_ms(multimodal))
    tbt = latency.tbt["overall"]
    if tbt.count:
        checks["tbt"] = (tbt.p99, sim.slo.tbt_slo_ms)
    ok = all(v <= limit for v, limit in checks.values()) and latency.ttft["overall"].count > 0
    return {"seed": seed, "ok": ok, "checks": checks}


def run_capacity(cfg: ExperimentConfig) -> CapacityResult:
    """Largest request rate (req/s) meeting tail SLOs, via bisection."""
    lo, hi, rel_tol, horizon, seeds = cfg.capacity()
    if len(seeds) < 3:
        seeds = (seeds * 3)[:3]
    base_rate = _offered_rate(cfg)

    def probe(multiplier: float) -> bool:
        jobs = [(cfg.raw, str(cfg.base_dir), s, multiplier, horizon) for s in seeds]
        if len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=_pool_size()) as pool:
                results = list(pool.map(_capacity_probe_worker, *zip(*jobs)))
        else:
            results = [_capacity_probe_worker(*j) for j in jobs]
        return all(r["ok"] for r in results)

    result = max_throughput(probe, lo, hi, rel_tol=rel_tol)
    return CapacityResult(
        rate=result.rate * base_rate,
        feasible=result.feasible,
        probes=[(m * base_rate, ok) for m, ok in result.probes],
    )


def _offered_rate(cfg: ExperimentConfig) -> float:
    """Baseline request rate of the configured workload, req/s."""
    w = cfg.raw["workload"]
    if "generator" in w:
        return float(w["generator"].get("base_rate", 5.0))
    model = cfg.model()
    result = load_trace(cfg.base_dir / w["trace"], model)
    if not result.requests:
        return 0.0
    span = max(r.arrival_ms for r in result.requests) / 1000.0
    return len(result.requests) / max(span, 1e-9)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _apply_axis(raw: dict, axis: str, value: str) -> dict:
    import copy

    out = copy.deepcopy(raw)
    if axis == "image_request_fraction":
        out.setdefault("workload", {}).setdefault("generator", {})["image_request_fraction"] = float(value)
    elif axis == "slo_factor":
        out.setdefault("slo", {})["slo_factor"] = float(value)
    elif axis == "rate_multiplier":
        out["rate_multiplier"] = float(value)
    elif axis == "instance_ratio":
        try:
            text_n, image_n = (int(x) for x in value.split(":"))
        except ValueError:
            raise ConfigError("sweep.values", f"instance_ratio value {value!r} is not 'T:I'")
        inst = out.get("instances")
        if not isinstance(inst, dict) or "text" not in inst or "image" not in inst:
            raise ConfigError("instances", "instance_ratio sweep needs explicit text/image pools")
        inst["text"]["count"] = text_n
        inst["image"]["count"] = image_n
    else:
        raise ConfigError("sweep.axis", f"unknown axis {axis!r}")
    return out


SWEEP_AXES = ("image_request_fraction", "slo_factor", "rate_multiplier", "instance_ratio")


def run_sweep(cfg: ExperimentConfig, axis: str, values: list[str],
              out_dir: str | Path | None = None) -> list[dict]:
    """One experiment per axis value; rows are independent of execution order."""
    if axis not in SWEEP_AXES:
        raise ConfigError("sweep.axis", f"unknown axis {axis!r} (known: {SWEEP_AXES})")
    rows = []
    for value in values:
        raw = _apply_axis(cfg.raw, axis, value)
        sub = config_from_dict(raw, cfg.base_dir)
        validate_config(sub)
        summary = run_experiment(sub, out_dir=None)
        agg = summary["aggregate"]
        rows.append({"axis": axis, "value": value, **agg})
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(row[k]) for k in header))
        (path / "sweep.csv").write_text("\n".join(lines) + "\n")
    return rows
