"""One measured operation of a benchmark workload, in a fresh interpreter.

    python3 bench/measure.py --workload W --config CONFIG --out DIR --trace 0|1

Runs the config through lmmsim's public API the way the CLI does (validate,
then ``run_experiment`` or ``run_capacity``), checks the result and prints
one JSON object as the last line of standard output: end-to-end timings,
correctness facts, output digests and, with ``--trace 1``, per-layer
metrics. A fresh interpreter per operation keeps ``ru_maxrss`` and import
costs from carrying over between operations.
"""

import time

T_START = time.perf_counter()  # process start, before lmmsim is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402

EVENT_KINDS = ("instance_started", "cpu_free", "gpu_free", "decode_done", "transfer_done",
               "decode_arrival", "arrival", "scale_tick")
MIN_CAPACITY_PROBES = 5


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_operation(workload: str, raw: dict, base_dir: Path, out: Path, rec: tracing.Recorder):
    """Config dict to outputs on disk; returns (result, t_done, t_written)."""
    with tracing.installed(rec):
        import lmmsim
        from lmmsim.experiment import config_from_dict, run_capacity, run_experiment, validate_config

        if not Path(lmmsim.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"lmmsim imported from {lmmsim.__file__}, not {SRC}")
        cfg = config_from_dict(raw, base_dir)
        validate_config(cfg)
        if workload == "capacity-mono":
            result = run_capacity(cfg)
            t_done = time.perf_counter()
            out.mkdir(parents=True, exist_ok=True)
            (out / "capacity.json").write_text(json.dumps(
                {"rate_req_per_s": result.rate, "feasible": result.feasible,
                 "probes": result.probes}, indent=2) + "\n")
        else:
            result = run_experiment(cfg, out)
            t_done = time.perf_counter()
        return result, t_done, time.perf_counter()


def check(workload: str, result, runs: list, out: Path) -> tuple[list[str], dict, dict]:
    """Problems found, output digests and the simulated summary."""
    problems = []
    if not runs:
        problems.append("no simulation ran")
    for start, end, arrived, completed, in_flight, conserved in runs:
        if not conserved:
            problems.append(f"conservation broken: arrived {arrived}, completed {completed}, "
                            f"in flight {in_flight}")
        if completed <= 0:
            problems.append(f"no request completed (arrived {arrived})")
    if workload == "capacity-mono":
        probes = [[rate, ok] for rate, ok in result.probes]
        canonical = json.dumps({"rate": result.rate, "feasible": result.feasible,
                                "probes": probes}, sort_keys=True)
        digests = {"capacity": _sha256(canonical.encode())}
        summary = {"capacity_req_per_s": result.rate, "feasible": result.feasible,
                   "probes": len(probes)}
        if not result.feasible:
            problems.append("capacity search found no feasible rate")
        if len(probes) < MIN_CAPACITY_PROBES:
            problems.append(f"capacity search took {len(probes)} probes (< {MIN_CAPACITY_PROBES})")
    else:
        digests = {p.name: _sha256(p.read_bytes()) for p in sorted(out.glob("requests_seed*.csv"))}
        if not digests:
            problems.append("no requests_seed*.csv written")
        summary = {
            f"seed{seed}": {
                "arrived": s["arrived"], "completed": s["completed"], "in_flight": s["in_flight"],
                "p99_ttft_ms": s["latency"]["ttft_ms"]["overall"]["p99"],
                "gpu_seconds": s["gpu_seconds"], "peak_gpus": s["peak_gpus"],
            }
            for seed, s in result["seeds"].items()
        }
    return problems, digests, summary


def layer_metrics(rec: tracing.Recorder, outputs_s: float) -> dict:
    """Per-layer metrics from the spans and counters of a traced operation."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _parent in rec.spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    c = rec.counts

    def ratio(num, den):
        return num / den if den else 0.0

    run_s = sum(end - start for start, end, *_ in rec.runs)
    arrived = sum(r[2] for r in rec.runs)
    events = {k: c.get(f"engine.events.{k}", 0) for k in EVENT_KINDS}
    n_events = sum(events.values())
    requests = c.get("workload.requests", 0)
    source_s = total.get("workload.generate", 0.0) + total.get("workload.load_trace", 0.0)
    m = {
        "workload.generate_s": total.get("workload.generate", 0.0),
        "workload.load_trace_s": total.get("workload.load_trace", 0.0),
        "workload.requests": requests,
        "workload.us_per_request": 1e6 * ratio(source_s, requests),
        "profiles.calibrate_calls": calls.get("profiles.calibrate", 0),
        "profiles.calibrate_s": total.get("profiles.calibrate", 0.0),
    }
    for method in tracing.PROFILE_METHODS:
        m[f"profiles.{method}_calls"] = c.get(f"profiles.{method}", 0)
    m.update({
        "engine.run_s": run_s,
        "engine.events": n_events,
        **{f"engine.events.{k}": v for k, v in events.items()},
        "engine.us_per_event": 1e6 * ratio(run_s, n_events),
        "engine.events_per_request": ratio(n_events, arrived),
        "engine.heap_peak": rec.heap_peak,
        "engine.decode_done_stale_frac": ratio(c.get("engine.decode_done_stale", 0),
                                               events["decode_done"]),
        "engine.form_batch_calls": calls.get("engine.form_batch", 0),
        "engine.form_batch_s": total.get("engine.form_batch", 0.0),
        "engine.batch_size_mean": ratio(c.get("engine.batch_items", 0),
                                        calls.get("engine.form_batch", 0)),
        "engine.to_csv_s": total.get("engine.to_csv", 0.0),
    })
    for route in ("route_text", "route_image"):
        n = calls.get(f"policies.{route}", 0)
        m[f"policies.{route}_calls"] = n
        m[f"policies.{route}_s"] = total.get(f"policies.{route}", 0.0)
        m[f"policies.{route}_candidates_mean"] = ratio(c.get(f"policies.{route}_candidates", 0), n)
    m["policies.schedule_order_s"] = total.get("policies.schedule_order", 0.0)
    m["policies.schedule_order_queue_mean"] = ratio(c.get("policies.schedule_order_items", 0),
                                                    calls.get("policies.schedule_order", 0))
    for fn in ("decide", "place"):
        m[f"policies.{fn}_calls"] = calls.get(f"policies.{fn}", 0)
        m[f"policies.{fn}_s"] = total.get(f"policies.{fn}", 0.0)
    for fn in tracing.METRIC_FUNCTIONS:
        m[f"metrics.{fn}_s"] = total.get(f"metrics.{fn}", 0.0)
    probes = calls.get("experiment.probe", 0)
    m.update({
        "experiment.build_simulation_calls": calls.get("experiment.build_simulation", 0),
        "experiment.build_simulation_s": total.get("experiment.build_simulation", 0.0),
        "experiment.probes": probes,
        "experiment.probe_s": ratio(total.get("experiment.probe", 0.0), probes),
        "experiment.pool_starts": c.get("experiment.pool_starts", 0),
        "experiment.outputs_s": outputs_s,
    })
    return m


def write_spans(rec: tracing.Recorder, path: Path) -> None:
    names = sorted({s[0] for s in rec.spans})
    index = {n: i for i, n in enumerate(names)}
    path.write_text(json.dumps({
        "names": names,
        "spans": [[index[n], round(s * 1e6, 1), round(e * 1e6, 1), p] for n, s, e, p in rec.spans],
    }) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    raw = json.loads(args.config.read_text())
    rec = tracing.Recorder(detailed=bool(args.trace))
    rec.start_sampling()
    try:
        result, t_done, t_written = run_operation(args.workload, raw, args.config.parent,
                                                  args.out, rec)
    finally:
        rec.stop_sampling()
    rec.drain()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    runs = rec.runs
    problems, digests, summary = check(args.workload, result, runs, args.out)
    starts = [r[0] for r in runs]
    if args.workload == "capacity-mono":
        # The first probe, else the first pool task, else the first event loop.
        marks = (rec.first_probe, rec.first_submit, min(starts, default=None))
        first_loop = next((t for t in marks if t is not None), None)
    else:
        first_loop = min(starts, default=None)
    if first_loop is None:
        problems.append("no start of an event loop or capacity probe was recorded")
    ref_mean = rec.ref_mean()
    if ref_mean is None:
        problems.append("the host speed was never sampled")
    report = {"ok": not problems, "problems": problems, "sims": len(runs),
              "digests": digests, "summary": summary}
    if not problems:
        run_s = sum(end - start for start, end, *_ in runs)
        last_loop_end = max(r[1] for r in runs)
        # Host time rescaled to nominal host speed, as sampled during the work.
        scale = tracing.REF_NOMINAL_S / ref_mean
        report["e2e"] = {
            "wall_s": (t_done - T_START) * scale,
            "setup_s": (first_loop - T_START) * scale,
            "sim_requests_per_s": sum(r[2] for r in runs) / (run_s * scale),
            "peak_rss_mb": (self_kb + children_kb) / 1024.0,
        }
        report["host"] = {"raw_wall_s": t_done - T_START, "ref_us": ref_mean * 1e6,
                          "ref_samples": len(rec.ref)}
        if args.trace:
            report["layers"] = layer_metrics(rec, t_written - last_loop_end)
            write_spans(rec, args.out / "spans.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
