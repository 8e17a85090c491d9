"""lmmsim benchmark: one workload, repeated for a fixed time, checked and summarized.

    python3 bench/run.py --workload big-cluster --seed 1 --seconds 30 --trace 0

Makes the workload's inputs from ``--seed``, then runs one operation after
another, each in a fresh interpreter (``bench/measure.py``), until the next
one would end after ``--seconds``. Every operation's outputs are checked
(conservation, completions, capacity probes) and their digests must agree
with each other and with any earlier run of the same code and seed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json as medians over the operations. With ``--trace 1`` untraced
and traced operations alternate, and the line reports the per-layer
metrics (medians over traced operations) plus the tracing overhead. All
times are host times, i.e. what running the simulator costs.

Scratch files go to ``.bench_work/`` in the checkout, or to the directory
named by the ``BENCH_WORK_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Leave room under the 180 s a run may take for the last operation to finish.
RUN_CEILING_S = 150.0
OP_TIMEOUT_S = 170.0


def code_fingerprint() -> str:
    """Digest of the simulator and benchmark sources that shape the outputs."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_op(workload: str, config: Path, out: Path, traced: bool, budget_s: float) -> dict:
    """One measured operation in its own process group; its report or a failure."""
    cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", workload,
           "--config", str(config), "--out", str(out), "--trace", str(int(traced))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "problems": [f"operation exceeded {budget_s:.0f} s"], "sims": 0}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-5:]
        return {"ok": False, "problems": [f"exit code {proc.returncode}: " + " | ".join(tail)],
                "sims": 0}
    return json.loads(lines[-1])


def check_known_digests(path: Path, key: str, digests: dict) -> str | None:
    """Compare with the digests an earlier run of the same code and seed saw."""
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        if known[key] != digests:
            return f"digests differ from an earlier run of the same code and seed: {known[key]}"
        return None
    known[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn a kill into SystemExit, so run_op's cleanup stops the operation too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "lmmsim" / "__init__.py").is_file():
        print(f"error: no lmmsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = Path(os.environ.get("BENCH_WORK_DIR", ROOT / ".bench_work"))
    run_dir = work / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    raw, info = workloads.make_inputs(args.workload, args.seed, run_dir)
    config = run_dir / "config.json"
    config.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"workload {args.workload}: input " + ", ".join(f"{k}={v}" for k, v in info.items()))

    started = time.perf_counter()
    reports: list[tuple[bool, dict]] = []
    durations: list[float] = []
    while True:
        traced = bool(args.trace) and len(reports) % 2 == 1
        out = run_dir / f"op{len(reports)}"
        budget = OP_TIMEOUT_S - (time.perf_counter() - started)
        t0 = time.perf_counter()
        report = run_op(args.workload, config, out, traced, budget)
        durations.append(time.perf_counter() - t0)
        reports.append((traced, report))
        if report.get("ok") and len(reports) > 2:  # keep the first of each kind
            shutil.rmtree(out, ignore_errors=True)
        print(f"op {len(reports)} {'traced' if traced else 'untraced'}: "
              + (" ".join(f"{k}={v:.4g}" for k, v in {**report["e2e"], **report["host"]}.items())
                 if "e2e" in report else "; ".join(report["problems"])))
        if not report.get("ok"):
            break
        elapsed = time.perf_counter() - started
        enough = len(reports) >= (2 if args.trace else 1)
        next_end = elapsed + statistics.median(durations)
        if enough and (next_end > seconds or next_end > RUN_CEILING_S):
            break

    failed = 0
    problems = []
    reference = next((r for _, r in reports if r.get("ok")), None)
    for traced, r in reports:
        bad = list(r.get("problems", []))
        if r.get("ok") and r["digests"] != reference["digests"]:
            bad.append(f"digests {r['digests']} differ from the first operation's")
        if bad:
            failed += max(r.get("sims", 0), 1)
            problems.extend(bad)
    if reference is not None:
        key = f"{code_fingerprint()}:{args.workload}:{args.seed}"
        drift = check_known_digests(work / "digests.json", key, reference["digests"])
        if drift:
            problems.append(drift)
            failed = sum(max(r.get("sims", 0), 1) for _, r in reports)
        for name, digest in reference["digests"].items():
            print(f"digest {name} sha256 {digest}")
        print("simulated " + json.dumps(reference["summary"], sort_keys=True))
    for p in problems:
        print(f"FAILED: {p}")
    attempted = sum(max(r.get("sims", 0), 1) for _, r in reports)

    good = [(t, r) for t, r in reports if r.get("ok")]
    untraced = [r for t, r in good if not t]
    traced_reports = [r for t, r in good if t]
    metrics = {}
    if untraced and (traced_reports or not args.trace):
        if args.trace:
            values = {name: statistics.median_low(r["layers"][name] for r in traced_reports)
                      for name in traced_reports[0]["layers"]}
            values["trace.overhead_s"] = (
                statistics.median(r["e2e"]["wall_s"] for r in traced_reports)
                - statistics.median(r["e2e"]["wall_s"] for r in untraced))
        else:
            values = {name: statistics.median(r["e2e"][name] for r in untraced)
                      for name in untraced[0]["e2e"]}
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"error: metrics not measured: {missing}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{len(reports)} operations in {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
