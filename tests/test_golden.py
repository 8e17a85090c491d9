"""Golden outputs: the SHA-256 of every ``requests_seed*.csv`` for fixed configs,
and one capacity search's exact result.

These pins make "byte-identical output" checkable across commits. A change
that alters any of these outputs on purpose updates the pins and says why
in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import json
import random
from pathlib import Path

import pytest

from lmmsim import experiment
from lmmsim.experiment import (
    build_simulation,
    config_from_dict,
    run_capacity,
    run_experiment,
    validate_config,
)
from lmmsim.workload import TRACE_COLUMNS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _load(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _demo(**overrides) -> dict:
    return {**_load("demo.json"), **overrides}


def _policies(**overrides) -> dict:
    return {**_load("demo.json")["policies"], **overrides}


def _scaled(**overrides) -> dict:
    demo = _load("demo.json")
    return _demo(
        cluster={**demo["cluster"], "servers": 32},
        instances={"text": {"count": 56, "tp": 4}, "image": {"count": 32, "tp": 1}},
        workload={"generator": {**demo["workload"]["generator"], "base_rate": 40.0}},
        horizon_ms=40_000,
        **overrides,
    )


VARIANTS = {
    "demo": _load("demo.json"),
    "demo_monolith": _load("demo_monolith.json"),
    "decoupled_pd": _demo(
        topology="decoupled_pd",
        instances={"prefill": {"count": 4, "tp": 4}, "decode": {"count": 3, "tp": 4},
                   "image": {"count": 4, "tp": 1}},
    ),
    "monolith_pd": _demo(
        topology="monolith_pd",
        instances={"prefill": {"count": 4, "tp": 4}, "decode": {"count": 4, "tp": 4}},
    ),
    # No image instance until the autoscaler's first one starts at 40 s, so
    # image-bearing requests park and are re-dispatched when it does.
    "cold_image": _demo(
        instances={"text": {"count": 7, "tp": 4}, "image": {"count": 0, "tp": 1}},
        policies=_policies(autoscaler="token_aware"),
        scale_interval_ms=30_000, start_delay_ms=10_000,
    ),
    "rr_fifo_tcp": _demo(
        policies=_policies(router="round_robin", scheduler="fifo", autoscaler="token_aware"),
        transfer={"medium": "tcp"},
        scale_interval_ms=60_000, start_delay_ms=20_000,
    ),
    # The demo ×8 (32 servers, 56 text and 32 image instances, 8× the rate):
    # many equal-load instances, so routing tie-breaks by id matter.
    "scaled": _scaled(),
    # The same with token_aware scaling, which drains and stops 40 instances
    # out of the middle of the id range and starts 13.
    "scaled_autoscale": _scaled(
        policies=_policies(autoscaler="token_aware"),
        scale_interval_ms=5_000, start_delay_ms=2_000,
    ),
}

PINS = {
    "cold_image": {
        "requests_seed1.csv": "6f4baa2b8748aec60eee3fe7f6cf92af1cbd0eae78ee200919139bd8520577e8",
        "requests_seed2.csv": "1b389e4fa41f7bb6eeada77db8d0b460b933686496769bd2274dd0c936b7713e",
    },
    "decoupled_pd": {
        "requests_seed1.csv": "5862f401d05e8542923d5b79a33dcc3019c561d32a12af534877f68ac0e2705b",
        "requests_seed2.csv": "3154d2c3f2ac4879561832492d4c12e786c7f217c62e8fcb76b43a5a4ef5bedf",
    },
    "demo": {
        "requests_seed1.csv": "68d3886c888a9b987e9c8efd4399dd2e85f8209244d20e2e86233f7d1fb88674",
        "requests_seed2.csv": "fc7fee0213f36265612dae414e61728fa6dd122ec6a75e6cb0692a60d28a69d6",
    },
    "demo_monolith": {
        "requests_seed1.csv": "7244f7553f2d542b070fb8a7d9980c258f0f387a8f8e208ab051b32e724d584b",
        "requests_seed2.csv": "303d334f649472d4579fbd88123738aed5bec1c877fa2795f6184c07829bd1da",
    },
    "monolith_pd": {
        "requests_seed1.csv": "0fa91ba381e1d0180130f54cd4bf61d9c6083b5514ab2db7214a8b40d9c5c3cc",
        "requests_seed2.csv": "08968284134db3af9ce7ddaa9761fcfe2638af1a1ce4c9cb68546a43ef78e764",
    },
    "scaled": {
        "requests_seed1.csv": "97a5df286852423d930fa841a1983a3d90fac60c242589c5d6639e5bfc2ae2dd",
        "requests_seed2.csv": "7d83bffab35d81148514e0338a7a3c6551a46afa978aaffe32e76ea49631c28a",
    },
    "scaled_autoscale": {
        "requests_seed1.csv": "3a22fc12caf699d5ca1a2f8f53d71008068fc70b3382ab07d681c30c2649a153",
        "requests_seed2.csv": "f4e0655e346964403aba4439191633166b0a5715081739184aa9d4e979426887",
    },
    "rr_fifo_tcp": {
        "requests_seed1.csv": "295732cd133d7476cbdd72342b122bf4e901e7dd9c8f853afe16cca616c2a225",
        "requests_seed2.csv": "67b043d0fc3220191d3245bcbb0e99493e8e9508349919ea2717f2f1da548716",
    },
}


def request_digests(raw: dict, out_dir: Path) -> dict[str, str]:
    run_experiment(config_from_dict(raw, CONFIGS), out_dir=out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("requests_seed*.csv"))}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_requests_csv_unchanged(name, tmp_path):
    assert request_digests(VARIANTS[name], tmp_path) == PINS[name]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_invariants_hold(name):
    # validate=True asserts the engine's invariants after every event; the
    # autoscaling variants drain and stop instances along the way.
    exp = validate_config(config_from_dict(VARIANTS[name], CONFIGS))
    log = build_simulation(exp, 1, validate=True).run()
    assert log.completed > 0


# A fixed 120 s trace at about 5 req/s, a third of it image-bearing, whose
# service ids include ones the request CSV must quote, and an empty one that
# replays as "default". Uniform gaps and integer draws keep every cell exact.
TRACE_SERVICES = ["chat", "vision", "a,b", 'say "hi"', "two\nlines", ""]


def _write_replay_trace(path: Path) -> None:
    rng = random.Random(18)
    t = 0.0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        while True:
            t += 50.0 + 300.0 * rng.random()
            if t >= 120_000:
                break
            n_images = 1 + int(3 * rng.random()) if rng.random() < 0.3 else 0
            dims = ";".join(f"{200 + int(600 * rng.random())}x{200 + int(600 * rng.random())}"
                            for _ in range(n_images))
            writer.writerow([f"{t:.3f}", TRACE_SERVICES[int(len(TRACE_SERVICES) * rng.random())],
                             256 + int(2000 * rng.random()), n_images, dims, 1 + int(200 * rng.random())])


TRACE_REPLAY_PIN = {
    "requests_seed1.csv": "cfe5da0782760da99f9d4b51721f191526f71212c189d37e6124367ccc710699",
    "requests_seed2.csv": "9ea24601a88733c106e32184aa71f529414a26ff34d0de5c6e93f194a2635df4",
}


def test_trace_replay_unchanged(tmp_path):
    trace = tmp_path / "trace.csv"
    _write_replay_trace(trace)
    raw = _demo(workload={"trace": str(trace)}, horizon_ms=120_000)
    assert request_digests(raw, tmp_path / "out") == TRACE_REPLAY_PIN


# The demo with a looser SLO and 40 s probes: the capacity search doubles
# twice, fails at 4x, then bisects; ten probes over two seeds.
CAPACITY = _demo(
    slo={"slo_factor": 16.0},
    horizon_ms=60_000,
    capacity={"lo_multiplier": 0.25, "hi_multiplier": 1.0, "horizon_ms": 40_000, "seeds": [1, 2]},
)
CAPACITY_PIN = (11.09375, True, [
    (1.25, True), (5.0, True), (10.0, True), (20.0, False), (15.0, False),
    (12.5, False), (11.25, False), (10.625, True), (10.9375, True), (11.09375, True),
])


def test_capacity_unchanged():
    result = run_capacity(config_from_dict(CAPACITY, CONFIGS))
    assert (result.rate, result.feasible, result.probes) == CAPACITY_PIN


# The README's example config with its pools sized by "auto", which sizes
# each seed's pools from that seed's workload.
README_AUTO = {
    "model": "llama3.2-11b",
    "topology": "decoupled",
    "policies": {"router": "least_pending", "scheduler": "slo_priority"},
    "cluster": {"servers": 4, "gpus_per_server": 8, "cpu_cores_per_server": 16},
    "instances": "auto",
    "workload": {"generator": {"base_rate": 10.0, "image_request_fraction": 0.3, "seed": 0}},
    "slo": {"slo_factor": 5.0},
    "transfer": {"medium": "rdma"},
    "horizon_ms": 600000,
    "seeds": [1, 2, 3],
}
README_AUTO_PIN = {
    "requests_seed1.csv": "0eaf69decbbcfdeb63525fb9acb05598aa324ea4e5867477b8c62e2426c55c21",
    "requests_seed2.csv": "bb287e83c02eca0b5d5e0a26a0d52070a197c50207d3c6256a4a82f4736e13af",
    "requests_seed3.csv": "9db335fb52cb7eb951447f7fd12f817101705fbcc6b352199df8fcde5d4cee16",
}


def test_auto_sizing_generates_each_workload_once(tmp_path, monkeypatch):
    seeds = []
    generate = experiment.generate

    def counted(cfg, horizon_ms):
        seeds.append(cfg.seed)
        return generate(cfg, horizon_ms)

    monkeypatch.setattr(experiment, "generate", counted)
    # Run the seeds in this process, where the calls are counted.
    monkeypatch.setattr(experiment, "_pool", lambda n_jobs: contextlib.nullcontext())
    assert request_digests(README_AUTO, tmp_path) == README_AUTO_PIN
    assert seeds == [1, 2, 3]  # the generator's seed 0 plus each run seed, once each
