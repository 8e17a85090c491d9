import pytest

from lmmsim.core import ImageSpec, Request, SLOSpec, get_model_spec
from lmmsim.engine import InstancePlan, ServerSpec, Simulation, TransferMedium
from lmmsim.policies import PlacementKind, PolicySet, RouterKind, SchedulerKind, Topology
from lmmsim.profiles import default_profile

MODELS = {name: get_model_spec(name) for name in
          ("llama3.2-11b", "llama3.2-90b", "internvl-26b", "nvlm-d-72b")}
PROFILES = {name: default_profile(spec) for name, spec in MODELS.items()}


def make_slo(factor=5.0, model="llama3.2-11b", ref_text_tokens=2048):
    profile = PROFILES[model]
    return SLOSpec(
        ttft_base_text_ms=profile.ttft_base_text_ms(ref_text_tokens),
        ttft_base_image_ms=profile.ttft_base_image_ms(),
        tbt_base_ms=profile.tbt_base(),
        slo_factor=factor,
    )


def make_request(rid, arrival_ms, text=100, n_images=0, px=896, out=8, model="llama3.2-11b"):
    spec = MODELS[model]
    images = tuple(ImageSpec.from_dims(px, px, spec) for _ in range(n_images))
    return Request(id=rid, arrival_ms=arrival_ms, text_tokens=text,
                   images=images, output_tokens=out)


def make_sim(workload, model="llama3.2-11b", topology=Topology.DECOUPLED,
             plan=None, servers=None, policies=None, horizon_ms=600_000.0,
             seed=1, transfer=TransferMedium.NONE, max_batch=None,
             scale_interval_ms=300_000.0,
             start_delay_ms=60_000.0, validate=True):
    if plan is None:
        plan = [InstancePlan("text", 4, 1), InstancePlan("image", 1, 4)]
    if servers is None:
        servers = [ServerSpec(0, 8, 16)]
    if policies is None:
        policies = PolicySet(topology=topology)
    elif policies.topology is not topology:
        policies = PolicySet(**{**policies.__dict__, "topology": topology})
    return Simulation(
        profile=PROFILES[model],
        slo=make_slo(model=model),
        policies=policies,
        servers=servers,
        instance_plan=plan,
        workload=workload,
        horizon_ms=horizon_ms,
        seed=seed,
        transfer_medium=transfer,
        max_batch=max_batch,
        scale_interval_ms=scale_interval_ms,
        start_delay_ms=start_delay_ms,
        validate=validate,
    )
