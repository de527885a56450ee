"""The layer spans of an ntnsim run, installed from outside the package, and
the per-layer metrics computed from them.

Every public function is patched under each module attribute its callers
look up: `madrl` imports `init_world` and `apply_trajectory` by name and
`mac` imports `step_ue_mobility`, so those are patched there as well as in
`scenario`. Observers only read arguments and results.
"""

from __future__ import annotations

import inspect

import numpy as np

from metrics import PER_CALL
from spantrace import Spans, Tracer, per_call, rate

UNIT_SCALE = {"us": 1e6, "ms": 1e3}


class Probes:
    """What the observers read during a traced run."""

    def __init__(self):
        self.trainers = []
        self.traj_nets: set[int] = set()
        self.state_serial: dict[int, int] = {}
        self.states = 0
        self.used_states: set[int] = set()
        self.platform_slots = 0
        self.idle_platform_slots = 0
        self.arrived = self.delivered = self.dropped = 0

    def trainer_built(self, args, kwargs, out):
        trainer = args[0]
        # holding the trainers keeps the ids in traj_nets from being reused
        self.trainers.append(trainer)
        self.traj_nets.update(id(n) for a in trainer.traj_agents for n in (a.actor, a.critic))

    def group(self, base: str, net) -> str:
        return f"{base}.traj" if id(net) in self.traj_nets else f"{base}.sched"

    def state_made(self, args, kwargs, out):
        # An id is unique among live objects, and the arrays pushed are alive,
        # so the latest state registered under a pushed array's id is that array.
        self.state_serial[id(out)] = self.states
        self.states += 1

    def pushed(self, args, kwargs, out):
        # ReplayBuffer.push(self, state, obs, actions, reward, next_state, next_obs, done)
        for state in (args[1], args[5]):
            serial = self.state_serial.get(id(state))
            if serial is not None:
                self.used_states.add(serial)

    def scheduled(self, args, kwargs, choices):
        self.platform_slots += len(choices)
        self.idle_platform_slots += sum(ue is None for ue in choices.values())

    def episode_done(self, args, kwargs, result):
        self.arrived += result.arrived_bits
        self.delivered += result.delivered_bits
        self.dropped += result.dropped_bits


def install(tracer: Tracer, ntnsim) -> Probes:
    """Wrap the public functions of every layer; `ntnsim` maps module names
    (harness, madrl, mac, traffic, scenario, channel, nn) to modules."""
    probes = Probes()
    modules = list(ntnsim.values())
    harness, madrl, mac, traffic, scenario, channel, nn = (
        ntnsim[k] for k in ("harness", "madrl", "mac", "traffic", "scenario", "channel", "nn")
    )

    def fn(module, name, **kwargs):
        span = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        tracer.trace_function(vars(module)[name], modules, span, **kwargs)

    fn(harness, "parse_config")
    fn(harness, "run_single")
    tracer.trace_method(madrl.Trainer, "__init__", "harness.trainer_init", observe=probes.trainer_built)
    tracer.trace_method(madrl.ReplayBuffer, "push", "madrl.replay_push", observe=probes.pushed)
    tracer.trace_method(madrl.ReplayBuffer, "sample", "madrl.replay_sample")
    fn(madrl, "run_episode", observe=probes.episode_done)
    fn(madrl, "global_state", observe=probes.state_made)
    for name in ("local_observation", "select_action", "critic_targets", "target_actions"):
        fn(madrl, name)
    fn(madrl, "update_critic",
       classify=lambda a, k: probes.group("madrl.update_critic", a[0] if a else k["critic"]))
    fn(madrl, "update_actor",
       classify=lambda a, k: probes.group("madrl.update_actor", a[1] if len(a) > 1 else k["actor"]))

    for name in ("init_world", "step_ue_mobility", "apply_trajectory"):
        fn(scenario, name)
    for name in ("generate_arrivals", "drop_expired", "serve_bits"):
        fn(traffic, name)
    tracer.trace_method(traffic.PacketQueue, "queued_bits", "traffic.queued_bits", count_only=True)
    tracer.trace_method(traffic.PacketQueue, "hol_age", "traffic.hol_age", count_only=True)
    for name in ("associate", "backhaul_rates", "step_slot", "observed_ues"):
        fn(mac, name)
    fn(mac, "decode_schedule", observe=probes.scheduled)
    fn(mac, "rr_schedule", observe=probes.scheduled)
    for name, obj in list(vars(channel).items()):
        if inspect.isfunction(obj) and obj.__module__ == channel.__name__ and not name.startswith("_"):
            fn(channel, name)

    fn(nn, "mlp_forward",
       classify=lambda a, k: "nn.mlp_forward.single" if np.ndim(a[1] if len(a) > 1 else k["x"]) == 1
       else "nn.mlp_forward.batch")
    for name in ("mlp_backward", "adam_step", "soft_update"):
        fn(nn, name)
    return probes


def slots_by_phase(sp: Spans) -> tuple[int, int]:
    """Slots stepped inside training rollouts and inside evaluations."""
    slot_episode = sp.parent[sp.of("mac.step_slot")]
    episodes = sp.of("madrl.run_episode")
    train = np.isin(slot_episode, sp.with_parent(episodes, "madrl.rollout")).sum()
    evals = np.isin(slot_episode, sp.with_parent(episodes, "madrl.evaluate")).sum()
    return int(train), int(evals)


def analyse(sp: Spans, counts: dict[str, int], probes: Probes) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced run, and for each tail metric the
    percentile and sample count it stands for."""
    out: dict[str, float] = {}
    tails: dict[str, str] = {}
    step = sp.of("mac.step_slot")
    slots = len(step)
    rounds = sp.of("madrl.update_round")
    rounds = rounds[sp.has_children()[rounds]]  # a spent budget leaves empty rounds

    for base, _ in PER_CALL:
        span, unit = base.rsplit(".", 1)
        if unit.startswith("self_"):
            seconds = sp.self_times(sp.of(span))
        elif span == "madrl.update_round":
            seconds = sp.duration[rounds]
        else:
            seconds = sp.duration[sp.of(span)]
        p50, tail, pct, n = per_call(seconds * UNIT_SCALE[unit.removeprefix("self_")])
        out[f"{base}.p50"] = p50
        out[f"{base}.tail"] = tail
        tails[f"{base}.tail"] = f"p{pct:g} of {n}"
        if not unit.startswith("self_"):
            out[f"{span}.calls"] = n

    def total(name):
        return float(sp.duration[sp.of(name)].sum())

    def calls(name):
        return len(sp.of(name))

    train_slots, eval_slots = slots_by_phase(sp)
    episodes = sp.of("madrl.run_episode")
    channel_ids = [i for i, n in enumerate(sp.names) if n.startswith("channel.")]
    in_channel = np.isin(sp.name_id, channel_ids)
    outermost = in_channel & ~np.isin(sp.parent_name_id, channel_ids)
    run = sp.of("harness.run_single")
    run_self = float(sp.self_times(run).sum())
    run_total = float(sp.duration[run].sum())
    buffers = [b for t in probes.trainers[-1:] for b in (t.sched_buffer, t.traj_buffer) if b is not None]

    out.update({
        "traffic.drop_expired.us_per_slot": rate(total("traffic.drop_expired"), slots) * 1e6,
        "traffic.queued_bits.calls_per_slot": rate(counts["traffic.queued_bits"], slots),
        "traffic.hol_age.calls_per_slot": rate(counts["traffic.hol_age"], slots),
        "traffic.delivered_share": rate(probes.delivered, probes.arrived),
        "traffic.drop_share": rate(probes.dropped, probes.arrived),
        "channel.calls_per_slot": rate(int(in_channel.sum()), slots),
        "channel.us_per_slot": rate(float(sp.duration[outermost].sum()), slots) * 1e6,
        "mac.observed_ues.calls_per_slot": rate(calls("mac.observed_ues"), slots),
        "mac.idle_share": rate(probes.idle_platform_slots, probes.platform_slots),
        "madrl.run_episode.train.us_per_slot": rate(
            float(sp.duration[sp.with_parent(episodes, "madrl.rollout")].sum()), train_slots) * 1e6,
        "madrl.run_episode.eval.us_per_slot": rate(
            float(sp.duration[sp.with_parent(episodes, "madrl.evaluate")].sum()), eval_slots) * 1e6,
        "madrl.global_state.calls_per_slot": rate(calls("madrl.global_state"), slots),
        "madrl.global_state.used_share": rate(len(probes.used_states), probes.states),
        "madrl.local_observation.calls_per_slot": rate(calls("madrl.local_observation"), slots),
        "madrl.replay_bytes": sum(
            v.nbytes for b in buffers for v in vars(b).values() if isinstance(v, np.ndarray)),
        "nn.mlp_backward.calls_per_round": rate(calls("nn.mlp_backward"), len(rounds)),
        "harness.parse_config.ms": per_call(sp.duration[sp.of("harness.parse_config")] * 1e3)[0],
        "harness.trainer_init.ms": per_call(sp.duration[sp.of("harness.trainer_init")] * 1e3)[0],
        "harness.run_single.self_s": run_self,
        "trace.coverage": rate(run_total - run_self, run_total),
    })
    return out, tails
