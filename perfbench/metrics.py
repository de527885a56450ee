"""Workloads and metric tables of the ntnsim benchmark.

Every workload uses the default scenario, traffic, channel and network
widths, which are the only settings real callers (the acceptance suite, the
README and the CLI) use. Only run lengths and the training milestones that
must fall inside a short run are set here.

Each per-layer metric names the end-to-end metric and the workload it should
move (`moves`), so that an issue can state its prediction before the change.
"""

from __future__ import annotations

# name -> (why, method, [train] overrides)
WORKLOADS = {
    "rr-sim": (
        "round-robin, parked nodes, no nets: nearly all time is in the simulator "
        "layers and none in nn, so it shows simulator gains and bypasses update-round gains",
        "rr",
        {"episodes": 40, "eval_every_episodes": 20},
    ),
    "maddpg-train": (
        "schedulers learn, nodes stay parked: batch-128 nn work beside batch-1 actor "
        "inference and observation building; node positions never change",
        "maddpg",
        {"episodes": 16, "eval_every_episodes": 8, "warmup_transitions": 500},
    ),
    "tts-train": (
        "both groups learn and nodes move; warmup, both critics, both actor groups "
        "stepping, budget end and eval checkpoints all fall inside the run",
        "tts-maddpg",
        {
            "episodes": 16,
            "eval_every_episodes": 8,
            # 100 + 20 transitions per episode: updates start after episode 5
            "warmup_transitions": 600,
            # 25 rounds per episode: velocity actors step in rounds 75..174,
            # optimisation stops at round 225 (episode 13 of 16)
            "traj_actor_delay": 75,
            "traj_actor_window": 100,
            "update_rounds_budget": 225,
        },
    ),
}

COMMON_TRAIN = {"slots_per_episode": 100, "eval_episodes": 5}


def config_text(workload: str, seed: int, out_dir: str) -> str:
    """The ntnsim config of one workload run; `seed` is the run seed."""
    _, method, train = WORKLOADS[workload]
    lines = ["[run]", f"method = {method}", f"seeds = {seed}", f"out_dir = {out_dir}", "", "[train]"]
    lines += [f"{k} = {v}" for k, v in {**COMMON_TRAIN, **train}.items()]
    return "\n".join(lines) + "\n"


LEARNING = "maddpg-train, tts-train"
ALL = "rr-sim, maddpg-train, tts-train"

# (name, unit, better); measured with tracing off.
END_TO_END = [
    ("setup_s", "s", "lower"),  # import, parse the config, construct the Trainer
    ("run_s", "s", "lower"),  # wall time of harness.run_single
    ("rollout_s", "s", "lower"),  # total time in Trainer.rollout
    ("eval_s", "s", "lower"),  # total time in Trainer.evaluate
    ("peak_rss_mb", "MB", "lower"),
    ("eval_mbps", "Mbps", "higher"),  # mean overall_mbps of the last eval checkpoint
]

# Timed once per call: each gives <name>.p50 and <name>.tail (the highest
# percentile with at least ten samples beyond it) and, except self times,
# the call count <name without unit>.calls.
PER_CALL = [
    ("scenario.init_world.us", f"rollout_s, eval_s on {ALL}"),
    ("scenario.step_ue_mobility.us", "rollout_s, eval_s on rr-sim"),
    ("scenario.apply_trajectory.us", "rollout_s, eval_s on tts-train"),
    ("traffic.generate_arrivals.us", "rollout_s on rr-sim"),
    ("traffic.serve_bits.us", "rollout_s on rr-sim"),
    ("mac.associate.us", f"rollout_s, eval_s on {ALL}"),
    ("mac.backhaul_rates.us", f"rollout_s, eval_s on {ALL}"),
    ("mac.step_slot.us", f"rollout_s, eval_s on {ALL}"),
    ("mac.step_slot.self_us", f"rollout_s, eval_s on {ALL}"),
    ("mac.decode_schedule.us", f"rollout_s, eval_s on {LEARNING}"),
    ("mac.rr_schedule.us", "rollout_s, eval_s on rr-sim"),
    ("madrl.global_state.us", "rollout_s on rr-sim"),
    ("madrl.local_observation.us", f"rollout_s on {LEARNING}"),
    ("madrl.select_action.us", f"rollout_s on {LEARNING}"),
    ("madrl.replay_push.us", f"rollout_s on {LEARNING}"),
    ("madrl.replay_sample.us", f"run_s via update_s on {LEARNING}"),
    ("madrl.update_round.ms", f"run_s via update_s on {LEARNING}"),
    ("madrl.update_critic.sched.us", f"run_s via update_s on {LEARNING}"),
    ("madrl.update_critic.traj.us", "run_s via update_s on tts-train"),
    ("madrl.update_actor.sched.us", f"run_s via update_s on {LEARNING}"),
    ("madrl.update_actor.traj.us", "run_s via update_s on tts-train"),
    ("madrl.critic_targets.us", f"run_s via update_s on {LEARNING}"),
    ("madrl.target_actions.us", f"run_s via update_s on {LEARNING}"),
    ("nn.mlp_forward.single.us", f"rollout_s, eval_s on {LEARNING}; no change on rr-sim"),
    ("nn.mlp_forward.batch.us", f"run_s via update_s on {LEARNING}; no change on rr-sim"),
    ("nn.mlp_backward.us", f"run_s via update_s on {LEARNING}; no change on rr-sim"),
    ("nn.adam_step.us", f"run_s via update_s on {LEARNING}; no change on rr-sim"),
    ("nn.soft_update.us", f"run_s via update_s on {LEARNING}; no change on rr-sim"),
]

# (name, unit, better, moves), one value per run.
PER_RUN = [
    ("traffic.drop_expired.us_per_slot", "us", "lower", "rollout_s on rr-sim"),
    ("traffic.queued_bits.calls_per_slot", "count", "lower", f"rollout_s on {ALL}"),
    ("traffic.hol_age.calls_per_slot", "count", "lower", f"rollout_s on {ALL}"),
    ("traffic.delivered_share", "fraction", "higher", "rollout_s on rr-sim"),
    ("traffic.drop_share", "fraction", "lower", "rollout_s on rr-sim"),
    ("channel.calls_per_slot", "count", "lower", f"rollout_s on {ALL}"),
    ("channel.us_per_slot", "us", "lower", f"rollout_s on {ALL}"),
    ("mac.observed_ues.calls_per_slot", "count", "lower", f"rollout_s, eval_s on {LEARNING}"),
    ("mac.idle_share", "fraction", "lower", f"rollout_s, eval_s on {ALL}"),
    ("madrl.run_episode.train.us_per_slot", "us", "lower", f"rollout_s on {ALL}"),
    ("madrl.run_episode.eval.us_per_slot", "us", "lower", f"eval_s on {ALL}"),
    ("madrl.global_state.calls_per_slot", "count", "lower", "rollout_s on rr-sim"),
    ("madrl.global_state.used_share", "fraction", "higher", "rollout_s on rr-sim"),
    ("madrl.local_observation.calls_per_slot", "count", "lower", f"rollout_s on {LEARNING}"),
    ("madrl.replay_bytes", "bytes", "lower", f"peak_rss_mb on {LEARNING}"),
    ("nn.mlp_backward.calls_per_round", "count", "lower", f"run_s via update_s on {LEARNING}"),
    ("harness.parse_config.ms", "ms", "lower", f"setup_s on {ALL}"),
    ("harness.trainer_init.ms", "ms", "lower", f"setup_s on {ALL}"),
    ("harness.run_single.self_s", "s", "lower", f"run_s on {ALL}"),
    # Total time in Trainer.update_round, with tracing off. It is not an
    # end-to-end metric because it is 0 by construction on rr-sim.
    ("update_s", "s", "lower", f"run_s on {LEARNING}"),
    ("trace.overhead_s", "s", "lower", "none: cost of tracing"),
    ("trace.coverage", "fraction", "higher", "none: share of run_s inside top-level spans"),
]


def per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, moves) of every per-layer metric, in report order."""
    out = []
    for name, moves in PER_CALL:
        unit = name.rsplit(".", 1)[1].removeprefix("self_")
        out.append((f"{name}.p50", unit, "lower", moves))
        out.append((f"{name}.tail", unit, "lower", moves))
        if not name.endswith("self_us"):
            out.append((name.rsplit(".", 1)[0] + ".calls", "count", "lower", moves))
    return out + PER_RUN
