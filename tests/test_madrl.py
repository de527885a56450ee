"""Observations, replay, update mechanics, two-timescale rollouts."""

import contextlib
import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntnsim import mac, madrl, nn
from ntnsim.channel import ChannelConfig
from ntnsim.madrl import (
    EnvSpec,
    ReplayBuffer,
    TrainConfig,
    Trainer,
    critic_input,
    critic_targets,
    global_state,
    global_state_dim,
    local_observation,
    noise_schedule,
    queue_observation,
    run_episode,
    select_action,
    select_rank,
    target_actions,
    team_reward,
    trajectory_observation,
    update_actor,
    update_critic,
)
from ntnsim.scenario import ScenarioConfig, apply_trajectory, init_world
from ntnsim.traffic import TrafficConfig


def make_env(**kwargs):
    return EnvSpec(
        scenario=ScenarioConfig(**kwargs), traffic=TrafficConfig(), channel=ChannelConfig()
    )


def reference_observation(world, cells, norm, row):
    """One platform row's scheduler observation in world 0, UE by UE."""
    w, h = world.cfg.area_w_m, world.cfg.area_h_m
    px, py = world.positions[0, row, :2].tolist()
    out = [px / w, py / h]
    for ue_id in cells[row].tolist():
        if ue_id < 0:
            out += [0.0] * 4
            continue
        ux, uy = world.ue_positions[0, ue_id].tolist()
        queued = int(world.queue.cells[0, ue_id].sum())
        waiting = np.flatnonzero(world.queue.cells[0, ue_id] > 0)
        age = world.slot - int(world.queue.arrival_slots[waiting[0]]) if len(waiting) else 0
        out += [(ux - px) / w, (uy - py) / h, min(queued / norm.backlog_bits, 1.0),
                min(age / norm.age_slots, 1.0)]
    return out


def test_local_observation_layout_and_bounds():
    env = make_env()
    norm = env.norm()
    assert env.k_obs == 8
    for seed in range(20):
        world = init_world(env.scenario, [seed])
        for _ in range(seed % 4):  # queues with cohorts of several ages
            assoc = mac.associate(world, env.channel)
            mac.step_slot(world, [mac.rr_schedule(assoc.rows[0], world.slot, 5)], env.traffic,
                          env.channel, assoc)
        cells = mac.observed_ues(world, mac.associate(world, env.channel), env.k_obs)
        obs = local_observation(world, cells, queue_observation(world, norm))
        traj_obs = trajectory_observation(world, obs)
        # five schedulers see 2 + 4 * 8 entries, four velocity agents 4 + 4 * 8
        assert obs.shape == (1, 5, 34)
        assert traj_obs.shape == (1, 4, 36)
        for o in (obs, traj_obs):
            assert np.all(o >= -1.0) and np.all(o <= 1.0)
        for row in range(5):
            assert obs[0, row].tolist() == reference_observation(world, cells[0], norm, row)


def test_local_observation_padding_empty_cell():
    env = make_env()
    norm = env.norm()
    world = init_world(env.scenario, [0])
    # cells that give platform row 3 no UEs at all and row 1 only two
    cells = np.full((1, len(env.scenario.platforms), env.k_obs), -1)
    cells[0, 0] = np.arange(env.k_obs)
    cells[0, 1, :2] = (10, 11)
    obs = local_observation(world, cells, queue_observation(world, norm))[0]
    assert np.any(obs[3, :2] != 0.0)
    assert np.all(obs[3, 2:] == 0.0)
    assert np.all(obs[1, [2, 3, 6, 7]] != 0.0)  # the two UEs' relative positions
    assert np.all(obs[1, 10:] == 0.0)


def test_local_observation_trajectory_sees_donor():
    env = make_env()
    norm = env.norm()
    world = init_world(env.scenario, [1])
    cells = mac.observed_ues(world, mac.associate(world, env.channel), env.k_obs)
    sched_obs = local_observation(world, cells, queue_observation(world, norm))
    obs = trajectory_observation(world, sched_obs)[0, 0]  # the node in row 1
    assert np.array_equal(obs[:-2], sched_obs[0, 1])
    w, h = env.scenario.area_w_m, env.scenario.area_h_m
    # donor sits at (w/2, h/2), node 1 at (w/4, h/4)
    assert obs[-2] == pytest.approx((w / 2 - w / 4) / w)
    assert obs[-1] == pytest.approx((h / 2 - h / 4) / h)


def test_global_state_layout():
    env = make_env()
    norm = env.norm()
    world = init_world(env.scenario, [2])
    vec = global_state(world, queue_observation(world, norm))
    n_p, n_u = len(env.scenario.platforms), env.scenario.n_ues
    assert vec.shape == (1, global_state_dim(n_p, n_u))
    assert vec.shape == (1, 2 * n_p + 4 * n_u)
    # UE blocks in id order
    w = env.scenario.area_w_m
    assert np.array_equal(vec[0, 2 * n_p : 2 * n_p + n_u], world.ue_positions[0, :, 0] / w)
    # identical worlds -> identical vectors
    again = init_world(env.scenario, [2])
    assert np.array_equal(global_state(again, queue_observation(again, norm)), vec)


def test_global_state_of_lockstep_worlds_is_each_worlds_own():
    env = make_env(n_ues=10)
    norm, seeds = env.norm(), [3, 4, 5]
    together = init_world(env.scenario, seeds)
    alone = [init_world(env.scenario, [s]) for s in seeds]
    moves = np.random.default_rng(0).uniform(-40.0, 40.0, (len(seeds), 4, 2))
    for t in range(6):  # queues, UEs and nodes that differ world by world
        for world, cmds in [(together, moves)] + [(w, m[None]) for w, m in zip(alone, moves)]:
            assoc = mac.associate(world, env.channel)
            choices = [mac.rr_schedule(rows, t, 5) for rows in assoc.rows]
            mac.step_slot(world, choices, env.traffic, env.channel, assoc)
            apply_trajectory(world, cmds, 1.0)
        states = global_state(together, queue_observation(together, norm))
        assert states.shape == (len(seeds), global_state_dim(5, 10))
        for w, world in enumerate(alone):
            alone_state = global_state(world, queue_observation(world, norm))
            assert np.array_equal(states[w], alone_state[0])


def test_select_action_noise_and_clip():
    rng = np.random.default_rng(0)
    actor = nn.init_mlp((4, 8, 2), "tanh", rng)
    group = nn.stack([actor])
    obs = rng.uniform(-1, 1, size=(1, 4))
    a0 = select_action(group, obs, 0.0)
    assert np.array_equal(a0, nn.mlp_forward(actor, obs))
    a1 = select_action(group, obs, 5.0, np.random.default_rng(1))
    assert np.all(a1 >= -1.0) and np.all(a1 <= 1.0)
    with pytest.raises(ValueError):
        select_action(group, obs, -0.1, rng)


def test_select_action_noise_needs_a_generator(monkeypatch):
    actor = nn.init_mlp((4, 8, 2), "tanh", np.random.default_rng(0))
    forwards = []
    monkeypatch.setattr(nn, "mlp_forward", lambda *a: forwards.append(a))
    for group in (nn.stack([actor]), nn.stack([actor, actor])):
        with pytest.raises(ValueError, match="generator"):
            select_action(group, np.zeros((2, 4)), 0.1)
    assert forwards == []


def test_selection_rejects_an_unstacked_net(monkeypatch):
    rng = np.random.default_rng(0)
    actor = nn.init_mlp((4, 8, 2), "tanh", rng)
    scorer = nn.init_mlp((madrl.SCORER_IN, madrl.SCORER_WIDTH, 1), "linear", rng)
    forwards = []
    monkeypatch.setattr(nn, "mlp_forward", lambda *a: forwards.append(a))
    with pytest.raises(ValueError, match="one net"):
        select_action(actor, np.zeros((1, 4)), 0.0)
    with pytest.raises(ValueError, match="one net"):
        select_rank(scorer, np.zeros((1, 2 + madrl.UE_FEATURES * madrl.K_OBS)), np.array([1]))
    assert forwards == []


def _select_rank_reference(scorer, obs, n_obs, rng=None):
    """One scheduler's one-hot choice from its own forward over its n_obs
    observed UEs, as run_worlds chose ranks platform by platform."""
    a = np.zeros((obs.shape[0] - 2) // madrl.UE_FEATURES)
    if n_obs == 0:
        return a
    rows = np.empty((n_obs, madrl.SCORER_IN), dtype=obs.dtype)
    rows[:, : madrl.UE_FEATURES] = obs[2 : 2 + madrl.UE_FEATURES * n_obs].reshape(n_obs, -1)
    rows[:, madrl.UE_FEATURES :] = obs[:2]
    logits = nn.mlp_forward(scorer, rows)[:, 0]
    if rng is not None:
        logits = logits + rng.gumbel(size=n_obs)
    a[int(np.argmax(logits))] = 1.0
    return a


def _select_action_reference(actor, obs, noise_std, rng=None):
    """One velocity actor's command from its own one-row forward."""
    a = nn.mlp_forward(actor, obs[None])[0]
    if noise_std > 0.0:
        a = a + rng.normal(0.0, noise_std, size=a.shape)
    return np.clip(a, -1.0, 1.0)


@st.composite
def cell_counts(draw):
    """(worlds, 5) observed-UE counts in [0, K_OBS]: all equal (all empty
    among them) or mixed."""
    shape = (draw(st.integers(1, 4)), 5)
    if draw(st.booleans()):
        return np.full(shape, draw(st.integers(0, madrl.K_OBS)))
    return np.array(draw(st.lists(st.integers(0, madrl.K_OBS), min_size=shape[0] * 5,
                                  max_size=shape[0] * 5))).reshape(shape)


@settings(max_examples=80, deadline=None)
@given(counts=cell_counts(), dtype=st.sampled_from([np.float32, np.float64]),
       with_rng=st.booleans(), tied=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_group_selection_equals_per_agent_loop(counts, dtype, with_rng, tied, seed):
    rng = np.random.default_rng(seed)
    k, n_worlds = madrl.K_OBS, len(counts)
    scorers = [nn.init_mlp((madrl.SCORER_IN, madrl.SCORER_WIDTH, 1), "linear", rng).astype(dtype)
               for _ in range(5)]
    actors = [nn.init_mlp((4 + madrl.UE_FEATURES * k, madrl.TRAJ_HIDDEN_WIDTH,
                           madrl.TRAJ_HIDDEN_WIDTH, 2), "tanh", rng).astype(dtype)
              for _ in range(4)]
    # padded ranks hold garbage: nothing may read them
    sched_obs = rng.uniform(-1, 1, size=(n_worlds, 5, 2 + madrl.UE_FEATURES * k)).astype(dtype)
    if tied:  # every rank of a cell shows the same UE, so argmax reads the logits' last bits
        sched_obs[..., 2:] = np.tile(sched_obs[..., 2 : 2 + madrl.UE_FEATURES], k)
    traj_obs = rng.uniform(-1, 1, size=(n_worlds, 4, 4 + madrl.UE_FEATURES * k)).astype(dtype)
    noise_std = 0.3 if with_rng else 0.0
    draws = [np.random.default_rng(seed + 1) if with_rng else None for _ in range(2)]

    vel = select_action(nn.stack(actors), traj_obs, noise_std, draws[0])
    ranks = select_rank(nn.stack(scorers), sched_obs, counts, draws[0])
    vel_ref = np.array([[_select_action_reference(a, traj_obs[w, j], noise_std, draws[1])
                         for j, a in enumerate(actors)] for w in range(n_worlds)])
    ranks_ref = np.array([[_select_rank_reference(s, sched_obs[w, p], counts[w, p], draws[1])
                           for p, s in enumerate(scorers)] for w in range(n_worlds)])

    assert vel.shape == (n_worlds, 4, 2) and ranks.shape == (n_worlds, 5, k)
    assert vel.dtype == vel_ref.dtype and ranks.dtype == ranks_ref.dtype
    assert np.array_equal(vel, vel_ref)
    assert np.array_equal(ranks, ranks_ref)
    assert np.array_equal(ranks.sum(axis=-1), counts > 0)
    if with_rng:
        assert draws[0].bit_generator.state == draws[1].bit_generator.state


@settings(max_examples=60, deadline=None)
@given(n_worlds=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_select_rank_matches_per_cell_reference(n_worlds, seed, data):
    # random observed-UE counts in [0, k], repeats and empty cells included
    k = madrl.K_OBS
    counts = np.array(data.draw(st.lists(st.integers(0, k), min_size=5 * n_worlds,
                                         max_size=5 * n_worlds))).reshape(n_worlds, 5)
    rng = np.random.default_rng(seed)
    scorers = [nn.init_mlp((madrl.SCORER_IN, madrl.SCORER_WIDTH, 1), "linear", rng)
               .astype(np.float32) for _ in range(5)]
    obs = rng.uniform(-1, 1, size=(n_worlds, 5, 2 + madrl.UE_FEATURES * k)).astype(np.float32)
    draws = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    ranks = select_rank(nn.stack(scorers), obs, counts, draws[0])
    # each cell: its own scorer alone on its n rows, plus its slice of one draw
    gumbel, first = draws[1].gumbel(size=int(counts.sum())), 0
    for (w, p), n in np.ndenumerate(counts):
        want = np.zeros(k)
        if n:
            rows = madrl.scorer_rows(obs[w, p])[:n]
            logits = nn.mlp_forward(scorers[p], rows)[:, 0] + gumbel[first : first + n]
            want[np.argmax(logits)] = 1.0
        first += n
        assert np.array_equal(ranks[w, p], want)
    assert draws[0].bit_generator.state == draws[1].bit_generator.state


def test_noise_schedule_linear_decay():
    total = 300
    assert noise_schedule(0, total) == pytest.approx(0.3)
    horizon = int(total * 0.6)
    assert noise_schedule(horizon, total) == pytest.approx(0.05)
    assert noise_schedule(total - 1, total) == pytest.approx(0.05)
    mid = horizon // 2
    assert noise_schedule(mid, total) == pytest.approx(0.3 + (0.05 - 0.3) * (mid / horizon))
    diffs = np.diff([noise_schedule(e, total) for e in range(horizon + 1)])
    assert np.all(diffs < 0)


def test_traj_drift_constant_within_episode_and_off_in_eval():
    env = make_env()
    sched, traj = make_trained_actors(env)
    traj.flat[:] = 0.0
    dim = global_state_dim(5, env.scenario.n_ues)
    res = run_episode(
        env, "tts-maddpg", sched, traj, 11, slots=50, mode="train",
        noise_std=0.0, traj_drift_std=0.5, noise_rng=np.random.default_rng(4),
        sched_buffer=ReplayBuffer(1000, dim, 5, 34, 8),
        traj_buffer=ReplayBuffer(1000, dim, 4, 36, 2),
        record_actions=True,
    )
    acts = np.stack(res.traj_action_log)
    # zeroed actors command hover, so the recorded action is the drift alone:
    # one draw per node, held for the whole episode, clipped to the box
    assert np.all(acts == acts[0])
    assert np.any(acts[0] != 0.0)
    assert np.all(np.abs(acts) <= 1.0)
    res_eval = run_episode(
        env, "tts-maddpg", sched, traj, 11, slots=50, mode="eval", record_actions=True
    )
    assert np.all(np.stack(res_eval.traj_action_log) == 0.0)


def test_traj_explore_only_ignores_actors():
    env = make_env()
    sched, traj = make_trained_actors(env)
    dim = global_state_dim(5, env.scenario.n_ues)

    def roll(actors, explore_only, mode="train"):
        res = run_episode(
            env, "tts-maddpg", sched, actors, 17, slots=30, mode=mode,
            noise_std=0.0, traj_drift_std=0.5, traj_explore_only=explore_only,
            noise_rng=np.random.default_rng(9),
            sched_buffer=ReplayBuffer(1000, dim, 5, 34, 8) if mode == "train" else None,
            traj_buffer=ReplayBuffer(1000, dim, 4, 36, 2) if mode == "train" else None,
            record_actions=True,
        )
        return np.stack(res.traj_action_log)

    drift_only = roll(traj, True)
    # drift alone: one draw per node held all episode, though the actors vary
    assert np.all(drift_only == drift_only[0])
    assert np.any(drift_only[0] != 0.0)
    # same commands a hovering (all-zero) policy would produce under the same
    # rng stream, so the actor outputs were dropped, not merely damped
    hover = copy.deepcopy(traj)
    hover.flat[:] = 0.0
    assert np.array_equal(drift_only, roll(hover, False))
    assert not np.array_equal(drift_only, roll(traj, False))
    # the flag is a training-data knob only; eval flies the actors as-is
    assert np.array_equal(roll(traj, True, mode="eval"), roll(traj, False, mode="eval"))


def test_team_reward_example():
    assert team_reward(5_250_000, 0.030) == pytest.approx(0.175, rel=1e-12)
    assert team_reward(0, 0.030) == 0.0
    # over the world axis, each world's reward is that of its Python-int total,
    # bit for bit, and does not depend on which UAV delivered
    by_uav = np.array([[5_250_000, 0, 0, 0, 0], [250_000, 0, 0, 5_000_000, 0], [0] * 5,
                       [2**40, 3, 0, 0, 7]], dtype=np.int64)
    want = [team_reward(sum(row), 0.030) for row in by_uav.tolist()]
    assert team_reward(by_uav.sum(axis=1), 0.030).tolist() == want
    assert want[0] == want[1]


def test_replay_buffer_ring_and_sampling():
    buf = ReplayBuffer(capacity=8, state_dim=3, n_agents=2, obs_dim=4, act_dim=2)
    rng = np.random.default_rng(0)
    for i in range(12):
        s = np.full(3, float(i))
        o = np.full((2, 4), float(i))
        a = np.full((2, 2), float(i))
        buf.push(s, o, a, float(i), False, i)
    assert len(buf) == 8
    # oldest entries (0..3) were overwritten
    assert set(buf.reward.tolist()) == set(float(i) for i in range(4, 12))
    with pytest.raises(ValueError):
        buf.sample(rng, 9)
    # uniform sampling hits every index of a small buffer
    seen = set()
    for _ in range(200):
        batch = buf.sample(rng, 4)
        seen.update(batch["reward"].tolist())
        # a row's successor is the row pushed after it; the newest row's
        # successor is the oldest row
        nxt = np.where(batch["reward"] == 11.0, 4.0, batch["reward"] + 1.0)
        assert np.array_equal(batch["next_state"], np.repeat(nxt[:, None], 3, axis=1))
        assert np.array_equal(batch["next_obs"], np.broadcast_to(nxt[:, None, None], (4, 2, 4)))
        assert np.array_equal(batch["next_n_obs"], np.repeat(nxt[:, None], 2, axis=1))
    assert seen == set(float(i) for i in range(4, 12))
    batch = buf.sample(rng, 5)
    assert batch["state"].shape == batch["next_state"].shape == (5, 3)
    assert batch["obs"].shape == batch["next_obs"].shape == (5, 2, 4)
    assert batch["actions"].shape == (5, 2, 2)


class ExplicitSuccessorRing:
    """Reference ring that stores each transition's successor in the
    transition's own row."""

    def __init__(self, capacity, state_dim, n_agents, obs_dim, act_dim):
        shapes = {"state": (state_dim,), "obs": (n_agents, obs_dim),
                  "actions": (n_agents, act_dim), "reward": (), "done": (), "n_obs": (n_agents,)}
        shapes.update({f"next_{key}": shapes[key] for key in ("state", "obs", "n_obs")})
        self.rows = {key: np.zeros((capacity, *shape),
                                   np.int32 if key.endswith("n_obs") else madrl.NET_DTYPE)
                     for key, shape in shapes.items()}
        self.capacity, self.size, self.head = capacity, 0, 0

    def push(self, **row):
        for key, value in row.items():
            self.rows[key][self.head] = value
        self.head = (self.head + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, batch_size):
        idx = rng.integers(0, self.size, size=batch_size)
        return {key: rows[idx] for key, rows in self.rows.items()}


class OwnRowSuccessor(ReplayBuffer):
    """Mutant: reads each successor from the sampled row itself."""

    def sample(self, rng, batch_size):
        idx = rng.integers(0, self.size, size=batch_size)
        batch = {key: getattr(self, key)[idx]
                 for key in ("state", "obs", "actions", "reward", "done")}
        batch.update(n_obs=self.n_obs[idx], next_state=batch["state"], next_obs=batch["obs"],
                     next_n_obs=self.n_obs[idx])
        return batch


def ring_mismatch(ring_cls, group, capacity, lengths, seed):
    """Push episodes of the given lengths into a ring_cls ring and into the
    explicit-successor reference, sample both after each episode from
    generators in the same state, and name the first difference: a sampled
    field (successors compared on non-terminal rows only), the critic
    targets, or the generator state after sampling. None if there is none."""
    sched = group == "sched"
    k, n_agents, state_dim, batch_size = 3, 2, 5, 16
    obs_dim, act_dim = (2 + 4 * k, k) if sched else (4 + 4 * k, 2)
    rng = np.random.default_rng(seed)
    f32 = madrl.NET_DTYPE
    if sched:
        targets = nn.stack([nn.init_mlp((madrl.SCORER_IN, 8, 1), "linear", rng).astype(f32)
                            for _ in range(n_agents)])
    else:
        targets = nn.stack([nn.init_mlp((obs_dim, 8, act_dim), "tanh", rng).astype(f32)
                            for _ in range(n_agents)])
    critic = nn.init_mlp((state_dim + n_agents * act_dim, 8, 1), "linear", rng).astype(f32)
    ring = ring_cls(capacity, state_dim, n_agents, obs_dim, act_dim)
    ref = ExplicitSuccessorRing(capacity, state_dim, n_agents, obs_dim, act_dim)

    def snapshot():
        n = rng.integers(0, k + 1, size=n_agents) if sched else np.zeros(n_agents, int)
        return rng.normal(size=state_dim), rng.uniform(-1, 1, (n_agents, obs_dim)), n

    def critic_y(batch):
        next_a = (madrl.target_ranks if sched else target_actions)(targets, batch)
        return critic_targets(batch, critic, 0.9 * (1.0 - batch["done"]),
                              critic_input(batch["next_state"], next_a))

    for episode, length in enumerate(lengths):
        snaps = [snapshot() for _ in range(length + 1)]
        for t in range(length):
            (s, o, n), (s1, o1, n1) = snaps[t], snaps[t + 1]
            a, r, done = rng.uniform(-1, 1, (n_agents, act_dim)), rng.uniform(0, 2), t == length - 1
            ring.push(s, o, a, r, done, n)
            ref.push(state=s, obs=o, actions=a, reward=r, done=done, n_obs=n,
                     next_state=s1, next_obs=o1, next_n_obs=n1)
        ring_rng, ref_rng = (np.random.default_rng([seed, episode]) for _ in range(2))
        b = min(len(ring), batch_size)
        got, want = ring.sample(ring_rng, b), ref.sample(ref_rng, b)
        if ring_rng.bit_generator.state != ref_rng.bit_generator.state:
            return "generator state"
        live = want["done"] == 0.0
        for key, expected in want.items():
            rows = live if key.startswith("next_") else slice(None)
            if not np.array_equal(got[key][rows], expected[rows]):
                return key
        if critic_y(got).tobytes() != critic_y(want).tobytes():
            return "critic targets"
    return None


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from(["sched", "traj"]),
    capacity=st.integers(1, 120),
    lengths=st.lists(st.integers(1, 60), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_ring_reads_successors_by_index_exactly(group, capacity, lengths, seed):
    # rings of 1-120 rows under episodes of 1-60 transitions: many wrap
    # mid-episode, some never fill
    assert ring_mismatch(ReplayBuffer, group, capacity, lengths, seed) is None


def test_ring_property_catches_a_successor_read_from_the_sampled_row():
    assert ring_mismatch(OwnRowSuccessor, "sched", 7, [5, 9, 3], 0) == "next_state"
    assert ring_mismatch(OwnRowSuccessor, "traj", 50, [12], 1) == "next_state"


def test_critic_targets_terminal_and_gamma_zero():
    rng = np.random.default_rng(1)
    critic = nn.init_mlp((3 + 2, 8, 1), "linear", rng)
    actor = nn.init_mlp((4, 8, 2), "tanh", rng)
    batch = {
        "reward": np.array([1.5]),
        "done": np.array([1.0]),
        "next_state": rng.normal(size=(1, 3)),
        "next_obs": rng.normal(size=(1, 1, 4)),
    }
    next_x = critic_input(batch["next_state"], target_actions(nn.stack([actor]), batch))
    y = critic_targets(batch, critic, 0.95 * (1.0 - batch["done"]), next_x)
    assert y[0] == pytest.approx(1.5)
    batch["done"] = np.array([0.0])
    y0 = critic_targets(batch, critic, 0.0 * (1.0 - batch["done"]), next_x)
    assert y0[0] == pytest.approx(1.5)


def test_critic_targets_hand_computation():
    rng = np.random.default_rng(2)
    actor = nn.init_mlp((4, 6, 2), "tanh", rng)
    critic = nn.init_mlp((3 + 2, 6, 1), "linear", rng)
    next_obs = rng.normal(size=(1, 1, 4))
    next_state = rng.normal(size=(1, 3))
    batch = {
        "reward": np.array([0.7]),
        "done": np.array([0.0]),
        "next_state": next_state,
        "next_obs": next_obs,
    }
    a_prime = nn.mlp_forward(actor, next_obs[:, 0, :])
    q = nn.mlp_forward(critic, np.concatenate([next_state, a_prime], axis=1))[0, 0]
    next_x = critic_input(next_state, target_actions(nn.stack([actor]), batch))
    y = critic_targets(batch, critic, 0.9 * (1.0 - batch["done"]), next_x)
    assert y[0] == pytest.approx(0.7 + 0.9 * q, rel=1e-12)


def test_update_critic_zero_gradient_noop():
    rng = np.random.default_rng(3)
    critic = nn.init_mlp((5, 8, 1), "linear", rng)
    adam = nn.init_adam(critic)
    batch = {
        "state": rng.normal(size=(4, 3)),
        "actions": rng.normal(size=(4, 1, 2)),
    }
    x = critic_input(batch["state"], batch["actions"])
    flat = np.concatenate([batch["state"], batch["actions"].reshape(4, -1)], axis=1)
    assert np.array_equal(x, flat)
    targets = nn.mlp_forward(critic, x)[:, 0]
    before = [w.copy() for w in critic.weights]
    loss = update_critic(critic, adam, x, targets, lr=1e-3)
    assert loss == pytest.approx(0.0, abs=1e-20)
    for w0, w1 in zip(before, critic.weights):
        assert np.array_equal(w0, w1)


def test_update_critic_loss_decreases():
    rng = np.random.default_rng(4)
    critic = nn.init_mlp((5, 16, 1), "linear", rng)
    adam = nn.init_adam(critic)
    batch = {
        "state": rng.normal(size=(16, 3)),
        "actions": rng.normal(size=(16, 1, 2)),
    }
    targets = rng.normal(size=16)
    x = critic_input(batch["state"], batch["actions"])
    first = update_critic(critic, adam, x, targets, lr=1e-3)
    for _ in range(99):
        last = update_critic(critic, adam, x, targets, lr=1e-3)
    assert last < first


def test_update_actor_constant_critic_noop():
    rng = np.random.default_rng(5)
    actor = nn.init_mlp((4, 8, 2), "tanh", rng)
    adam = nn.init_adam(actor)
    critic = nn.init_mlp((3 + 2, 8, 1), "linear", rng)
    for w in critic.weights:
        w[:] = 0.0
    for b in critic.biases:
        b[:] = 0.0
    critic.biases[-1][:] = 7.0  # constant Q
    batch = {
        "state": rng.normal(size=(6, 3)),
        "obs": rng.normal(size=(6, 1, 4)),
        "actions": rng.normal(size=(6, 1, 2)),
    }
    before = [w.copy() for w in actor.weights]
    x = critic_input(batch["state"], batch["actions"])
    update_actor(0, actor, adam, critic, batch, x, lr=1e-3, action_reg=0.0)
    for w0, w1 in zip(before, actor.weights):
        assert np.array_equal(w0, w1)


def test_update_actor_leaves_batch_actions_for_others():
    # the critic sees agent 1's batch action, not its actor output, and the
    # shared critic input of the batch is left as it was
    rng = np.random.default_rng(6)
    actor0 = nn.init_mlp((4, 8, 2), "tanh", rng)
    adam0 = nn.init_adam(actor0)
    critic = nn.init_mlp((3 + 4, 8, 1), "linear", rng)
    batch = {
        "state": rng.normal(size=(5, 3)),
        "obs": rng.normal(size=(5, 2, 4)),
        "actions": rng.normal(size=(5, 2, 2)),
    }
    snap = batch["actions"].copy()
    x = critic_input(batch["state"], batch["actions"])
    x_snap = x.copy()
    update_actor(0, actor0, adam0, critic, batch, x, lr=1e-4)
    assert np.array_equal(batch["actions"], snap)
    assert np.array_equal(x, x_snap)


def _reference_scorer_rows(obs):
    """Scorer input rows of every rank, built one UE slot at a time: (the
    slot's four features, the platform's own position), batch rows in order
    and ranks in order within each."""
    k = (obs.shape[1] - 2) // 4
    return np.array([
        np.concatenate([obs[r, 2 + 4 * j : 6 + 4 * j], obs[r, :2]])
        for r in range(obs.shape[0])
        for j in range(k)
    ])


def _reference_logits(scorer, obs, n_obs):
    """(b, k) scorer logits, -inf at the padded ranks."""
    b, k = obs.shape[0], (obs.shape[1] - 2) // 4
    logits = nn.mlp_forward(scorer, _reference_scorer_rows(obs))[:, 0].reshape(b, k)
    for r in range(b):
        logits[r, int(n_obs[r]):] = -np.inf
    return logits


def _reference_column_grad(critic, x, cols):
    """The gradient of -mean(Q) w.r.t. the critic input columns cols, walked
    by hand: a forward walk for the ReLU masks, back through the hidden
    layers, and only the rows cols of the first weight matrix in the last
    product."""
    zs, h = [], x
    for w, b in zip(critic.weights[:-1], critic.biases[:-1]):
        zs.append(h @ w + b)
        h = np.maximum(zs[-1], 0.0)
    g = np.full((x.shape[0], 1), -1.0 / x.shape[0], dtype=x.dtype)
    for l in range(len(critic.weights) - 1, 0, -1):
        g = (g @ critic.weights[l].T) * (zs[l - 1] > 0.0)
    return g @ critic.weights[0][cols].T


def _reference_update_round(tr):
    """Reference: one update round written with the public mlp_forward and
    mlp_backward, a critic forward pass per use and a full backward pass per
    parameter gradient, in the trainer's dtype with subnormals flushed as in
    Trainer.update_round. Schedulers score one row per rank, mask the padded
    ranks by the observed count, bootstrap on the greedy target rank and
    step on a temperature-1 Gumbel-Softmax sample; velocity actors take the
    DDPG step. The action-column input gradient is _reference_column_grad."""
    with nn.flush_subnormals():
        _reference_round_body(tr)
    tr.update_rounds += 1


def _reference_round_body(tr):
    cfg = tr.cfg
    groups = [(tr.sched_agents, tr.sched_buffer, madrl.GAMMA, 0.0, 0.0, True, True)]
    if tr.traj_agents:
        groups.append((tr.traj_agents, tr.traj_buffer, madrl.GAMMA ** madrl.TRAJECTORY_PERIOD,
                       madrl.ACTION_REG, madrl.TRAJ_CRITIC_WEIGHT_DECAY,
                       tr.traj_actors_stepping(), False))
    for agents, buffer, gamma, reg, wd, step_actors, sched in groups:
        if buffer.size < cfg.batch_size:
            continue
        batch = buffer.sample(tr.rng, cfg.batch_size)
        b, _, act_dim = batch["actions"].shape
        if sched:
            next_a = np.zeros(batch["actions"].shape)
            for i, a in enumerate(agents):
                logits = _reference_logits(
                    a.actor_target, batch["next_obs"][:, i, :], batch["next_n_obs"][:, i]
                )
                for r in range(b):
                    if batch["next_n_obs"][r, i] > 0:
                        next_a[r, i, int(np.argmax(logits[r]))] = 1.0
        else:
            next_a = np.stack([nn.mlp_forward(a.actor_target, batch["next_obs"][:, i, :])
                               for i, a in enumerate(agents)], axis=1)
        for i, ag in enumerate(agents):
            xn = np.concatenate([batch["next_state"], next_a.reshape(b, -1)], axis=1)
            q_next = nn.mlp_forward(ag.critic_target, xn)[:, 0]
            y = batch["reward"] + gamma * (1.0 - batch["done"]) * q_next

            x = np.concatenate([batch["state"], batch["actions"].reshape(b, -1)], axis=1)
            err = nn.mlp_forward(ag.critic, x)[:, 0] - y
            grad, _ = nn.mlp_backward(ag.critic, x, (2.0 * err / b)[:, None])
            if wd > 0.0:
                for g, w in zip(nn.layer_views(ag.critic.layer_sizes, grad)[0], ag.critic.weights):
                    g += 2.0 * wd * w
            nn.adam_step(ag.critic, grad, ag.critic_adam, madrl.CRITIC_LR)

            start = batch["state"].shape[1] + i * act_dim
            obs_i = batch["obs"][:, i, :]
            actions = batch["actions"].copy()
            if sched:
                n_i = batch["n_obs"][:, i]
                z = _reference_logits(ag.actor, obs_i, n_i) + tr.rng.gumbel(size=(b, act_dim))
                soft = np.zeros((b, act_dim))
                for r in range(b):
                    if n_i[r] > 0:
                        e = np.exp(z[r] - z[r].max())
                        soft[r] = e / e.sum()
                actions[:, i, :] = soft
                xa = np.concatenate([batch["state"], actions.reshape(b, -1)], axis=1)
                gy = _reference_column_grad(ag.critic, xa, slice(start, start + act_dim))
                dz = soft * (gy - (soft * gy).sum(axis=1, keepdims=True))
                rows = _reference_scorer_rows(obs_i)
                grad, _ = nn.mlp_backward(ag.actor, rows, dz.reshape(-1, 1))
                nn.adam_step(ag.actor, grad, ag.actor_adam, madrl.SCORER_LR)
            elif step_actors:
                a_i = nn.mlp_forward(ag.actor, obs_i)
                actions[:, i, :] = a_i
                xa = np.concatenate([batch["state"], actions.reshape(b, -1)], axis=1)
                da = (_reference_column_grad(ag.critic, xa, slice(start, start + act_dim))
                      + (2.0 * reg / b) * a_i)
                grad, _ = nn.mlp_backward(ag.actor, obs_i, da)
                nn.adam_step(ag.actor, grad, ag.actor_adam, madrl.ACTOR_LR)
    for ag in tr.sched_agents + tr.traj_agents:
        nn.soft_update(ag.actor_target, ag.actor, madrl.TAU)
        nn.soft_update(ag.critic_target, ag.critic, madrl.TAU)


def _trainer_arrays(tr):
    out = []
    for ag in tr.sched_agents + tr.traj_agents:
        for net in (ag.actor, ag.actor_target, ag.critic, ag.critic_target):
            out += net.weights + net.biases
        for adam in (ag.actor_adam, ag.critic_adam):
            out += [adam.m, adam.v]
    return out


@pytest.mark.parametrize("seed,batch_size", [(0, 8), (1, 13)])
def test_update_round_equals_reference_round(seed, batch_size):
    # velocity actors hold in rounds 0-1, step in rounds 2-3, hold from round 4
    cfg = TrainConfig(
        method="tts-maddpg", episodes=4, slots_per_episode=20, seed=seed,
        warmup_transitions=8, batch_size=batch_size, traj_actor_delay=2, traj_actor_window=2,
    )
    tr = Trainer(make_env(n_ues=6), cfg)
    for ep in range(4):
        tr.rollout(ep)
    assert len(tr.traj_buffer) >= batch_size
    ref = copy.deepcopy(tr)
    stepping = []
    for _ in range(6):
        stepping.append(tr.traj_actors_stepping())
        tr.update_round()
        _reference_update_round(ref)
        assert tr.update_rounds == ref.update_rounds
        assert [a.actor_adam.t for a in tr.traj_agents] == [a.actor_adam.t for a in ref.traj_agents]
        assert all(np.array_equal(a, b) for a, b in zip(_trainer_arrays(tr), _trainer_arrays(ref)))
        assert all(a.dtype == madrl.NET_DTYPE for a in _trainer_arrays(tr))
        assert tr.rng.bit_generator.state == ref.rng.bit_generator.state
    assert stepping == [False, False, True, True, False, False]


def test_trainers_do_not_share_scratch():
    # perfbench's worker builds and drops one trainer before run_single
    # builds the next, so two trainers can be alive at once: interleaved
    # rounds of a maddpg trainer (built first, with the smaller nets) and a
    # tts-maddpg trainer of another seed must each end where it ends alone
    def filled(method, seed):
        cfg = TrainConfig(method=method, episodes=3, slots_per_episode=20, seed=seed,
                          warmup_transitions=8, batch_size=8, traj_actor_delay=1,
                          traj_actor_window=0)
        tr = Trainer(make_env(n_ues=6), cfg)
        for ep in range(3):
            tr.rollout(ep)
        return tr

    together = [filled("maddpg", 0), filled("tts-maddpg", 1)]
    alone = [copy.deepcopy(tr) for tr in together]
    for _ in range(4):
        for tr in together:
            tr.update_round()
    for tr in alone:
        for _ in range(4):
            tr.update_round()
    for tr, ref in zip(together, alone):
        assert tr.update_rounds == ref.update_rounds == 4
        assert [a.critic_adam.t for a in tr.sched_agents + tr.traj_agents] == [4] * (
            len(tr.sched_agents) + len(tr.traj_agents))
        assert all(np.array_equal(a, b) for a, b in zip(_trainer_arrays(tr), _trainer_arrays(ref)))
        assert tr.rng.bit_generator.state == ref.rng.bit_generator.state


def make_trained_actors(env, seed=0):
    cfg = TrainConfig(method="tts-maddpg", episodes=1, slots_per_episode=20, seed=seed)
    tr = Trainer(env, cfg)
    return tr.sched.actor, tr.traj.actor


def test_run_episode_transition_counts_and_reward_split():
    env = make_env()
    sched, traj = make_trained_actors(env)
    sbuf = ReplayBuffer(10_000, global_state_dim(5, env.scenario.n_ues), 5, 2 + 4 * 8, 8)
    tbuf = ReplayBuffer(10_000, global_state_dim(5, env.scenario.n_ues), 4, 4 + 4 * 8, 2)
    res = run_episode(
        env, "tts-maddpg", sched, traj, 123, slots=100, mode="train",
        noise_std=0.1, noise_rng=np.random.default_rng(0),
        sched_buffer=sbuf, traj_buffer=tbuf,
    )
    assert res.n_sched_transitions == 100 and len(sbuf) == 100
    assert res.n_traj_transitions == 20 and len(tbuf) == 20
    assert len(res.slot_rewards) == 100
    assert len(res.macro_rewards) == 20
    assert sum(res.macro_rewards) == pytest.approx(sum(res.slot_rewards), rel=1e-9)
    # exactly one terminal transition per buffer, at the last index
    assert sbuf.done.sum() == 1.0 and sbuf.done[99] == 1.0
    assert tbuf.done.sum() == 1.0 and tbuf.done[19] == 1.0


@settings(max_examples=25, deadline=None)
@given(slots=st.integers(1, 60), world_seed=st.integers(0, 2**32 - 1))
def test_run_episode_two_timescale_bookkeeping(slots, world_seed):
    env = make_env(n_ues=12)
    sched, traj = make_trained_actors(env)
    sbuf = ReplayBuffer(100, global_state_dim(5, 12), 5, 2 + 4 * 8, 8)
    tbuf = ReplayBuffer(100, global_state_dim(5, 12), 4, 4 + 4 * 8, 2)
    res = run_episode(
        env, "tts-maddpg", sched, traj, world_seed, slots=slots, mode="train",
        noise_std=0.1, traj_drift_std=0.5, noise_rng=np.random.default_rng(world_seed),
        sched_buffer=sbuf, traj_buffer=tbuf,
    )
    macros = math.ceil(slots / madrl.TRAJECTORY_PERIOD)
    assert res.n_sched_transitions == len(sbuf) == len(res.slot_rewards) == slots
    assert res.n_traj_transitions == len(tbuf) == len(res.macro_rewards) == macros
    # one terminal transition per ring, at its last index
    assert sbuf.done[:slots].tolist() == [0.0] * (slots - 1) + [1.0]
    assert tbuf.done[:macros].tolist() == [0.0] * (macros - 1) + [1.0]
    assert sum(res.macro_rewards) == pytest.approx(sum(res.slot_rewards), rel=1e-9, abs=0.0)


def test_run_episode_eval_stores_nothing():
    env = make_env()
    sched, traj = make_trained_actors(env)
    sbuf = ReplayBuffer(100, global_state_dim(5, env.scenario.n_ues), 5, 2 + 4 * 8, 8)
    res = run_episode(env, "tts-maddpg", sched, traj, 7, slots=20, mode="eval",
                      sched_buffer=sbuf)
    assert len(sbuf) == 0
    assert res.n_sched_transitions == 0 and res.n_traj_transitions == 0


def test_run_episode_rr_matches_manual_trace():
    env = make_env()
    res = run_episode(env, "rr", None, None, 42, slots=30)
    world = init_world(env.scenario, [42])
    delivered = 0
    for t in range(30):
        assoc = mac.associate(world, env.channel)
        choices = mac.rr_schedule(assoc.rows[0], t, 5)
        world, [by_uav] = mac.step_slot(world, [choices], env.traffic, env.channel, assoc)
        delivered += int(by_uav.sum())
    assert res.delivered_bits == delivered


def test_run_episode_rejects_bad_args():
    env = make_env()
    with pytest.raises(ValueError):
        run_episode(env, "dqn", None, None, 0, slots=10)
    with pytest.raises(ValueError):
        run_episode(env, "rr", None, None, 0, slots=10, mode="test")


def test_run_episode_deterministic_given_seeds():
    env = make_env()
    sched, traj = make_trained_actors(env)

    def once():
        return run_episode(
            env, "tts-maddpg", sched, traj, 5, slots=50, mode="train",
            noise_std=0.2, noise_rng=np.random.default_rng(99),
            sched_buffer=ReplayBuffer(1000, global_state_dim(5, env.scenario.n_ues), 5, 34, 8),
            traj_buffer=ReplayBuffer(1000, global_state_dim(5, env.scenario.n_ues), 4, 36, 2),
        ).delivered_bits

    assert once() == once()


def episode_fields(res):
    """Every EpisodeResult field, with the action logs as lists."""
    out = dict(vars(res))
    for log in ("sched_action_log", "traj_action_log"):
        out[log] = [a.tolist() for a in out[log]]
    return out


@settings(max_examples=30, deadline=None)
@given(
    method=st.sampled_from(madrl.METHODS),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    n_ues=st.integers(6, 12),
    slots=st.integers(10, 30),
)
def test_lockstep_worlds_equal_separate_runs(method, seeds, n_ues, slots):
    env = make_env(n_ues=n_ues)
    sched, traj = make_trained_actors(env) if method != "rr" else (None, None)
    traj = traj if method == "tts-maddpg" else None
    worlds = []

    def init_world(*args):
        worlds.append(real_init_world(*args))
        return worlds[-1]

    real_init_world = madrl.init_world
    madrl.init_world = init_world
    try:
        lockstep = madrl.run_worlds(env, method, sched, traj, seeds, slots, record_actions=True)
        alone = [madrl.run_worlds(env, method, sched, traj, [s], slots, record_actions=True)[0]
                 for s in seeds]
    finally:
        madrl.init_world = real_init_world
    assert [episode_fields(r) for r in lockstep] == [episode_fields(r) for r in alone]
    assert [rng.bit_generator.state for rng in worlds[0].rng] == [
        w.rng[0].bit_generator.state for w in worlds[1:]]
    with pytest.raises(ValueError, match="one world"):
        madrl.run_worlds(env, method, sched, traj, [1, 2], slots, mode="train",
                         noise_rng=np.random.default_rng(0))


def test_trainer_warmup_blocks_updates():
    env = make_env()
    cfg = TrainConfig(
        method="maddpg", episodes=2, slots_per_episode=20, seed=0,
        warmup_transitions=5_000,
    )
    tr = Trainer(env, cfg)
    before = [w.copy() for a in tr.sched_agents for w in a.actor.weights]
    tr.train_episode(0)
    after = [w for a in tr.sched_agents for w in a.actor.weights]
    for w0, w1 in zip(before, after):
        assert np.array_equal(w0, w1)


def test_trainer_updates_after_warmup():
    env = make_env()
    cfg = TrainConfig(
        method="maddpg", episodes=3, slots_per_episode=40, seed=0,
        warmup_transitions=30, batch_size=16,
    )
    tr = Trainer(env, cfg)
    before = [w.copy() for a in tr.sched_agents for w in a.actor.weights]
    tr.train_episode(0)
    changed = any(
        not np.array_equal(w0, w1)
        for w0, w1 in zip(before, [w for a in tr.sched_agents for w in a.actor.weights])
    )
    assert changed
    # targets lag the online nets after updates
    ag = tr.sched_agents[0]
    assert not all(
        np.array_equal(w, tw) for w, tw in zip(ag.actor.weights, ag.actor_target.weights)
    )


def test_trainer_traj_actor_delay():
    env = make_env()
    base = dict(
        method="tts-maddpg", episodes=2, slots_per_episode=40, seed=0,
        warmup_transitions=8, batch_size=8,
    )
    tr = Trainer(env, TrainConfig(**base, traj_actor_delay=10_000))
    a_before = [w.copy() for a in tr.traj_agents for w in a.actor.weights]
    c_before = [w.copy() for a in tr.traj_agents for w in a.critic.weights]
    tr.train_episode(0)
    a_after = [w for a in tr.traj_agents for w in a.actor.weights]
    c_after = [w for a in tr.traj_agents for w in a.critic.weights]
    # critics learn immediately; the held-back actors do not move
    assert all(np.array_equal(w0, w1) for w0, w1 in zip(a_before, a_after))
    assert any(not np.array_equal(w0, w1) for w0, w1 in zip(c_before, c_after))
    tr2 = Trainer(env, TrainConfig(**base, traj_actor_delay=0))
    a2_before = [w.copy() for a in tr2.traj_agents for w in a.actor.weights]
    tr2.train_episode(0)
    a2_after = [w for a in tr2.traj_agents for w in a.actor.weights]
    assert any(not np.array_equal(w0, w1) for w0, w1 in zip(a2_before, a2_after))
    # once the stepping window closes the actors hold again
    tr3 = Trainer(env, TrainConfig(**base, traj_actor_delay=2, traj_actor_window=3))
    for rounds, expect in [(0, False), (2, True), (4, True), (5, False), (9, False)]:
        tr3.update_rounds = rounds
        assert tr3.traj_actors_stepping() is expect
    tr3.update_rounds = 10_000
    a3_before = [w.copy() for a in tr3.traj_agents for w in a.actor.weights]
    tr3.train_episode(0)
    a3_after = [w for a in tr3.traj_agents for w in a.actor.weights]
    assert all(np.array_equal(w0, w1) for w0, w1 in zip(a3_before, a3_after))
    # window 0 means no freeze
    tr4 = Trainer(env, TrainConfig(**base, traj_actor_delay=2, traj_actor_window=0))
    tr4.update_rounds = 10_000
    assert tr4.traj_actors_stepping() is True


def test_trainer_update_budget_freezes_everything():
    env = make_env()
    base = dict(
        method="tts-maddpg", episodes=2, slots_per_episode=40, seed=0,
        warmup_transitions=8, batch_size=8, traj_actor_delay=0,
    )
    tr = Trainer(env, TrainConfig(**base, update_rounds_budget=3))
    tr.train_episode(0)
    assert tr.update_rounds == 3
    before = [
        w.copy()
        for a in tr.sched_agents + tr.traj_agents
        for net in (a.actor, a.critic, a.actor_target, a.critic_target)
        for w in net.weights
    ]
    tr.train_episode(1)
    after = [
        w
        for a in tr.sched_agents + tr.traj_agents
        for net in (a.actor, a.critic, a.actor_target, a.critic_target)
        for w in net.weights
    ]
    # spent budget: no network (targets included) moves, rounds stop counting
    assert tr.update_rounds == 3
    assert all(np.array_equal(w0, w1) for w0, w1 in zip(before, after))
    # budget 0 never freezes
    tr2 = Trainer(env, TrainConfig(**base, update_rounds_budget=0))
    tr2.train_episode(0)
    assert tr2.update_rounds == 10


# 40 slots -> 8 macro steps/ep, fill 48/ep, 10 rounds/ep; warmup 480 -> ep 10,
# delay 3,050 -> unlock ep 315; the 2,400-row velocity ring reaches 300 eps
# back, so drift starts at ep 15
LATE_UNLOCK = dict(
    method="tts-maddpg", episodes=330, slots_per_episode=40, seed=0,
    warmup_transitions=480, traj_actor_delay=3_050,
)


def test_trainer_drift_schedule():
    env = make_env()
    full = madrl.TRAJ_DRIFT_STD
    assert full > 0.0
    cfg = TrainConfig(
        method="tts-maddpg", episodes=101, slots_per_episode=40, seed=0, traj_actor_delay=50,
    )
    tr = Trainer(env, cfg)
    # warmup 5,000 / 48 per ep + delay 50 / 10 per ep -> unlock ep 109; the
    # 808-row ring (the whole run) reaches 101 eps back, so drift starts at
    # ep 8, and held actors get it at full scale
    assert tr.drift_start_ep == 8
    assert tr.drift_std(7) == 0.0
    assert tr.drift_std(8) == tr.drift_std(10) == full
    # at the unlock and inside the stepping window: still full scale, also
    # once a rollout has flown the unlocked actors
    tr.update_rounds = 50
    assert tr.traj_actors_stepping()
    assert tr.drift_std(40) == full
    tr.rollout(40)
    assert tr.drift_std(41) == tr.drift_std(70) == full
    # after the window closes: full scale to the last episode
    tr.update_rounds = 50 + cfg.traj_actor_window
    assert not tr.traj_actors_stepping()
    assert tr.drift_std(52) == tr.drift_std(100) == full
    # scheduling-only method never drifts
    tr2 = Trainer(env, TrainConfig(method="maddpg", episodes=10, slots_per_episode=40))
    tr2.update_rounds = 10_000
    assert tr2.drift_std(5) == 0.0
    # drift older than one ring length at the unlock would be evicted unseen,
    # so it stays off
    tr3 = Trainer(env, TrainConfig(**LATE_UNLOCK))
    assert tr3.traj_buffer.capacity == 2_400
    assert tr3.drift_start_ep == 15
    assert tr3.drift_std(14) == 0.0
    assert tr3.drift_std(15) == full


def test_trainer_pre_unlock_episodes_fly_drift_only():
    env = make_env()
    # unlock at ep 315, drift starts at ep 15
    tr = Trainer(env, TrainConfig(**LATE_UNLOCK))
    tr.rollout(16)
    n = tr.traj_buffer.size
    acts = tr.traj_buffer.actions[:n].copy()
    # held actors contribute nothing: every macro step of the episode logs
    # the same episode-constant drift, clipped to the command box
    assert n == 8
    assert np.all(np.abs(acts) <= 1.0)
    assert np.all(acts == acts[0])
    assert np.any(acts[0] != 0.0)
    tr.rollout(17)
    acts2 = tr.traj_buffer.actions[n:tr.traj_buffer.size]
    assert np.all(acts2 == acts2[0])
    assert np.any(acts2[0] != acts[0])


def test_trainer_post_unlock_episodes_fly_actors():
    env = make_env()
    cfg = TrainConfig(method="tts-maddpg", episodes=20, slots_per_episode=40, seed=0,
                      traj_actor_delay=50, traj_actor_window=100)
    tr = Trainer(env, cfg)
    assert np.any(tr.traj.actor.flat != 0.0)
    # every rollout after the unlock, inside the stepping window and after it
    # closes, flies the actors: no episode logs one held command
    for rounds, episodes in ((50, range(0, 4)), (150, range(4, 7))):
        tr.update_rounds = rounds
        for ep in episodes:
            start = tr.traj_buffer.size
            tr.rollout(ep)
            acts = tr.traj_buffer.actions[start:tr.traj_buffer.size]
            assert len(acts) == 8
            assert not np.all(acts == acts[0]), ep


def test_trainer_group_hidden_widths():
    env = make_env()
    tr = Trainer(env, TrainConfig(method="tts-maddpg", episodes=1, slots_per_episode=10))
    h, th = madrl.HIDDEN_WIDTH, madrl.TRAJ_HIDDEN_WIDTH
    assert h != th
    for ag in tr.sched_agents:
        # the per-UE scorer has its own fixed width; the critic takes the group's
        assert ag.actor.layer_sizes == (madrl.SCORER_IN, madrl.SCORER_WIDTH, 1)
        assert ag.critic.layer_sizes[1:3] == (h, h)
    for ag in tr.traj_agents:
        assert ag.actor.layer_sizes[1:3] == (th, th)
        assert ag.critic.layer_sizes[1:3] == (th, th)


def test_trainer_rr_has_no_agents():
    env = make_env()
    tr = Trainer(env, TrainConfig(method="rr", episodes=1, slots_per_episode=10))
    assert tr.sched_agents == [] and tr.traj_agents == []
    res, std = tr.train_episode(0)
    assert std == 0.0
    assert res.delivered_bits > 0


def rr_blocks(calls, episodes, every, cap=madrl.RR_BLOCK_WORLDS):
    """The world count of each block an rr trainer rolls out for `calls`:
    a call outside the kept block starts a block that ends with the first
    checkpoint episode (every `every`-th, and the last) at or after it, or
    after `cap` worlds; a call at or past `episodes` gets a block of one."""
    blocks, kept = [], range(0)
    for ep in calls:
        if ep not in kept:
            end = ep
            while (end + 1) % every and end + 1 < episodes and end + 1 < ep + cap:
                end += 1
            kept = range(ep, end + 1)
            blocks.append(len(kept))
    return blocks


@contextlib.contextmanager
def run_worlds_spy():
    """madrl.run_worlds, recording the world count of each call."""
    real, calls = madrl.run_worlds, []

    def spy(env, method, sched, traj, world_seeds, *args, **kwargs):
        calls.append(len(world_seeds))
        return real(env, method, sched, traj, world_seeds, *args, **kwargs)

    madrl.run_worlds = spy
    try:
        yield calls
    finally:
        madrl.run_worlds = real


@settings(max_examples=25, deadline=None)
@given(episodes=st.integers(1, 9), every=st.integers(1, 4), data=st.data())
def test_rr_rollout_blocks_equal_episodes_alone(episodes, every, data):
    # fails for a block that runs past its checkpoint, an off-by-one index
    # into the block, and a block kept by its start only
    env = make_env(n_ues=6)
    cfg = TrainConfig(method="rr", episodes=episodes, slots_per_episode=5, seed=4,
                      eval_every_episodes=every)
    tr = Trainer(env, cfg)
    calls = list(range(episodes))
    if data.draw(st.booleans(), label="out of order"):
        calls = data.draw(st.permutations(calls), label="calls")
    calls.append(data.draw(st.integers(episodes, episodes + 3), label="past the last episode"))
    alone = {ep: episode_fields(run_episode(env, "rr", None, None, tr.train_world_seed(ep), 5))
             for ep in calls}
    rng_state = tr.rng.bit_generator.state
    with run_worlds_spy() as worlds:
        for ep in calls:
            res, std = tr.rollout(ep)
            assert episode_fields(res) == alone[ep] and std == 0.0
    assert worlds == rr_blocks(calls, episodes, every)
    assert tr.rng.bit_generator.state == rng_state


def test_rr_rollout_blocks_stop_at_the_world_cap():
    env = make_env(n_ues=6)
    cap = madrl.RR_BLOCK_WORLDS
    tr = Trainer(env, TrainConfig(method="rr", episodes=cap + 8, slots_per_episode=2,
                                  eval_every_episodes=cap + 8))
    with run_worlds_spy() as worlds:
        results = [tr.rollout(ep)[0] for ep in range(cap + 8)]
    assert worlds == [cap, 8] == rr_blocks(range(cap + 8), cap + 8, cap + 8)
    assert episode_fields(results[cap]) == episode_fields(
        run_episode(env, "rr", None, None, tr.train_world_seed(cap), 2))


def test_rr_evaluates_once_and_learners_every_time():
    env = make_env(n_ues=6)
    rr = Trainer(env, TrainConfig(method="rr", episodes=2, slots_per_episode=10, eval_episodes=3))
    with run_worlds_spy() as worlds:
        evals = [[episode_fields(r) for r in rr.evaluate()] for _ in range(3)]
    assert worlds == [3]
    assert evals[0] == evals[1] == evals[2]
    # the memo stays off the learners: a maddpg evaluation reads its nets
    cfg = TrainConfig(method="maddpg", episodes=3, slots_per_episode=40, seed=0,
                      warmup_transitions=30, batch_size=16, eval_episodes=3)
    tr = Trainer(env, cfg)
    with run_worlds_spy() as worlds:
        before = [episode_fields(r) for r in tr.evaluate()]
        tr.train_episode(0)
        assert tr.update_rounds > 0
        after = [episode_fields(r) for r in tr.evaluate()]
        assert [episode_fields(r) for r in tr.evaluate()] == after
    assert worlds == [3, 1, 3, 3]
    assert after != before


@pytest.mark.parametrize(
    "part, name, value, message",
    [
        ("scenario", "n_ues", 0, "ground user"),
        ("traffic", "deadline_slots", 0, "deadline_slots"),
        ("traffic", "lambda_pkts", float("nan"), "traffic.lambda"),
        ("traffic", "packet_bits", 0, "packet_bits"),
        ("channel", "los_a", -1.0, "los_a"),
        ("channel", "backhaul_bandwidth_hz", 0.0, "backhaul"),
    ],
)
def test_trainer_rejects_invalid_env(part, name, value, message):
    env = make_env()
    setattr(getattr(env, part), name, value)
    with pytest.raises(ValueError, match=message):
        Trainer(env, TrainConfig(method="rr", episodes=1, slots_per_episode=10))


@pytest.mark.parametrize("k_obs", [0, -1])
def test_trainer_rejects_nonpositive_k_obs(k_obs):
    # without the check the Trainer builds, and its first rollout dies in numpy
    env = dataclasses.replace(make_env(), k_obs=k_obs)
    with pytest.raises(ValueError, match="k_obs"):
        Trainer(env, TrainConfig(method="maddpg", episodes=1, slots_per_episode=10))


def test_trainer_checkpoint_roundtrip(tmp_path):
    env = make_env()
    cfg = TrainConfig(method="tts-maddpg", episodes=1, slots_per_episode=10, seed=3)
    tr = Trainer(env, cfg)
    tr.save_checkpoints(tmp_path)
    # one file per net: schedulers by platform id 0-4, velocity agents 1-4
    nets = ("actor", "actor_target", "critic", "critic_target")
    agents = [f"sched{i}" for i in range(5)] + [f"traj{i}" for i in range(1, 5)]
    files = [p.name for p in tmp_path.iterdir()]
    assert len(files) == 36
    assert set(files) == {f"{a}_{n}.bin" for a in agents for n in nets}
    tr2 = Trainer(env, TrainConfig(method="tts-maddpg", episodes=1, slots_per_episode=10, seed=4))
    tr2.load_checkpoints(tmp_path)
    for a, b in zip(tr.sched_agents + tr.traj_agents, tr2.sched_agents + tr2.traj_agents):
        for net in nets:
            arrays = [getattr(x, net).weights + getattr(x, net).biases for x in (a, b)]
            assert all(w0.dtype == w1.dtype == madrl.NET_DTYPE and np.array_equal(w0, w1)
                       for w0, w1 in zip(*arrays))



def group_bytes(tr):
    """The bytes of every buffer of every agent group: its stacked nets and
    Adam moments."""
    return [buf.tobytes() for g in tr.groups for buf in (
        *(getattr(g, net).flat for net in madrl.GROUP_NETS), g.actor_moments, g.critic_moments)]


def test_trainer_rejects_checkpoints_that_do_not_fit(tmp_path):
    def trainer(n_ues, seed=0):
        cfg = TrainConfig(method="maddpg", episodes=1, slots_per_episode=10, seed=seed)
        return Trainer(make_env(n_ues=n_ues), cfg)

    # the saver's nets differ from the loaders', so a row written before the
    # refusal would show in the bytes
    trainer(6, seed=1).save_checkpoints(tmp_path)
    # the critics read the global state, whose size follows n_ues; the
    # scorer files before sched0_critic fit
    tr = trainer(8)
    before = group_bytes(tr)
    with pytest.raises(ValueError, match=r"sched0_critic\.bin.*layer sizes"):
        tr.load_checkpoints(tmp_path)
    assert group_bytes(tr) == before  # no row was written
    # same layer sizes, another output activation
    tr = trainer(6)
    before = group_bytes(tr)
    actor = tr.sched_agents[2].actor
    nn.save_params(tmp_path / "sched2_actor.bin", dataclasses.replace(actor, out_act="tanh"))
    with pytest.raises(ValueError, match=r"sched2_actor\.bin: a tanh net"):
        tr.load_checkpoints(tmp_path)
    assert group_bytes(tr) == before


def test_loaded_checkpoints_drive_evaluation(tmp_path):
    # load_checkpoints writes into the group buffers in place, so the
    # rollouts, which read the groups' stacks, fly the loaded nets
    env = make_env(n_ues=6)
    cfg = TrainConfig(method="tts-maddpg", episodes=2, slots_per_episode=20, seed=2,
                      warmup_transitions=8, batch_size=8, traj_actor_delay=0, eval_episodes=2)
    saver = Trainer(env, cfg)
    saver.train_episode(0)
    saver.save_checkpoints(tmp_path)
    loader = Trainer(env, cfg)
    for g in loader.groups:
        g.actor.flat[:] = 0.0  # nodes hover, and every scheduler serves its rank 0
    zeroed = [episode_fields(r) for r in loader.evaluate()]
    loader.load_checkpoints(tmp_path)
    saved = [episode_fields(r) for r in saver.evaluate()]
    assert [episode_fields(r) for r in loader.evaluate()] == saved != zeroed


def test_group_views_are_rows_of_the_group_buffers():
    tr = Trainer(make_env(), TrainConfig(method="tts-maddpg", episodes=1, slots_per_episode=10))
    assert [len(g.agents) for g in tr.groups] == [5, 4]
    for g in tr.groups:
        for i, ag in enumerate(g.agents):
            rows = [(getattr(ag, net).flat, getattr(g, net).flat[i]) for net in madrl.GROUP_NETS]
            for adam, moments in ((ag.actor_adam, g.actor_moments),
                                  (ag.critic_adam, g.critic_moments)):
                rows += [(adam.m, moments[0, i]), (adam.v, moments[1, i])]
            for view, row in rows:
                assert view.flags.c_contiguous and not view.flags.owndata
                assert view.shape == row.shape and view.ctypes.data == row.ctypes.data


def test_adam_step_through_a_view_changes_only_its_row():
    tr = Trainer(make_env(), TrainConfig(method="tts-maddpg", episodes=1, slots_per_episode=10))
    g, i = tr.traj, 2
    buffers = [*(getattr(g, net).flat for net in madrl.GROUP_NETS), *g.actor_moments,
               *g.critic_moments]
    before = [b.copy() for b in buffers]
    ag = g.agents[i]
    grad = np.random.default_rng(0).normal(size=ag.actor.flat.size).astype(madrl.NET_DTYPE)
    nn.adam_step(ag.actor, grad, ag.actor_adam, madrl.ACTOR_LR)
    changed = [np.any(b != b0, axis=1).tolist() for b, b0 in zip(buffers, before)]
    row_i = [j == i for j in range(4)]
    # the actor and its two moments change in row i, nothing else does
    assert changed == [row_i] + [[False] * 4] * 3 + [row_i] * 2 + [[False] * 4] * 2


def test_group_soft_update_equals_per_net_updates():
    rng = np.random.default_rng(0)
    sizes = (36, madrl.TRAJ_HIDDEN_WIDTH, madrl.TRAJ_HIDDEN_WIDTH, 2)
    online, targets = ([nn.init_mlp(sizes, "tanh", rng).astype(madrl.NET_DTYPE) for _ in range(4)]
                       for _ in range(2))
    group = nn.stack(targets)
    nn.soft_update(group, nn.stack(online), madrl.TAU)
    for t, o in zip(targets, online):
        nn.soft_update(t, o, madrl.TAU)
    assert group.flat.tobytes() == nn.stack(targets).flat.tobytes()


@pytest.mark.parametrize("batch_size", [128, 8])
def test_stacked_target_actions_equal_each_actors_forward(batch_size):
    tr = Trainer(make_env(), TrainConfig(method="tts-maddpg", episodes=1, slots_per_episode=10))
    obs_dim = tr.traj.actor.layer_sizes[0]
    batch = {"next_obs": np.random.default_rng(1).uniform(
        -1, 1, (batch_size, 4, obs_dim)).astype(madrl.NET_DTYPE)}
    got = target_actions(tr.traj.actor_target, batch)
    assert got.shape == (batch_size, 4, 2)
    for i, ag in enumerate(tr.traj_agents):
        own = nn.mlp_forward(ag.actor_target.copy(), batch["next_obs"][:, i, :])
        assert got[:, i].tobytes() == own.tobytes()


def _scorer_batch(rng, b=6, k=4, n_agents=2, state_dim=3):
    """A scheduler batch whose cells hold 0..k observed UEs, with nonzero
    features at the padded ranks so that masking by zero rows would show."""
    n_obs = rng.integers(0, k + 1, size=(b, n_agents))
    n_obs[0, 0], n_obs[1, 0] = 0, k  # an empty cell and a full one for agent 0
    obs = rng.uniform(-1, 1, size=(b, n_agents, 2 + 4 * k))
    actions = np.zeros((b, n_agents, k))
    for r, i in np.ndindex(b, n_agents):
        if n_obs[r, i]:
            actions[r, i, rng.integers(n_obs[r, i])] = 1.0
    return {"state": rng.normal(size=(b, state_dim)), "obs": obs, "actions": actions,
            "n_obs": n_obs}


def test_update_scorer_matches_numerical_gradient(monkeypatch):
    # each agent's step takes the gradient of -mean Q_i at its Gumbel-Softmax
    # sample, its slab of the one (agents, b, k) draw of relaxed_ranks
    rng = np.random.default_rng(11)
    k, b, n_agents = 4, 6, 2
    batch = _scorer_batch(rng, b, k, n_agents)
    scorers = [nn.init_mlp((madrl.SCORER_IN, 5, 1), "linear", rng) for _ in range(n_agents)]
    critics = [nn.init_mlp((3 + n_agents * k, 7, 7, 1), "linear", rng) for _ in range(n_agents)]
    x = critic_input(batch["state"], batch["actions"])

    def loss(i):
        cols = slice(3 + i * k, 3 + (i + 1) * k)
        z = _reference_logits(scorers[i], batch["obs"][:, i, :], batch["n_obs"][:, i])
        z = z + np.random.default_rng(5).gumbel(size=(n_agents, b, k))[i]
        y = np.zeros((b, k))
        for r in range(b):
            if np.isfinite(z[r]).any():
                e = np.exp(z[r] - z[r].max())
                y[r] = e / e.sum()
        xi = x.copy()
        xi[:, cols] = y
        return -float(np.mean(nn.mlp_forward(critics[i], xi)))

    got = []
    monkeypatch.setattr(nn, "adam_step", lambda p, g, *a, **kw: got.append((p, g.copy())))
    relaxed, cache = madrl.relaxed_ranks(nn.stack(scorers), batch, np.random.default_rng(5))
    for i in range(n_agents):
        madrl.update_scorer(i, scorers[i], None, critics[i], batch, x, relaxed, cache)
    assert [p for p, _ in got] == scorers
    h = 1e-6
    for i, (scorer, grad) in enumerate(got):
        for idx in range(scorer.flat.size):
            orig = scorer.flat[idx]
            scorer.flat[idx] = orig + h
            up = loss(i)
            scorer.flat[idx] = orig - h
            dn = loss(i)
            scorer.flat[idx] = orig
            assert grad[idx] == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-9)


def test_padded_ranks_never_chosen_and_get_zero_probability(monkeypatch):
    rng = np.random.default_rng(12)
    k = 4
    scorer = nn.init_mlp((madrl.SCORER_IN, 5, 1), "linear", rng)
    # a scorer whose logit grows with the backlog feature, and padded rows
    # whose backlog is far above any observed UE's
    scorer.weights[0][:] = 0.0
    scorer.weights[0][2, 0] = 1.0
    scorer.biases[0][:] = 0.0
    scorer.weights[1][:] = 1.0
    obs = np.zeros(2 + 4 * k)
    obs[2::4] = 0.1
    obs[4::4] = [0.2, 0.3, 50.0, 60.0]
    group = nn.stack([scorer])
    for n in range(k + 1):
        picks = [select_rank(group, obs[None], [n], np.random.default_rng(s))[0]
                 for s in range(200)]
        for a in picks + [select_rank(group, obs[None], [n])[0]]:
            assert a.sum() == (1.0 if n else 0.0)
            assert not a[n:].any()
        if n:
            assert select_rank(group, obs[None], [n])[0, n - 1] == 1.0
    # the relaxed sample the critic sees is zero at every padded rank, and
    # the step does not read the padded features
    batch = _scorer_batch(rng, 8, k)
    scorers = [scorer, nn.init_mlp((madrl.SCORER_IN, 5, 1), "linear", rng)]
    critics = [nn.init_mlp((3 + 2 * k, 6, 1), "linear", rng) for _ in scorers]
    x = critic_input(batch["state"], batch["actions"])
    seen, steps = [], []
    real_forward = nn.forward_pass

    def spy(params, xin):
        for i, critic in enumerate(critics):
            if params is critic:
                seen.append(np.array(xin)[:, 3 + i * k : 3 + (i + 1) * k])
        return real_forward(params, xin)

    monkeypatch.setattr(nn, "forward_pass", spy)
    monkeypatch.setattr(nn, "adam_step", lambda p, g, *a, **kw: steps.append(g.copy()))

    def step_group():
        relaxed, cache = madrl.relaxed_ranks(nn.stack(scorers), batch, np.random.default_rng(3))
        for i in range(2):
            madrl.update_scorer(i, scorers[i], None, critics[i], batch, x, relaxed, cache)

    step_group()
    for i in range(2):
        padded = np.arange(k) >= batch["n_obs"][:, i][:, None]
        assert np.all(seen[i][padded] == 0.0)
        assert np.all(seen[i].sum(axis=1)[batch["n_obs"][:, i] > 0] == pytest.approx(1.0))
        feats = batch["obs"][:, i, 2:].reshape(8, k, 4)
        feats[padded] = 99.0
    step_group()
    assert all(np.array_equal(a, b) for a, b in zip(steps[:2], steps[2:]))
