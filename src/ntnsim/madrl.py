"""Two-timescale multi-agent actor-critic stack.

Two agent groups share one team reward: every platform carries a scheduling
agent that picks a user each slot, and every untethered node additionally
carries a trajectory agent that emits a velocity held for five slots.
Critics are trained on the global state plus all same-group actions;
actors act on local observations only, so execution never needs the
global state. Each group is an AgentGroup: its actors, critics, their
targets and Adam moments are stacked buffers with one row per agent, and
the update round steps agent by agent on row views of them.

A scheduling actor is one per-UE scorer shared across its observed UEs
(permutation-equivariant, as in Deep Sets): it maps each UE's features and
the platform's own position to one logit, and the agent picks a rank from
the softmax over its cell's observed UEs. Its action is the one-hot rank;
the actor step differentiates a Gumbel-Softmax relaxation of that choice
through the critic, as MADDPG trains discrete actions. Velocity actors are
deterministic tanh policies trained by the DDPG gradient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mac, nn
from .channel import ChannelConfig
from .nn import MlpParams
from .scenario import ScenarioConfig, WorldState, apply_trajectory, init_world
from .traffic import TrafficConfig

METHODS = ("rr", "maddpg", "tts-maddpg")
K_OBS = 8  # fixed observation slots per agent; smaller cells are zero-padded
UE_FEATURES = 4  # per observed UE: relative x, relative y, backlog, head-of-line age
SCORER_IN = UE_FEATURES + 2  # one UE's features plus the platform's own position
# Hidden ReLU units of the one-layer per-UE scorer. It reads six inputs, and
# an update round runs it on about a thousand rows per agent (batch x k_obs),
# so it stays narrow.
SCORER_WIDTH = 32
# Adam step size of the scorers: MADDPG's learning rate for its Gumbel-Softmax
# actors (Lowe et al., arXiv:1706.02275). A scorer has a few hundred weights
# and reads inputs that span a small part of [-1, 1] (relative positions are
# fractions of the area), so the DDPG actor rate of the velocity group would
# leave it near its random initialization for thousands of rounds.
SCORER_LR = 1e-2
TRAJECTORY_PERIOD = 5  # slots per trajectory decision
GAMMA = 0.95  # per-slot discount; a velocity transition spans TRAJECTORY_PERIOD slots
TAU = 0.005  # soft target update rate of every net
ACTOR_LR = 1e-4  # Adam step size of the velocity actors
CRITIC_LR = 1e-3  # Adam step size of every critic
HIDDEN_WIDTH = 64  # hidden units per layer of the scheduler critics
# Wider nets for the velocity group only: its critics regress position
# value against the full cross-agent state, a few hundred dims at the
# default scenario, from a replay ring two orders of magnitude smaller
# than the schedulers'. The scheduler critics keep the narrow width; their
# per-slot reward makes the fit easy and they dominate runtime. The
# per-UE scorers have their own width (SCORER_WIDTH).
TRAJ_HIDDEN_WIDTH = 128
SCHED_BUFFER_CAPACITY = 200_000  # scheduler replay rows
# Kept small on purpose: the ring then holds only the most recent ~120
# episodes, so the velocity critics regress against the current scheduler
# rather than the stale low-reward transitions from early training.
TRAJ_BUFFER_CAPACITY = 2_400
SLOTS_PER_UPDATE = 4  # environment slots per update round
# Gaussian exploration on the velocity commands; schedulers sample their
# rank instead.
NOISE_START = 0.3
NOISE_END = 0.05
NOISE_DECAY_FRAC = 0.6
# Episode-constant velocity drift std, held fixed from the drift's start
# to the last episode (unlike the per-step Gaussian): critics only see
# position-vs-throughput evidence if exploration displaces nodes across
# the cell, and a decaying drift would correlate position spread with
# training epoch, letting the concurrent scheduler improvement masquerade
# as a movement penalty.
TRAJ_DRIFT_STD = 1.0
# L2 pull toward hover on the velocity actions. The actor rails a
# dimension when its critic gradient beats 2*reg*|a|, and measured
# gradients for wrong directions sit at the same scale as weak true
# ones, so no L2 value can arbitrate direction; that job belongs to the
# drift. This is kept an order of magnitude below the measured
# slopes so any direction the critic does hold saturates the command,
# and it only bounds the command where the critic is flat.
ACTION_REG = 1e-3
# L2 on the velocity critics only: they regress a hundred-plus state dims
# against a few thousand recent transitions, and unregularized they soak
# up chance state-reward correlations that then steer the actors. The
# scheduler critics see an order of magnitude more data and need none.
TRAJ_CRITIC_WEIGHT_DECAY = 1e-4
# The trainer's nets, their target copies and Adam moments, the replay rings
# and every batch drawn from them. Update rounds run in this dtype under
# nn.flush_subnormals; observations are cast to the actors' dtype once per
# slot. The simulator stays float64.
NET_DTYPE = np.float32
REWARD_SCALE = 1e9  # slot reward = delivered bits per second / this
# The most rr train episodes one lockstep rollout steps (see Trainer.rollout).
# On a 2-core x86-64 host the cost per world-slot is flat from about 20 worlds
# (141/79/71/69/71 us at 1/5/20/64/128 worlds), and each world adds about
# 42 KB to the peak Python heap.
RR_BLOCK_WORLDS = 32


@dataclass
class ObsNorm:
    """Scales that map raw queue quantities into [0, 1] observation entries."""

    backlog_bits: float
    age_slots: float

    @classmethod
    def from_traffic(cls, tcfg: TrafficConfig) -> "ObsNorm":
        # one deadline's worth of mean load saturates the backlog entry
        return cls(
            backlog_bits=max(tcfg.lambda_pkts * tcfg.packet_bits * tcfg.deadline_slots, 1.0),
            age_slots=float(max(tcfg.deadline_slots, 1)),
        )


@dataclass
class EnvSpec:
    """Everything a rollout needs besides policies."""

    scenario: ScenarioConfig
    traffic: TrafficConfig
    channel: ChannelConfig
    k_obs: int = K_OBS

    def norm(self) -> ObsNorm:
        return ObsNorm.from_traffic(self.traffic)


def queue_observation(world: WorldState, norm: ObsNorm) -> np.ndarray:
    """(n_worlds, n_ues, 2): every UE's backlog and head-of-line age,
    normalized and capped at 1, from one queued_bits and one hol_age pass;
    the slot's local observations and critic states read it."""
    q, obs = world.queue, np.empty(world.ue_speeds.shape + (2,))
    np.minimum(q.queued_bits() / norm.backlog_bits, 1.0, out=obs[..., 0])
    np.minimum(q.hol_age(world.slot) / norm.age_slots, 1.0, out=obs[..., 1])
    return obs


def local_observation(world: WorldState, cells: np.ndarray, queue_obs: np.ndarray) -> np.ndarray:
    """(n_worlds, n_platforms, 2 + 4k) scheduler observations of every
    world in one pass, one row per platform row: its own normalized position,
    then per observed UE (the rank-ordered ids of its row of `cells`, see
    mac.observed_ues) the UE's relative position and its `queue_obs` row
    (backlog, head-of-line age); padded ranks stay zero. Every entry lands in
    [-1, 1]."""
    wh = world.area_max
    xy = world.positions[..., :2]
    ue = (np.arange(len(cells))[:, None, None], cells)  # padded ranks read UE -1, then zeros
    per_ue = np.concatenate(((world.ue_positions[ue] - xy[..., None, :]) / wh, queue_obs[ue]),
                            axis=-1)
    per_ue = np.where(cells[..., None] >= 0, per_ue, 0.0)
    return np.concatenate((xy / wh, per_ue.reshape(cells.shape[:-1] + (-1,))), axis=-1)


def trajectory_observation(world: WorldState, sched_obs: np.ndarray) -> np.ndarray:
    """(n_worlds, n_nodes, 4 + 4k) trajectory observations of every world:
    each node's scheduler observation (rows 1-4 of sched_obs) and then the
    donor's position relative to the node, normalized like the UE offsets."""
    xy = world.positions[..., :2]
    donor_offset = (xy[..., :1, :] - xy[..., 1:, :]) / world.area_max
    return np.concatenate((sched_obs[..., 1:, :], donor_offset), axis=-1, dtype=sched_obs.dtype)


def global_state(world: WorldState, queue_obs: np.ndarray) -> np.ndarray:
    """(n_worlds, state_dim) critic states, one row per world: all platform
    positions, all UE positions (id order), each normalized, then all
    backlogs and all head-of-line ages (`queue_obs`, see queue_observation).
    Used by critics only."""
    w, h = world.area_max
    return np.concatenate([
        world.positions[..., 0] / w,
        world.positions[..., 1] / h,
        world.ue_positions[..., 0] / w,
        world.ue_positions[..., 1] / h,
        queue_obs[..., 0],
        queue_obs[..., 1],
    ], axis=-1)


def global_state_dim(n_platforms: int, n_ues: int) -> int:
    return 2 * n_platforms + 4 * n_ues


def _check_stacked(group: MlpParams, caller: str) -> None:
    if group.weights[0].ndim != 3:
        raise ValueError(f"{caller} takes a group of nets (nn.stack), got one net")


def select_action(
    actor: MlpParams, obs: np.ndarray, noise_std: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Velocity commands: each actor's deterministic output on its own
    observation plus Gaussian exploration noise (one draw of the commands'
    shape from rng), clipped to [-1, 1]. `actor` is a group (nn.stack of A
    actors) with obs (..., A, 4 + 4k), e.g. lockstep worlds x nodes. Every
    observation is a one-row forward of its own actor, so each command
    equals that actor's forward alone bit for bit (see nn.stack)."""
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    if noise_std > 0.0 and rng is None:
        raise ValueError("noise_std > 0 draws exploration noise and needs a generator rng")
    _check_stacked(actor, "select_action")
    a = nn.mlp_forward(actor, obs[..., None, :])[..., 0, :]
    if noise_std > 0.0:
        a = a + rng.normal(0.0, noise_std, size=a.shape)
    return np.clip(a, -1.0, 1.0)


@functools.cache
def _scorer_columns(k: int) -> np.ndarray:
    """The observation columns of k scorer rows, rank after rank; shared by
    every caller, so read-only."""
    cols = np.array([c for j in range(k) for c in
                     (*range(2 + UE_FEATURES * j, 2 + UE_FEATURES * (j + 1)), 0, 1)])
    cols.flags.writeable = False
    return cols


def scorer_rows(obs: np.ndarray) -> np.ndarray:
    """(..., k, SCORER_IN) scorer inputs of scheduler observations
    (..., 2 + 4k), gathered in one take: one row per rank, the UE's four
    features and then the platform's own position."""
    k = (obs.shape[-1] - 2) // UE_FEATURES
    return obs.take(_scorer_columns(k), axis=-1).reshape(obs.shape[:-1] + (k, SCORER_IN))


def rank_logits(scorers: MlpParams, obs: np.ndarray, n_obs: np.ndarray):
    """(agents, b, k) logits of a group of scorers (nn.stack) on a batch of
    scheduler observations (b, agents, 2 + 4k) with n_obs (b, agents)
    observed UEs each, scorer i on agent i's column, -inf at padded ranks;
    with the stack's forward cache (on scorer_rows, one slab of b * k rows
    per agent) and the (agents, b, k) mask of observed ranks. The mask comes
    from n_obs, not from the (zero) features of padded ranks. Every slab has
    the same rows, so each agent's logits equal its scorer's forward alone
    bit for bit (see nn.stack)."""
    b, n_agents, k = obs.shape[0], obs.shape[1], (obs.shape[2] - 2) // UE_FEATURES
    rows = scorer_rows(obs.swapaxes(0, 1)).reshape(n_agents, b * k, SCORER_IN)
    out, cache = nn.forward_pass(scorers, rows)
    valid = np.arange(k) < n_obs.T[..., None]
    return np.where(valid, out.reshape(n_agents, b, k), -np.inf), cache, valid


def select_rank(
    scorer: MlpParams, obs: np.ndarray, n_obs, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Schedulers' one-hot choices over their k observed ranks (all zero for
    an empty cell).

    `scorer` is a group (nn.stack of P scorers) with obs (..., P, 2 + 4k)
    and n_obs (..., P), e.g. lockstep worlds x platforms. With rng each rank
    is sampled from the softmax of the logits of its cell's n_obs observed
    UEs by Gumbel-max, from one draw of sum(n_obs) variates taken cell by
    cell in C order; without, it is their argmax.

    Cells run one forward per distinct observed-UE count, on exactly their
    n_obs rows and with their own scorer's weights. They are never padded
    to k rows: a stacked product equals each item's own only when all items
    have the same row count (see nn.stack), so each cell's logits equal its
    scorer's forward of that cell alone bit for bit."""
    _check_stacked(scorer, "select_rank")
    n_obs = np.asarray(n_obs)
    n_agents, k = scorer.weights[0].shape[0], (obs.shape[-1] - 2) // UE_FEATURES
    counts = n_obs.ravel()
    ends = np.bincount(counts, minlength=k + 1).cumsum().tolist()  # cells with <= n observed UEs
    if n_obs.shape != obs.shape[:-1] or n_obs.shape[-1] != n_agents or len(ends) > k + 1:
        raise ValueError(f"{n_agents} scorers cannot read observations {obs.shape} "
                         f"with observed-UE counts of shape {n_obs.shape}, at most {k} each")
    rows = scorer_rows(obs.reshape(-1, obs.shape[-1]))
    if rng is not None:  # float64: the draw is not rounded
        gumbel = np.zeros((len(counts), k))
        gumbel[np.arange(k) < counts[:, None]] = rng.gumbel(size=int(counts.sum()))
    a = np.zeros(n_obs.shape + (k,))
    chosen, by_count = a.reshape(-1, k), np.argsort(counts, kind="stable")
    for n in range(1, k + 1):
        if ends[n] > ends[n - 1]:
            cell = by_count[ends[n - 1] : ends[n]]
            logits = nn.take_forward(scorer, cell % n_agents, rows[cell, :n])[..., 0]
            if rng is not None:
                logits = logits + gumbel[cell, :n]
            chosen[cell, np.argmax(logits, axis=1)] = 1.0
    return a


def noise_schedule(episode: int, total_episodes: int) -> float:
    """Linear decay from NOISE_START to NOISE_END over the first
    NOISE_DECAY_FRAC of training."""
    horizon = max(int(total_episodes * NOISE_DECAY_FRAC), 1)
    if episode >= horizon:
        return NOISE_END
    return NOISE_START + (NOISE_END - NOISE_START) * (episode / horizon)


def team_reward(delivered_bits, slot_seconds: float):
    """The slot reward of a slot's delivered bits (an int or an array)."""
    return delivered_bits / slot_seconds / REWARD_SCALE


class ReplayBuffer:
    """Fixed-capacity ring of team transitions, uniformly sampled.

    Each row stores the snapshot a transition starts from; the successor a
    batch returns (next_state, next_obs, next_n_obs) is row (idx + 1) %
    capacity. Rows are pushed in time order and sampled only between
    episodes, so the newest row is always done and a row's successor is
    overwritten only after the row. A done row's successor is whatever
    finite row follows (the next episode's first, the oldest, or a zero row
    never written): its target r + gamma * (1 - done) * q is r for any
    finite q. n_obs holds each agent's observed-UE count, which masks the
    padded ranks of a scheduler's observation; velocity rows leave it zero.
    Rows are stored, and sampled, in NET_DTYPE."""

    def __init__(self, capacity: int, state_dim: int, n_agents: int, obs_dim: int, act_dim: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.size = 0
        self._head = 0
        self.state = np.zeros((capacity, state_dim), dtype=NET_DTYPE)
        self.obs = np.zeros((capacity, n_agents, obs_dim), dtype=NET_DTYPE)
        self.actions = np.zeros((capacity, n_agents, act_dim), dtype=NET_DTYPE)
        self.reward = np.zeros(capacity, dtype=NET_DTYPE)
        self.done = np.zeros(capacity, dtype=NET_DTYPE)
        self.n_obs = np.zeros((capacity, n_agents), dtype=np.int32)

    def __len__(self) -> int:
        return self.size

    def push(self, state, obs, actions, reward, done: bool, n_obs=0):
        i = self._head
        self.state[i] = state
        self.obs[i] = obs
        self.actions[i] = actions
        self.reward[i] = reward
        self.done[i] = 1.0 if done else 0.0
        self.n_obs[i] = n_obs
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> dict:
        """A batch of batch_size uniform rows; each snapshot ring is read
        with one take of the rows and their successors."""
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} < batch size {batch_size}")
        idx = rng.integers(0, self.size, size=batch_size)
        rows = np.concatenate((idx, (idx + 1) % self.capacity))
        state, obs, n_obs = (ring.take(rows, axis=0) for ring in (self.state, self.obs, self.n_obs))
        b = batch_size
        return {
            "state": state[:b],
            "obs": obs[:b],
            "actions": self.actions.take(idx, axis=0),
            "reward": self.reward.take(idx),
            "next_state": state[b:],
            "next_obs": obs[b:],
            "done": self.done.take(idx),
            "n_obs": n_obs[:b],
            "next_n_obs": n_obs[b:],
        }


def critic_input(state: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """(batch, state_dim + n_agents * act_dim) critic input rows: the global
    state, then every same-group agent's action in agent order."""
    return np.concatenate([state, actions.reshape(actions.shape[0], -1)], axis=1)


def target_actions(actors: MlpParams, batch: dict) -> np.ndarray:
    """(batch, n_agents, act_dim) actions of a group of target actors
    (nn.stack) on the batch's next observations, in one stacked forward:
    actor i reads agent i's column. Every slab has the batch's rows, so each
    agent's actions equal its actor's forward alone bit for bit (see
    nn.stack)."""
    return nn.mlp_forward(actors, batch["next_obs"].swapaxes(0, 1)).swapaxes(0, 1)


def critic_targets(
    batch: dict, target_critic: MlpParams, discount: np.ndarray, next_x: np.ndarray
) -> np.ndarray:
    """y = r + discount * Q_target(next_x), where discount is the batch's
    gamma * (1 - done), formed once per batch, and next_x the critic input
    of the next state and the target actors' actions (see target_actions
    and critic_input)."""
    q = nn.mlp_forward(target_critic, next_x)[:, 0]
    return batch["reward"] + discount * q


def update_critic(
    critic: MlpParams,
    adam: nn.AdamState,
    x: np.ndarray,
    targets: np.ndarray,
    lr: float = CRITIC_LR,
    weight_decay: float = 0.0,
    out: np.ndarray | None = None,
) -> float:
    """One Adam step on the mean squared TD error (plus L2 on the weights)
    of the critic on its input rows x (see critic_input); returns the TD loss.
    The gradient is formed in out (see nn.param_grads)."""
    b = x.shape[0]
    q, cache = nn.forward_pass(critic, x)
    err = q[:, 0] - targets
    upstream = (2.0 * err / b)[:, None]
    grad = nn.param_grads(critic, cache, upstream, out)
    if weight_decay > 0.0:
        for g, w in zip(nn.layer_views(critic.layer_sizes, grad)[0], critic.weights):
            g += 2.0 * weight_decay * w
    nn.adam_step(critic, grad, adam, lr)
    return float(np.mean(err * err))


def action_grad(critic: MlpParams, batch: dict, x: np.ndarray, agent_index: int, a: np.ndarray):
    """(b, act_dim) gradient of -mean(Q) w.r.t. this agent's action columns
    of the critic input x (see critic_input), with those columns replaced by
    a; formed for those columns only, and x is left unchanged."""
    b, act_dim = a.shape
    start = batch["state"].shape[1] + agent_index * act_dim
    cols = slice(start, start + act_dim)
    x_i = x.copy()
    x_i[:, cols] = a
    _, cache = nn.forward_pass(critic, x_i)
    return nn.input_grad(critic, cache, np.full((b, 1), -1.0 / b), cols)


def update_actor(agent_index: int, actor: MlpParams, adam: nn.AdamState, critic: MlpParams,
                 batch: dict, x: np.ndarray, lr: float = ACTOR_LR, action_reg: float = ACTION_REG,
                 out: np.ndarray | None = None) -> None:
    """One Adam ascent step on mean Q with this agent's action replayed
    through its actor; the gradient reaches the actor via the critic's
    input gradient on the action columns (see action_grad), and the actor's
    gradient is formed in out (see nn.param_grads).

    action_reg penalizes the mean squared action, a pull toward hover. It
    acts on the post-tanh action a, so its gradient 2 * action_reg * a *
    (1 - a^2) vanishes on the rails as well: it cannot pull a saturated
    output back."""
    a_i, actor_cache = nn.forward_pass(actor, batch["obs"][:, agent_index, :])
    da_i = action_grad(critic, batch, x, agent_index, a_i) + (2.0 * action_reg / len(a_i)) * a_i
    nn.adam_step(actor, nn.param_grads(actor, actor_cache, da_i, out), adam, lr)


def target_ranks(scorers: MlpParams, batch: dict) -> np.ndarray:
    """(batch, n_agents, k) one-hot argmax ranks of a group of target
    scorers (nn.stack) on the batch's next observations; an empty cell keeps
    its all-zero action."""
    next_obs = batch["next_obs"]
    logits, _, valid = rank_logits(scorers, next_obs, batch["next_n_obs"])
    agent, row = np.nonzero(valid[..., 0])
    out = np.zeros(next_obs.shape[:2] + logits.shape[-1:], dtype=next_obs.dtype)
    out[row, agent, logits.argmax(axis=-1)[agent, row]] = 1.0
    return out


def relaxed_ranks(scorers: MlpParams, batch: dict, rng: np.random.Generator):
    """Gumbel-Softmax samples (temperature 1) of every scheduler's rank on a
    batch: y = softmax(logits + g), g ~ Gumbel(0, 1), of the group of scorers
    (nn.stack) on the batch's observations, as (agents, b, k), with the
    stack's forward cache (see rank_logits). Padded ranks get probability
    zero, and an empty cell an all-zero row. The forward and the draw run
    stacked over the agents: one (agents, b, k) draw is the stream of the
    agents' (b, k) draws in agent order."""
    b, n_agents, k = batch["actions"].shape
    logits, cache, valid = rank_logits(scorers, batch["obs"], batch["n_obs"])
    z = logits + rng.gumbel(size=(n_agents, b, k))
    live = valid[..., :1]
    z -= np.where(live, z.max(axis=-1, keepdims=True), 0.0)
    y = np.exp(z)  # exp(-inf) = 0 at padded ranks and in empty cells
    y /= np.where(live, y.sum(axis=-1, keepdims=True), 1.0)
    return y, cache


def update_scorer(agent_index: int, scorer: MlpParams, adam: nn.AdamState, critic: MlpParams,
                  batch: dict, x: np.ndarray, relaxed: np.ndarray, cache, lr: float = SCORER_LR,
                  out: np.ndarray | None = None) -> None:
    """One Adam ascent step on mean Q with this scheduler's rank replaced by
    its Gumbel-Softmax sample: relaxed and cache are the group's samples and
    stacked scorer cache (see relaxed_ranks), of which the step reads the
    agent's slab. The sample enters the critic on the agent's action
    columns, and the critic's input gradient (see action_grad) flows back
    through the softmax into the scorer, whose gradient is formed in out
    (see nn.param_grads). Padded ranks have probability zero and so get no
    gradient; a batch row of an empty cell contributes nothing."""
    y = relaxed[agent_index]
    b, k = y.shape
    gy = action_grad(critic, batch, x, agent_index, y)
    dz = y * (gy - (y * gy).sum(axis=1, keepdims=True))
    grad = nn.param_grads(scorer, [a[agent_index] for a in cache], dz.reshape(b * k, 1), out)
    nn.adam_step(scorer, grad, adam, lr)


def scorer_steps(group: AgentGroup, batch: dict, rng: np.random.Generator):
    """update_scorer on the group's Gumbel-Softmax samples of a round's
    batch, drawn once, before the group's first step (see relaxed_ranks)."""
    relaxed, cache = relaxed_ranks(group.actor, batch, rng)
    return functools.partial(update_scorer, relaxed=relaxed, cache=cache, lr=group.actor_lr)


def velocity_steps(group: AgentGroup, batch: dict, rng: np.random.Generator):
    """update_actor, the DDPG step, at the group's rate; it draws nothing."""
    return functools.partial(update_actor, lr=group.actor_lr)


@dataclass
class EpisodeResult:
    slots: int
    slot_seconds: float
    delivered_bits: int = 0
    arrived_bits: int = 0
    dropped_bits: int = 0
    delivered_by_uav: list = field(default_factory=list)  # bits by platform row
    slot_rewards: list = field(default_factory=list)
    macro_rewards: list = field(default_factory=list)
    n_sched_transitions: int = 0
    n_traj_transitions: int = 0
    sched_action_log: list = field(default_factory=list)
    traj_action_log: list = field(default_factory=list)

    def overall_mbps(self) -> float:
        return self.delivered_bits / (self.slots * self.slot_seconds) / 1e6

    def uav_mbps(self, row: int) -> float:
        return self.delivered_by_uav[row] / (self.slots * self.slot_seconds) / 1e6

    def drop_rate(self) -> float:
        return self.dropped_bits / self.arrived_bits if self.arrived_bits else 0.0


def run_worlds(
    env: EnvSpec,
    method: str,
    sched_actors: MlpParams | None,
    traj_actors: MlpParams | None,
    world_seeds: list,
    slots: int,
    mode: str = "eval",
    noise_std: float = 0.0,
    traj_drift_std: float = 0.0,
    traj_explore_only: bool = False,
    noise_rng: np.random.Generator | None = None,
    sched_buffer: ReplayBuffer | None = None,
    traj_buffer: ReplayBuffer | None = None,
    record_actions: bool = False,
) -> list[EpisodeResult]:
    """The rollout of the lockstep worlds of `world_seeds` (see init_world),
    one EpisodeResult per world; a rollout of one world is a lockstep of
    one. sched_actors and traj_actors are the groups' stacked actors (see
    AgentGroup), None where the method has no such group. Scheduler i serves
    fleet row i every slot; under tts-maddpg velocity agent i moves the node
    in row i + 1 by a command at every fifth slot, held until the next.

    The worlds share one slot loop. Everything but the draws runs once per
    slot over the world axis: association, cell ranking, one queue
    reduction (queue_observation) for the observations and the critic
    state, the observations' cast to the actors' dtype, one schedule of
    every world (decode_schedule or rr_schedule) and mac.step_slot; one
    select_rank call per slot and one select_action call per macro-step act
    for every world and platform of a group, bit-identical to each actor's
    forward alone. Each world draws from its own generator in the order of
    its rollout alone, so each world's result is that of its own rollout,
    bit for bit. A slot adds its delivered bits up on the world axis and keeps
    each world's total; the rewards (each macro-step's slot rewards added in
    slot order) and each EpisodeResult's lists are formed from those totals.

    Train mode steps one world, since a replay ring holds one time-ordered
    stream. Schedulers sample their rank by Gumbel-max and velocity actors
    add Gaussian noise, both drawn from noise_rng. Each transition is pushed
    as soon as it is complete: one per slot into sched_buffer, one per
    macro-step, with its summed reward, into traj_buffer; the episode's last
    is done. A successor is the next row of its ring (see ReplayBuffer), so
    no snapshot is built after the final slot. Velocity exploration adds an
    episode-constant drift, one bearing per node (see TRAJ_DRIFT_STD): white
    noise at the macro-step scale cancels itself, and a sign-alternating
    bearing nulls the bearing-reward correlation the value fit reads. With
    traj_explore_only the commands are the drift alone; the trainer sets it
    for the episodes before the velocity actors' first step, whose ring rows
    then hold drift without actor output or noise. Eval mode stores nothing,
    and schedulers take their argmax rank. Actions read only local
    observations; the global state is built only for the rings, in train
    rollouts of a learner.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    train = mode == "train"
    learn = method != "rr"
    n_worlds = len(world_seeds)
    if train and n_worlds > 1:
        raise ValueError("train mode steps one world: a replay ring holds one time-ordered stream")
    norm = env.norm()
    world = init_world(env.scenario, world_seeds)
    dt = env.scenario.slot_seconds
    n_platforms = len(env.scenario.platforms)
    n_nodes = n_platforms - 1 if method == "tts-maddpg" else 0

    traj_drift = np.zeros((n_nodes, 2))
    if train and n_nodes and traj_drift_std > 0.0:
        traj_drift = noise_rng.normal(0.0, traj_drift_std, (n_nodes, 2))
    delivered = np.zeros((n_worlds, n_platforms), dtype=np.int64)
    slot_bits_sum = np.empty((slots, n_worlds), dtype=np.int64)
    macro_rewards, sched_log, traj_log = [], [], []

    for t in range(slots):
        last = t == slots - 1
        association = mac.associate(world, env.channel)
        if learn:
            cells = mac.observed_ues(world, association, env.k_obs)
            queue_obs = queue_observation(world, norm)
            state = global_state(world, queue_obs) if train else None
            sched_obs = local_observation(world, cells, queue_obs).astype(sched_actors.dtype,
                                                                          copy=False)
            sched_n = (cells >= 0).sum(axis=-1)

        if method == "tts-maddpg" and t % TRAJECTORY_PERIOD == 0:
            traj_state, traj_obs = state, trajectory_observation(world, sched_obs)
            if train and traj_explore_only:
                traj_acts = np.zeros((n_worlds, n_nodes, 2))
            else:
                traj_acts = select_action(traj_actors, traj_obs, noise_std if train else 0.0,
                                          noise_rng)
            if train:
                traj_acts = np.clip(traj_acts + traj_drift, -1.0, 1.0)
            held_velocity = traj_acts * world.node_max_speed[:, None]
            if record_actions:
                traj_log.append(traj_acts.copy())

        if learn:
            sched_acts = select_rank(sched_actors, sched_obs, sched_n, noise_rng if train else None)
            choices = mac.decode_schedule(sched_acts, cells)
            if record_actions:
                sched_log.append(sched_acts.copy())
        else:
            choices = mac.rr_schedule(association.rows, t, n_platforms)

        world, slot_bits = mac.step_slot(world, choices, env.traffic, env.channel, association)
        if method == "tts-maddpg":
            apply_trajectory(world, held_velocity, dt)

        delivered += slot_bits
        slot_bits.sum(axis=1, out=slot_bits_sum[t])
        if train and learn:
            sched_buffer.push(state, sched_obs, sched_acts, team_reward(slot_bits_sum[t, 0], dt),
                              last, sched_n)
        if method == "tts-maddpg" and (last or (t + 1) % TRAJECTORY_PERIOD == 0):
            # the macro-step's slot rewards, added in slot order
            macro = sum(team_reward(slot_bits_sum[t - t % TRAJECTORY_PERIOD : t + 1], dt))
            if train:
                traj_buffer.push(traj_state, traj_obs, traj_acts, macro[0], last)
            macro_rewards.append(macro)

    rewards = team_reward(slot_bits_sum, dt)
    macros, q = np.array(macro_rewards).reshape(-1, n_worlds), world.queue
    return [EpisodeResult(
        slots=slots, slot_seconds=dt, delivered_bits=sum(by_uav), delivered_by_uav=by_uav,
        arrived_bits=int(q.arrived_bits[w].sum()), dropped_bits=int(q.dropped_bits[w].sum()),
        slot_rewards=rewards[:, w].tolist(), macro_rewards=macros[:, w].tolist(),
        n_sched_transitions=slots if train and learn else 0,
        n_traj_transitions=len(macros) if train and n_nodes else 0,
        sched_action_log=[acts[w] for acts in sched_log],
        traj_action_log=[acts[w] for acts in traj_log],
    ) for w, by_uav in enumerate(delivered.tolist())]


def run_episode(env: EnvSpec, method: str, sched_actors, traj_actors, world_seed, *args,
                **kwargs) -> EpisodeResult:
    """The rollout of one world: `run_worlds` on [world_seed]. Train
    rollouts call this entry point."""
    return run_worlds(env, method, sched_actors, traj_actors, [world_seed], *args, **kwargs)[0]


@dataclass
class TrainConfig:
    method: str = "tts-maddpg"  # rr | maddpg | tts-maddpg
    episodes: int = 1000
    slots_per_episode: int = 200
    seed: int = 0
    batch_size: int = 128
    warmup_transitions: int = 5_000
    # Update rounds before velocity actors start stepping: their critics must
    # first map the position field, or the actors chase gradient noise into
    # the tanh rails and never recover.
    traj_actor_delay: int = 3500
    # Rounds the velocity actors then step before being held again (0 keeps
    # them stepping to the end). The useful value slope is climbed within a
    # few hundred rounds; at a saturated tanh the climbed direction has no
    # actor gradient left while any orthogonal critic noise still does, so an
    # open-ended stepping phase lets the policy slowly rotate off the learned
    # direction. Bounding the phase ends training in the settled geometry.
    traj_actor_window: int = 750
    # Total update rounds for the run (0 = unlimited); rollouts and evals
    # continue after the budget so the logs keep their cadence. Once every
    # agent has converged, further rounds only give the weakest critic's
    # noise time to walk some actor onto a saturated rail it cannot leave
    # (observed as one scheduler agent's throughput halving dozens of
    # episodes after the whole system had plateaued). The default ends
    # optimization a comfortable margin after the velocity window closes.
    update_rounds_budget: int = 4_600
    eval_every_episodes: int = 25
    eval_episodes: int = 20

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.episodes <= 0 or self.slots_per_episode <= 0:
            raise ValueError("episodes and slots_per_episode must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.warmup_transitions < 0:
            raise ValueError("warmup_transitions must be non-negative")
        if self.traj_actor_delay < 0:
            raise ValueError("traj_actor_delay must be non-negative")
        if self.traj_actor_window < 0:
            raise ValueError("traj_actor_window must be non-negative (0 disables)")
        if self.update_rounds_budget < 0:
            raise ValueError("update_rounds_budget must be non-negative (0 disables)")
        if self.eval_every_episodes < 1:
            raise ValueError("eval_every_episodes must be at least 1")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be at least 1")

    def macro_steps(self) -> int:
        """Velocity transitions per episode."""
        return len(range(0, self.slots_per_episode, TRAJECTORY_PERIOD))

    def ring_rows(self) -> dict[str, int]:
        """Rows of each group's replay ring: its capacity, or every transition
        the run pushes if that is fewer."""
        return {
            "sched": min(SCHED_BUFFER_CAPACITY, self.episodes * self.slots_per_episode),
            "traj": min(TRAJ_BUFFER_CAPACITY, self.episodes * self.macro_steps()),
        }


GROUP_NETS = ("actor", "actor_target", "critic", "critic_target")  # one checkpoint file each


@dataclass
class AgentNets:
    """One agent's view of its group: row i of each of the group's stacked
    nets and Adam moments. It owns no storage."""

    name: str  # checkpoint file prefix: sched{platform id} or traj{platform id}
    actor: MlpParams
    actor_target: MlpParams
    critic: MlpParams
    critic_target: MlpParams
    actor_adam: nn.AdamState
    critic_adam: nn.AdamState


class AgentGroup:
    """Agents that share a replay ring, a team reward and an update rule.
    Each of the GROUP_NETS is a stack (see nn.stack) whose row i is agent
    i's net, and the actors' and critics' Adam moments are (2, agents,
    param_count) buffers, m then v. agents[i] views row i of each (see
    AgentNets): a row of a C-order buffer is contiguous, so a step on it
    makes the same BLAS calls and bytes as on a net of its own. Copies and
    pickles rebuild the views over the copied buffers. The group also holds
    what its update round reads: the ring, the discount of one transition,
    the critics' weight decay, the actors' rate, the target-action function,
    the actor-step function (returning a per-agent step with the signature
    of update_actor), and whether the actors step this round."""

    def __init__(self, names, nets, ring: ReplayBuffer, gamma: float, critic_weight_decay: float,
                 actor_lr: float, next_actions, actor_steps):
        actors, critics = zip(*nets)
        self.actor, self.critic = nn.stack(actors), nn.stack(critics)
        self.actor_target, self.critic_target = self.actor.copy(), self.critic.copy()
        self.actor_moments = np.zeros((2,) + self.actor.flat.shape, self.actor.dtype)
        self.critic_moments = np.zeros((2,) + self.critic.flat.shape, self.critic.dtype)
        self.ring, self.gamma, self.critic_weight_decay = ring, gamma, critic_weight_decay
        self.actor_lr, self.next_actions, self.actor_steps = actor_lr, next_actions, actor_steps
        self.steps_actors = True
        self.agents = [self._view(i, name) for i, name in enumerate(names)]

    def _view(self, i: int, name: str, actor_t: int = 0, critic_t: int = 0) -> AgentNets:
        nets = (getattr(self, net) for net in GROUP_NETS)
        return AgentNets(name, *(MlpParams(n.layer_sizes, n.flat[i], n.out_act) for n in nets),
                         nn.AdamState(actor_t, *self.actor_moments[:, i]),
                         nn.AdamState(critic_t, *self.critic_moments[:, i]))

    def __getstate__(self):
        state = dict(vars(self))
        state["agents"] = [(a.name, a.actor_adam.t, a.critic_adam.t) for a in self.agents]
        return state

    def __setstate__(self, state):
        vars(self).update(state)
        self.agents = [self._view(i, *agent) for i, agent in enumerate(state["agents"])]


class Trainer:
    """Owns all parameters, buffers, and RNG streams for one training run.

    Seed layout (all via SeedSequence so streams never collide):
    [seed, 0] network init, [seed, 1] exploration noise and batch sampling,
    [seed, 2, episode] training worlds, [seed, 3, j] evaluation worlds.
    The same eval worlds are replayed at every checkpoint so evaluation
    curves are comparable across training.
    """

    def __init__(self, env: EnvSpec, cfg: TrainConfig):
        cfg.validate()
        for part in (env.scenario, env.traffic, env.channel):
            part.validate()
        if env.k_obs < 1:
            raise ValueError(f"k_obs must be positive, got {env.k_obs}")
        nn.keep_heap()
        self.env = env
        self.cfg = cfg
        platforms, k = env.scenario.platforms, env.k_obs
        self.state_dim = global_state_dim(len(platforms), env.scenario.n_ues)
        self.rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        self.sched = self.traj = None  # the agent groups (see AgentGroup); None where absent
        self.sched_buffer = self.traj_buffer = None
        self.update_rounds = 0
        self.grad = None  # the flat gradient of every step; sized to the largest net
        self.drift_start_ep = 0  # first episode whose drift can survive into the unlock ring
        self.rr_block = (0, [])  # rr: the first episode of the kept block and its results
        self.rr_evals = None  # rr: the kept evaluation

        if cfg.method == "rr":
            return
        # Scheduler i serves fleet row i: it observes its own position and k
        # UE rows and acts with a one-hot over the k ranks. Velocity agent i
        # moves the node in row i + 1: it also sees the donor and acts with a
        # 2-D velocity in [-1, 1]^2. A critic reads the global state and the
        # actions of every agent in its group. Nets draw from init_rng agent
        # by agent, actor then critic, in float64, and are cast to NET_DTYPE.
        init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))

        def nets(actor_sizes, out_act: str, group_action_dim: int, h: int):
            actor = nn.init_mlp(actor_sizes, out_act, init_rng).astype(NET_DTYPE)
            critic = nn.init_mlp((self.state_dim + group_action_dim, h, h, 1), "linear", init_rng)
            return actor, critic.astype(NET_DTYPE)

        rows = cfg.ring_rows()
        self.sched_buffer = ReplayBuffer(rows["sched"], self.state_dim, len(platforms),
                                         2 + UE_FEATURES * k, k)
        self.sched = AgentGroup(
            [f"sched{p.id}" for p in platforms],
            [nets((SCORER_IN, SCORER_WIDTH, 1), "linear", len(platforms) * k, HIDDEN_WIDTH)
             for _ in platforms],
            self.sched_buffer, GAMMA, 0.0, SCORER_LR, target_ranks, scorer_steps)
        nodes = platforms[1:] if cfg.method == "tts-maddpg" else []
        if nodes:
            h = TRAJ_HIDDEN_WIDTH
            self.traj_buffer = ReplayBuffer(rows["traj"], self.state_dim, len(nodes),
                                            4 + UE_FEATURES * k, 2)
            self.traj = AgentGroup(
                [f"traj{p.id}" for p in nodes],
                [nets((4 + UE_FEATURES * k, h, h, 2), "tanh", len(nodes) * 2, h) for _ in nodes],
                self.traj_buffer, GAMMA ** TRAJECTORY_PERIOD, TRAJ_CRITIC_WEIGHT_DECAY, ACTOR_LR,
                target_actions, velocity_steps)
            # Drift episodes older than one ring length at the unlock are
            # evicted before the velocity actors ever read the critics, so
            # they carry zero exploration value and only perturb the geometry
            # the link schedulers train on. Derived, not configured: warmup
            # and update cadence fix the unlock episode, the ring capacity
            # fixes the lookback.
            per_ep = cfg.macro_steps()
            fill_per_ep = cfg.slots_per_episode + per_ep
            rounds_per_ep = max(cfg.slots_per_episode // SLOTS_PER_UPDATE, 1)
            unlock_ep = cfg.warmup_transitions / fill_per_ep + cfg.traj_actor_delay / rounds_per_ep
            ring_eps = self.traj_buffer.capacity // per_ep
            self.drift_start_ep = max(0, int(unlock_ep) - ring_eps)
        self.grad = np.empty(max(n.flat.shape[1] for g in self.groups for n in (g.actor, g.critic)),
                             dtype=NET_DTYPE)

    # the groups the method has, schedulers first, and their per-agent views
    groups = property(lambda self: [g for g in (self.sched, self.traj) if g])
    sched_agents = property(lambda self: self.sched.agents if self.sched else [])
    traj_agents = property(lambda self: self.traj.agents if self.traj else [])

    def train_world_seed(self, episode: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.cfg.seed, 2, episode])

    def eval_world_seed(self, j: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.cfg.seed, 3, j])

    def _actors(self) -> list[MlpParams | None]:
        """The groups' stacked actors as run_worlds takes them."""
        return [g.actor if g else None for g in (self.sched, self.traj)]

    def drift_std(self, episode: int) -> float:
        """Zero before the unlock ring's lookback begins, then full-scale to
        the last episode."""
        return TRAJ_DRIFT_STD if self.traj and episode >= self.drift_start_ep else 0.0

    def traj_actors_stepping(self) -> bool:
        """Velocity actors step only inside [delay, delay + window): held at
        the near-hover initialization while their critics converge, free for
        the window, then held again so the schedulers finish training against
        a settled geometry."""
        cfg = self.cfg
        if self.update_rounds < cfg.traj_actor_delay:
            return False
        if cfg.traj_actor_window <= 0:
            return True
        return self.update_rounds < cfg.traj_actor_delay + cfg.traj_actor_window

    def rollout(self, episode: int) -> tuple[EpisodeResult, float]:
        """One training-mode episode on the per-episode derived world seed,
        and its exploration noise scale.

        rr learns nothing, so its episodes do not depend on each other. A
        call outside the kept block rolls out a block of episodes as lockstep
        worlds in one run_worlds call and keeps it: from `episode` up to the
        next eval checkpoint (see the harness' run_single), capped at
        cfg.episodes and at RR_BLOCK_WORLDS worlds; an episode at or past
        cfg.episodes gets a block of one. A call inside the block returns
        its kept result. Each world's result is that of its own rollout, and
        rr draws from no trainer generator."""
        cfg = self.cfg
        if not self.groups:
            start, block = self.rr_block
            if not start <= episode < start + len(block):
                checkpoint = (episode // cfg.eval_every_episodes + 1) * cfg.eval_every_episodes
                end = max(min(checkpoint, cfg.episodes, episode + RR_BLOCK_WORLDS), episode + 1)
                seeds = [self.train_world_seed(ep) for ep in range(episode, end)]
                start, block = episode, run_worlds(self.env, cfg.method, None, None, seeds,
                                                   cfg.slots_per_episode)
                self.rr_block = start, block
            return block[episode - start], 0.0
        std = noise_schedule(episode, cfg.episodes) if self.traj else 0.0
        drift = self.drift_std(episode)
        # Until the velocity actors take their first step they fly pure
        # drift: the replay ring then holds a controlled-displacement design
        # with no mixed-in policy output or action noise, which is the
        # cleanest regression target the critics can get.
        held = self.traj is not None and self.update_rounds < cfg.traj_actor_delay
        result = run_episode(
            self.env,
            cfg.method,
            *self._actors(),
            self.train_world_seed(episode),
            cfg.slots_per_episode,
            mode="train",
            noise_std=std,
            traj_drift_std=drift,
            traj_explore_only=held,
            noise_rng=self.rng,
            sched_buffer=self.sched_buffer,
            traj_buffer=self.traj_buffer,
        )
        return result, std

    def update_round(self) -> None:
        """One loop over the groups, with subnormals flushed to zero
        (nn.flush_subnormals): a batch, then a critic step and an actor step
        agent by agent on the row views, every gradient formed in the
        trainer's one buffer; a group whose ring holds less than a batch
        skips this. Then one soft update per group and net role over the
        stacks. The velocity actors step only while traj_actors_stepping
        holds. A no-op once the update budget is spent."""
        cfg = self.cfg
        if 0 < cfg.update_rounds_budget <= self.update_rounds:
            return
        with nn.flush_subnormals():
            if self.traj:
                self.traj.steps_actors = self.traj_actors_stepping()
            for g in self.groups:
                if g.ring.size < cfg.batch_size:
                    continue
                batch = g.ring.sample(self.rng, cfg.batch_size)
                x = critic_input(batch["state"], batch["actions"])
                next_x = critic_input(batch["next_state"], g.next_actions(g.actor_target, batch))
                discount = g.gamma * (1.0 - batch["done"])
                actor_step = g.actor_steps(g, batch, self.rng) if g.steps_actors else None
                for i, ag in enumerate(g.agents):
                    y = critic_targets(batch, ag.critic_target, discount, next_x)
                    update_critic(ag.critic, ag.critic_adam, x, y,
                                  weight_decay=g.critic_weight_decay, out=self.grad)
                    if actor_step:
                        actor_step(i, ag.actor, ag.actor_adam, ag.critic, batch, x, out=self.grad)
            for g in self.groups:
                nn.soft_update(g.actor_target, g.actor, TAU)
                nn.soft_update(g.critic_target, g.critic, TAU)
        self.update_rounds += 1

    def train_episode(self, episode: int) -> tuple[EpisodeResult, float]:
        """Rollout plus the episode's update rounds (one per SLOTS_PER_UPDATE
        environment slots, gated on total buffered transitions)."""
        result, std = self.rollout(episode)
        if self.groups and sum(len(g.ring) for g in self.groups) >= self.cfg.warmup_transitions:
            for _ in range(self.cfg.slots_per_episode // SLOTS_PER_UPDATE):
                self.update_round()
        return result, std

    def evaluate(self) -> list[EpisodeResult]:
        """Noise-off rollouts on the fixed evaluation worlds, all
        `eval_episodes` of them stepped in lockstep (see run_worlds). rr's
        fixed rule on the fixed worlds gives the same results at every
        checkpoint, so rr's are computed once and kept."""
        if self.rr_evals is not None:
            return self.rr_evals
        evals = run_worlds(
            self.env,
            self.cfg.method,
            *self._actors(),
            [self.eval_world_seed(j) for j in range(self.cfg.eval_episodes)],
            self.cfg.slots_per_episode,
            mode="eval",
        )
        if not self.groups:
            self.rr_evals = evals
        return evals

    def _checkpoint_files(self, out_dir) -> list[tuple[Path, MlpParams]]:
        """(file, net) of every agent and net of GROUP_NETS, the net being
        the agent's row view."""
        return [(Path(out_dir) / f"{ag.name}_{net}.bin", getattr(ag, net))
                for ag in self.sched_agents + self.traj_agents for net in GROUP_NETS]

    def save_checkpoints(self, out_dir) -> None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        for path, net in self._checkpoint_files(out_dir):
            nn.save_params(path, net)

    def load_checkpoints(self, out_dir) -> None:
        """Read every file first, then write each into its agent's row of
        the group buffer in place, so every holder of a group's stacks reads
        the loaded weights; a float64 (version 1) file is cast to NET_DTYPE.
        A file whose layer sizes or output activation differ from the net it
        would overwrite raises ValueError naming it, and no row is written."""
        loaded = []
        for path, own in self._checkpoint_files(out_dir):
            params = nn.load_params(path)
            if (params.layer_sizes, params.out_act) != (own.layer_sizes, own.out_act):
                raise ValueError(f"{path}: a {params.out_act} net of layer sizes "
                                 f"{params.layer_sizes} does not fit this trainer's "
                                 f"{own.out_act} net of layer sizes {own.layer_sizes}")
            loaded.append((own.flat, params.flat))
        for row, flat in loaded:
            row[...] = flat
