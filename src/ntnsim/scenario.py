"""World geometry: UAV fleet, mobile ground users, and their motion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traffic import PacketQueue


@dataclass(frozen=True)
class PlatformSpec:
    """Radio and mobility capabilities of one UAV base station; `id` is its
    row in every platform array."""

    id: int
    altitude_m: float
    carrier_hz: float
    bandwidth_hz: float
    tx_power_dbm: float
    antenna_gain_dbi: float
    noise_figure_db: float
    max_speed_mps: float


@dataclass
class ScenarioConfig:
    """The service area, the ground users and the fleet: one tethered donor
    (row 0) and four identical untethered nodes (rows 1-4). The fleet is
    the fields from `donor_altitude_m` on; `platforms` derives its rows.

    Default transmit powers are deliberately low: they put every access link
    in the noise-limited regime where per-UE rates spread by more than an
    order of magnitude across a cell, so which UE a policy schedules (and
    where a node flies) dominates delivered throughput.  Raising them toward
    realistic base-station EIRPs makes the system capacity-rich and erases
    most of the gap between scheduling policies.
    """

    area_w_m: float = 1400.0
    area_h_m: float = 1400.0
    # Dense enough that the demand field is smooth across random layouts:
    # per-world throughput spread halves going from 28 to 56 UEs, which is
    # what lets value gradients stand out against layout luck.
    n_ues: int = 56
    ue_speed_min_mps: float = 1.0
    ue_speed_max_mps: float = 3.0
    slot_seconds: float = 0.030
    donor_altitude_m: float = 200.0
    node_altitude_m: float = 100.0
    donor_carrier_hz: float = 2.0e9
    donor_bandwidth_hz: float = 40e6
    node_carrier_hz: float = 2.5e9
    node_bandwidth_hz: float = 20e6
    donor_tx_power_dbm: float = -13.0
    node_tx_power_dbm: float = -13.0
    antenna_gain_dbi: float = 3.0  # every platform's
    noise_figure_db: float = 7.0  # every platform's
    node_max_speed_mps: float = 40.0

    @property
    def platforms(self) -> tuple[PlatformSpec, ...]:
        """The five fleet rows, built afresh on every read: not for per-slot code."""
        return (
            PlatformSpec(0, self.donor_altitude_m, self.donor_carrier_hz, self.donor_bandwidth_hz,
                         self.donor_tx_power_dbm, self.antenna_gain_dbi, self.noise_figure_db, 0.0),
            *(PlatformSpec(i, self.node_altitude_m, self.node_carrier_hz, self.node_bandwidth_hz,
                           self.node_tx_power_dbm, self.antenna_gain_dbi, self.noise_figure_db,
                           self.node_max_speed_mps)
              for i in range(1, 5)),
        )

    def validate(self):
        if self.area_w_m <= 0 or self.area_h_m <= 0:
            raise ValueError("service area dimensions must be positive")
        if self.n_ues < 1:
            raise ValueError("at least one ground user is required")
        if not (0 < self.ue_speed_min_mps <= self.ue_speed_max_mps):
            raise ValueError("ground-user speed range must satisfy 0 < min <= max")
        if self.slot_seconds <= 0:
            raise ValueError("slot duration must be positive")
        for name in ("donor_altitude_m", "node_altitude_m", "donor_carrier_hz",
                     "node_carrier_hz", "donor_bandwidth_hz", "node_bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.node_max_speed_mps < 0:
            raise ValueError("node_max_speed_mps must be non-negative")


@dataclass
class WorldState:
    """Full simulation snapshot of lockstep worlds that share the slot clock
    (a single world is a lockstep of one); one instance per rollout, never
    shared.

    Every world array has a leading world axis, and world w draws from
    `rng[w]` alone, in the order of the world alone; everything else runs
    over the world axis. Index i of the UE axis of every UE array, and of
    the queue's matrix, is UE id i. Ground users stand at height 0 and move
    waypoint-to-waypoint.

    Platform row i is fleet row i of `cfg.platforms`: the donor in row 0, the
    nodes in rows 1-4. The fleet constants (altitudes, carriers, EIRP,
    bandwidths, co-channel rows, node speed caps) and the area bound of the
    node moves are read from `cfg` once, at `init_world`; a value changed
    there later reaches neither the access links nor the node moves. Only
    the backhaul reads its fleet fields (donor power, noise figure) from
    `cfg`, and `mac.step_slot` recomputes it whenever one of them changes.
    """

    cfg: ScenarioConfig
    slot: int
    positions: np.ndarray  # (n_worlds, n_platforms, 3) meters
    ue_positions: np.ndarray  # (n_worlds, n_ues, 2) meters
    ue_waypoints: np.ndarray  # (n_worlds, n_ues, 2) meters
    ue_speeds: np.ndarray  # (n_worlds, n_ues) m/s toward the waypoint
    queue: PacketQueue
    rng: list[np.random.Generator]  # world w draws from rng[w] alone
    carrier_hz: np.ndarray  # (n_platforms,)
    eirp_dbm: np.ndarray  # (n_platforms,) transmit power + antenna gain + the UE's 0 dBi
    bandwidth_hz: np.ndarray  # (n_platforms,)
    link_rows: np.ndarray  # (n_platforms, w): row i, then the others on its carrier; -1 pads
    node_max_speed: np.ndarray  # (n_platforms - 1,) speed cap m/s of the node in row i + 1
    area_max: np.ndarray  # (2,) the area's width and height, the upper clamp of a node's x, y
    # mac.step_slot's (a copy of the channel config, access noise mW per row, backhaul key,
    # (n_worlds, n_nodes) backhaul caps in bits a slot) for all worlds; see step_slot
    link_cache: tuple | None = None


def init_world(cfg: ScenarioConfig, seeds) -> WorldState:
    """Build the initial lockstep worlds, world w from seeds[w] alone: donor
    at the area center, nodes at quadrant centers, ground users placed
    uniformly at random.

    Identical (cfg, seeds) produce bit-identical worlds.
    """
    cfg.validate()
    w, h = cfg.area_w_m, cfg.area_h_m
    centers = [(w / 2, h / 2), (w / 4, h / 4), (3 * w / 4, h / 4), (w / 4, 3 * h / 4),
               (3 * w / 4, 3 * h / 4)]
    platforms = cfg.platforms
    positions = np.array([(x, y, p.altitude_m) for (x, y), p in zip(centers, platforms)])
    carriers = [p.carrier_hz for p in platforms]
    width = max(map(carriers.count, carriers))
    link_rows = [[row] + [q for q, c in enumerate(carriers) if q != row and c == carrier]
                 + [-1] * (width - carriers.count(carrier)) for row, carrier in enumerate(carriers)]

    rngs = [np.random.default_rng(s) for s in seeds]
    # per world, one row per UE, drawn in id order: position x, y, waypoint x, y, speed
    ues = np.stack([rng.uniform((0.0, 0.0, 0.0, 0.0, cfg.ue_speed_min_mps),
                                (w, h, w, h, cfg.ue_speed_max_mps), size=(cfg.n_ues, 5))
                    for rng in rngs])
    return WorldState(
        cfg=cfg, slot=0, positions=np.tile(positions, (len(rngs), 1, 1)),
        ue_positions=ues[..., 0:2].copy(), ue_waypoints=ues[..., 2:4].copy(),
        ue_speeds=ues[..., 4].copy(), queue=PacketQueue(len(rngs), cfg.n_ues), rng=rngs,
        carrier_hz=np.array(carriers),
        eirp_dbm=np.array([p.tx_power_dbm + p.antenna_gain_dbi + 0.0 for p in platforms]),
        bandwidth_hz=np.array([p.bandwidth_hz for p in platforms]), link_rows=np.array(link_rows),
        node_max_speed=np.array([p.max_speed_mps for p in platforms[1:]]),
        area_max=np.array([w, h]),
    )


def step_ue_mobility(world: WorldState, dt: float) -> WorldState:
    """Advance every UE of every world toward its waypoint in one pass; the
    UEs that arrive land on it, and each world redraws their waypoint x, y
    and speed, UE by UE in id order, in one draw from its own generator."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    cfg = world.cfg
    pos, waypoints, speeds = world.ue_positions, world.ue_waypoints, world.ue_speeds
    delta = waypoints - pos
    dist = np.hypot(delta[..., 0], delta[..., 1])
    travel = speeds * dt
    arrived = dist <= travel
    # the divisor is dist for every UE that moves and travel > 0 for the rest
    step = pos + delta * (travel / np.maximum(dist, travel))[..., None]
    np.minimum(np.maximum(np.where(arrived[..., None], waypoints, step), 0.0), world.area_max,
               out=pos)  # a clip; np.clip's Python wrapper costs more than both
    for w, rng in enumerate(world.rng):
        hit = arrived[w]
        n_arrived = np.count_nonzero(hit)
        if n_arrived:
            redraw = rng.uniform((0.0, 0.0, cfg.ue_speed_min_mps),
                                 (cfg.area_w_m, cfg.area_h_m, cfg.ue_speed_max_mps), (n_arrived, 3))
            waypoints[w][hit] = redraw[:, :2]
            speeds[w][hit] = redraw[:, 2]
    return world


def apply_trajectory(world: WorldState, commands, dt: float) -> WorldState:
    """Move each untethered node of every world by its commanded velocity
    for dt seconds, in one pass; commands (n_worlds, 4, 2) hold one row per
    node, and command i moves the node in row i + 1. Commands above a node's
    speed cap are renormalized to the cap; positions are clamped to the
    service area; altitudes and the donor never change."""
    caps = world.node_max_speed
    commands = np.asarray(commands, dtype=float)
    xy = world.positions[..., 1:, :2]
    if commands.shape != xy.shape:
        raise ValueError(f"expected velocity commands of shape {xy.shape}, got {commands.shape}")
    speed = np.hypot(commands[..., 0], commands[..., 1])
    scale = np.divide(caps, speed, out=np.ones_like(speed), where=speed > caps)
    np.minimum(np.maximum(xy + commands * scale[..., None] * dt, 0.0), world.area_max, out=xy)
    return world
