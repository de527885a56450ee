"""World geometry: UAV fleet, mobile ground users, and their motion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .traffic import PacketQueue


@dataclass
class PlatformSpec:
    """Radio and mobility capabilities of one UAV base station."""

    id: int
    altitude_m: float
    carrier_hz: float
    bandwidth_hz: float
    tx_power_dbm: float
    antenna_gain_dbi: float = 3.0
    noise_figure_db: float = 7.0
    max_speed_mps: float = 0.0

    def validate(self):
        if self.altitude_m <= 0:
            raise ValueError(f"platform {self.id}: altitude must be positive")
        if self.carrier_hz <= 0:
            raise ValueError(f"platform {self.id}: carrier must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"platform {self.id}: bandwidth must be positive")
        if self.max_speed_mps < 0:
            raise ValueError(f"platform {self.id}: max speed must be non-negative")


def default_fleet(
    donor_altitude_m=200.0,
    node_altitude_m=100.0,
    donor_carrier_hz=2.0e9,
    donor_bandwidth_hz=40e6,
    node_carrier_hz=2.5e9,
    node_bandwidth_hz=20e6,
    donor_tx_power_dbm=-13.0,
    node_tx_power_dbm=-13.0,
    antenna_gain_dbi=3.0,
    noise_figure_db=7.0,
    node_max_speed_mps=40.0,
) -> list[PlatformSpec]:
    """One tethered donor (id 0, row 0) plus four untethered nodes (ids and
    rows 1..4), the only layout ScenarioConfig accepts.

    Default transmit powers are deliberately low: they put every access link
    in the noise-limited regime where per-UE rates spread by more than an
    order of magnitude across a cell, so which UE a policy schedules (and
    where a node flies) dominates delivered throughput.  Raising them toward
    realistic base-station EIRPs makes the system capacity-rich and erases
    most of the gap between scheduling policies.
    """
    donor = PlatformSpec(
        id=0,
        altitude_m=donor_altitude_m,
        carrier_hz=donor_carrier_hz,
        bandwidth_hz=donor_bandwidth_hz,
        tx_power_dbm=donor_tx_power_dbm,
        antenna_gain_dbi=antenna_gain_dbi,
        noise_figure_db=noise_figure_db,
        max_speed_mps=0.0,
    )
    nodes = [
        PlatformSpec(
            id=i + 1,
            altitude_m=node_altitude_m,
            carrier_hz=node_carrier_hz,
            bandwidth_hz=node_bandwidth_hz,
            tx_power_dbm=node_tx_power_dbm,
            antenna_gain_dbi=antenna_gain_dbi,
            noise_figure_db=noise_figure_db,
            max_speed_mps=node_max_speed_mps,
        )
        for i in range(4)
    ]
    return [donor] + nodes


@dataclass
class ScenarioConfig:
    area_w_m: float = 1400.0
    area_h_m: float = 1400.0
    # Dense enough that the demand field is smooth across random layouts:
    # per-world throughput spread halves going from 28 to 56 UEs, which is
    # what lets value gradients stand out against layout luck.
    n_ues: int = 56
    ue_speed_min_mps: float = 1.0
    ue_speed_max_mps: float = 3.0
    slot_seconds: float = 0.030
    # Row i of every platform array is platforms[i]: the donor in row 0, the
    # nodes in rows 1-4. PlatformSpec.id only labels a platform.
    platforms: list[PlatformSpec] = field(default_factory=default_fleet)

    def validate(self):
        if self.area_w_m <= 0 or self.area_h_m <= 0:
            raise ValueError("service area dimensions must be positive")
        if self.n_ues < 1:
            raise ValueError("at least one ground user is required")
        if not (0 < self.ue_speed_min_mps <= self.ue_speed_max_mps):
            raise ValueError("ground-user speed range must satisfy 0 < min <= max")
        if self.slot_seconds <= 0:
            raise ValueError("slot duration must be positive")
        if len(self.platforms) != 5:
            raise ValueError("fleet must be the donor in row 0 and 4 nodes in rows 1-4, "
                             f"got {len(self.platforms)} platforms")
        if self.platforms[0].max_speed_mps != 0:
            raise ValueError("the platform in row 0 is the tethered donor and cannot move")
        for p in self.platforms:
            p.validate()


@dataclass
class WorldState:
    """Full simulation snapshot; one instance per rollout, never shared.

    Ground users stand at height 0 and move waypoint-to-waypoint; row i of
    every UE array, and of the queue's matrix, is UE id i.

    The access links' fleet constants (carriers, EIRP, bandwidths,
    co-channel rows) are read from `cfg.platforms` once, at `init_world`; a
    platform's carrier, power, gain or bandwidth changed later does not
    reach the access links.
    """

    cfg: ScenarioConfig
    slot: int
    positions: np.ndarray  # (n_platforms, 3), row order = cfg.platforms order
    ue_positions: np.ndarray  # (n_ues, 2) meters
    ue_waypoints: np.ndarray  # (n_ues, 2) meters
    ue_speeds: np.ndarray  # (n_ues,) m/s toward the waypoint
    queue: PacketQueue
    rng: np.random.Generator
    carrier_hz: np.ndarray  # (n_platforms,)
    eirp_dbm: np.ndarray  # (n_platforms,) transmit power + antenna gain + the UE's 0 dBi
    bandwidth_hz: list[float]
    cochannel: list[list[int]]  # per row, the other rows on its carrier, in row order
    # (positions.tobytes(), channel config, node row -> bps) of the last
    # backhaul computation; mac.step_slot recomputes it when either key differs
    backhaul: tuple | None = None
    # (channel config, row -> access noise mW); recomputed when `chan` differs
    access_noise: tuple | None = None


def init_world(cfg: ScenarioConfig, seed: int) -> WorldState:
    """Build the initial world: donor at the area center, nodes at quadrant
    centers, ground users placed uniformly at random.

    Identical (cfg, seed) pairs produce bit-identical worlds.
    """
    cfg.validate()
    w, h = cfg.area_w_m, cfg.area_h_m
    centers = [(w / 2, h / 2), (w / 4, h / 4), (3 * w / 4, h / 4), (w / 4, 3 * h / 4),
               (3 * w / 4, 3 * h / 4)]
    platforms = cfg.platforms
    positions = np.array([(x, y, p.altitude_m) for (x, y), p in zip(centers, platforms)])
    carriers = [p.carrier_hz for p in platforms]

    rng = np.random.default_rng(seed)
    # one row per UE, drawn in id order: position x, y, waypoint x, y, speed
    ues = rng.uniform(
        (0.0, 0.0, 0.0, 0.0, cfg.ue_speed_min_mps),
        (w, h, w, h, cfg.ue_speed_max_mps),
        size=(cfg.n_ues, 5),
    )
    return WorldState(
        cfg=cfg, slot=0, positions=positions, ue_positions=ues[:, 0:2].copy(),
        ue_waypoints=ues[:, 2:4].copy(), ue_speeds=ues[:, 4].copy(),
        queue=PacketQueue(cfg.n_ues), rng=rng, carrier_hz=np.array(carriers),
        eirp_dbm=np.array([p.tx_power_dbm + p.antenna_gain_dbi + 0.0 for p in platforms]),
        bandwidth_hz=[p.bandwidth_hz for p in platforms],
        cochannel=[[q for q, c in enumerate(carriers) if q != row and c == carriers[row]]
                   for row in range(len(platforms))],
    )


def step_ue_mobility(world: WorldState, dt: float) -> WorldState:
    """Advance every UE toward its waypoint; the UEs that arrive land on it
    and redraw waypoint x, y and speed, UE by UE in id order, in one draw."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    cfg = world.cfg
    pos, waypoints, speeds = world.ue_positions, world.ue_waypoints, world.ue_speeds
    delta = waypoints - pos
    dist = np.hypot(delta[:, 0], delta[:, 1])
    travel = speeds * dt
    arrived = dist <= travel
    # the divisor is dist for every UE that moves and travel > 0 for the rest
    step = pos + delta * (travel / np.maximum(dist, travel))[:, None]
    np.clip(np.where(arrived[:, None], waypoints, step), (0.0, 0.0), (cfg.area_w_m, cfg.area_h_m),
            out=pos)
    n_arrived = np.count_nonzero(arrived)
    if n_arrived:
        redraw = world.rng.uniform(
            (0.0, 0.0, cfg.ue_speed_min_mps), (cfg.area_w_m, cfg.area_h_m, cfg.ue_speed_max_mps),
            size=(n_arrived, 3),
        )
        waypoints[arrived] = redraw[:, :2]
        speeds[arrived] = redraw[:, 2]
    return world


def apply_trajectory(world: WorldState, commands, dt: float) -> WorldState:
    """Move each untethered node by its commanded velocity for dt seconds;
    command i moves the node in row i + 1.

    Commands above a node's speed cap are renormalized to the cap; positions
    are clamped to the service area; altitudes and the donor never change.
    After one array `hypot`, a walk over Python floats: on four nodes it
    takes about half the time of the same steps on numpy arrays.
    """
    nodes = world.cfg.platforms[1:]
    commands = np.asarray(commands, dtype=float)
    if commands.shape != (len(nodes), 2):
        raise ValueError(f"expected {len(nodes)} velocity commands, got shape {commands.shape}")
    w, h = world.cfg.area_w_m, world.cfg.area_h_m
    speeds = np.hypot(commands[:, 0], commands[:, 1]).tolist()
    moved = []
    for p, (x, y), (vx, vy), speed in zip(
        nodes, world.positions[1:, :2].tolist(), commands.tolist(), speeds
    ):
        if speed > p.max_speed_mps and speed > 0:
            scale = p.max_speed_mps / speed
            vx, vy = vx * scale, vy * scale
        moved.append((min(max(x + vx * dt, 0.0), w), min(max(y + vy * dt, 0.0), h)))
    world.positions[1:, :2] = moved
    return world
