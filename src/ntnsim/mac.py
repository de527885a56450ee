"""UE association, scheduling decode, round-robin baseline, backhaul capping,
and the per-slot simulation step tying channel, traffic, and actions together."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import channel, traffic
from .channel import ChannelConfig
from .scenario import TETHERED_DONOR, UNTETHERED_NODE, WorldState, step_ue_mobility
from .traffic import SlotMetrics, TrafficConfig


class Association(dict):
    """UE id -> serving platform id, together with the slot's link geometry
    it was decided on (`links`, platform rows x UE ids) and the serving
    platform row of each UE (`rows`). The slot's ranking and access SINR
    read the same geometry."""

    def __init__(self, world: WorldState, links: channel.LinkGeometry, rows: np.ndarray):
        ids = [p.id for p in world.cfg.platforms]
        super().__init__(enumerate(ids[r] for r in rows.tolist()))
        self.links = links
        self.rows = rows


def associate(world: WorldState, chan: ChannelConfig) -> Association:
    """Map every UE to the platform with the strongest fading-free budget
    (excess loss averaged over the LoS probability, UE gain 0 dBi).

    Ties break toward the lowest platform row.
    """
    platforms = world.cfg.platforms
    ue_xyz = np.column_stack((world.ue_positions, np.zeros(len(world.ue_positions))))
    links = channel.link_geometry(
        world.positions, ue_xyz, np.array([p.carrier_hz for p in platforms]), chan
    )
    rsrp = channel.rx_power_dbm(
        np.array([[p.tx_power_dbm] for p in platforms]),
        np.array([[p.antenna_gain_dbi] for p in platforms]),
        0.0,
        channel.path_loss_db(links.fspl_db, links.p_los, chan),
    )
    return Association(world, links, np.argmax(rsrp, axis=0))


def observed_ues(world: WorldState, association: Association) -> dict[int, list[int]]:
    """Every platform's cell, nearest UE first on the unclamped 3-D distance,
    ties by UE id; observations and schedule decoding read its first k."""
    rows = association.rows
    ue_ids = np.arange(len(rows))
    order = np.lexsort((ue_ids, association.links.distance_m[rows, ue_ids], rows))
    ends = np.cumsum(np.bincount(rows, minlength=len(world.cfg.platforms)))
    return {
        p.id: cell.tolist()
        for p, cell in zip(world.cfg.platforms, np.split(order, ends[:-1]))
    }


def decode_schedule(
    actions: dict[int, np.ndarray], ranked: dict[int, list[int]], k: int
) -> dict[int, int | None]:
    """Turn per-UAV priority vectors into one chosen UE per UAV (None = idle).

    Priority entry i refers to the i-th of the k nearest UEs in the UAV's
    ranked cell (see observed_ues); entries beyond the cell size are ignored,
    and ties go to the lowest index.
    """
    choices: dict[int, int | None] = {}
    for uav_id, cell in ranked.items():
        observed = cell[:k]
        if not observed:
            choices[uav_id] = None
            continue
        priorities = np.asarray(actions[uav_id])[: len(observed)]
        choices[uav_id] = observed[int(np.argmax(priorities))]
    return choices


def rr_schedule(
    association: dict[int, int], slot: int, uav_ids=None
) -> dict[int, int | None]:
    """Round-robin: each UAV cycles through its cell (sorted by UE id) once per slot."""
    if uav_ids is None:
        uav_ids = sorted(set(association.values()))
    cells: dict[int, list[int]] = {uav: [] for uav in uav_ids}
    for ue_id in sorted(association):
        uav = association[ue_id]
        if uav in cells:
            cells[uav].append(ue_id)
    return {
        uav: (cell[slot % len(cell)] if cell else None) for uav, cell in cells.items()
    }


def backhaul_rates(world: WorldState, chan: ChannelConfig) -> dict[int, float]:
    """Donor-to-node backhaul rate in bps per node on the dedicated carrier.

    The backhaul band is split evenly four ways; both endpoints are airborne,
    so the link is always LoS and interference-free.
    """
    platforms = world.cfg.platforms
    donor_row = next(i for i, p in enumerate(platforms) if p.tier == TETHERED_DONOR)
    donor = platforms[donor_row]
    node_rows = [i for i, p in enumerate(platforms) if p.tier == UNTETHERED_NODE]
    links = channel.link_geometry(
        world.positions[[donor_row]], world.positions[node_rows],
        np.array([chan.backhaul_carrier_hz]), chan,
    )
    share = chan.backhaul_bandwidth_hz / len(node_rows)
    rates = {}
    for row, fspl in zip(node_rows, links.fspl_db[0].tolist()):
        node = platforms[row]
        rx = channel.rx_power_dbm(
            donor.tx_power_dbm, chan.backhaul_gain_dbi, chan.backhaul_gain_dbi,
            channel.path_loss_db(fspl, 1.0, chan),
        )
        snr = channel.sinr(rx, (), share, node.noise_figure_db, chan.noise_density_dbm_hz)
        rates[node.id] = channel.shannon_rate(snr, share)
    return rates


def step_slot(
    world: WorldState,
    choices: dict[int, int | None],
    tcfg: TrafficConfig,
    chan: ChannelConfig,
    association: Association | None = None,
) -> tuple[WorldState, SlotMetrics]:
    """Advance the world by one slot under the given per-UAV service choices.

    Pipeline order: drop expired cohorts (per UE in `dropped_by_ue`), draw
    arrivals into a new cohort, evaluate access SINR with co-channel active
    UAVs as interferers, cap node service by its backhaul share, drain each
    chosen UE's queue oldest cohort first, move the UEs, advance the slot
    counter.

    The access links use the association's geometry and one LoS state each,
    all drawn in one `world.rng.random` call between the arrivals and the UE
    moves. The links are listed by active platform in id order: its serving
    link, then its co-channel interferers in id order. Path loss and received
    power are array sums; SINR and rate stay scalar. The backhaul rates are
    kept on the world and recomputed only when the platform positions (bit
    for bit) or `chan` differ from those they were computed for.
    """
    if association is None:
        association = associate(world, chan)
    links = association.links
    dropped = traffic.drop_expired(world.queue, world.slot, tcfg.deadline_slots)
    metrics = SlotMetrics(world.slot, {p.id: 0 for p in world.cfg.platforms}, dropped)
    traffic.generate_arrivals(world, tcfg.lambda_pkts, tcfg.packet_bits)

    platforms = world.cfg.platforms
    active = sorted(
        (row for row, p in enumerate(platforms) if choices.get(p.id) is not None),
        key=lambda row: platforms[row].id,
    )
    tx_rows, rx_ues, n_links = [], [], []
    for row in active:
        p = platforms[row]
        ue_id = choices[p.id]
        if association[ue_id] != p.id:
            raise ValueError(f"UAV {p.id} chose UE {ue_id} outside its cell")
        cochannel = [q for q in active if q != row and platforms[q].carrier_hz == p.carrier_hz]
        tx_rows += [row] + cochannel
        rx_ues += [ue_id] * (1 + len(cochannel))
        n_links.append(1 + len(cochannel))
    los = (world.rng.random(len(tx_rows)) < links.p_los[tx_rows, rx_ues]).astype(float)
    rx_dbm = channel.rx_power_dbm(
        np.array([platforms[r].tx_power_dbm for r in tx_rows]),
        np.array([platforms[r].antenna_gain_dbi for r in tx_rows]),
        0.0,
        channel.path_loss_db(links.fspl_db[tx_rows, rx_ues], los, chan),
    ).tolist()

    kept, positions = world.backhaul, world.positions.tobytes()
    if kept is None or kept[0] != positions or kept[1] != chan:
        kept = world.backhaul = (positions, replace(chan), backhaul_rates(world, chan))
    bh_rates = kept[2]

    first = 0
    for row, n in zip(active, n_links):
        p = platforms[row]
        ratio = channel.sinr(
            rx_dbm[first], rx_dbm[first + 1 : first + n], p.bandwidth_hz,
            chan.ue_noise_figure_db, chan.noise_density_dbm_hz,
        )
        first += n
        rate = channel.shannon_rate(ratio, p.bandwidth_hz)
        capacity = int(rate * world.cfg.slot_seconds)
        if p.tier == UNTETHERED_NODE:
            capacity = min(capacity, int(bh_rates[p.id] * world.cfg.slot_seconds))
        metrics.delivered_by_uav[p.id] = traffic.serve_bits(world.queue, choices[p.id], capacity)

    step_ue_mobility(world, world.cfg.slot_seconds)
    world.slot += 1
    return world, metrics
