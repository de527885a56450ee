"""UE association, scheduling decode, round-robin baseline, backhaul capping,
and the per-slot simulation step tying channel, traffic, and actions together."""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import channel, traffic
from .channel import ChannelConfig
from .scenario import WorldState, step_ue_mobility
from .traffic import SlotMetrics, TrafficConfig


class Association(NamedTuple):
    """The serving platform row of each UE (`rows`, indexed by UE id) and the
    slot's link geometry it was decided on (`links`, platform rows x UE ids).
    The slot's ranking and access SINR read the same geometry."""

    rows: np.ndarray
    links: channel.LinkGeometry


def associate(world: WorldState, chan: ChannelConfig) -> Association:
    """Map every UE to the platform with the strongest fading-free budget
    (excess loss averaged over the LoS probability, UE gain 0 dBi).

    Ties break toward the lowest platform row.
    """
    ue_xyz = np.column_stack((world.ue_positions, np.zeros(len(world.ue_positions))))
    links = channel.link_geometry(world.positions, ue_xyz, world.carrier_hz, chan)
    rsrp = world.eirp_dbm[:, None] - channel.path_loss_db(links.fspl_db, links.p_los, chan)
    return Association(np.argmax(rsrp, axis=0), links)


def observed_ues(world: WorldState, association: Association, k: int) -> np.ndarray:
    """(n_platforms, k) UE ids: row i lists the k nearest UEs of platform i's
    cell on the unclamped 3-D distance, ties by UE id, padded with -1 past
    the cell's size. Observations and schedule decoding read these ranks."""
    rows = association.rows
    ue_ids = np.arange(len(rows))
    order = np.lexsort((ue_ids, association.links.distance_m[rows, ue_ids], rows))
    sizes = np.bincount(rows, minlength=len(world.cfg.platforms))
    # the rank of order[j] in its cell: j minus the cell's first position in order
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    kept = rank < k
    cells = np.full((len(sizes), k), -1)
    cells[rows[order[kept]], rank[kept]] = order[kept]
    return cells


def decode_schedule(actions: np.ndarray, cells: np.ndarray) -> dict[int, int | None]:
    """Turn the (n_platforms, k) rank vectors into one chosen UE per platform
    row (None = idle).

    Entry i of row r refers to rank i of platform r's observed UEs (see
    observed_ues), and the platform serves the UE of its largest entry. A
    learned scheduler's vector is the one-hot of its chosen rank
    (madrl.select_rank). Entries at padded ranks are ignored, and ties go to
    the lowest rank.
    """
    ranks = np.argmax(np.where(cells >= 0, actions, -np.inf), axis=1)
    chosen = cells[np.arange(len(cells)), ranks].tolist()
    return {row: (ue if ue >= 0 else None) for row, ue in enumerate(chosen)}


def rr_schedule(association: Association, slot: int) -> dict[int, int | None]:
    """Round-robin: each platform row cycles through its cell (sorted by UE
    id) once per slot; an empty cell idles."""
    sizes = np.bincount(association.rows, minlength=len(association.links.distance_m))
    by_row = np.argsort(association.rows, kind="stable").tolist()
    starts = (np.cumsum(sizes) - sizes).tolist()
    return {
        row: (by_row[start + slot % size] if size else None)
        for row, (start, size) in enumerate(zip(starts, sizes.tolist()))
    }


def backhaul_rates(world: WorldState, chan: ChannelConfig) -> dict[int, float]:
    """Donor-to-node backhaul rate in bps per node row on the dedicated
    carrier.

    The backhaul band is split evenly four ways; both endpoints are airborne,
    so the link is always LoS and interference-free.
    """
    platforms = world.cfg.platforms
    links = channel.link_geometry(
        world.positions[:1], world.positions[1:], np.array([chan.backhaul_carrier_hz]), chan,
    )
    share = chan.backhaul_bandwidth_hz / (len(platforms) - 1)
    rates = {}
    for row, fspl in enumerate(links.fspl_db[0].tolist(), start=1):
        rx = channel.rx_power_dbm(
            platforms[0].tx_power_dbm, chan.backhaul_gain_dbi, chan.backhaul_gain_dbi,
            channel.path_loss_db(fspl, 1.0, chan),
        )
        noise = channel.noise_mw(share, platforms[row].noise_figure_db, chan.noise_density_dbm_hz)
        snr = channel.sinr(rx, (), noise)
        rates[row] = channel.shannon_rate(snr, share)
    return rates


def step_slot(
    world: WorldState,
    choices: dict[int, int | None],
    tcfg: TrafficConfig,
    chan: ChannelConfig,
    association: Association,
) -> tuple[WorldState, SlotMetrics]:
    """Advance the world by one slot under the given per-row service choices
    (platform row -> UE id or None), with the slot's association.

    Every choice is checked first: a UE id outside [0, n_ues) or outside the
    row's cell raises ValueError and leaves the world as it was. Then, in
    order: drop expired cohorts (per UE in `dropped_by_ue`), draw arrivals
    into a new cohort (one `world.rng.poisson` call), draw one LoS state per
    access link (one `world.rng.random` call), evaluate access SINR with
    co-channel active platforms as interferers, cap node service by its
    backhaul share, drain each chosen UE's queue oldest cohort first, move
    the UEs (one `world.rng.uniform` call for those that reach their
    waypoint), advance the slot counter.

    The access links use the association's geometry. They are listed by
    active platform in row order: its serving link, then its co-channel
    interferers in row order. EIRP, bandwidth and co-channel rows are the
    world's fleet constants from `init_world`. Path loss and received power
    are array sums; SINR and rate stay scalar. The backhaul rates are kept
    on the world and recomputed only when the platform positions (bit for
    bit) or `chan` differ from those they were computed for; the access
    noise powers, one per platform, only when `chan` differs.
    """
    n_ues = len(association.rows)
    active, tx_rows, rx_ues, n_links = [], [], [], []
    for row in range(len(world.positions)):
        ue_id = choices.get(row)
        if ue_id is None:
            continue
        if not 0 <= ue_id < n_ues or association.rows[ue_id] != row:
            raise ValueError(f"UAV {world.cfg.platforms[row].id} chose UE {ue_id} outside its cell")
        cochannel = [q for q in world.cochannel[row] if choices.get(q) is not None]
        active.append(row)
        tx_rows += [row] + cochannel
        rx_ues += [ue_id] * (1 + len(cochannel))
        n_links.append(1 + len(cochannel))

    links = association.links
    dropped = traffic.drop_expired(world.queue, world.slot, tcfg.deadline_slots)
    metrics = SlotMetrics(world.slot, [0] * len(world.positions), dropped)
    traffic.generate_arrivals(world, tcfg.lambda_pkts, tcfg.packet_bits)
    tx_rows, rx_ues = np.array(tx_rows, dtype=np.intp), np.array(rx_ues, dtype=np.intp)
    los = (world.rng.random(len(tx_rows)) < links.p_los[tx_rows, rx_ues]).astype(float)
    rx_dbm = (
        world.eirp_dbm[tx_rows] - channel.path_loss_db(links.fspl_db[tx_rows, rx_ues], los, chan)
    ).tolist()

    kept, positions = world.backhaul, world.positions.tobytes()
    if kept is None or kept[0] != positions or kept[1] != chan:
        kept = world.backhaul = (positions, replace(chan), backhaul_rates(world, chan))
    bh_rates = kept[2]
    noise = world.access_noise
    if noise is None or noise[0] != chan:
        noise = world.access_noise = (replace(chan), [
            channel.noise_mw(bandwidth, chan.ue_noise_figure_db, chan.noise_density_dbm_hz)
            for bandwidth in world.bandwidth_hz
        ])
    noise_mw = noise[1]

    slot_s = world.cfg.slot_seconds
    first = 0
    for row, n in zip(active, n_links):
        ratio = channel.sinr(rx_dbm[first], rx_dbm[first + 1 : first + n], noise_mw[row])
        first += n
        capacity = int(channel.shannon_rate(ratio, world.bandwidth_hz[row]) * slot_s)
        if row > 0:  # a node, capped by its backhaul share
            capacity = min(capacity, int(bh_rates[row] * slot_s))
        metrics.delivered_by_uav[row] = traffic.serve_bits(world.queue, choices[row], capacity)

    step_ue_mobility(world, slot_s)
    world.slot += 1
    return world, metrics
