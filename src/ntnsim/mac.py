"""UE association, scheduling decode, round-robin baseline, backhaul capping,
and the per-slot simulation step tying channel, traffic, and actions together."""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import channel, traffic
from .channel import ChannelConfig
from .scenario import WorldState, step_ue_mobility
from .traffic import TrafficConfig


class Association(NamedTuple):
    """The serving platform row of each UE (`rows`, worlds x UE ids) and the
    slot's link geometry it was decided on (`links`, worlds x platform rows x
    UE ids). The slot's ranking and access SINR read the same geometry."""

    rows: np.ndarray
    links: channel.LinkGeometry


def associate(world: WorldState, chan: ChannelConfig) -> Association:
    """Map every UE of every world to the platform with the strongest
    fading-free budget (excess loss averaged over the LoS probability, UE
    gain 0 dBi), in one pass over the world axis.

    Ties break toward the lowest platform row.
    """
    ue_xyz = np.concatenate((world.ue_positions, np.zeros(world.ue_speeds.shape + (1,))), axis=-1)
    links = channel.link_geometry(world.positions, ue_xyz, world.carrier_hz, chan)
    rsrp = world.eirp_dbm[:, None] - channel.path_loss_db(links.fspl_db, links.p_los, chan)
    return Association(np.argmax(rsrp, axis=-2), links)


def observed_ues(world: WorldState, association: Association, k: int) -> np.ndarray:
    """(n_worlds, n_platforms, k) UE ids: row i of a world lists the k
    nearest UEs of platform i's cell on the unclamped 3-D distance, ties by
    UE id, padded with -1 past the cell's size. One stable sort of every
    world's platform x UE distances, with the UEs outside a cell at infinity,
    ranks every cell. Observations and schedule decoding read these ranks."""
    member = association.rows[..., None, :] == np.arange(len(world.cochannel))[:, None]
    nearest = np.argsort(np.where(member, association.links.distance_m, np.inf), axis=-1,
                         kind="stable")
    ranked = np.arange(k) < member.sum(axis=-1)[..., None]
    return np.where(ranked, nearest.take(np.arange(k), axis=-1, mode="clip"), -1)


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


def rr_schedule(rows: np.ndarray, slot: int, n_platforms: int) -> dict[int, int | None]:
    """Round-robin over one world's serving rows (`Association.rows[w]`):
    each platform row cycles through its cell (sorted by UE id) once per
    slot; an empty cell idles."""
    sizes = np.bincount(rows, minlength=n_platforms)
    by_row = np.argsort(rows, kind="stable").tolist()
    starts = (np.cumsum(sizes) - sizes).tolist()
    return {row: (by_row[start + slot % size] if size else None)
            for row, (start, size) in enumerate(zip(starts, sizes.tolist()))}


def backhaul_rates(world: WorldState, chan: ChannelConfig) -> np.ndarray:
    """Donor-to-node backhaul rates in bps of every world on the dedicated
    carrier, (n_worlds, n_nodes): column j is the node in row j + 1.

    The backhaul band is split evenly four ways; both endpoints are airborne,
    so the link is always LoS and interference-free.
    """
    cfg, positions = world.cfg, world.positions
    links = channel.link_geometry(positions[:, :1], positions[:, 1:],
                                  np.array([chan.backhaul_carrier_hz]), chan)
    share = chan.backhaul_bandwidth_hz / (positions.shape[1] - 1)
    noise = channel.noise_mw(share, cfg.noise_figure_db, chan.noise_density_dbm_hz)
    rx = (cfg.donor_tx_power_dbm + chan.backhaul_gain_dbi + chan.backhaul_gain_dbi
          - channel.path_loss_db(links.fspl_db[:, 0], 1.0, chan))
    return share * np.log2(1.0 + channel.dbm_to_mw(rx) / noise)


def step_slot(world: WorldState, choices: list[dict], tcfg: TrafficConfig, chan: ChannelConfig,
              association: Association) -> tuple[WorldState, np.ndarray]:
    """Advance every world by one slot under its per-row service choices
    (choices[w]: platform row -> UE id or None), with the slot's
    association; returns the bits each world delivered by platform row, an
    (n_worlds, n_platforms) int64 array.

    Every choice is checked first: a choices list whose length is not the
    number of worlds, or a UE id outside [0, n_ues) or outside the row's
    cell, raises ValueError and leaves every world as it was. Then, in
    order: drop expired cohorts (counted in `queue.dropped_bits`), draw
    arrivals into a new cohort, draw one LoS state per access link, evaluate
    access SINR with co-channel active platforms as interferers, cap node
    service by its backhaul share, drain each chosen UE's queue oldest cohort
    first, move the UEs, advance the slot counter. Each world makes one
    `rng.poisson`, one `rng.random` and (for the UEs that reach their
    waypoint) one `rng.uniform` call on its own generator.

    Expiry, the cohort push, path loss, the backhaul and the UE moves run
    once over the world axis; the access SINR and rate chain and service
    stay per link. The access links use the association's geometry and are
    listed world by world, by active platform in row order: its serving
    link, then its co-channel interferers in row order. EIRP, bandwidth and
    co-channel rows are the fleet constants from `init_world`. The access
    noise powers and every world's backhaul rates are recomputed together,
    only when some world's platform positions (bit for bit), `chan`, or the
    backhaul's donor power or noise figure in `world.cfg` change.
    """
    rows = association.rows
    n_platforms, n_ues = len(world.cochannel), rows.shape[-1]
    if len(choices) != len(world.rng):
        raise ValueError(f"{len(world.rng)} worlds need one choices dict each, got {len(choices)}")
    active, tx_rows, flat, n_links, ends = [], [], [], [], [0]
    for w, chosen in enumerate(choices):
        for row in range(n_platforms):
            ue_id = chosen.get(row)
            if ue_id is None:
                continue
            if not 0 <= ue_id < n_ues or rows[w, ue_id] != row:
                raise ValueError(f"UAV {row} chose UE {ue_id} outside its cell")
            tx = [row] + [q for q in world.cochannel[row] if chosen.get(q) is not None]
            active.append((w, row, ue_id))
            tx_rows += tx
            flat += [(w * n_platforms + q) * n_ues + ue_id for q in tx]  # into the link matrices
            n_links.append(len(tx))
        ends.append(len(flat))

    links = association.links
    traffic.drop_expired(world.queue, world.slot, tcfg.deadline_slots)
    traffic.generate_arrivals(world, tcfg.lambda_pkts, tcfg.packet_bits)
    flat, draws = np.array(flat, dtype=np.intp), np.empty(len(flat))
    for rng, start, end in zip(world.rng, ends, ends[1:]):
        rng.random(out=draws[start:end])
    los = (draws < links.p_los.take(flat)).astype(float)
    loss = channel.path_loss_db(links.fspl_db.take(flat), los, chan)
    rx_dbm = (world.eirp_dbm[tx_rows] - loss).tolist()

    cfg = world.cfg
    key = (chan, world.positions.tobytes(), cfg.donor_tx_power_dbm, cfg.noise_figure_db)
    if world.link_cache is None or world.link_cache[0] != key:
        kept = (replace(chan), *key[1:])  # a copy: a chan changed in place must not match
        world.link_cache = (kept, [
            channel.noise_mw(bandwidth, chan.ue_noise_figure_db, chan.noise_density_dbm_hz)
            for bandwidth in world.bandwidth_hz
        ], backhaul_rates(world, chan).tolist())
    _, noise_mw, bh_rates = world.link_cache

    slot_s = cfg.slot_seconds
    delivered = np.zeros((len(world.rng), n_platforms), dtype=np.int64)
    first = 0
    for (w, row, ue_id), n in zip(active, n_links):
        ratio = channel.sinr(rx_dbm[first], rx_dbm[first + 1 : first + n], noise_mw[row])
        first += n
        capacity = int(channel.shannon_rate(ratio, world.bandwidth_hz[row]) * slot_s)
        if row > 0:  # a node, capped by its backhaul share
            capacity = min(capacity, int(bh_rates[w][row - 1] * slot_s))
        delivered[w, row] = traffic.serve_bits(world.queue, (w, ue_id), capacity)

    step_ue_mobility(world, slot_s)
    world.slot += 1
    return world, delivered
