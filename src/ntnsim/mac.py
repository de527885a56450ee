"""UE association, scheduling decode, round-robin baseline, backhaul capping,
and the per-slot simulation step tying channel, traffic, and actions together."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace
from functools import cached_property
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
    links = channel.link_geometry(world.positions, world.ue_positions, world.carrier_hz, chan)
    rsrp = world.eirp_dbm[:, None] - channel.path_loss_db(links.fspl_db, links.p_los, chan)
    return Association(np.argmax(rsrp, axis=-2), links)


def observed_ues(world: WorldState, association: Association, k: int) -> np.ndarray:
    """(n_worlds, n_platforms, k) UE ids: row i of a world lists the k
    nearest UEs of platform i's cell on the unclamped 3-D distance, ties by
    UE id, padded with -1 past the cell's size. One stable sort of every
    world's platform x UE distances, with the UEs outside a cell at infinity,
    ranks every cell. Observations and schedule decoding read these ranks."""
    member = association.rows[..., None, :] == np.arange(len(world.eirp_dbm))[:, None]
    nearest = np.argsort(np.where(member, association.links.distance_m, np.inf), axis=-1,
                         kind="stable")
    ranked = np.arange(k) < member.sum(axis=-1)[..., None]
    return np.where(ranked, nearest.take(np.arange(k), axis=-1, mode="clip"), -1)


class Schedule(Mapping):
    """One slot's choices: `ue_ids`, the UE id of every platform slot (-1 =
    idle), (n_worlds, n_platforms) or one world's (n_platforms,). Read as a
    mapping it is (world, row), or row, -> UE id or None, in C order."""

    def __init__(self, ue_ids: np.ndarray):
        self.ue_ids = ue_ids

    @cached_property
    def _dict(self) -> dict:
        keys = np.ndindex(self.ue_ids.shape) if self.ue_ids.ndim > 1 else range(self.ue_ids.size)
        return dict(zip(keys, [ue if ue >= 0 else None for ue in self.ue_ids.ravel().tolist()]))

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return self.ue_ids.size


def decode_schedule(actions: np.ndarray, cells: np.ndarray) -> Schedule:
    """Turn rank vectors into one chosen UE per platform slot: actions and
    cells (observed_ues) are (n_worlds, n_platforms, k), or one world's
    (n_platforms, k).

    Entry i of row r refers to rank i of platform r's observed UEs, and the
    platform serves the UE of its largest entry (a learned scheduler's
    one-hot rank, madrl.select_rank). Padded ranks are ignored; ties go to
    the lowest rank.
    """
    ranks = np.argmax(np.where(cells >= 0, actions, -np.inf), axis=-1)
    return Schedule(cells.reshape(-1, cells.shape[-1])[np.arange(ranks.size), ranks.ravel()]
                    .reshape(ranks.shape))


def rr_schedule(rows: np.ndarray, slot: int, n_platforms: int) -> Schedule:
    """Round-robin over the serving rows `Association.rows` of every world
    (n_worlds, n_ues), or over one world's (n_ues,): each platform row
    cycles through its cell (sorted by UE id) once per slot; an empty cell
    idles."""
    member = rows[..., None, :] == np.arange(n_platforms)[:, None]
    sizes = member.sum(axis=-1)
    nth = slot % np.maximum(sizes, 1)  # the member to serve, counted in UE id order
    ue_ids = np.argmax(member.cumsum(axis=-1) > nth[..., None], axis=-1)
    return Schedule(np.where(sizes > 0, ue_ids, -1))


def backhaul_rates(world: WorldState, chan: ChannelConfig) -> np.ndarray:
    """Donor-to-node backhaul rates in bps of every world on the dedicated
    carrier, (n_worlds, n_nodes): column j is the node in row j + 1. The band
    is split evenly four ways; the airborne link is always LoS and
    interference-free, so it needs only a distance and its free-space loss."""
    cfg, positions = world.cfg, world.positions
    gap = positions[:, 1:] - positions[:, :1]
    distance = np.hypot(np.hypot(gap[..., 0], gap[..., 1]), gap[..., 2])
    fspl = channel.free_space_loss_db(distance, chan.backhaul_carrier_hz)
    share = chan.backhaul_bandwidth_hz / (positions.shape[1] - 1)
    noise = channel.noise_mw(share, cfg.noise_figure_db, chan.noise_density_dbm_hz)
    rx = (cfg.donor_tx_power_dbm + chan.backhaul_gain_dbi + chan.backhaul_gain_dbi
          - channel.path_loss_db(fspl, 1.0, chan))
    return share * np.log2(1.0 + channel.dbm_to_mw(rx) / noise)


def chosen_ue_ids(choices, rows: np.ndarray, n_platforms: int) -> np.ndarray:
    """The (n_worlds, n_platforms) UE ids (-1 = idle) of a Schedule of every
    world, or of a list of one mapping row -> UE id or None per world (a row
    left out idles). Any other shape, or a UE id outside its row's cell in
    the serving rows `rows`, raises ValueError."""
    (n_worlds, n_ues), picks = rows.shape, None
    if isinstance(choices, Schedule):
        ue_ids = picks = choices.ue_ids
    elif not isinstance(choices, Mapping) and len(choices) == n_worlds:
        picks = np.array([[chosen.get(row) for row in range(n_platforms)] for chosen in choices],
                         dtype=float)  # None -> NaN
        whole = (picks >= 0) & (picks % 1 == 0)
        ue_ids = np.where(np.isnan(picks), -1, np.where(whole, np.minimum(picks, n_ues), -2))
    if picks is None or picks.shape != (n_worlds, n_platforms):
        raise ValueError(f"{n_worlds} worlds need one choices dict each, or one Schedule")
    ue_ids = ue_ids.astype(np.intp, copy=False)
    safe = np.minimum(np.maximum(ue_ids, 0), n_ues - 1)
    cell = rows[np.arange(n_worlds)[:, None], safe]
    bad = ((safe != ue_ids) | (cell != np.arange(n_platforms))) & (ue_ids != -1)
    if np.count_nonzero(bad):
        w, row = np.argwhere(bad)[0].tolist()
        raise ValueError(f"UAV {row} of world {w} chose UE {picks[w, row]:g} outside its cell")
    return ue_ids


def step_slot(world: WorldState, choices, tcfg: TrafficConfig, chan: ChannelConfig,
              association: Association) -> tuple[WorldState, np.ndarray]:
    """Advance every world one slot under its choices (see chosen_ue_ids) and
    the slot's association; return each world's delivered bits by platform
    row, (n_worlds, n_platforms) int64. A bad choice raises ValueError first.

    Then: drop expired cohorts (into `queue.dropped_bits`), draw arrivals,
    draw one LoS state per access link, form the SINR with the active
    co-channel rows as interferers, cap each node by its backhaul share,
    drain each chosen UE oldest cohort first, move the UEs. Each world makes
    one `rng.poisson`, `rng.random` and (UEs at their waypoint) `rng.uniform`
    call. All else is a fixed number of array passes over all worlds and
    links; a world's links are, row by row, its active rows' active
    `link_rows`, in its draw's order. The access noise follows `chan`; the
    backhaul caps follow `chan`, every world's positions (bit for bit) and
    the donor power, noise figure and slot length in `world.cfg`.
    """
    rows, links, link_rows = association.rows, association.links, world.link_rows
    ue_ids = chosen_ue_ids(choices, rows, len(link_rows))
    traffic.drop_expired(world.queue, world.slot, tcfg.deadline_slots)
    traffic.generate_arrivals(world, tcfg.lambda_pkts, tcfg.packet_bits)

    # (world, row, link): the links of every row in listing order; off links are masked
    active = ue_ids >= 0
    on = active[:, link_rows] & (link_rows >= 0) & active[..., None]
    n_links = on.sum(axis=(1, 2)).tolist()
    draw = np.zeros(on.shape)
    draw[on] = np.concatenate([rng.random(n) for rng, n in zip(world.rng, n_links)])
    link = (np.arange(len(on))[:, None, None], link_rows, ue_ids[..., None])
    loss = channel.path_loss_db(links.fspl_db[link], (draw < links.p_los[link]).astype(float), chan)
    rx_mw = channel.dbm_to_mw(np.where(on, world.eirp_dbm[link_rows] - loss, -np.inf))

    cfg, cache = world.cfg, world.link_cache
    if cache is None or cache[0] != chan:  # a copy of chan, which may change in place
        noise = [channel.noise_mw(bw, chan.ue_noise_figure_db, chan.noise_density_dbm_hz)
                 for bw in world.bandwidth_hz.tolist()]
        cache = (replace(chan), np.array(noise), None, None)
    key = (world.positions.tobytes(), cfg.donor_tx_power_dbm, cfg.noise_figure_db, cfg.slot_seconds)
    if cache[2] != key:
        cache = (*cache[:2], key, (backhaul_rates(world, chan) * cfg.slot_seconds).astype(np.int64))
    world.link_cache = _, noise_mw, _, bh_caps = cache

    serving, *interferers = rx_mw.transpose(2, 0, 1)
    ratio = channel.sinr_mw(serving, sum(interferers), noise_mw)  # summed in row order
    capacity = (channel.shannon_rate(ratio, world.bandwidth_hz) * cfg.slot_seconds).astype(np.int64)
    np.minimum(capacity[:, 1:], bh_caps, out=capacity[:, 1:])  # nodes: their backhaul share
    delivered, served = np.zeros(capacity.shape, dtype=np.int64), active.nonzero()
    delivered[served] = traffic.serve_bits(world.queue, (served[0], ue_ids[served]),
                                           capacity[served])

    step_ue_mobility(world, cfg.slot_seconds)
    world.slot += 1
    return world, delivered
