"""Association, schedule decoding, round-robin, backhaul capping, slot pipeline."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntnsim import channel, mac, traffic
from ntnsim.channel import ChannelConfig
from ntnsim.scenario import (
    ScenarioConfig,
    apply_trajectory,
    init_world,
    step_ue_mobility,
)
from ntnsim.traffic import TrafficConfig


def make_world(seed=0, **cfg_kwargs):
    return init_world(ScenarioConfig(**cfg_kwargs), [seed])


def ue_distance(world, row, ue_id):
    return math.dist(world.positions[0, row], (*world.ue_positions[0, ue_id], 0.0))


def test_association_geometry_rows_platforms_columns_ue_ids():
    world = make_world(seed=3)
    assoc = mac.associate(world, ChannelConfig())
    n_p, n_u = len(world.cfg.platforms), world.cfg.n_ues
    for matrix in assoc.links:
        assert matrix.shape == (1, n_p, n_u)
    for row in range(n_p):
        for ue_id in range(n_u):
            want = ue_distance(world, row, ue_id)
            assert assoc.links.distance_m[0, row, ue_id] == pytest.approx(want, rel=1e-14)


def test_associate_covers_every_ue():
    world = make_world(seed=1)
    assoc = mac.associate(world, ChannelConfig())
    assert assoc.rows.shape == (1, world.cfg.n_ues)
    assert set(assoc.rows[0].tolist()) <= set(range(len(world.cfg.platforms)))


def test_associate_prefers_overhead_platform():
    # a UE directly under a node quadrant center sees that node at 100 m
    # and 90 degrees elevation; every alternative is farther and lower
    world = make_world(seed=2)
    w, h = world.cfg.area_w_m, world.cfg.area_h_m
    world.ue_positions[0, 0] = (w / 4, h / 4)
    assoc = mac.associate(world, ChannelConfig())
    assert assoc.rows[0, 0] == 1
    world.ue_positions[0, 0] = (3 * w / 4, 3 * h / 4)
    assert mac.associate(world, ChannelConfig()).rows[0, 0] == 4


def test_associate_tie_breaks_low_id():
    # silence the donor so the midpoint between nodes 1 and 2 is an exact tie
    cfg = ScenarioConfig(donor_tx_power_dbm=-80.0)
    world = init_world(cfg, [0])
    world.ue_positions[0, 0] = (cfg.area_w_m / 2, cfg.area_h_m / 4)
    assoc = mac.associate(world, ChannelConfig())
    assert assoc.rows[0, 0] == 1


def observed(cells, row):
    """The UE ids of one row of an observed_ues matrix, padding dropped."""
    return [i for i in cells[row].tolist() if i >= 0]


def test_observed_ues_nearest_first():
    world = make_world(seed=4)
    assoc = mac.associate(world, ChannelConfig())
    n_p, n_u = len(world.cfg.platforms), world.cfg.n_ues
    cells = mac.observed_ues(world, assoc, n_u)[0]
    assert cells.shape == (n_p, n_u)
    for row in range(n_p):
        cell = observed(cells, row)
        assert cells[row].tolist() == cell + [-1] * (n_u - len(cell))
        assert sorted(cell) == [i for i in range(n_u) if assoc.rows[0, i] == row]
        dists = [ue_distance(world, row, i) for i in cell]
        assert dists == sorted(dists)
    # a smaller k keeps the first k ranks of every cell
    k = 3
    assert np.array_equal(mac.observed_ues(world, assoc, k)[0], cells[:, :k])


def reference_association(world, chan):
    """Serving platform row per UE id: the argmax of the fading-free budget,
    written link by link; a strictly larger budget is needed to displace a
    lower platform row. Each budget is formed by the numpy operations of
    mac.associate, in its order, so a 1-ulp lead of one platform (two
    platforms on one carrier a few 1e-13 m apart) is the same lead here."""
    out = []
    for ux, uy in world.ue_positions[0]:
        best = None
        for row, p in enumerate(world.cfg.platforms):
            px, py, pz = world.positions[0, row]
            horiz = np.hypot(ux - px, uy - py)
            height = pz - 0.0
            elev = np.degrees(np.arctan2(height, horiz))
            p_los = 1.0 / (1.0 + chan.los_a * np.exp(-chan.los_b * (elev - chan.los_a)))
            dist = np.maximum(np.hypot(horiz, height), 1.0)
            fspl = 20.0 * np.log10(4.0 * math.pi / 299_792_458.0 * dist * p.carrier_hz)
            loss = fspl + p_los * chan.eta_los_db + (1.0 - p_los) * chan.eta_nlos_db
            rsrp = (p.tx_power_dbm + p.antenna_gain_dbi + 0.0) - loss
            if best is None or rsrp > best[0]:
                best = (rsrp, row)
        out.append(best[1])
    return out


def reference_ranking(world, serving_rows, k):
    """Each platform row's cell sorted by (3-D distance, UE id), cut to k
    and padded with -1 to k entries."""
    n_u = len(serving_rows)
    cells = []
    for row in range(len(world.cfg.platforms)):
        cell = sorted(
            (i for i in range(n_u) if serving_rows[i] == row),
            key=lambda i: (ue_distance(world, row, i), i),
        )[:k]
        cells.append(cell + [-1] * (k - len(cell)))
    return cells


coordinate = st.floats(0.0, 1400.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coordinate, coordinate)


@st.composite
def geometries(draw):
    # UEs pick from a small pool of spots, so equal distances (ties) occur
    spots = draw(st.lists(point, min_size=1, max_size=6))
    ue_xy = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=24))
    platform_xy = draw(st.lists(point, min_size=5, max_size=5))
    donor_tx_dbm = draw(st.sampled_from([-80.0, -13.0, 10.0]))
    return ue_xy, platform_xy, donor_tx_dbm


@settings(max_examples=200, deadline=None)
@given(geometries())
# a near-tie: rows 1-4 share a carrier and row 4 stands 4.2e-13 m closer to
# the UE than rows 1-3, so its budget is 1 ulp stronger
@example(([(0.0, 541.3515625)], [(0.0, 0.0)] * 4 + [(0.0, 4.2089302314137284e-13)], -80.0))
def test_association_and_ranking_match_scalar_reference(geometry):
    ue_xy, platform_xy, donor_tx_dbm = geometry
    cfg = ScenarioConfig(n_ues=len(ue_xy), donor_tx_power_dbm=donor_tx_dbm)
    world = init_world(cfg, [0])
    world.ue_positions[0] = ue_xy
    world.positions[0, :, :2] = platform_xy
    chan = ChannelConfig()
    assoc = mac.associate(world, chan)
    serving_rows = reference_association(world, chan)
    assert assoc.rows[0].tolist() == serving_rows
    # k = n_ues: every rank of every cell; k > n_ues: padding past the UEs
    for k in (len(ue_xy), len(ue_xy) + 3):
        ranked = mac.observed_ues(world, assoc, k)[0].tolist()
        assert ranked == reference_ranking(world, serving_rows, k)


def test_observed_ues_tie_by_id():
    world = make_world(seed=5)
    # two UEs of node 1 at identical positions -> lower id listed first
    world.ue_positions[0, 0] = world.ue_positions[0, 1] = (250.0, 240.0)
    assoc = mac.associate(world, ChannelConfig())
    assert assoc.rows[0, 0] == assoc.rows[0, 1] == 1
    obs = observed(mac.observed_ues(world, assoc, world.cfg.n_ues)[0], 1)
    assert obs.index(0) < obs.index(1)


def test_decode_schedule_argmax_over_observed():
    world = make_world(seed=6)
    chan = ChannelConfig()
    assoc = mac.associate(world, chan)
    k = 8
    n_p = len(world.cfg.platforms)
    actions = np.zeros((n_p, k))
    actions[:, 1] = 1.0  # second-nearest observed UE everywhere
    cells = mac.observed_ues(world, assoc, k)[0]
    # one UE in row 3's cell and none in row 4's: rank 1 is padding in both
    cells[3, 1:] = -1
    cells[4] = -1
    choices = mac.decode_schedule(actions, cells)
    assert list(choices) == list(range(n_p))
    for row in range(n_p):
        obs = observed(cells, row)
        if len(obs) >= 2:
            assert choices[row] == obs[1]
        elif obs:
            # entry beyond the cell size is ignored; ties go to index 0
            assert choices[row] == obs[0]
        else:
            assert choices[row] is None
    assert choices[3] == cells[3, 0] and choices[4] is None


def test_decode_schedule_tie_lowest_index():
    world = make_world(seed=6)
    assoc = mac.associate(world, ChannelConfig())
    cells = mac.observed_ues(world, assoc, 8)[0]
    choices = mac.decode_schedule(np.full(cells.shape, 0.25), cells)
    for row in range(len(world.cfg.platforms)):
        obs = observed(cells, row)
        assert choices[row] == (obs[0] if obs else None)


def test_rr_schedule_rotation():
    # row 0 serves UEs 0 1 3 4 6 8, row 1 UEs 2 5 9, row 3 UE 7
    rows = np.array([0, 0, 1, 0, 0, 1, 0, 3, 0, 1])
    idle = {2: None, 4: None}
    assert mac.rr_schedule(rows, 0, 5) == {0: 0, 1: 2, 3: 7, **idle}
    assert mac.rr_schedule(rows, 1, 5) == {0: 1, 1: 5, 3: 7, **idle}
    assert mac.rr_schedule(rows, 2, 5) == {0: 3, 1: 9, 3: 7, **idle}
    assert mac.rr_schedule(rows, 3, 5) == {0: 4, 1: 2, 3: 7, **idle}
    assert mac.rr_schedule(rows, 6, 5) == {0: 0, 1: 2, 3: 7, **idle}
    # stateless: same slot always yields the same pick
    assert mac.rr_schedule(rows, 1, 5) == mac.rr_schedule(rows, 1, 5)


def test_rr_schedule_empty_cell_idles():
    out = mac.rr_schedule(np.array([2, 2]), 0, 5)
    assert list(out) == [0, 1, 2, 3, 4]
    assert out[1] is None
    assert out[2] == 0


def test_backhaul_rates_symmetric_at_start():
    world = make_world(seed=7)
    chan = ChannelConfig()
    rates = mac.backhaul_rates(world, chan)
    assert rates.shape == (1, 4)
    vals = rates[0].tolist()
    # quadrant centers are equidistant from the donor
    assert max(vals) == pytest.approx(min(vals), rel=1e-12)
    assert vals[0] > 0


def test_backhaul_rate_matches_link_budget():
    world = make_world(seed=7)
    chan = ChannelConfig()
    donor, node = world.cfg.platforms[0], world.cfg.platforms[1]
    share = chan.backhaul_bandwidth_hz / 4
    # always LoS: free-space loss plus the LoS excess
    dist = math.dist(world.positions[0, 0], world.positions[0, 1])
    fspl = 20.0 * math.log10(4.0 * math.pi * dist * chan.backhaul_carrier_hz / 299_792_458.0)
    rx = donor.tx_power_dbm + 2 * chan.backhaul_gain_dbi - (fspl + chan.eta_los_db)
    noise = chan.noise_density_dbm_hz + 10.0 * math.log10(share) + node.noise_figure_db
    want = share * math.log2(1.0 + 10 ** ((rx - noise) / 10.0))
    assert mac.backhaul_rates(world, chan)[0, 0] == pytest.approx(want, rel=1e-12)


def test_backhaul_rate_drops_with_distance():
    world = make_world(seed=7)
    chan = ChannelConfig()
    near = mac.backhaul_rates(world, chan)[0, 0]
    world.positions[0, 1, :2] = (0.0, 0.0)
    far = mac.backhaul_rates(world, chan)[0, 0]
    assert far < near


def run_slots(world, tcfg, chan, n_slots):
    """Step n_slots rr slots of every world; returns the world and each
    slot's delivered bits, (n_worlds, n_platforms)."""
    out = []
    for _ in range(n_slots):
        assoc = mac.associate(world, chan)
        choices = [mac.rr_schedule(rows, world.slot, len(world.cfg.platforms))
                   for rows in assoc.rows]
        world, delivered = mac.step_slot(world, choices, tcfg, chan, assoc)
        out.append(delivered)
    return world, out


def test_step_slot_advances_clock_and_moves_ues():
    world = make_world(seed=8)
    before = world.ue_positions.copy()
    world, _ = run_slots(world, TrafficConfig(), ChannelConfig(), 1)
    assert world.slot == 1
    moved = np.linalg.norm(world.ue_positions - before, axis=-1)
    assert np.all(moved > 0)
    assert np.all(moved <= world.cfg.ue_speed_max_mps * world.cfg.slot_seconds + 1e-9)


def test_step_slot_queue_conservation():
    world = make_world(seed=9)
    world, delivered = run_slots(world, TrafficConfig(), ChannelConfig(), 200)
    q = world.queue
    assert np.array_equal(q.arrived_bits, q.delivered_bits + q.dropped_bits + q.queued_bits())
    # the per-slot stream agrees with the cumulative queue counter
    assert sum(d.sum() for d in delivered) == q.delivered_bits.sum()


def test_step_slot_rejects_out_of_cell_choice():
    world = make_world(seed=10)
    chan, tcfg = ChannelConfig(), TrafficConfig()
    assoc = mac.associate(world, chan)
    # a cohort the refused slot would drop at the deadline
    world.queue.push(0, np.arange(world.cfg.n_ues) * 1000)
    world.slot = tcfg.deadline_slots
    foreign = next(ue_id for ue_id, row in enumerate(assoc.rows[0].tolist()) if row != 1)
    last = world.cfg.n_ues - 1  # rows[-1] would name this UE
    before = copy.deepcopy(world)
    for row, ue_id in ((1, foreign), (int(assoc.rows[0, last]), -1), (0, world.cfg.n_ues)):
        choices = {r: None for r in range(len(world.cfg.platforms))}
        choices[row] = ue_id
        with pytest.raises(ValueError):
            mac.step_slot(world, [choices], tcfg, chan, assoc)
        # refused before anything moved, dropped or was drawn
        assert world.slot == before.slot
        assert world.rng[0].bit_generator.state == before.rng[0].bit_generator.state
        assert world.queue.n_cohorts == before.queue.n_cohorts
        for name in ("cells", "arrived_bits", "delivered_bits", "dropped_bits"):
            assert np.array_equal(getattr(world.queue, name), getattr(before.queue, name))
        assert np.array_equal(world.ue_positions, before.ue_positions)
    # one dict per world: a bare dict, or a list of the wrong length, is refused as well
    idle = {r: None for r in range(len(world.cfg.platforms))}
    for choices in (idle, [], [idle, idle]):
        with pytest.raises(ValueError, match="one choices dict each"):
            mac.step_slot(world, choices, tcfg, chan, assoc)
        assert world.slot == before.slot and world.queue.n_cohorts == before.queue.n_cohorts


def test_step_slot_idle_uavs_deliver_nothing():
    world = make_world(seed=11)
    chan = ChannelConfig()
    choices = {row: None for row in range(len(world.cfg.platforms))}
    world, delivered = mac.step_slot(world, [choices], TrafficConfig(), chan,
                                     mac.associate(world, chan))
    assert delivered.dtype == np.int64
    assert delivered.tolist() == [[0] * len(world.cfg.platforms)]


def test_step_slot_node_capped_by_backhaul():
    # shrink the backhaul band until it binds, then no node can exceed its share
    world = make_world(seed=12)
    chan = ChannelConfig(backhaul_bandwidth_hz=2e5)
    tcfg = TrafficConfig()
    # preload every queue so service is never queue-limited
    world.queue.push(0, np.full(world.cfg.n_ues, 10**9))
    caps = {
        row: int(r * world.cfg.slot_seconds)
        for row, r in enumerate(mac.backhaul_rates(world, chan)[0].tolist(), start=1)
    }
    assoc = mac.associate(world, chan)
    choices = mac.rr_schedule(assoc.rows[0], 0, len(world.cfg.platforms))
    world, [delivered] = mac.step_slot(world, [choices], tcfg, chan, assoc)
    served_nodes = 0
    for row in range(1, 5):
        if choices[row] is not None:
            assert delivered[row] <= caps[row]
            served_nodes += int(delivered[row] > 0)
    assert served_nodes > 0
    # the donor has no backhaul hop and is allowed to exceed any node cap
    if choices[0] is not None:
        assert delivered[0] > max(caps.values())


def test_step_slot_deterministic():
    def signature(seed):
        world = make_world(seed=seed)
        world, delivered = run_slots(world, TrafficConfig(), ChannelConfig(), 50)
        return [d.tolist() for d in delivered]

    assert signature(13) == signature(13)
    assert signature(13) != signature(14)


def reference_step_slot(world, choices, tcfg, chan, association):
    """The slot pipeline of lockstep worlds world by world and link by link:
    a scalar Knuth sampler per UE, one `rng.random()` per LoS state (serving
    link, then co-channel interferers, by platform row) and the backhaul
    recomputed every slot."""
    platforms = world.cfg.platforms
    traffic.drop_expired(world.queue, world.slot, tcfg.deadline_slots)
    counts = []
    for rng in world.rng:
        counts.append([])
        for _ in range(world.cfg.n_ues):
            k, prod = 0, 1.0
            while tcfg.lambda_pkts > 0:
                prod *= rng.random()
                if prod <= math.exp(-tcfg.lambda_pkts):
                    break
                k += 1
            counts[-1].append(k * tcfg.packet_bits)
    world.queue.push(world.slot, np.array(counts, dtype=np.int64))

    links = association.links

    def rx_dbm(w, row, ue_id):
        p = platforms[row]
        los = float(world.rng[w].random() < links.p_los[w, row, ue_id])
        pl = channel.path_loss_db(float(links.fspl_db[w, row, ue_id]), los, chan)
        return p.tx_power_dbm + p.antenna_gain_dbi + 0.0 - pl  # the UE's 0 dBi

    bh_rates = mac.backhaul_rates(world, chan).tolist()
    delivered = np.zeros((len(world.rng), len(platforms)), dtype=np.int64)
    for w, chosen in enumerate(choices):
        active = [row for row in range(len(platforms)) if chosen[row] is not None]
        for row in active:
            p = platforms[row]
            ue_id = chosen[row]
            serving = rx_dbm(w, row, ue_id)
            interferers = [
                rx_dbm(w, q, ue_id)
                for q in active
                if q != row and platforms[q].carrier_hz == p.carrier_hz
            ]
            noise = channel.noise_mw(p.bandwidth_hz, chan.ue_noise_figure_db,
                                     chan.noise_density_dbm_hz)
            ratio = channel.sinr(serving, interferers, noise)
            capacity = int(channel.shannon_rate(ratio, p.bandwidth_hz) * world.cfg.slot_seconds)
            if row > 0:  # a node, capped by its backhaul
                capacity = min(capacity, int(bh_rates[w][row - 1] * world.cfg.slot_seconds))
            delivered[w, row] = traffic.serve_bits(world.queue, (w, ue_id), capacity)
    step_ue_mobility(world, world.cfg.slot_seconds)
    world.slot += 1
    return world, delivered


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    n_ues=st.integers(1, 40),
    lam=st.sampled_from([0.0, 0.3, 2.0, 9.0]),
    backhaul_hz=st.sampled_from([2e5, 5e6, 50e6]),
    node_carrier_hz=st.sampled_from([2.0e9, 2.5e9]),
    n_slots=st.integers(1, 12),
)
def test_step_slot_matches_link_by_link_reference(
    seeds, n_ues, lam, backhaul_hz, node_carrier_hz, n_slots
):
    cfg = ScenarioConfig(n_ues=n_ues, node_carrier_hz=node_carrier_hz)
    tcfg = TrafficConfig(lambda_pkts=lam, packet_bits=60_000, deadline_slots=4)
    chan = ChannelConfig(backhaul_bandwidth_hz=backhaul_hz)
    worlds = init_world(cfg, seeds), init_world(cfg, seeds)
    pick = np.random.default_rng(seeds)  # choices and node moves, outside the worlds
    for _ in range(n_slots):
        for w in range(len(seeds)):  # node moves in a random subset of the worlds
            if pick.random() < 0.3:
                xy = pick.uniform(0.0, 1400.0, (4, 2))
                for world in worlds:
                    world.positions[w, 1:, :2] = xy
        assoc = mac.associate(worlds[0], chan)
        choices = []
        for cells in mac.observed_ues(worlds[0], assoc, n_ues):
            choices.append({})
            for row in range(len(cfg.platforms)):
                cell = observed(cells, row)
                choices[-1][row] = int(pick.choice(cell)) if cell and pick.random() < 0.8 else None
        slot = worlds[0].slot
        _, got = mac.step_slot(worlds[0], choices, tcfg, chan, assoc)
        ref_assoc = mac.associate(worlds[1], chan)
        _, want = reference_step_slot(worlds[1], choices, tcfg, chan, ref_assoc)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert worlds[0].slot == worlds[1].slot == slot + 1
        assert np.array_equal(worlds[0].queue.dropped_bits, worlds[1].queue.dropped_bits)
    a, b = (w.queue for w in worlds)
    assert a.n_cohorts == b.n_cohorts
    assert np.array_equal(a.cells[..., : a.n_cohorts], b.cells[..., : b.n_cohorts])
    assert np.array_equal(a.arrival_slots[: a.n_cohorts], b.arrival_slots[: b.n_cohorts])
    for name in ("arrived_bits", "delivered_bits", "dropped_bits"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(worlds[0].ue_positions, worlds[1].ue_positions)
    for got_rng, want_rng in zip(worlds[0].rng, worlds[1].rng):
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def capped_slot(world, chan):
    """Step one rr slot of every world on preloaded queues; return the bits
    each served node delivered and the backhaul cap computed afresh for it,
    both keyed by (world, node row)."""
    world.queue.push(world.slot, np.full(world.ue_speeds.shape, 10**9))
    caps = [[int(r * world.cfg.slot_seconds) for r in rates]
            for rates in mac.backhaul_rates(world, chan).tolist()]
    assoc = mac.associate(world, chan)
    choices = [mac.rr_schedule(rows, world.slot, len(world.cfg.platforms)) for rows in assoc.rows]
    _, delivered = mac.step_slot(world, choices, TrafficConfig(), chan, assoc)
    served = {(w, row): int(delivered[w, row])
              for w, chosen in enumerate(choices) for row in range(1, 5) if chosen[row] is not None}
    assert served
    return served, {(w, row): caps[w][row - 1] for w, row in served}


def test_backhaul_computed_once_while_nodes_park(monkeypatch):
    real = mac.backhaul_rates
    for n_worlds in (1, 20):  # one pass serves every lockstep world
        calls = []
        monkeypatch.setattr(mac, "backhaul_rates", lambda *a: calls.append(1) or real(*a))
        world = init_world(ScenarioConfig(), range(n_worlds))
        run_slots(world, TrafficConfig(), ChannelConfig(), 20)
        assert len(calls) == 1, n_worlds


def test_backhaul_cap_follows_apply_trajectory():
    world = make_world(seed=12)
    chan = ChannelConfig(backhaul_bandwidth_hz=2e5)
    served, caps = capped_slot(world, chan)
    assert served == caps
    # node 1 flies 400 m away from the donor, the others hover
    apply_trajectory(world, [[[-40.0, -40.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]], 10.0)
    moved_served, moved_caps = capped_slot(world, chan)
    assert moved_served == moved_caps
    assert moved_caps[0, 1] < caps[0, 1]
    assert all(moved_caps[n] == caps[n] for n in moved_caps if n in caps and n != (0, 1))


def test_backhaul_cap_follows_position_write():
    world = make_world(seed=12)
    chan = ChannelConfig(backhaul_bandwidth_hz=2e5)
    _, caps = capped_slot(world, chan)
    world.positions[0, 1:, :2] = world.positions[0, 0, :2]  # every node under the donor
    served, near_caps = capped_slot(world, chan)
    assert served == near_caps
    assert all(near_caps[n] > caps[n] for n in near_caps if n in caps)


def test_backhaul_cap_follows_scenario_config_and_one_worlds_move():
    # the backhaul reads the donor power and noise figure from world.cfg
    world = init_world(ScenarioConfig(), [1, 2])
    chan = ChannelConfig(backhaul_bandwidth_hz=2e5)
    served, caps = capped_slot(world, chan)
    assert served == caps
    world.cfg.donor_tx_power_dbm = 7.0  # nodes parked
    served, strong_caps = capped_slot(world, chan)
    assert served == strong_caps
    assert all(strong_caps[n] > caps[n] for n in strong_caps if n in caps)
    world.positions[1, 1:, 0] += 0.04  # world 1's nodes move 4 cm
    served, moved_caps = capped_slot(world, chan)
    assert served == moved_caps
    world.cfg.noise_figure_db = 12.0
    served, noisy_caps = capped_slot(world, chan)
    assert served == noisy_caps
    assert all(noisy_caps[n] < moved_caps[n] for n in noisy_caps if n in moved_caps)


def test_backhaul_cap_follows_channel_config():
    world = make_world(seed=12)
    narrow = ChannelConfig(backhaul_bandwidth_hz=2e5)
    _, caps = capped_slot(world, narrow)
    wider = ChannelConfig(backhaul_bandwidth_hz=4e5)
    served, wide_caps = capped_slot(world, wider)
    assert served == wide_caps
    assert all(wide_caps[n] > caps[n] for n in wide_caps if n in caps)
    wider.backhaul_gain_dbi = 0.0  # the same config object, changed in place
    served, low_caps = capped_slot(world, wider)
    assert served == low_caps
    assert all(low_caps[n] < wide_caps[n] for n in low_caps if n in wide_caps)


def test_access_noise_follows_channel_config():
    chan, tcfg = ChannelConfig(), TrafficConfig()
    worlds = make_world(seed=15), make_world(seed=15)
    for slot in range(4):
        if slot == 2:
            chan.ue_noise_figure_db = 20.0  # the same config object, changed in place
        delivered = []
        for world, step in zip(worlds, (mac.step_slot, reference_step_slot)):
            assoc = mac.associate(world, chan)
            choices = mac.rr_schedule(assoc.rows[0], slot, len(world.cfg.platforms))
            delivered.append(step(world, [choices], tcfg, chan, assoc)[1])
        assert np.array_equal(delivered[0], delivered[1])
