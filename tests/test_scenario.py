"""World construction, UE mobility, and trajectory actuation."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntnsim.scenario import (
    ScenarioConfig,
    apply_trajectory,
    init_world,
    step_ue_mobility,
)


def small_cfg(n_ues=6):
    return ScenarioConfig(n_ues=n_ues)


def test_default_fleet_composition():
    fleet = ScenarioConfig().platforms
    assert [p.id for p in fleet] == [0, 1, 2, 3, 4]
    # row 0 is the tethered donor: it cannot move
    assert fleet[0].altitude_m == 200.0
    assert fleet[0].max_speed_mps == 0.0
    for node in fleet[1:]:
        assert node.altitude_m == 100.0
        assert node.max_speed_mps == 40.0
    # the rows are derived from the config's fields, not stored: none can be set
    with pytest.raises(TypeError):
        fleet[1] = fleet[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fleet[1].max_speed_mps = 0.0
    with pytest.raises(AttributeError):
        ScenarioConfig().platforms = fleet


def test_init_world_placement():
    cfg = small_cfg()
    world = init_world(cfg, [7])
    w, h = cfg.area_w_m, cfg.area_h_m
    assert np.allclose(world.positions[0, 0], [w / 2, h / 2, 200.0])
    assert np.allclose(world.positions[0, 1], [w / 4, h / 4, 100.0])
    assert np.allclose(world.positions[0, 2], [3 * w / 4, h / 4, 100.0])
    assert np.allclose(world.positions[0, 3], [w / 4, 3 * h / 4, 100.0])
    assert np.allclose(world.positions[0, 4], [3 * w / 4, 3 * h / 4, 100.0])
    assert world.slot == 0
    assert world.ue_positions.shape == world.ue_waypoints.shape == (1, 6, 2)
    assert world.ue_speeds.shape == (1, 6)
    assert world.queue.queued_bits().tolist() == [[0] * 6]


def test_init_world_deterministic():
    a = init_world(small_cfg(), [7])
    b = init_world(small_cfg(), [7])
    assert np.array_equal(a.ue_positions, b.ue_positions)
    assert np.array_equal(a.ue_waypoints, b.ue_waypoints)
    assert np.array_equal(a.ue_speeds, b.ue_speeds)
    c = init_world(small_cfg(), [8])
    assert not np.array_equal(a.ue_positions, c.ue_positions)


def test_init_world_draws_each_ue_in_id_order():
    # per UE: position, waypoint, speed, one UE after another
    cfg = small_cfg(3)
    world = init_world(cfg, [5])
    rng = np.random.default_rng(5)
    for i in range(3):
        pos = [rng.uniform(0.0, cfg.area_w_m), rng.uniform(0.0, cfg.area_h_m)]
        wp = [rng.uniform(0.0, cfg.area_w_m), rng.uniform(0.0, cfg.area_h_m)]
        speed = rng.uniform(cfg.ue_speed_min_mps, cfg.ue_speed_max_mps)
        assert world.ue_positions[0, i].tolist() == pos
        assert world.ue_waypoints[0, i].tolist() == wp
        assert world.ue_speeds[0, i] == speed


def test_init_world_ues_inside_area():
    cfg = small_cfg(50)
    world = init_world(cfg, [3])
    assert np.all((0.0 <= world.ue_positions[..., 0])
                  & (world.ue_positions[..., 0] <= cfg.area_w_m))
    assert np.all((0.0 <= world.ue_positions[..., 1])
                  & (world.ue_positions[..., 1] <= cfg.area_h_m))
    speeds = world.ue_speeds
    assert np.all((cfg.ue_speed_min_mps <= speeds) & (speeds <= cfg.ue_speed_max_mps))


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError):
        init_world(ScenarioConfig(n_ues=0), [0])
    with pytest.raises(ValueError):
        init_world(ScenarioConfig(n_ues=4, area_w_m=-1.0), [0])
    # one case per fleet check; a negative node speed would flip the sign of
    # the velocity command
    for name, value in (("donor_altitude_m", 0.0), ("node_altitude_m", -1.0),
                        ("donor_carrier_hz", 0.0), ("node_carrier_hz", -2.5e9),
                        ("donor_bandwidth_hz", -1.0), ("node_bandwidth_hz", 0.0),
                        ("node_max_speed_mps", -5.0)):
        with pytest.raises(ValueError, match=name):
            init_world(ScenarioConfig(n_ues=4, **{name: value}), [0])
    # parked nodes are a valid fleet
    init_world(ScenarioConfig(n_ues=4, node_max_speed_mps=0.0), [0])


def test_ue_advances_toward_waypoint():
    world = init_world(small_cfg(1), [0])
    world.ue_positions[0, 0] = (0.0, 0.0)
    world.ue_waypoints[0, 0] = (30.0, 40.0)
    world.ue_speeds[0, 0] = 5.0
    step_ue_mobility(world, dt=1.0)
    assert np.allclose(world.ue_positions[0, 0], [3.0, 4.0])


def test_ue_waypoint_redraw_on_arrival():
    world = init_world(small_cfg(1), [0])
    world.ue_positions[0, 0] = (10.0, 10.0)
    world.ue_waypoints[0, 0] = (10.0, 10.0)
    step_ue_mobility(world, dt=1.0)
    assert np.allclose(world.ue_positions[0, 0], [10.0, 10.0])
    assert not np.allclose(world.ue_waypoints[0, 0], [10.0, 10.0])


def mobility_reference(world, dt):
    """One UE of world 0 after another: move toward the waypoint, or land on
    it and redraw waypoint and speed; then clip to the area."""
    cfg, rng = world.cfg, copy.deepcopy(world.rng[0])
    pos, wps = world.ue_positions[0].copy(), world.ue_waypoints[0].copy()
    speeds = world.ue_speeds[0].copy()
    for i in range(len(speeds)):
        delta = wps[i] - pos[i]
        dist = float(np.hypot(delta[0], delta[1]))
        travel = speeds[i] * dt
        if dist <= travel:
            pos[i] = wps[i]
            wps[i] = [rng.uniform(0.0, cfg.area_w_m), rng.uniform(0.0, cfg.area_h_m)]
            speeds[i] = rng.uniform(cfg.ue_speed_min_mps, cfg.ue_speed_max_mps)
        else:
            pos[i] = pos[i] + delta * (travel / dist)
        pos[i] = np.clip(pos[i], (0.0, 0.0), (cfg.area_w_m, cfg.area_h_m))
    return pos, wps, speeds, rng.random()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.001, 500.0), st.integers(0, 3))
def test_mobility_matches_per_ue_loop(seed, dt, steps):
    # long steps make many UEs arrive at once; identical arithmetic, so exact
    world = init_world(small_cfg(12), [seed])
    for _ in range(steps):
        step_ue_mobility(world, dt)
    pos, wps, speeds, next_draw = mobility_reference(world, dt)
    step_ue_mobility(world, dt)
    assert np.array_equal(world.ue_positions[0], pos)
    assert np.array_equal(world.ue_waypoints[0], wps)
    assert np.array_equal(world.ue_speeds[0], speeds)
    assert world.rng[0].random() == next_draw


def test_ue_containment_long_run():
    cfg = small_cfg(8)
    world = init_world(cfg, [11])
    for _ in range(10_000):
        step_ue_mobility(world, dt=0.030)
    assert np.all((0.0 <= world.ue_positions[..., 0])
                  & (world.ue_positions[..., 0] <= cfg.area_w_m))
    assert np.all((0.0 <= world.ue_positions[..., 1])
                  & (world.ue_positions[..., 1] <= cfg.area_h_m))


def test_mobility_rejects_nonpositive_dt():
    world = init_world(small_cfg(1), [0])
    with pytest.raises(ValueError):
        step_ue_mobility(world, dt=0.0)


def test_trajectory_below_speed_cap():
    # node 1's 5 m/s command is under the 10 m/s cap and moves it as commanded;
    # node 2's 20 m/s command shows that the cap in force is the configured one
    world = init_world(ScenarioConfig(n_ues=1, node_max_speed_mps=10.0), [0])
    start = world.positions[0, 1:3, :2].copy()
    cmds = np.array([[[3.0, 4.0], [12.0, 16.0], [0.0, 0.0], [0.0, 0.0]]])
    apply_trajectory(world, cmds, dt=0.15)
    assert np.allclose(world.positions[0, 1:3, :2] - start, [[0.45, 0.60], [0.9, 1.2]])


def test_trajectory_renormalizes_overspeed():
    cfg = ScenarioConfig(n_ues=1, node_max_speed_mps=10.0)
    world = init_world(cfg, [0])
    start = world.positions[0, 1, :2].copy()
    cmds = np.array([[[30.0, 40.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])
    apply_trajectory(world, cmds, dt=0.15)
    assert np.allclose(world.positions[0, 1, :2] - start, [0.9, 1.2])
    # the caps are read once, at init_world, like the other fleet constants
    cfg.node_max_speed_mps = 1.0
    apply_trajectory(world, cmds, dt=0.15)
    assert np.allclose(world.positions[0, 1, :2] - start, [1.8, 2.4])


def test_trajectory_zero_command_and_invariants():
    world = init_world(small_cfg(1), [0])
    donor_before = world.positions[0, 0].copy()
    node_before = world.positions[0, 1].copy()
    apply_trajectory(world, np.zeros((1, 4, 2)), dt=0.15)
    assert np.array_equal(world.positions[0, 0], donor_before)
    assert np.array_equal(world.positions[0, 1], node_before)
    # altitude and donor position survive arbitrary commands
    apply_trajectory(world, np.full((1, 4, 2), 50.0), dt=0.15)
    assert np.array_equal(world.positions[0, 0], donor_before)
    assert world.positions[0, 1, 2] == node_before[2]


def test_trajectory_rejects_wrong_command_count():
    world = init_world(small_cfg(1), [0])
    with pytest.raises(ValueError):
        apply_trajectory(world, np.zeros((1, 3, 2)), dt=0.15)


def test_trajectory_clamped_to_area():
    # each node flies 14,142 m toward the origin corner, far past the area's edge
    world = init_world(ScenarioConfig(n_ues=1, node_max_speed_mps=10_000.0), [0])
    cmds = np.tile([-10_000.0, -10_000.0], (1, 4, 1))
    apply_trajectory(world, cmds, dt=1.0)
    assert world.positions[0, 1:, :2].tolist() == [[0.0, 0.0]] * 4
