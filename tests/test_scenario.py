"""World construction, UE mobility, and trajectory actuation."""

import numpy as np
import pytest

from ntnsim.scenario import (
    ScenarioConfig,
    UNTETHERED_NODE,
    apply_trajectory,
    default_fleet,
    init_world,
    step_ue_mobility,
)


def small_cfg(n_ues=6):
    return ScenarioConfig(n_ues=n_ues)


def test_default_fleet_composition():
    fleet = default_fleet()
    assert len(fleet) == 5
    assert fleet[0].tier == "tethered_donor"
    assert fleet[0].altitude_m == 200.0
    assert fleet[0].max_speed_mps == 0.0
    for i, node in enumerate(fleet[1:], start=1):
        assert node.id == i
        assert node.tier == UNTETHERED_NODE
        assert node.altitude_m == 100.0
        assert node.max_speed_mps > 0


def test_init_world_placement():
    cfg = small_cfg()
    world = init_world(cfg, seed=7)
    w, h = cfg.area_w_m, cfg.area_h_m
    assert np.allclose(world.positions[0], [w / 2, h / 2, 200.0])
    assert np.allclose(world.positions[1], [w / 4, h / 4, 100.0])
    assert np.allclose(world.positions[2], [3 * w / 4, h / 4, 100.0])
    assert np.allclose(world.positions[3], [w / 4, 3 * h / 4, 100.0])
    assert np.allclose(world.positions[4], [3 * w / 4, 3 * h / 4, 100.0])
    assert world.slot == 0
    assert len(world.ues) == 6
    assert sorted(world.queues) == [u.id for u in world.ues]


def test_init_world_deterministic():
    a = init_world(small_cfg(), seed=7)
    b = init_world(small_cfg(), seed=7)
    for ua, ub in zip(a.ues, b.ues):
        assert np.array_equal(ua.position, ub.position)
        assert np.array_equal(ua.waypoint, ub.waypoint)
        assert ua.speed == ub.speed
    c = init_world(small_cfg(), seed=8)
    assert any(not np.array_equal(ua.position, uc.position) for ua, uc in zip(a.ues, c.ues))


def test_init_world_ues_inside_area():
    cfg = small_cfg(50)
    world = init_world(cfg, seed=3)
    for ue in world.ues:
        assert 0.0 <= ue.position[0] <= cfg.area_w_m
        assert 0.0 <= ue.position[1] <= cfg.area_h_m
        assert cfg.ue_speed_min_mps <= ue.speed <= cfg.ue_speed_max_mps


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError):
        init_world(ScenarioConfig(n_ues=0), seed=0)
    with pytest.raises(ValueError):
        init_world(ScenarioConfig(n_ues=4, area_w_m=-1.0), seed=0)
    fleet = default_fleet()
    with pytest.raises(ValueError):
        init_world(ScenarioConfig(n_ues=4, platforms=fleet[:3]), seed=0)
    fleet = default_fleet()
    fleet[0].max_speed_mps = 5.0  # a tethered donor cannot move
    with pytest.raises(ValueError):
        init_world(ScenarioConfig(n_ues=4, platforms=fleet), seed=0)
    fleet = default_fleet()
    fleet[1].max_speed_mps = -5.0  # would flip the sign of the velocity command
    with pytest.raises(ValueError):
        init_world(ScenarioConfig(n_ues=4, platforms=fleet), seed=0)


def test_ue_advances_toward_waypoint():
    world = init_world(small_cfg(1), seed=0)
    ue = world.ues[0]
    ue.position = np.array([0.0, 0.0])
    ue.waypoint = np.array([30.0, 40.0])
    ue.speed = 5.0
    step_ue_mobility(world, dt=1.0)
    assert np.allclose(ue.position, [3.0, 4.0])


def test_ue_waypoint_redraw_on_arrival():
    world = init_world(small_cfg(1), seed=0)
    ue = world.ues[0]
    ue.position = np.array([10.0, 10.0])
    ue.waypoint = np.array([10.0, 10.0])
    step_ue_mobility(world, dt=1.0)
    assert np.allclose(ue.position, [10.0, 10.0])
    assert not np.allclose(ue.waypoint, [10.0, 10.0])


def test_ue_containment_long_run():
    cfg = small_cfg(8)
    world = init_world(cfg, seed=11)
    for _ in range(10_000):
        step_ue_mobility(world, dt=0.030)
    for ue in world.ues:
        assert 0.0 <= ue.position[0] <= cfg.area_w_m
        assert 0.0 <= ue.position[1] <= cfg.area_h_m


def test_mobility_rejects_nonpositive_dt():
    world = init_world(small_cfg(1), seed=0)
    with pytest.raises(ValueError):
        step_ue_mobility(world, dt=0.0)


def test_trajectory_below_speed_cap():
    world = init_world(small_cfg(1), seed=0)
    for p in world.cfg.nodes:
        p.max_speed_mps = 10.0
    start = world.positions[1, :2].copy()
    cmds = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    apply_trajectory(world, cmds, dt=0.15)
    assert np.allclose(world.positions[1, :2] - start, [0.45, 0.60])


def test_trajectory_renormalizes_overspeed():
    world = init_world(small_cfg(1), seed=0)
    for p in world.cfg.nodes:
        p.max_speed_mps = 10.0
    start = world.positions[1, :2].copy()
    cmds = np.array([[30.0, 40.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    apply_trajectory(world, cmds, dt=0.15)
    assert np.allclose(world.positions[1, :2] - start, [0.9, 1.2])


def test_trajectory_zero_command_and_invariants():
    world = init_world(small_cfg(1), seed=0)
    donor_before = world.positions[0].copy()
    node_before = world.positions[1].copy()
    apply_trajectory(world, np.zeros((4, 2)), dt=0.15)
    assert np.array_equal(world.positions[0], donor_before)
    assert np.array_equal(world.positions[1], node_before)
    # altitude and donor position survive arbitrary commands
    apply_trajectory(world, np.full((4, 2), 50.0), dt=0.15)
    assert np.array_equal(world.positions[0], donor_before)
    assert world.positions[1, 2] == node_before[2]


def test_trajectory_rejects_wrong_command_count():
    world = init_world(small_cfg(1), seed=0)
    with pytest.raises(ValueError):
        apply_trajectory(world, np.zeros((3, 2)), dt=0.15)


def test_trajectory_clamped_to_area():
    cfg = small_cfg(1)
    world = init_world(cfg, seed=0)
    for p in world.cfg.nodes:
        p.max_speed_mps = 10_000.0
    cmds = np.tile([-10_000.0, -10_000.0], (4, 1))
    apply_trajectory(world, cmds, dt=1.0)
    for row in range(1, 5):
        assert 0.0 <= world.positions[row, 0] <= cfg.area_w_m
        assert 0.0 <= world.positions[row, 1] <= cfg.area_h_m
