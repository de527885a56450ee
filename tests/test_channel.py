"""Link-budget math: geometry, LoS probability, path loss, SINR, rate."""

import math

import numpy as np
import pytest

from ntnsim import channel
from ntnsim.channel import ChannelConfig


def geometry(tx, rx, carrier_hz=2.4e9, cfg=None):
    """The link geometry of one transmitter and one receiver as scalars."""
    links = channel.link_geometry(
        np.array([tx], dtype=float), np.array([rx], dtype=float), np.array([carrier_hz]),
        cfg or ChannelConfig(),
    )
    return channel.LinkGeometry(*(float(m[0, 0]) for m in links))


def test_distance3d_examples():
    assert geometry((0, 0, 100), (0, 0, 0)).distance_m == 100.0
    assert geometry((3, 4, 0), (0, 0, 0)).distance_m == 5.0
    assert geometry((250, 250, 100), (310, 330, 0)).distance_m == pytest.approx(141.42, abs=0.01)
    # symmetry, zero iff equal
    a, b = (1.0, 2.0, 3.0), (-4.0, 0.5, 9.0)
    assert geometry(a, b).distance_m == geometry(b, a).distance_m
    assert geometry(a, a).distance_m == 0.0
    # one matrix: row = transmitter, column = receiver
    tx = np.array([[0.0, 0.0, 100.0], [3.0, 4.0, 0.0]])
    rx = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 100.0], [6.0, 8.0, 0.0]])
    links = channel.link_geometry(tx, rx, np.array([2e9, 2.5e9]), ChannelConfig())
    want = [[math.dist(t, r) for r in rx] for t in tx]
    assert links.distance_m.shape == (2, 3)
    assert np.allclose(links.distance_m, want, rtol=1e-15, atol=0.0)


def test_elevation_deg():
    assert geometry((0, 0, 100), (0, 0, 0)).elevation_deg == pytest.approx(90.0)
    assert geometry((100, 0, 100), (0, 0, 0)).elevation_deg == pytest.approx(45.0)
    assert geometry((100, 0, 0), (0, 0, 0)).elevation_deg == pytest.approx(0.0)
    # a transmitter below the receiver sits under its horizon
    assert geometry((100, 0, 0), (0, 0, 100)).elevation_deg == pytest.approx(-45.0)


def test_los_probability_monotone_and_bounds():
    cfg = ChannelConfig()
    assert channel.los_probability(90.0, cfg.los_a, cfg.los_b) >= 0.99
    vals = channel.los_probability(np.linspace(0.0, 90.0, 181), cfg.los_a, cfg.los_b)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) >= 0.0)
    # the geometry pass applies the same sigmoid to its elevations
    g = geometry((100, 0, 100), (0, 0, 0), cfg=cfg)
    assert g.p_los == channel.los_probability(g.elevation_deg, cfg.los_a, cfg.los_b)


def test_los_probability_sigmoid_formula():
    a, b = 9.61, 0.16
    expected = 1.0 / (1.0 + a * math.exp(-b * (45.0 - a)))
    assert channel.los_probability(45.0, a, b) == pytest.approx(expected, rel=1e-12)


def test_path_loss_fspl_plus_excess():
    cfg = ChannelConfig(eta_los_db=1.0, eta_nlos_db=20.0)

    def loss(d, los, carrier_hz=2.4e9):
        fspl = geometry((0, 0, d), (0, 0, 0), carrier_hz).fspl_db
        return channel.path_loss_db(fspl, float(los), cfg)

    # FSPL(1 m, 2.4 GHz) = 40.05 dB; LoS adds eta_los = 1 dB
    assert loss(1.0, True) == pytest.approx(41.05, abs=0.01)
    base = loss(100.0, True)
    assert loss(200.0, True) - base == pytest.approx(6.02, abs=0.01)
    assert loss(100.0, False) - base == pytest.approx(20.0 - 1.0, rel=1e-12)
    # strictly increasing in distance and frequency; under 1 m counts as 1 m
    assert loss(150.0, True) > base
    assert loss(100.0, True, 3.5e9) > base
    assert loss(0.25, True) == loss(1.0, True)


def test_expected_path_loss_between_extremes():
    cfg = ChannelConfig()
    fspl = geometry((0, 0, 300), (0, 0, 0)).fspl_db
    lo = channel.path_loss_db(fspl, 1.0, cfg)
    hi = channel.path_loss_db(fspl, 0.0, cfg)
    assert lo == fspl + cfg.eta_los_db and hi == fspl + cfg.eta_nlos_db
    for elev in (5.0, 30.0, 60.0, 85.0):
        mid = channel.path_loss_db(fspl, channel.los_probability(elev, cfg.los_a, cfg.los_b), cfg)
        assert lo <= mid <= hi
    # high elevation approaches the LoS budget
    p_high = channel.los_probability(89.0, cfg.los_a, cfg.los_b)
    assert channel.path_loss_db(fspl, p_high, cfg) == pytest.approx(lo, abs=0.05)


def test_noise_power():
    # -174 + 10*log10(20e6) + 7 = -93.99 dBm
    assert channel.noise_power_dbm(20e6, 7.0) == pytest.approx(-93.99, abs=0.01)


def test_sinr_examples():
    cfg = ChannelConfig()
    # no interferers, rx equal to noise floor -> SNR exactly 1
    noise = channel.noise_power_dbm(20e6, cfg.ue_noise_figure_db)
    noise_mw = channel.noise_mw(20e6, cfg.ue_noise_figure_db)
    assert channel.sinr(noise, (), noise_mw) == pytest.approx(1.0, rel=1e-12)
    # dominant interferer equal to the carrier -> ratio tends to 1
    assert channel.sinr(-60.0, [-60.0], noise_mw) == pytest.approx(1.0, rel=1e-3)
    # hand computation in milliwatts: 1e-9 / (1e-10 + 1e-10) with N forced to -100 dBm
    ratio = channel.sinr(-90.0, [-100.0], channel.noise_mw(1.0, 0.0, noise_density_dbm_hz=-100.0))
    assert ratio == pytest.approx(5.0, rel=1e-9)


def test_sinr_monotonicity():
    noise = channel.noise_mw(20e6, ChannelConfig().ue_noise_figure_db)
    base = channel.sinr(-80.0, [-95.0], noise)
    assert channel.sinr(-78.0, [-95.0], noise) > base
    assert channel.sinr(-80.0, [-90.0], noise) < base


def test_units_audit_matches_mw_domain():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rx = rng.uniform(-120.0, -60.0)
        ints = list(rng.uniform(-130.0, -80.0, size=rng.integers(0, 4)))
        bw = rng.uniform(1e6, 50e6)
        nf = rng.uniform(0.0, 10.0)
        got = channel.sinr(rx, ints, channel.noise_mw(bw, nf))
        noise = 10 ** ((-174.0 + 10 * math.log10(bw) + nf) / 10.0)
        want = 10 ** (rx / 10.0) / (sum(10 ** (p / 10.0) for p in ints) + noise)
        assert got == pytest.approx(want, rel=1e-9)


def test_shannon_rate():
    assert channel.shannon_rate(1.0, 20e6) == pytest.approx(20e6, rel=1e-12)
    assert channel.shannon_rate(0.0, 20e6) == 0.0
    assert channel.shannon_rate(15.0, 10e6) == pytest.approx(40e6, rel=1e-12)
    with pytest.raises(ValueError):
        channel.shannon_rate(-0.1, 20e6)


def test_dbm_to_mw_examples():
    assert channel.dbm_to_mw(0.0) == 1.0
    assert channel.dbm_to_mw(30.0) == pytest.approx(1000.0, rel=1e-12)
    assert channel.dbm_to_mw(-120.0) == pytest.approx(1e-12, rel=1e-12)
