"""Link budgets: geometry, LoS probability, path loss, SINR, Shannon rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0


@dataclass
class ChannelConfig:
    eta_los_db: float = 1.0
    eta_nlos_db: float = 2.0  # light clutter: rates are geometry-dominated
    los_a: float = 9.61  # urban sigmoid parameters
    los_b: float = 0.16
    backhaul_carrier_hz: float = 3.5e9
    backhaul_bandwidth_hz: float = 50e6
    # Directional antennas on the donor-node air-to-air link, per end. Sized
    # so the backhaul moderately caps a node at the initial placement and
    # loosens as the node closes on the donor: node positioning then trades
    # backhaul headroom against access reach.
    backhaul_gain_dbi: float = 7.5
    ue_noise_figure_db: float = 7.0
    noise_density_dbm_hz: float = -174.0

    def validate(self) -> None:
        # a < 0 takes the LoS probability out of [0, 1]; b < 0 makes it fall with elevation
        if self.los_a < 0 or self.los_b < 0:
            raise ValueError("LoS sigmoid parameters los_a and los_b must be non-negative")
        if self.backhaul_carrier_hz <= 0 or self.backhaul_bandwidth_hz <= 0:
            raise ValueError("backhaul carrier and bandwidth must be positive")


@dataclass
class LinkBudget:
    distance_m: float
    elevation_deg: float
    los: bool
    path_loss_db: float
    rx_power_dbm: float
    sinr_linear: float
    rate_bps: float


def distance3d(a, b) -> float:
    return math.dist(tuple(a), tuple(b))


def elevation_deg(low, high) -> float:
    """Elevation angle in degrees of `high` as seen from `low` (0 = horizon)."""
    dx = high[0] - low[0]
    dy = high[1] - low[1]
    dz = high[2] - low[2]
    horiz = math.hypot(dx, dy)
    return math.degrees(math.atan2(dz, horiz))


def los_probability(elevation: float, a: float = 9.61, b: float = 0.16) -> float:
    """Sigmoid LoS probability, monotone in elevation, ~1 at zenith."""
    return 1.0 / (1.0 + a * math.exp(-b * (elevation - a)))


def path_loss_db(
    carrier_hz: float,
    distance_m: float,
    los: bool,
    eta_los_db: float = 1.0,
    eta_nlos_db: float = 20.0,
) -> float:
    """Free-space path loss plus an additive excess loss for LoS or NLoS."""
    d = max(distance_m, 1.0)
    fspl = 20.0 * math.log10(4.0 * math.pi * d * carrier_hz / SPEED_OF_LIGHT)
    return fspl + (eta_los_db if los else eta_nlos_db)


def expected_path_loss_db(
    carrier_hz: float, distance_m: float, elevation: float, cfg: ChannelConfig
) -> float:
    """Fading-free budget: excess loss replaced by its LoS-probability average."""
    p = los_probability(elevation, cfg.los_a, cfg.los_b)
    d = max(distance_m, 1.0)
    fspl = 20.0 * math.log10(4.0 * math.pi * d * carrier_hz / SPEED_OF_LIGHT)
    return fspl + p * cfg.eta_los_db + (1.0 - p) * cfg.eta_nlos_db


def rx_power_dbm(tx_power_dbm: float, tx_gain_dbi: float, rx_gain_dbi: float, pl_db: float) -> float:
    return tx_power_dbm + tx_gain_dbi + rx_gain_dbi - pl_db


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    return 10.0 * math.log10(mw)


def noise_power_dbm(
    bandwidth_hz: float, noise_figure_db: float, noise_density_dbm_hz: float = -174.0
) -> float:
    return noise_density_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def sinr(
    serving_rx_dbm: float,
    interferer_rx_dbm,
    bandwidth_hz: float,
    noise_figure_db: float,
    noise_density_dbm_hz: float = -174.0,
) -> float:
    """Linear SINR; the sum in the denominator is computed in milliwatts."""
    noise_mw = dbm_to_mw(noise_power_dbm(bandwidth_hz, noise_figure_db, noise_density_dbm_hz))
    interference_mw = sum(dbm_to_mw(p) for p in interferer_rx_dbm)
    return dbm_to_mw(serving_rx_dbm) / (interference_mw + noise_mw)


def shannon_rate(sinr_linear: float, bandwidth_hz: float) -> float:
    """Bits per second; zero SINR or zero bandwidth yields zero."""
    if sinr_linear < 0:
        raise ValueError("SINR must be nonnegative")
    return bandwidth_hz * math.log2(1.0 + sinr_linear)
