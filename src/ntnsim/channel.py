"""Link budgets: geometry, LoS probability, path loss, SINR, Shannon rate.

`link_geometry` is the one budget pass of a slot. Association, access SINR
and the backhaul all read its matrices through `path_loss_db`, which weights
the LoS and NLoS excess losses by a LoS probability: the sigmoid value for
the fading-free budget, a drawn 1/0 state for one slot's link, or 1 for the
always-LoS air-to-air backhaul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


class LinkGeometry(NamedTuple):
    """Transmitter x receiver matrices (row = transmitter, column = receiver),
    behind any leading dimensions of the positions."""

    distance_m: np.ndarray  # 3-D, unclamped
    elevation_deg: np.ndarray  # of the transmitter above the receiver's horizon
    p_los: np.ndarray
    fspl_db: np.ndarray  # free-space loss; distances under 1 m count as 1 m


def los_probability(elevation_deg, a: float, b: float):
    """Sigmoid LoS probability, monotone in elevation, ~1 at zenith."""
    return 1.0 / (1.0 + a * np.exp(-b * (elevation_deg - a)))


def link_geometry(
    tx_xyz: np.ndarray, rx_xyz: np.ndarray, carrier_hz: np.ndarray, cfg: ChannelConfig
) -> LinkGeometry:
    """Budget matrices from transmitters at tx_xyz (..., n_tx, 3), on
    carriers carrier_hz (n_tx,), to receivers at rx_xyz (..., n_rx, 3); the
    leading dimensions (lockstep worlds) carry through to every matrix."""
    rx = rx_xyz[..., None, :, :]
    horiz = np.hypot(rx[..., 0] - tx_xyz[..., 0:1], rx[..., 1] - tx_xyz[..., 1:2])
    height = tx_xyz[..., 2:3] - rx[..., 2]
    distance = np.hypot(horiz, height)
    elevation = np.degrees(np.arctan2(height, horiz))
    fspl = 20.0 * np.log10(
        4.0 * math.pi / SPEED_OF_LIGHT * np.maximum(distance, 1.0) * carrier_hz[:, None]
    )
    return LinkGeometry(distance, elevation, los_probability(elevation, cfg.los_a, cfg.los_b), fspl)


def path_loss_db(fspl_db, p_los, cfg: ChannelConfig):
    """Free-space loss plus the LoS and NLoS excess losses weighted by p_los."""
    return fspl_db + p_los * cfg.eta_los_db + (1.0 - p_los) * cfg.eta_nlos_db


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def noise_power_dbm(
    bandwidth_hz: float, noise_figure_db: float, noise_density_dbm_hz: float = -174.0
) -> float:
    return noise_density_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def noise_mw(
    bandwidth_hz: float, noise_figure_db: float, noise_density_dbm_hz: float = -174.0
) -> float:
    return dbm_to_mw(noise_power_dbm(bandwidth_hz, noise_figure_db, noise_density_dbm_hz))


def sinr(serving_rx_dbm: float, interferer_rx_dbm, noise_mw: float) -> float:
    """Linear SINR; the sum in the denominator is computed in milliwatts."""
    interference_mw = sum(dbm_to_mw(p) for p in interferer_rx_dbm)
    return dbm_to_mw(serving_rx_dbm) / (interference_mw + noise_mw)


def shannon_rate(sinr_linear: float, bandwidth_hz: float) -> float:
    """Bits per second; zero SINR or zero bandwidth yields zero."""
    if sinr_linear < 0:
        raise ValueError("SINR must be nonnegative")
    return bandwidth_hz * math.log2(1.0 + sinr_linear)
