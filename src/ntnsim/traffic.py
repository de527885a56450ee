"""Poisson packet arrivals, deadline-dropping queues, and bit accounting.

All bit quantities are integers so that the conservation identity
arrived = delivered + dropped + queued holds exactly, with zero tolerance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

# exp(-lambda) in Knuth's sampler leaves the normal float range near 708, so
# larger means come out biased low (lambda = 800 draws a mean of about 745)
MAX_EXACT_LAMBDA = 700.0


@dataclass
class TrafficConfig:
    lambda_pkts: float = 2.0  # mean packets per UE per slot; cell load ~0.9 Gbps
    packet_bits: int = 200_000  # sized so one UE's arrivals can saturate a serving link
    deadline_slots: int = 10

    def validate(self) -> None:
        if self.lambda_pkts < 0 or self.packet_bits <= 0:
            raise ValueError("traffic.lambda must be non-negative and packet_bits positive")
        if self.lambda_pkts > MAX_EXACT_LAMBDA:
            raise ValueError(
                f"traffic.lambda must be at most {MAX_EXACT_LAMBDA:g}: above it the Poisson "
                "sampler is no longer exact"
            )
        if self.deadline_slots < 1:
            raise ValueError("traffic.deadline_slots must be at least 1")


@dataclass
class Packet:
    ue_id: int
    size_bits: int
    arrival_slot: int
    remaining_bits: int


class PacketQueue:
    """FIFO queue of packets for one UE, with cumulative bit counters."""

    def __init__(self):
        self.packets: deque[Packet] = deque()
        self.arrived_bits = 0
        self.delivered_bits = 0
        self.dropped_bits = 0

    def push(self, packet: Packet):
        self.packets.append(packet)
        self.arrived_bits += packet.size_bits

    def queued_bits(self) -> int:
        return sum(p.remaining_bits for p in self.packets)

    def hol_age(self, current_slot: int) -> int:
        """Age in slots of the head-of-line packet; 0 when empty."""
        if not self.packets:
            return 0
        return current_slot - self.packets[0].arrival_slot


def sample_poisson(rng, lam: float) -> int:
    """Exact Poisson sampler (Knuth's multiplicative method)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        return 0
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def generate_arrivals(world, lam: float, packet_bits: int):
    """Append this slot's Poisson arrivals to every UE queue, in UE-id order."""
    for ue_id, queue in world.queues.items():
        for _ in range(sample_poisson(world.rng, lam)):
            queue.push(
                Packet(
                    ue_id=ue_id,
                    size_bits=packet_bits,
                    arrival_slot=world.slot,
                    remaining_bits=packet_bits,
                )
            )
    return world


def drop_expired(queue: PacketQueue, current_slot: int, deadline_slots: int = 10) -> int:
    """Remove packets that have waited deadline_slots or more; return dropped bits."""
    dropped = 0
    packets = queue.packets
    while packets and current_slot - packets[0].arrival_slot >= deadline_slots:
        dropped += packets.popleft().remaining_bits
    queue.dropped_bits += dropped
    return dropped


def serve_bits(queue: PacketQueue, capacity_bits: int) -> int:
    """Drain up to capacity_bits head-of-line first; partial packets keep residuals."""
    if capacity_bits < 0:
        raise ValueError("capacity must be nonnegative")
    delivered = 0
    packets = queue.packets
    while packets and delivered < capacity_bits:
        head = packets[0]
        take = min(head.remaining_bits, capacity_bits - delivered)
        head.remaining_bits -= take
        delivered += take
        if head.remaining_bits == 0:
            packets.popleft()
    queue.delivered_bits += delivered
    return delivered


@dataclass
class SlotMetrics:
    """Per-slot accounting of delivered and dropped bits."""

    slot: int
    delivered_by_uav: dict[int, int] = field(default_factory=dict)
    delivered_by_ue: dict[int, int] = field(default_factory=dict)
    dropped_by_ue: dict[int, int] = field(default_factory=dict)

    @property
    def delivered_bits(self) -> int:
        return sum(self.delivered_by_uav.values())
