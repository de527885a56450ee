"""Poisson packet arrivals, deadline-dropping queues, and bit accounting.

A slot's arrival counts are one `Generator.poisson` call, one count per UE in
id order. Below lambda = 10 numpy draws them with Knuth's multiplicative
method (TAOCP vol. 2, 3.4.1), a `next_double` uniform per factor, so the
counts are exact; from lambda = 10 it switches to Hoermann's PTRS rejection
sampler (1993).

The packets that reach one UE in one slot share size and arrival slot, so all
queues are one int64 matrix of remaining bits, a row per UE and a column per
arrival slot (a deadline cohort); draining a row oldest column first is FIFO
service. Integer bits keep arrived = delivered + dropped + queued exact.
Lockstep worlds share the slot clock, so their cohorts line up in one matrix
with a leading world axis (one world is a lockstep of one); each world draws
its arrivals from its own generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# keeps a slot's arrival bits (lambda * packet_bits plus a tail) far inside int64
MAX_LAMBDA = 700.0
# int64 bit counts: a UE reaches 2**63 bits only after 2**31 such packets
MAX_PACKET_BITS = 2**32


@dataclass
class TrafficConfig:
    lambda_pkts: float = 2.0  # mean packets per UE per slot; cell load ~0.9 Gbps
    packet_bits: int = 200_000  # sized so one UE's arrivals can saturate a serving link
    deadline_slots: int = 10

    def validate(self) -> None:
        if not 0 < self.packet_bits <= MAX_PACKET_BITS:
            raise ValueError(f"traffic.packet_bits must be in [1, {MAX_PACKET_BITS}]")
        if not 0 <= self.lambda_pkts <= MAX_LAMBDA:  # also rejects NaN
            raise ValueError(f"traffic.lambda must be in [0, {MAX_LAMBDA:g}]")
        if self.deadline_slots < 1:
            raise ValueError("traffic.deadline_slots must be at least 1")


class PacketQueue:
    """The queues of n_ues UEs in each of n_worlds lockstep worlds as cohorts
    of remaining bits, with per-UE bit counters, all (n_worlds, n_ues).
    Columns [0, n_cohorts) of the last axis are the live cohorts, oldest
    first, and every cell past them is 0; the matrix widens when all columns
    are live. A UE index is a (world, UE id) pair of ints or index arrays."""

    def __init__(self, n_worlds: int, n_ues: int):
        self.arrived_bits = np.zeros((n_worlds, n_ues), dtype=np.int64)
        self.delivered_bits = np.zeros_like(self.arrived_bits)
        self.dropped_bits = np.zeros_like(self.arrived_bits)
        self.cells = np.zeros(self.arrived_bits.shape + (1,), dtype=np.int64)
        self.arrival_slots = np.zeros(1, dtype=np.int64)
        self.n_cohorts = 0

    def push(self, slot: int, bits) -> None:
        """Add a cohort of `bits[w, i]` arriving at UE i of world w in `slot`;
        slots of successive cohorts must not decrease."""
        n = self.n_cohorts
        if n == len(self.arrival_slots):
            self.cells = np.concatenate((self.cells, np.zeros_like(self.cells)), axis=-1)
            self.arrival_slots = np.resize(self.arrival_slots, 2 * n)
        self.cells[..., n] = bits
        self.arrival_slots[n] = slot
        self.n_cohorts = n + 1
        self.arrived_bits += bits
        if self.arrived_bits.min() < 0:  # wrapped; every cell and counter is at most this
            raise OverflowError("a UE's arrived bits passed the int64 range")

    def queued_bits(self) -> np.ndarray:
        """(n_worlds, n_ues) bits waiting at every UE."""
        return self.cells.sum(axis=-1)

    def hol_age(self, current_slot: int) -> np.ndarray:
        """Age in slots of each UE's oldest waiting bit; 0 for an empty queue."""
        waiting = self.cells > 0
        oldest = self.arrival_slots[waiting.argmax(axis=-1)]
        return np.where(waiting.any(axis=-1), current_slot - oldest, 0)


def generate_arrivals(world, lam: float, packet_bits: int):
    """Draw this slot's Poisson arrivals, per world from its own generator and
    UE by UE in id order, into one new cohort of every world."""
    bits = np.array([rng.poisson(lam, world.cfg.n_ues) for rng in world.rng]) * packet_bits
    world.queue.push(world.slot, bits)


def drop_expired(queue: PacketQueue, current_slot: int, deadline_slots: int = 10) -> np.ndarray:
    """Drop the cohorts that have waited deadline_slots or more; return bits dropped per UE."""
    n = queue.n_cohorts
    k = int(queue.arrival_slots[:n].searchsorted(current_slot - deadline_slots, side="right"))
    dropped = queue.cells[..., :k].sum(axis=-1)
    queue.cells[..., : n - k] = queue.cells[..., k:n]
    queue.cells[..., n - k : n] = 0
    queue.arrival_slots[: n - k] = queue.arrival_slots[k:n]
    queue.n_cohorts = n - k
    queue.dropped_bits += dropped
    return dropped


def serve_bits(queue: PacketQueue, ue, capacity_bits):
    """Drain up to capacity_bits from each UE of `ue` (a (world, UE id) pair
    of ints, or of index arrays naming distinct UEs), oldest cohort first;
    return the bits each delivered. By one cumulative sum, a cohort keeps
    what it and the cohorts ahead of it hold beyond the capacity."""
    capacity = np.asarray(capacity_bits)
    if np.count_nonzero(capacity < 0):
        raise ValueError("capacity must be nonnegative")
    live = (*ue, slice(0, max(queue.n_cohorts, 1)))  # the cells past the live cohorts are 0
    cells = queue.cells[live]
    kept = cells.cumsum(axis=-1)
    delivered = np.minimum(kept[..., -1], capacity)
    kept -= capacity[..., None]
    queue.cells[live] = np.minimum(np.maximum(kept, 0, out=kept), cells, out=kept)
    queue.delivered_bits[ue] += delivered
    return delivered
