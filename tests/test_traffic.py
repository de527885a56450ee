"""Poisson arrivals, deadline drops, FIFO fluid service, conservation."""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ntnsim import traffic
from ntnsim.scenario import ScenarioConfig, init_world
from ntnsim.traffic import PacketQueue, TrafficConfig


def one_ue(*arrivals):
    """A one-UE queue of one world holding (arrival_slot, bits) cohorts."""
    q = PacketQueue(1, 1)
    for slot, bits in arrivals:
        q.push(slot, [[bits]])
    return q


def knuth_reference(rng, lam):
    """One scalar Knuth draw, a `rng.random()` call per uniform."""
    if lam == 0:
        return 0
    limit, k, p = math.exp(-lam), 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def generator(seed, buffered):
    """A PCG64 generator; `buffered` leaves a 32-bit half in its state."""
    rng = np.random.default_rng(seed)
    if buffered:
        rng.integers(0, 2**31 - 1, dtype=np.int32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@settings(max_examples=300, deadline=None)
@given(
    lam=st.one_of(
        st.sampled_from([0.0, 1e-300, 0.5, 2.0, math.nextafter(10.0, 0.0)]),
        st.floats(0.0, 10.0, exclude_max=True),
    ),
    n=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    buffered=st.booleans(),
)
def test_poisson_counts_match_scalar_knuth(lam, n, seed, buffered):
    # below lambda = 10 numpy's Generator.poisson is Knuth's multiplicative
    # method on next_double; a change of numpy's sampler fails here
    scalar = generator(seed, buffered)
    want = [knuth_reference(scalar, lam) for _ in range(n)]
    world = init_world(ScenarioConfig(n_ues=n), [0])
    world.rng = [generator(seed, buffered)]
    traffic.generate_arrivals(world, lam, packet_bits=1)
    assert world.queue.cells[0, :, 0].tolist() == want
    assert world.rng[0].bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("lam", [10.0, 50.0, 700.0])
def test_arrivals_fit_poisson_from_lambda_10(lam):
    # numpy's PTRS rejection sampler; chi-square against the exact pmf on
    # bins of at least 20 expected draws, both tails lumped into end bins
    n = 40_000
    world = init_world(ScenarioConfig(n_ues=n), [int(lam)])
    traffic.generate_arrivals(world, lam, packet_bits=1)
    draws = world.queue.cells[0, :, 0]
    edges, below = [0], 0.0  # bin starts; the pmf mass below the open bin
    for k in range(int(stats.poisson.ppf(1 - 1e-6, lam)) + 1):
        cdf = stats.poisson.cdf(k, lam)
        if (cdf - below) * n >= 20 and stats.poisson.sf(k, lam) * n >= 20:
            edges.append(k + 1)
            below = cdf
    observed = np.bincount(np.searchsorted(edges, draws, side="right") - 1, minlength=len(edges))
    cdf = stats.poisson.cdf(np.array(edges[1:]) - 1, lam)
    expected = np.diff(np.concatenate(([0.0], cdf, [1.0]))) * n
    assert expected.min() >= 20 and len(edges) > 10
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def arrival_counts(n, lam, rng):
    """One slot's arrival counts of a world of n UEs drawing from rng."""
    world = init_world(ScenarioConfig(n_ues=n), [0])
    world.rng = [rng]
    traffic.generate_arrivals(world, lam, packet_bits=1)
    return world.queue.cells[0, :, 0]


def test_sample_poisson_edge_cases():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert arrival_counts(3, 0.0, rng).tolist() == [0, 0, 0]
    assert rng.bit_generator.state == state  # nothing drawn
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            arrival_counts(3, lam, rng)
    assert rng.bit_generator.state == state


def test_sample_poisson_moments():
    draws = arrival_counts(100_000, 4.0, np.random.default_rng(42))
    assert abs(draws.mean() - 4.0) < 0.03
    assert abs(draws.var() - 4.0) < 0.15


def test_generate_arrivals_counts_and_determinism():
    cfg = ScenarioConfig(n_ues=20)
    world = init_world(cfg, [1])
    rng = np.random.default_rng()
    rng.bit_generator.state = world.rng[0].bit_generator.state
    for slot in range(200):
        world.slot = slot
        traffic.generate_arrivals(world, lam=4.0, packet_bits=50_000)
        # one draw per UE, in id order, all into this slot's cohort
        counts = [knuth_reference(rng, 4.0) for _ in range(20)]
        assert world.queue.arrival_slots[slot] == slot
        assert world.queue.cells[0, :, slot].tolist() == [50_000 * c for c in counts]
    assert world.rng[0].bit_generator.state == rng.bit_generator.state
    total_packets = int(world.queue.queued_bits().sum()) // 50_000
    mean, sigma = 20 * 4.0 * 200, (20 * 4.0 * 200) ** 0.5
    assert abs(total_packets - mean) < 3 * sigma
    assert np.array_equal(world.queue.arrived_bits, world.queue.queued_bits())

    again = init_world(cfg, [1])
    for slot in range(200):
        again.slot = slot
        traffic.generate_arrivals(again, lam=4.0, packet_bits=50_000)
    assert np.array_equal(world.queue.cells, again.queue.cells)


def test_generate_arrivals_lambda_zero():
    world = init_world(ScenarioConfig(n_ues=5), [0])
    traffic.generate_arrivals(world, lam=0.0, packet_bits=50_000)
    assert not world.queue.queued_bits().any()


def test_hol_age():
    q = one_ue()
    assert q.hol_age(12).tolist() == [[0]]
    q.push(5, [[100_000]])
    assert q.hol_age(12).tolist() == [[7]]


def test_push_refuses_to_wrap_int64():
    q = one_ue((0, 2**62))
    with pytest.raises(OverflowError):
        q.push(1, [[2**62]])


def test_drop_expired_boundary():
    q = one_ue((5, 100_000))
    assert traffic.drop_expired(q, current_slot=14, deadline_slots=10).tolist() == [[0]]
    assert q.n_cohorts == 1
    assert traffic.drop_expired(q, current_slot=15, deadline_slots=10).tolist() == [[100_000]]
    assert q.n_cohorts == 0
    assert q.dropped_bits.tolist() == [[100_000]]
    assert traffic.drop_expired(q, current_slot=16).tolist() == [[0]]


def test_drop_expired_partial_residual():
    q = one_ue((0, 100_000))
    traffic.serve_bits(q, (0, 0), 40_000)
    dropped = traffic.drop_expired(q, current_slot=10, deadline_slots=10)
    assert dropped.tolist() == [[60_000]]  # only the residual counts as dropped


def test_serve_bits_examples():
    q = one_ue((0, 100_000))
    assert traffic.serve_bits(q, (0, 0), 250_000) == 100_000
    assert q.queued_bits().tolist() == [[0]]

    q = one_ue(*[(0, 100_000)] * 3)
    assert traffic.serve_bits(q, (0, 0), 250_000) == 250_000
    assert q.cells[0, 0, : q.n_cohorts].tolist() == [0, 0, 50_000]

    before = q.queued_bits()
    assert traffic.serve_bits(q, (0, 0), 0) == 0
    assert np.array_equal(q.queued_bits(), before)
    with pytest.raises(ValueError):
        traffic.serve_bits(q, (0, 0), -1)


def test_serve_bits_is_fifo():
    q = one_ue((0, 10_000), (1, 10_000))
    traffic.serve_bits(q, (0, 0), 15_000)
    assert q.cells[0, 0, : q.n_cohorts].tolist() == [0, 5_000]
    assert q.hol_age(3).tolist() == [[2]]  # the slot-1 cohort is the head now


def test_conservation_under_random_operations():
    rng = np.random.default_rng(9)
    q = PacketQueue(1, 3)
    slot = 0
    for _ in range(5_000):
        op = rng.integers(0, 3)
        if op == 0:
            q.push(slot, rng.integers(0, 200_000, size=(1, 3)))
        elif op == 1:
            traffic.serve_bits(q, (0, int(rng.integers(0, 3))), int(rng.integers(0, 300_000)))
        else:
            slot += int(rng.integers(0, 4))
            traffic.drop_expired(q, slot, deadline_slots=10)
        assert np.array_equal(q.arrived_bits, q.delivered_bits + q.dropped_bits + q.queued_bits())


@dataclass
class Packet:
    size_bits: int
    arrival_slot: int
    remaining_bits: int


class FifoQueue:
    """One UE's queue as a FIFO of packets with fluid head-of-line service:
    the reference the cohort matrix must match."""

    def __init__(self):
        self.packets: deque[Packet] = deque()
        self.arrived_bits = self.delivered_bits = self.dropped_bits = 0

    def push(self, packet: Packet):
        self.packets.append(packet)
        self.arrived_bits += packet.size_bits

    def queued_bits(self) -> int:
        return sum(p.remaining_bits for p in self.packets)

    def hol_age(self, current_slot: int) -> int:
        return current_slot - self.packets[0].arrival_slot if self.packets else 0

    def drop_expired(self, current_slot: int, deadline_slots: int) -> int:
        dropped = 0
        while self.packets and current_slot - self.packets[0].arrival_slot >= deadline_slots:
            dropped += self.packets.popleft().remaining_bits
        self.dropped_bits += dropped
        return dropped

    def serve(self, capacity_bits: int) -> int:
        delivered = 0
        while self.packets and delivered < capacity_bits:
            head = self.packets[0]
            take = min(head.remaining_bits, capacity_bits - delivered)
            head.remaining_bits -= take
            delivered += take
            if head.remaining_bits == 0:
                self.packets.popleft()
        self.delivered_bits += delivered
        return delivered


@st.composite
def queue_histories(draw):
    """UE count, deadline, and a run of arrivals (packet count and size per
    UE), services (UE, capacity) and slot advances followed by expiry."""
    n_ues = draw(st.integers(1, 4))
    deadline = draw(st.integers(1, 6))
    per_ue = st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 1_000)), min_size=n_ues, max_size=n_ues
    )
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("arrive"), per_ue),
            st.tuples(st.just("serve"), st.integers(0, n_ues - 1), st.integers(0, 4_000)),
            st.tuples(st.just("advance"), st.integers(0, 3)),
        ),
        max_size=80,
    ))
    return n_ues, deadline, ops


@settings(max_examples=300, deadline=None)
@given(queue_histories())
def test_cohort_queue_matches_packet_fifo(history):
    n_ues, deadline, ops = history
    queue = PacketQueue(1, n_ues)
    fifos = [FifoQueue() for _ in range(n_ues)]
    slot = 0
    for op in ops:
        if op[0] == "arrive":
            for fifo, (count, size) in zip(fifos, op[1]):
                for _ in range(count):
                    fifo.push(Packet(size, slot, size))
            queue.push(slot, [[count * size for count, size in op[1]]])
        elif op[0] == "serve":
            _, ue, capacity = op
            assert traffic.serve_bits(queue, (0, ue), capacity) == fifos[ue].serve(capacity)
        else:
            slot += op[1]
            dropped = traffic.drop_expired(queue, slot, deadline)
            assert dropped.tolist() == [[f.drop_expired(slot, deadline) for f in fifos]]
        assert queue.queued_bits().tolist() == [[f.queued_bits() for f in fifos]]
        assert queue.hol_age(slot).tolist() == [[f.hol_age(slot) for f in fifos]]
        for counter in ("arrived_bits", "delivered_bits", "dropped_bits"):
            assert getattr(queue, counter).tolist() == [[getattr(f, counter) for f in fifos]]
    # the UE-subset queries read the same rows
    ids = list(range(n_ues))[::-1]
    assert queue.queued_bits((0, ids)).tolist() == [fifos[i].queued_bits() for i in ids]
    assert queue.hol_age(slot, (0, ids)).tolist() == [fifos[i].hol_age(slot) for i in ids]


def test_traffic_config_defaults():
    cfg = TrafficConfig()
    assert cfg.lambda_pkts == 2.0
    assert cfg.deadline_slots == 10


@pytest.mark.parametrize(
    "kwargs",
    [
        # NaN fails every comparison, and the sampler never stops on it
        {"lambda_pkts": float("nan")},
        {"lambda_pkts": float("inf")},
        {"lambda_pkts": -0.5},
        {"lambda_pkts": 700.5},
        {"packet_bits": 0},
        {"deadline_slots": 0},
    ],
)
def test_traffic_config_rejects(kwargs):
    with pytest.raises(ValueError):
        TrafficConfig(**kwargs).validate()
    TrafficConfig(lambda_pkts=700.0).validate()
    TrafficConfig(lambda_pkts=0.0).validate()
