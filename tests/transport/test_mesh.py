"""PeerMesh tests: two meshes talking over real loopback sockets.

Each test spins up real asyncio TCP endpoints inside ``asyncio.run``,
so delivery, channel separation, heartbeats, graceful Bye vs. crash
death, and outbox backpressure are exercised against actual sockets —
no pytest-asyncio dependency, no mocks of the transport itself.
"""

import asyncio
import errno
import os
import random
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import (
    GradientMessage,
    LossShareMessage,
    WeightMessage,
)
from repro.obs.metrics import MetricsRegistry
from repro.transport.codec import (
    FRAME_HEADER,
    MAGIC,
    T_WEIGHTS,
    VERSION,
    Hello,
    encode_message,
)
from repro.transport.mesh import (
    _IOV_MAX,
    CHANNEL_CONTROL,
    CHANNEL_DATA,
    PeerMesh,
    TransportConfig,
    _send_views,
)

# Fast-failure config so death-detection tests finish in well under a
# second instead of the production multi-second retry budget.
FAST = TransportConfig(
    connect_timeout_s=1.0,
    send_timeout_s=1.0,
    retry_base_s=0.01,
    retry_max_s=0.05,
    retry_attempts=3,
    heartbeat_interval_s=0.05,
)


class Endpoint:
    """One mesh plus capture lists for everything it receives."""

    def __init__(self, worker_id: int, config=FAST, **kwargs):
        self.received = []
        self.dead = []
        self.heartbeats = []
        self.errors = []
        self.mesh = PeerMesh(
            worker_id,
            on_message=lambda peer, ch, msg: self.received.append((peer, ch, msg)),
            on_peer_dead=self.dead.append,
            on_heartbeat=self.heartbeats.append,
            on_error=self.errors.append,
            config=config,
            **kwargs,
        )


async def _start_pair(a: Endpoint, b: Endpoint):
    ports = {0: ("127.0.0.1", await a.mesh.start()),
             1: ("127.0.0.1", await b.mesh.start())}
    await asyncio.gather(a.mesh.connect(ports), b.mesh.connect(ports))


async def _wait_for(predicate, timeout_s: float = 5.0):
    deadline = asyncio.get_event_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_event_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


def _grad(sender: int, iteration: int) -> GradientMessage:
    return GradientMessage(
        sender=sender,
        iteration=iteration,
        lbs=32,
        sparse={"w": (np.arange(4, dtype=np.int64),
                      np.full(4, float(iteration), dtype=np.float32))},
    )


class TestDelivery:
    def test_messages_arrive_on_their_channels(self):
        async def run():
            a, b = Endpoint(0), Endpoint(1)
            try:
                await _start_pair(a, b)
                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 3))
                assert a.mesh.send(
                    1, CHANNEL_CONTROL,
                    LossShareMessage(sender=0, iteration=3, avg_loss=1.5),
                )
                await _wait_for(lambda: len(b.received) == 2)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            by_channel = {ch: msg for _, ch, msg in b.received}
            assert isinstance(by_channel[CHANNEL_DATA], GradientMessage)
            assert isinstance(by_channel[CHANNEL_CONTROL], LossShareMessage)
            assert all(peer == 0 for peer, _, _ in b.received)
            assert not a.errors and not b.errors

        asyncio.run(run())

    def test_fifo_order_per_link(self):
        async def run():
            a, b = Endpoint(0), Endpoint(1)
            try:
                await _start_pair(a, b)
                for i in range(20):
                    assert a.mesh.send(1, CHANNEL_DATA, _grad(0, i))
                await _wait_for(lambda: len(b.received) == 20)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert [msg.iteration for _, _, msg in b.received] == list(range(20))

        asyncio.run(run())

    def test_heartbeats_carry_progress(self):
        async def run():
            a = Endpoint(0, progress_fn=lambda: 1234, now_fn=lambda: 9.0)
            b = Endpoint(1)
            try:
                await _start_pair(a, b)
                await _wait_for(lambda: len(b.heartbeats) >= 2)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            hb = b.heartbeats[0]
            assert (hb.sender, hb.samples_drawn, hb.time) == (0, 1234, 9.0)

        asyncio.run(run())


class TestDeath:
    def test_graceful_bye_suppresses_dead_callback(self):
        async def run():
            a, b = Endpoint(0), Endpoint(1)
            await _start_pair(a, b)
            await a.mesh.close(bye=True)

            # B keeps trying to talk to the departed peer until the
            # retry budget declares it dead — gracefully, thanks to Bye.
            async def until_dead():
                while not b.mesh.is_dead(0):
                    b.mesh.send(0, CHANNEL_CONTROL,
                                LossShareMessage(sender=1, iteration=0,
                                                 avg_loss=0.0))
                    await asyncio.sleep(0.02)

            await asyncio.wait_for(until_dead(), 10.0)
            await b.mesh.close()
            assert b.dead == []  # Bye means: not a failure
            assert 0 not in b.mesh.live_peers()

        asyncio.run(run())

    def test_bye_abandons_the_departed_peers_outbox(self):
        """Frames for a peer that said Bye are dropped and counted, not
        redialled until close()'s drain timeout runs out."""
        slow_retries = TransportConfig(
            connect_timeout_s=1.0, send_timeout_s=1.0, retry_base_s=0.5,
            retry_max_s=1.0, retry_attempts=6, heartbeat_interval_s=0.05,
        )

        async def run():
            registry = MetricsRegistry()
            a = Endpoint(0, config=slow_retries, metrics=registry)
            b = Endpoint(1)
            await _start_pair(a, b)
            await b.mesh.close(bye=True)
            await _wait_for(lambda: 1 in a.mesh._graceful)
            for i in range(5):
                a.mesh.send(1, CHANNEL_DATA, _grad(0, i))
                await asyncio.sleep(0.01)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await a.mesh.close(drain_timeout_s=2.0)
            assert loop.time() - t0 < 0.5
            dropped = registry.get("transport_dropped_total")
            assert dropped.value(0, 1, "data") == 5
            assert a.dead == [] and a.errors == []

        asyncio.run(run())

    def test_crash_fires_dead_callback_after_retries(self):
        async def run():
            a, b = Endpoint(0), Endpoint(1)
            await _start_pair(a, b)
            # Simulated crash: A vanishes without announcing Bye.
            await a.mesh.close(bye=False)

            async def until_dead():
                while not b.mesh.is_dead(0):
                    b.mesh.send(0, CHANNEL_DATA, _grad(1, 0))
                    await asyncio.sleep(0.02)

            await asyncio.wait_for(until_dead(), 10.0)
            await b.mesh.close()
            assert b.dead == [0]
            assert b.mesh.live_peers() == []

        asyncio.run(run())

    def test_send_to_dead_or_unknown_peer_returns_false(self):
        async def run():
            a = Endpoint(0)
            await a.mesh.start()
            # Never connected: unknown link.
            assert not a.mesh.send(7, CHANNEL_DATA, _grad(0, 0))
            await a.mesh.close()

        asyncio.run(run())


class TestBackpressure:
    def test_full_outbox_drops_and_counts(self):
        async def run():
            registry = MetricsRegistry()
            cfg = TransportConfig(
                connect_timeout_s=1.0,
                send_timeout_s=5.0,
                retry_base_s=0.01,
                retry_max_s=0.05,
                retry_attempts=3,
                heartbeat_interval_s=5.0,
                outbox_capacity=1,
            )
            # A link throttled to ~1 B/s: the first big frame exhausts
            # the burst and parks the sender, so the outbox backs up.
            big = GradientMessage(
                sender=0, iteration=0, lbs=32,
                dense={"w": np.ones(8192, dtype=np.float32)},
            )
            a = Endpoint(0, config=cfg, metrics=registry,
                         rate_fn=lambda dst: 1.0)
            b = Endpoint(1, config=cfg)
            await _start_pair(a, b)
            assert a.mesh.send(1, CHANNEL_DATA, big)
            await asyncio.sleep(0.1)  # sender picks up frame 1, throttles
            assert a.mesh.send(1, CHANNEL_DATA, big)  # queued (capacity 1)
            assert not a.mesh.send(1, CHANNEL_DATA, big)  # dropped
            dropped = registry.get("transport_dropped_total")
            assert dropped.value(0, 1, "data") == 1.0
            await asyncio.gather(
                a.mesh.close(bye=False, drain_timeout_s=0.1),
                b.mesh.close(bye=False, drain_timeout_s=0.1),
            )

        asyncio.run(run())


class TestRevive:
    def test_dead_peer_comes_back_at_a_new_address(self):
        """The supervisor's rejoin path: B crashes, A declares it dead,
        then ``revive`` points A at the respawned B's new port and
        traffic flows again."""
        async def run():
            registry = MetricsRegistry()
            a, b = Endpoint(0, metrics=registry), Endpoint(1)
            await _start_pair(a, b)
            await b.mesh.close(bye=False)

            async def until_dead():
                while not a.mesh.is_dead(1):
                    a.mesh.send(1, CHANNEL_DATA, _grad(0, 0))
                    await asyncio.sleep(0.02)

            await asyncio.wait_for(until_dead(), 10.0)
            assert a.mesh.live_peers() == []

            b2 = Endpoint(1)
            port = await b2.mesh.start()
            a.mesh.revive(1, ("127.0.0.1", port))
            assert not a.mesh.is_dead(1)
            assert a.mesh.live_peers() == [1]
            assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 42))
            await _wait_for(lambda: len(b2.received) == 1)
            await asyncio.gather(a.mesh.close(), b2.mesh.close())
            peer, ch, msg = b2.received[0]
            assert (peer, ch, msg.iteration) == (0, CHANNEL_DATA, 42)
            assert registry.get("transport_revive_total").value(0, 1) == 1
            assert a.dead == [1]  # the real death was still surfaced once

        asyncio.run(run())

    def test_revive_before_death_declared_supersedes_links(self):
        """A fast supervisor can revive a peer while the old links are
        still mid-retry; the stale retry loops must unwind without
        declaring the revived peer dead."""
        async def run():
            a, b = Endpoint(0), Endpoint(1)
            await _start_pair(a, b)
            await b.mesh.close(bye=False)
            # A send lands on the broken link and starts the retry loop.
            a.mesh.send(1, CHANNEL_DATA, _grad(0, 0))
            await asyncio.sleep(0.03)

            b2 = Endpoint(1)
            port = await b2.mesh.start()
            a.mesh.revive(1, ("127.0.0.1", port))
            assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 7))
            await _wait_for(lambda: len(b2.received) == 1)
            # Give the superseded retry loop time to unwind, then make
            # sure it never flipped the revived peer back to dead.
            await asyncio.sleep(0.3)
            assert not a.mesh.is_dead(1)
            assert a.dead == []
            await asyncio.gather(a.mesh.close(), b2.mesh.close())

        asyncio.run(run())


class TestTransientDisconnect:
    def test_severed_tcp_link_redelivers_in_order(self):
        """Abort the data channel's TCP connection under the sender's
        feet while it is idle: the next burst must reconnect and arrive
        complete, exactly once, in FIFO order."""
        async def run():
            a, b = Endpoint(0), Endpoint(1)
            try:
                await _start_pair(a, b)
                # Warm the link so a socket exists, then sever it.
                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 0))
                await _wait_for(lambda: len(b.received) == 1)
                link = a.mesh._out[(1, CHANNEL_DATA)]
                link.sock.shutdown(socket.SHUT_RDWR)
                for i in range(1, 16):
                    assert a.mesh.send(1, CHANNEL_DATA, _grad(0, i))
                await _wait_for(lambda: len(b.received) == 16)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert [m.iteration for _, _, m in b.received] == list(range(16))
            assert a.dead == [] and b.dead == []

        asyncio.run(run())


class TestTelemetry:
    """Per-link instrumentation recorded by the mesh into obs.metrics."""

    def test_frame_histograms_and_high_water(self):
        async def run():
            registry = MetricsRegistry()
            a, b = Endpoint(0, metrics=registry), Endpoint(1)
            try:
                await _start_pair(a, b)
                # A burst with no awaits in between: the sender task
                # cannot drain until we yield, so the outbox backs up
                # and the high-water mark must register it.
                for i in range(12):
                    assert a.mesh.send(1, CHANNEL_DATA, _grad(0, i))
                await _wait_for(lambda: len(b.received) == 12)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            lat = registry.get("transport_frame_latency_seconds")
            size = registry.get("transport_frame_bytes")
            assert lat.count(0, 1, "data") == 12
            assert size.count(0, 1, "data") == 12
            # wire accounting agrees between histogram and counter views
            sent = registry.get("transport_send_bytes_total")
            assert size.sum(0, 1, "data") == sent.value(0, 1, "data") > 0
            assert registry.get("transport_send_msgs_total").value(
                0, 1, "data"
            ) == 12
            high = registry.get("transport_outbox_high_water")
            assert high.value(0, 1, "data") >= 1

        asyncio.run(run())

    def test_reconnect_counted_separately_from_connects(self):
        """Severing an established link and sending again must bump
        ``transport_reconnect_total``, not just the connect counter."""
        async def run():
            registry = MetricsRegistry()
            a, b = Endpoint(0, metrics=registry), Endpoint(1)
            try:
                await _start_pair(a, b)
                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 0))
                await _wait_for(lambda: len(b.received) == 1)
                reconnects = registry.get("transport_reconnect_total")
                assert reconnects.value(0, 1) == 0
                link = a.mesh._out[(1, CHANNEL_DATA)]
                link.sock.shutdown(socket.SHUT_RDWR)
                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 1))
                await _wait_for(lambda: len(b.received) == 2)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert reconnects.value(0, 1) >= 1
            connects = registry.get("transport_connect_total")
            assert connects.value(0, 1) > reconnects.value(0, 1)

        asyncio.run(run())

    def test_shaper_stall_seconds_accumulate(self):
        """Frames bigger than the token-bucket burst park the sender;
        the slept wall time lands in ``transport_stall_seconds_total``."""
        async def run():
            registry = MetricsRegistry()
            # 100 kB/s -> 10 kB burst; two 16 kB frames must throttle.
            a = Endpoint(0, metrics=registry, rate_fn=lambda dst: 100_000.0)
            b = Endpoint(1)
            big = GradientMessage(
                sender=0, iteration=0, lbs=32,
                dense={"w": np.ones(4096, dtype=np.float32)},
            )
            try:
                await _start_pair(a, b)
                assert a.mesh.send(1, CHANNEL_DATA, big)
                assert a.mesh.send(1, CHANNEL_DATA, big)
                await _wait_for(lambda: len(b.received) == 2)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            stall = registry.get("transport_stall_seconds_total")
            assert stall.value(0, 1) > 0.0

        asyncio.run(run())

    def test_heartbeat_rtt_gauge(self):
        """A heartbeat round-trip over loopback lands a positive RTT
        sample on the sender's (worker, peer) gauge."""
        async def run():
            registry = MetricsRegistry()
            a = Endpoint(0, metrics=registry, progress_fn=lambda: 0)
            b = Endpoint(1)
            rtt = registry.gauge(
                "transport_heartbeat_rtt_seconds",
                labels=("worker", "peer"),
            )
            try:
                await _start_pair(a, b)
                await _wait_for(lambda: rtt.value(0, 1) > 0.0)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert rtt.value(0, 1) < 1.0  # loopback, not a timeout echo
            assert registry.get("transport_heartbeat_total").value(0) >= 1

        asyncio.run(run())


class TestConfigValidation:
    def test_bad_timeouts_rejected(self):
        with pytest.raises(ValueError):
            TransportConfig(send_timeout_s=0.0)
        with pytest.raises(ValueError):
            TransportConfig(retry_attempts=0)
        with pytest.raises(ValueError):
            TransportConfig(outbox_capacity=0)

    def test_new_fields_validated(self):
        with pytest.raises(ValueError):
            TransportConfig(coalesce_max_bytes=0)
        with pytest.raises(ValueError):
            TransportConfig(shm_min_mbps=-1.0)
        with pytest.raises(ValueError):
            TransportConfig(shm_ring_bytes=100)


class TestCoalescing:
    def test_backlogged_frames_batch_into_one_write(self):
        """Hold the FIFO head back with a send delay; everything
        queued behind it must go out as one coalesced write."""
        async def run():
            registry = MetricsRegistry()
            a = Endpoint(0, metrics=registry)
            b = Endpoint(1)
            try:
                await _start_pair(a, b)
                for i in range(10):
                    delay = 0.15 if i == 0 else 0.0
                    assert a.mesh.send(1, CHANNEL_DATA, _grad(0, i), delay_s=delay)
                await _wait_for(lambda: len(b.received) == 10)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert [m.iteration for _, _, m in b.received] == list(range(10))
            coalesced = registry.get("transport_coalesced_frames_total")
            assert coalesced.value(0, 1, "data") == 10.0
            # Telemetry parity holds under batching: every frame still
            # observed individually, bytes counted exactly once.
            sent = registry.get("transport_send_msgs_total").value(0, 1, "data")
            lat = registry.get("transport_frame_latency_seconds")
            assert lat.count(0, 1, "data") == sent == 10
            size = registry.get("transport_frame_bytes")
            assert size.sum(0, 1, "data") == registry.get(
                "transport_send_bytes_total"
            ).value(0, 1, "data")

        asyncio.run(run())

    def test_throttle_charged_once_per_batch(self):
        """A shaped link pays for a coalesced batch in one throttle()
        call: the stall counter reflects the batch's true sleep."""
        async def run():
            registry = MetricsRegistry()
            # 100 kB/s, burst 10 kB: a ~40 kB burst must stall ~0.3 s.
            a = Endpoint(0, metrics=registry, rate_fn=lambda dst: 100_000.0)
            b = Endpoint(1)
            try:
                await _start_pair(a, b)
                big = WeightMessage(
                    sender=0, iteration=0,
                    weights={"w": np.ones(2048, dtype=np.float32)},
                )
                for _ in range(5):
                    assert a.mesh.send(1, CHANNEL_DATA, big)
                await _wait_for(lambda: len(b.received) == 5, timeout_s=10.0)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            stall = registry.get("transport_stall_seconds_total").value(0, 1)
            assert stall > 0.1

        asyncio.run(run())


class TestCloseDrain:
    def test_close_flushes_queued_frames_without_polling(self):
        """Queued frames on a shaped link are delivered during close's
        drain phase, and close returns as soon as the flush lands."""
        async def run():
            # 200 kB/s, burst 20 kB: 10 x 4 kB queues ~0.1 s of work.
            a = Endpoint(0, rate_fn=lambda dst: 200_000.0)
            b = Endpoint(1)
            await _start_pair(a, b)
            msg = WeightMessage(
                sender=0, iteration=0,
                weights={"w": np.ones(1024, dtype=np.float32)},
            )
            for _ in range(10):
                assert a.mesh.send(1, CHANNEL_DATA, msg)
            t0 = asyncio.get_event_loop().time()
            await a.mesh.close(drain_timeout_s=5.0)
            elapsed = asyncio.get_event_loop().time() - t0
            await _wait_for(lambda: len(b.received) == 10)
            await b.mesh.close()
            assert elapsed < 2.0  # flushed and returned, not timed out
            assert not a.dead and not b.dead

        asyncio.run(run())


class TestShmLane:
    def test_data_channel_rides_the_ring(self):
        """Symmetric shm membership: data frames cross the ring in both
        directions, control stays on TCP, and closing unlinks segments."""
        async def run():
            from repro.transport.shm import ring_name, sweep_ring

            token = f"mesh{id(asyncio.get_event_loop()) & 0xFFFF:x}"
            registry = MetricsRegistry()
            a = Endpoint(0, metrics=registry, shm_out={1}, shm_in={1},
                         shm_token=token)
            b = Endpoint(1, shm_out={0}, shm_in={0}, shm_token=token)
            try:
                await _start_pair(a, b)
                link = a.mesh._out[(1, CHANNEL_DATA)]
                assert link.ring is not None  # shm lane selected
                assert link.sock is None  # no TCP dial for data
                lane = registry.get("transport_lane")
                assert lane.value(0, 1, "shm") == 1.0
                assert lane.value(0, 1, "tcp") == 0.0
                for i in range(25):
                    assert a.mesh.send(1, CHANNEL_DATA, _grad(0, i))
                    assert b.mesh.send(0, CHANNEL_DATA, _grad(1, i))
                await _wait_for(
                    lambda: len(b.received) == 25 and len(a.received) == 25
                )
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert [m.iteration for _, _, m in b.received] == list(range(25))
            assert [m.iteration for _, _, m in a.received] == list(range(25))
            assert all(ch == CHANNEL_DATA for _, ch, _ in b.received)
            # Close unlinked every segment of this run's token.
            for src, dst in ((0, 1), (1, 0)):
                assert not sweep_ring(ring_name(token, src, dst))

        asyncio.run(run())

    def test_shaper_still_paces_the_ring(self):
        """The modelled bandwidth applies on the shm lane too."""
        async def run():
            from repro.transport.shm import ring_name, sweep_ring

            token = f"pace{id(asyncio.get_event_loop()) & 0xFFFF:x}"
            registry = MetricsRegistry()
            a = Endpoint(0, metrics=registry, rate_fn=lambda dst: 100_000.0,
                         shm_out={1}, shm_in={1}, shm_token=token)
            b = Endpoint(1, shm_out={0}, shm_in={0}, shm_token=token)
            try:
                await _start_pair(a, b)
                big = WeightMessage(
                    sender=0, iteration=0,
                    weights={"w": np.ones(2048, dtype=np.float32)},
                )
                for _ in range(5):
                    assert a.mesh.send(1, CHANNEL_DATA, big)
                await _wait_for(lambda: len(b.received) == 5, timeout_s=10.0)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert registry.get("transport_stall_seconds_total").value(0, 1) > 0.1
            for src, dst in ((0, 1), (1, 0)):
                assert not sweep_ring(ring_name(token, src, dst))

        asyncio.run(run())

    def test_oversized_frame_demotes_link_to_tcp(self):
        """A frame bigger than the ring falls back to TCP mid-run,
        losing nothing and flipping the lane gauge."""
        async def run():
            from repro.transport.shm import ring_name, sweep_ring

            token = f"demo{id(asyncio.get_event_loop()) & 0xFFFF:x}"
            cfg = TransportConfig(
                connect_timeout_s=1.0, send_timeout_s=1.0,
                retry_base_s=0.01, retry_max_s=0.05, retry_attempts=3,
                heartbeat_interval_s=0.05, shm_ring_bytes=4096,
            )
            registry = MetricsRegistry()
            a = Endpoint(0, config=cfg, metrics=registry,
                         shm_out={1}, shm_in={1}, shm_token=token)
            b = Endpoint(1, config=cfg, shm_out={0}, shm_in={0},
                         shm_token=token)
            try:
                await _start_pair(a, b)
                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 0))  # fits
                oversized = WeightMessage(
                    sender=0, iteration=1,
                    weights={"w": np.ones(4096, dtype=np.float32)},  # ~16 KB
                )
                assert a.mesh.send(1, CHANNEL_DATA, oversized)
                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 2))
                await _wait_for(lambda: len(b.received) == 3)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            iters = [m.iteration for _, _, m in b.received]
            assert iters == [0, 1, 2]
            assert a.mesh._out[(1, CHANNEL_DATA)].ring is None  # demoted
            lane = registry.get("transport_lane")
            assert lane.value(0, 1, "tcp") == 1.0
            assert lane.value(0, 1, "shm") == 0.0
            for src, dst in ((0, 1), (1, 0)):
                sweep_ring(ring_name(token, src, dst))

        asyncio.run(run())

    def test_revive_during_ring_backoff(self):
        """The peer's consumer stops popping, so the ring fills and the
        sender backs off; ``revive`` retires the ring meanwhile. The old
        sender must unwind quietly and the revived (TCP) link deliver."""
        async def run():
            from repro.transport.shm import ring_name, sweep_ring

            loop = asyncio.get_running_loop()
            loop_errors = []
            loop.set_exception_handler(lambda _loop, ctx: loop_errors.append(ctx))
            token = f"rev{id(loop) & 0xFFFF:x}"
            cfg = TransportConfig(
                connect_timeout_s=1.0, send_timeout_s=1.0,
                retry_base_s=0.01, retry_max_s=0.05, retry_attempts=3,
                heartbeat_interval_s=5.0, shm_ring_bytes=4096,
            )
            a = Endpoint(0, config=cfg, shm_out={1}, shm_in={1}, shm_token=token)
            b = Endpoint(1, config=cfg, shm_out={0}, shm_in={0}, shm_token=token)
            b2 = Endpoint(1, config=cfg)
            try:
                await _start_pair(a, b)
                for task in b.mesh._ring_tasks:
                    task.cancel()  # the consumer stops popping
                link = a.mesh._out[(1, CHANNEL_DATA)]
                for i in range(100):  # 64-byte frames: 4 KiB holds 60
                    assert a.mesh.send(1, CHANNEL_DATA, _grad(0, i))
                    await asyncio.sleep(0.001)
                assert link.ring.pending_bytes() > 0 and link.queue.qsize() > 0
                old_task = link.task
                a.mesh.revive(1, ("127.0.0.1", await b2.mesh.start()))
                await asyncio.wait([old_task], timeout=cfg.send_timeout_s)
                assert old_task.done() and old_task.exception() is None
                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 99))
                await _wait_for(lambda: len(b2.received) == 1)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close(), b2.mesh.close())
            assert [m.iteration for _, _, m in b2.received] == [99]
            assert not a.errors and not loop_errors
            for src, dst in ((0, 1), (1, 0)):
                sweep_ring(ring_name(token, src, dst))

        asyncio.run(run())


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestForeignInput:
    def test_garbage_closes_only_its_own_connection(self):
        """Raw clients send a bad magic, a first frame that is not
        Hello, and a header announcing 256 MiB followed by 64 KiB. Each
        loses only its own connection, nothing reaches ``on_error`` or
        the loop's exception handler, the lying header costs no resident
        memory for the bytes that never came, and the real link keeps
        delivering."""
        async def run():
            loop = asyncio.get_running_loop()
            loop_errors = []
            loop.set_exception_handler(lambda _loop, ctx: loop_errors.append(ctx))
            a, b = Endpoint(0), Endpoint(1)
            try:
                await _start_pair(a, b)
                port = b.mesh._server.sockets[0].getsockname()[1]

                async def rejected(payload: bytes) -> None:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(payload)
                    # The server closes its side: EOF, nothing echoed.
                    assert await asyncio.wait_for(reader.read(), 5.0) == b""
                    writer.close()

                await rejected(b"XX" + bytes(6))
                await rejected(encode_message(
                    LossShareMessage(sender=9, iteration=0, avg_loss=1.0)
                ))

                _, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_message(Hello(9, CHANNEL_DATA)))
                writer.write(FRAME_HEADER.pack(MAGIC, VERSION, T_WEIGHTS, 256 << 20))
                rss0 = _rss_bytes()
                writer.write(bytes(64 << 10))
                await writer.drain()
                await _wait_for(lambda: any(
                    getattr(t.get_protocol(), "got", 0) == 64 << 10
                    for t in b.mesh._inbound
                ))
                grown = _rss_bytes() - rss0
                writer.close()
                await _wait_for(lambda: len(b.mesh._inbound) == 2)

                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 5))
                await _wait_for(lambda: len(b.received) == 1)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert grown < 32 << 20
            assert [(p, m.iteration) for p, _, m in b.received] == [(0, 5)]
            assert not a.errors and not b.errors and not loop_errors
            assert a.dead == [] and b.dead == []

        asyncio.run(run())


class _FakeSocket:
    """``sendmsg`` that takes a random number of bytes (often just one),
    sometimes would block, and refuses more than ``_IOV_MAX`` buffers
    the way the kernel does."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.received = bytearray()

    def sendmsg(self, buffers):
        if len(buffers) > _IOV_MAX:
            raise OSError(errno.EMSGSIZE, "Message too long")
        if self.rng.random() < 0.3:
            raise BlockingIOError(errno.EAGAIN, "would block")
        offered = b"".join(bytes(b) for b in buffers)
        take = self.rng.choice([1, self.rng.randint(1, max(1, len(offered)))])
        take = min(take, len(offered))
        self.received += offered[:take]
        return take


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestSendPath:
    """The TCP send path: a batch goes to the kernel with non-blocking
    ``sendmsg`` calls straight from the encode buffers."""

    @given(
        # Short batches and batches past one sendmsg's buffer limit.
        count=st.one_of(st.integers(1, 40), st.integers(_IOV_MAX + 1, 2600)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partial_write_delivers_the_batch_in_order(self, count, seed):
        rng = random.Random(seed)
        frames = [memoryview(bytearray(rng.randbytes(rng.randint(0, 48))))
                  for _ in range(count)]
        sock = _FakeSocket(seed)
        rest = list(frames)
        while rest:  # what the slow path does once the socket is writable
            rest = _send_views(sock, rest)
        assert bytes(sock.received) == b"".join(frames)

    def test_burst_past_iov_max_arrives_complete_and_in_order(self):
        """2,000 control frames with no await in between coalesce into
        one batch: more buffers than one sendmsg may carry."""
        async def run():
            a, b = Endpoint(0), Endpoint(1)
            try:
                await _start_pair(a, b)
                for i in range(2000):
                    assert a.mesh.send(
                        1, CHANNEL_CONTROL,
                        LossShareMessage(sender=0, iteration=i, avg_loss=0.5),
                    )
                await _wait_for(lambda: len(b.received) == 2000)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
            assert [m.iteration for _, _, m in b.received] == list(range(2000))
            assert not a.errors and a.dead == []

        asyncio.run(run())

    def test_outbound_sockets_set_nodelay(self):
        async def run():
            a, b = Endpoint(0), Endpoint(1)
            try:
                await _start_pair(a, b)
                links = [*a.mesh._out.values(), *b.mesh._out.values()]
                assert len(links) == 4
                for link in links:
                    assert link.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())

        asyncio.run(run())

    def test_revive_severs_a_blocked_link(self):
        """A's peer accepts but never reads, so A's data sender blocks
        with the socket full. ``revive`` to a real peer must fail that
        send at once (the send timeout alone would take 5 s), with no
        error surfaced and every socket closed by its owner."""
        async def run():
            loop = asyncio.get_running_loop()
            loop_errors = []
            loop.set_exception_handler(lambda _loop, ctx: loop_errors.append(ctx))
            fds0 = _open_fds()
            cfg = TransportConfig(
                connect_timeout_s=1.0, send_timeout_s=5.0,
                retry_base_s=0.01, retry_max_s=0.05, retry_attempts=3,
                heartbeat_interval_s=5.0,
            )
            registry = MetricsRegistry()
            a = Endpoint(0, config=cfg, metrics=registry)
            b = Endpoint(1, config=cfg)
            listener = socket.create_server(("127.0.0.1", 0))
            listener.setblocking(False)
            accepted = []

            async def accept_and_never_read():
                while True:
                    accepted.append((await loop.sock_accept(listener))[0])

            acceptor = asyncio.ensure_future(accept_and_never_read())
            try:
                await a.mesh.start()
                await a.mesh.connect({1: listener.getsockname()})
                link = a.mesh._out[(1, CHANNEL_DATA)]
                big = WeightMessage(
                    sender=0, iteration=0,
                    weights={"w": np.ones(1 << 17, dtype=np.float32)},  # 512 KiB
                )
                for _ in range(32):  # 16 MiB: more than both socket buffers
                    assert a.mesh.send(1, CHANNEL_DATA, big)
                sent = registry.get("transport_send_msgs_total")
                last = -1.0
                while sent.value(0, 1, "data") != last:  # until the sender stalls
                    last = sent.value(0, 1, "data")
                    await asyncio.sleep(0.2)
                assert last < 32  # blocked in the kernel, not done

                old_tasks = [link.task, a.mesh._out[(1, CHANNEL_CONTROL)].task]
                t0 = loop.time()
                a.mesh.revive(1, ("127.0.0.1", await b.mesh.start()))
                await asyncio.wait(old_tasks, timeout=cfg.send_timeout_s)
                assert loop.time() - t0 < 1.0
                assert all(t.done() and t.exception() is None for t in old_tasks)
                assert a.mesh.send(1, CHANNEL_DATA, _grad(0, 7))
                assert a.mesh.send(
                    1, CHANNEL_CONTROL,
                    LossShareMessage(sender=0, iteration=8, avg_loss=0.5),
                )
                await _wait_for(lambda: len(b.received) == 2)
                for new in a.mesh._out.values():
                    assert new.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                await asyncio.gather(a.mesh.close(), b.mesh.close())
                acceptor.cancel()
                for conn in accepted:
                    conn.close()
                listener.close()
            assert sorted(m.iteration for _, _, m in b.received) == [7, 8]
            assert not a.errors and not b.errors and not loop_errors
            await _wait_for(lambda: _open_fds() == fds0)

        asyncio.run(run())
