"""One rep of the ``live_mesh`` workload, inside a fresh child process.

Two :class:`PeerMesh` endpoints on one asyncio loop over loopback TCP
exchange a seeded script of ``cluster.messages`` dataclasses shaped like
the ``cpu_workload()`` model: 70 % sparse ``GradientMessage`` (5-50 %
density), 10 % dense, 10 % ``WeightMessage`` (data channel), 10 %
``LossShareMessage`` (control channel). Closed loop:

* ``flood``: both directions at once, at most ``WINDOW`` messages in
  flight per direction;
* ``pingpong``: window 1, A -> B -> A round trips: the per-frame fixed
  cost that a batching change which helps ``flood`` can hurt.

Real encode on send, real decode on receive. Decode returns views into
the receive buffer, so each payload's checksum is verified inside
``on_message``. ``rate_fn`` is set high enough that the token bucket
never sleeps, so shaper bookkeeping runs and
``transport_stall_seconds_total`` stays 0. The simulator does nothing
here.
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
import time
import zlib

import spans

__all__ = ["run", "run_shm_flood"]

WINDOW = 8
SIZES = {  # messages per direction
    False: {"warm": 300, "flood": 6000, "pingpong": 2000},
    True: {"warm": 20, "flood": 200, "pingpong": 100},
}
MIX = (0.7, 0.1, 0.1, 0.1)  # sparse, dense, weights, loss share
POOL = (24, 4, 4, 16)  # distinct payloads per kind; the script re-sends them
UNSHAPED_BYTES_PER_S = 1e11
PHASE_TIMEOUT_S = 90.0
SEND_RETRIES = 200


def _checksum(arrays, names) -> int:
    """Position-weighted XOR of every array's 32-bit words, plus sizes.

    XOR, not a sum: reducing u32 into a u64 accumulator costs 15 us per
    160 KB here against 4 us, and this runs inside the timed callback.
    """
    import numpy as np

    total = zlib.crc32("\0".join(names).encode())
    for k, arr in enumerate(arrays, 1):
        # int64 source indices travel as u32; everything else is 4-byte
        # already and contiguous (fresh arrays, or views of one frame).
        words = arr.view(np.uint32) if arr.dtype.itemsize == 4 else arr.astype(np.uint32)
        total += k * (int(np.bitwise_xor.reduce(words, axis=None)) + words.size)
    return total & 0xFFFFFFFFFFFFFFFF


def message_checksum(msg) -> int:
    """Checksum of a message's payload, before encode or after decode."""
    sparse = getattr(msg, "sparse", None)
    if sparse is not None:
        return _checksum([a for pair in sparse.values() for a in pair], list(sparse))
    dense = getattr(msg, "dense", None) or getattr(msg, "weights", None)
    if dense is not None:
        return _checksum(list(dense.values()), list(dense))
    return zlib.crc32(struct.pack("<qd", msg.sender, msg.avg_loss))


class Script:
    """Both directions' messages, generated from the seed alone."""

    def __init__(self, seed: int, sizes: dict):
        import numpy as np

        from repro.cluster.messages import (
            GradientMessage,
            LossShareMessage,
            WeightMessage,
        )
        from repro.experiments.runner import cpu_workload
        from repro.nn.models import build_model
        from repro.transport.mesh import CHANNEL_CONTROL, CHANNEL_DATA

        rng = np.random.default_rng([seed, 0x6D657368])
        wl = cpu_workload()
        shapes = {
            name: v.shape
            for name, v in build_model(
                wl.model, np.random.default_rng(0), **wl.model_kwargs
            ).variables().items()
        }

        def dense():
            return {
                n: rng.standard_normal(s).astype(np.float32)
                for n, s in shapes.items()
            }

        def sparse(j):
            # Densities are spread evenly over 5-50 % rather than drawn:
            # with 24 draws the mean density, and with it the bytes a
            # rep moves, would differ by 10 % from seed to seed.
            density = 0.05 + 0.45 * (j + 0.5) / POOL[0]
            out = {}
            for n, s in shapes.items():
                size = int(np.prod(s))
                k = max(1, int(density * size))
                idx = np.sort(rng.choice(size, size=k, replace=False))
                out[n] = (idx, rng.standard_normal(k).astype(np.float32))
            return out

        pools = [
            [sparse(j) for j in range(POOL[0])],
            [dense() for _ in range(POOL[1])],
            [dense() for _ in range(POOL[2])],
            [float(rng.random()) for _ in range(POOL[3])],
        ]
        self.phases = {}
        lo = 0
        for phase in ("warm", "flood", "pingpong"):
            self.phases[phase] = (lo, lo + sizes[phase])
            lo += sizes[phase]
        self.total = lo

        def shuffled_phase(n):
            """``n`` (kind, pool pick) pairs: exact mix, every payload of
            a kind used equally often, order from the seed. Every seed
            therefore moves the same bytes; only content and order vary."""
            counts = [int(round(p * n)) for p in MIX]
            counts[0] += n - sum(counts)
            pairs = [
                (kind, i % POOL[kind])
                for kind, c in enumerate(counts)
                for i in range(c)
            ]
            return [pairs[i] for i in rng.permutation(n)]

        # Per direction: parallel lists indexed by sequence number,
        # which travels in the message's ``iteration`` field.
        self.msgs = [[], []]
        self.channels = [[], []]
        self.sums = [[], []]
        self.wire = [[], []]
        cache: dict = {}
        for sender in (0, 1):
            order = [
                pair
                for phase in ("warm", "flood", "pingpong")
                for pair in shuffled_phase(sizes[phase])
            ]
            for seq, (kind, pick) in enumerate(order):
                body = pools[kind][pick]
                if kind == 0:
                    msg = GradientMessage(sender, seq, 32, sparse=body)
                elif kind == 1:
                    msg = GradientMessage(sender, seq, 32, dense=body)
                elif kind == 2:
                    msg = WeightMessage(sender, seq, body)
                else:
                    msg = LossShareMessage(sender, seq, body)
                key = (kind, pick, sender if kind == 3 else 0)
                if key not in cache:
                    cache[key] = (message_checksum(msg), msg.wire_bytes())
                self.msgs[sender].append(msg)
                self.channels[sender].append(
                    CHANNEL_CONTROL if kind == 3 else CHANNEL_DATA
                )
                self.sums[sender].append(cache[key][0])
                self.wire[sender].append(cache[key][1])


class Exchange:
    """Two meshes, the script, and the per-message accounting."""

    def __init__(self, script: Script, rec=None, *, shm_token: str | None = None):
        from repro.obs.metrics import MetricsRegistry
        from repro.transport.mesh import PeerMesh, TransportConfig

        self.script = script
        self.registry = MetricsRegistry()
        self.sent_at = [[0.0] * script.total, [0.0] * script.total]
        self.latency = [[None] * script.total, [None] * script.total]
        self.delivered = 0
        self.mismatched = 0
        self.refused = 0
        self.on_delivery = None  # phase hook: fn(sender, seq)
        callback = self._on_message
        if rec is not None:
            callback = rec.wrap("harness.callback", callback)
        self.meshes = []
        for me in (0, 1):
            lanes = {}
            if shm_token is not None:
                lanes = dict(shm_out={1 - me}, shm_in={1 - me}, shm_token=shm_token)
            self.meshes.append(
                PeerMesh(
                    me,
                    on_message=callback,
                    rate_fn=lambda dst: UNSHAPED_BYTES_PER_S,
                    config=TransportConfig(),
                    metrics=self.registry,
                    seed=0,
                    **lanes,
                )
            )

    async def start(self) -> None:
        ports = [await m.start() for m in self.meshes]
        await asyncio.gather(
            *[
                m.connect({1 - me: ("127.0.0.1", ports[1 - me])})
                for me, m in enumerate(self.meshes)
            ]
        )

    async def close(self) -> None:
        await asyncio.gather(*[m.close(bye=False) for m in self.meshes])

    def _on_message(self, peer: int, channel: int, msg) -> None:
        now = time.perf_counter()
        seq = msg.iteration
        if message_checksum(msg) != self.script.sums[peer][seq]:
            self.mismatched += 1
        self.latency[peer][seq] = now - self.sent_at[peer][seq]
        self.delivered += 1
        if self.on_delivery is not None:
            self.on_delivery(peer, seq)

    def send_now(self, sender: int, seq: int) -> bool:
        self.sent_at[sender][seq] = time.perf_counter()
        return self.meshes[sender].send(
            1 - sender, self.script.channels[sender][seq], self.script.msgs[sender][seq]
        )

    async def send(self, sender: int, seq: int) -> bool:
        """``send_now`` with a bounded retry while the outbox is full."""
        for _ in range(SEND_RETRIES):
            if self.send_now(sender, seq):
                return True
            await asyncio.sleep(0.001)
        self.refused += 1
        return False

    async def flood(self, phase: str) -> float:
        """Both directions, ``WINDOW`` in flight each; returns the wall."""
        lo, hi = self.script.phases[phase]
        want = self.delivered + 2 * (hi - lo)
        done = asyncio.Event()
        slots = [asyncio.Semaphore(WINDOW), asyncio.Semaphore(WINDOW)]

        def settle():
            if self.delivered >= want:
                done.set()

        def on_delivery(sender, seq):
            slots[sender].release()
            settle()

        async def pump(sender):
            nonlocal want
            for seq in range(lo, hi):
                await slots[sender].acquire()
                if not await self.send(sender, seq):
                    slots[sender].release()
                    want -= 1  # refused for good: nothing to wait for
                    settle()

        self.on_delivery = on_delivery
        t0 = time.perf_counter()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                asyncio.gather(pump(0), pump(1), done.wait()), PHASE_TIMEOUT_S
            )
        self.on_delivery = None
        return time.perf_counter() - t0

    async def pingpong(self, phase: str) -> float:
        """Window 1: A's seq -> B answers with its seq -> A's seq + 1."""
        lo, hi = self.script.phases[phase]
        done = asyncio.Event()

        def on_delivery(sender, seq):
            nxt = (1, seq) if sender == 0 else (0, seq + 1)
            if nxt[1] >= hi:
                done.set()
            elif not self.send_now(*nxt):
                self.refused += 1
                done.set()

        self.on_delivery = on_delivery
        t0 = time.perf_counter()
        if not self.send_now(0, lo):
            self.refused += 1
            done.set()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(done.wait(), PHASE_TIMEOUT_S)
        self.on_delivery = None
        return time.perf_counter() - t0

    def family_total(self, name: str) -> float:
        fam = self.registry.get(name)
        return float(sum(v for _, v in fam.items())) if fam is not None else 0.0

    def family_max(self, name: str) -> float:
        fam = self.registry.get(name)
        values = [v for _, v in fam.items()] if fam is not None else []
        return float(max(values, default=0.0))


def _quantile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _latencies_ms(ex: Exchange, phase: str) -> list[float]:
    lo, hi = ex.script.phases[phase]
    return sorted(
        1e3 * v for side in ex.latency for v in side[lo:hi] if v is not None
    )


def _codec_loop(script: Script, limit: int = 1000) -> dict:
    """Socket-free encode / decode cost over the script's flood messages."""
    from repro.transport.codec import FrameBuffer, decode_message, encode_into

    lo, hi = script.phases["flood"]
    msgs = script.msgs[0][lo : min(hi, lo + limit)]
    fbuf = FrameBuffer()
    for m in msgs[:16]:
        encode_into(m, fbuf)
    t0 = time.perf_counter()
    for m in msgs:
        encode_into(m, fbuf)
    enc = time.perf_counter() - t0
    frames = [bytes(encode_into(m, fbuf)) for m in msgs]
    t0 = time.perf_counter()
    for frame in frames:
        decode_message(frame)
    dec = time.perf_counter() - t0
    return {
        "codec.encode.us_per_msg": 1e6 * enc / len(msgs),
        "codec.decode.us_per_msg": 1e6 * dec / len(msgs),
    }


async def _run(seed, smoke, rec, traced, t_spawn) -> dict:
    script = Script(seed, SIZES[smoke])
    ex = Exchange(script, rec if traced else None)
    await ex.start()
    try:
        with rec.paused():
            await ex.flood("warm")
        setup_s = time.monotonic() - t_spawn

        before = {
            name: ex.family_total(name)
            for name in (
                "transport_send_bytes_total",
                "transport_send_msgs_total",
                "transport_coalesced_frames_total",
                "transport_dropped_total",
                "transport_stall_seconds_total",
            )
        }
        delivered0 = ex.delivered
        cpu0 = time.process_time()
        with rec.span("mesh.loop") as root_flood:
            flood_s = await ex.flood("flood")
        with rec.span("mesh.loop") as root_ping:
            ping_s = await ex.pingpong("pingpong")
        cpu_s = time.process_time() - cpu0
        delta = {k: ex.family_total(k) - v for k, v in before.items()}
    finally:
        await ex.close()

    lo, hi = script.phases["flood"]
    plo, phi = script.phases["pingpong"]
    attempted = 2 * (hi - lo) + 2 * (phi - plo)
    delivered = ex.delivered - delivered0
    flood_lat = _latencies_ms(ex, "flood")
    ping_lat = _latencies_ms(ex, "pingpong")
    failed = (attempted - delivered) + ex.mismatched
    errors = []
    if delivered != attempted:
        errors.append(f"delivered {delivered} of {attempted}")
    if ex.mismatched:
        errors.append(f"{ex.mismatched} checksum mismatches")
    if ex.refused:
        errors.append(f"{ex.refused} sends refused after retry")
    if not flood_lat or not ping_lat:
        errors.append("a phase delivered nothing")
        flood_lat, ping_lat = flood_lat or [0.0], ping_lat or [0.0]

    modelled = sum(
        sum(side[lo:hi]) + sum(side[plo:phi]) for side in script.wire
    )
    sums = script.sums
    row = {
        "root": [root_flood, root_ping],
        "setup_s": setup_s,
        "wall_s": flood_s + ping_s,
        "cpu_s": cpu_s,
        "ops_per_s": delivered / (flood_s + ping_s),
        "frame_latency_p50_ms": _quantile(ping_lat, 0.50),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "errors": errors,
        "digest": {
            "delivered": delivered,
            "modelled_bytes": modelled,
            "checksum": (sum(sums[0][lo:phi]) + sum(sums[1][lo:phi])) % (1 << 64),
        },
        "extra": {
            "mesh.flood_msgs_per_s": len(flood_lat) / flood_s,
            "mesh.flood_latency_p99_ms": _quantile(flood_lat, 0.99),
            "mesh.pingpong_p99_ms": _quantile(ping_lat, 0.99),
            "mesh.wire_bytes": delta["transport_send_bytes_total"],
            "mesh.wire_overhead_frac": delta["transport_send_bytes_total"]
            / max(modelled, 1)
            - 1.0,
            "mesh.coalesced_frac": delta["transport_coalesced_frames_total"]
            / max(delta["transport_send_msgs_total"], 1.0),
            "mesh.outbox_high_water": ex.family_max("transport_outbox_high_water"),
            "mesh.send_refused": delta["transport_dropped_total"] + ex.refused,
            "shaper.stall_s": delta["transport_stall_seconds_total"],
        },
    }
    if traced:
        with rec.paused():
            row["extra"].update(_codec_loop(script))
    return row


def run(seed, *, smoke, rec, traced, t_spawn) -> dict:
    """Imports -> script -> start/connect -> warm-up -> flood -> pingpong.

    ``rec`` takes the harness's own few spans in every mode; the
    per-call wrappers go in only when ``traced``."""
    with rec.span("setup.import"):
        import numpy  # noqa: F401

        import repro.transport.mesh  # noqa: F401
    if traced:
        spans.install(rec, "mesh")
    return asyncio.run(_run(seed, smoke, rec, traced, t_spawn))


def run_shm_flood(seed: int, *, smoke: bool) -> dict:
    """The lane comparison: the same flood over shared-memory rings.

    Traced round only, never gated. Reports 0 when the platform has no
    shared memory or ``PeerMesh`` no longer takes ``shm_*`` arguments.
    """
    import inspect
    import os

    try:
        from repro.transport.mesh import PeerMesh
        from repro.transport.shm import shm_available

        usable = shm_available() and "shm_out" in inspect.signature(
            PeerMesh.__init__
        ).parameters
    except ImportError:
        usable = False
    if not usable:
        return {"available": False, "extra": {"mesh.shm.msgs_per_s": 0.0}}

    async def go():
        script = Script(seed, SIZES[smoke])
        ex = Exchange(script, shm_token=f"e2e{os.getpid()}")
        await ex.start()
        try:
            await ex.flood("warm")
            delivered0 = ex.delivered
            wall = await ex.flood("flood")
        finally:
            await ex.close()
        lo, hi = script.phases["flood"]
        delivered = ex.delivered - delivered0
        errors = []
        if delivered != 2 * (hi - lo) or ex.mismatched:
            errors.append(
                f"shm lane delivered {delivered} of {2 * (hi - lo)}, "
                f"{ex.mismatched} checksum mismatches"
            )
        return {
            "available": True,
            "errors": errors,
            "extra": {"mesh.shm.msgs_per_s": delivered / wall},
        }

    return asyncio.run(go())
