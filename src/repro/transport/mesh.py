"""Asyncio peer mesh with control and data channels over TCP.

The prototype gives every worker pair two Redis queues — a control
queue for signalling and a data queue for gradients and weights (paper
§4.2). The live backend mirrors that: each worker runs one
:class:`PeerMesh` that listens on a loopback/LAN TCP port and opens two
outgoing connections (``CHANNEL_CONTROL``, ``CHANNEL_DATA``) to every
peer, identified by a :class:`~repro.transport.codec.Hello` handshake.

Reliability mechanics:

* **connect/retry** — outgoing connections (re)connect with exponential
  backoff plus jitter, bounded by a per-episode attempt budget;
* **per-message timeouts** — every write is bounded by
  ``send_timeout_s``; a timeout tears the connection down and re-enters
  the retry path;
* **heartbeats** — a periodic beacon on every control channel carries
  liveness plus the sender's training progress (the live GBS
  controller's input);
* **dead peers** — once a reconnect episode exhausts its budget the
  peer is declared dead and surfaced through ``on_peer_dead`` — the
  runtime makes that the peer's leave
  (:meth:`repro.core.host.WorkerHost._leave`), exactly like a simulated
  crash. A
  :class:`~repro.transport.codec.Bye` is a graceful departure: the
  peer is declared dead at once, without a callback, so its outboxes
  are abandoned (and counted as dropped) instead of redialled;
* **resurrection** — :meth:`PeerMesh.revive` clears a peer's dead
  state, installs fresh outgoing links at its (new) address, and resets
  the reconnect episode — the supervisor's rejoin path after a crashed
  worker is respawned (docs/robustness.md). A superseded link's retry
  loop can never declare the revived peer dead again;
* **held-back frames** — ``send(delay_s=)`` delays a frame's write by
  that many wall seconds (a chaos plan's delay window; the verdicts are
  the worker host's, so transport frames are never faulted). The delay
  is applied by the link's FIFO sender task, so ordering is preserved
  (head-of-line blocking, exactly like real added latency on one TCP
  stream).

Performance mechanics (docs/architecture.md, "Transport hot path"):

* **zero-copy encode** — :meth:`PeerMesh.send` encodes into a pooled
  :class:`~repro.transport.codec.FrameBuffer` and enqueues a memoryview
  of it; the buffer returns to the pool once the frame is written (or
  dropped), so the steady state allocates nothing per frame;
* **frame coalescing** — each sender drains whatever its outbox holds
  (up to ``coalesce_max_bytes``) and issues one batched write: the
  frame views go to the kernel in one non-blocking ``sendmsg`` (per
  ``_IOV_MAX`` frames), awaiting only for what it would not take yet.
  The token bucket is charged the batch's full byte count in one
  ``throttle`` call, so ``transport_stall_seconds_total`` stays
  truthful per link; per-frame histograms still observe every frame;
* **zero-copy receive** — each accepted connection is an
  :class:`asyncio.BufferedProtocol` that parses frames where the kernel
  put them and dispatches them synchronously, with no per-connection
  task. Small frames are staged in one reused 64 KiB buffer and their
  bodies copied out as ``bytes``; a body of 4 KiB or more gets its own
  uninitialised buffer that the kernel reads straight into — one
  user-space copy per byte at most, where the ``StreamReader`` path
  made three to four.

Outgoing bytes pass through a per-peer :class:`TokenBucket` so the
modelled link bandwidth (Table 3, wire-scaled, sped up by the run's
wall-clock factor) is enforced on the real transport.
Transfers are recorded through the shared ``obs`` surfaces:
``transport_*`` metric families and per-transfer spans on the worker's
``net-out`` trace thread. Under ``--profile``, :meth:`PeerMesh.send` is
the ``mesh.send`` layer; the sender coroutines are not timed, so what
the event loop runs while a write drains keeps its own layer.
"""

from __future__ import annotations

import asyncio
import random
import socket
from dataclasses import dataclass
from typing import Awaitable, Callable, Mapping

import numpy as np

from repro.core.run_metrics import TransportMetrics
from repro.obs.trace import NULL_TRACER, TID_NET
from repro.transport.codec import (
    Bye,
    CodecError,
    FRAME_HEADER_BYTES,
    FrameBuffer,
    Heartbeat,
    HeartbeatAck,
    Hello,
    decode_body,
    decode_frame_header,
    encode_into,
    encode_message,
)
from repro.transport.shaper import TokenBucket

__all__ = ["CHANNEL_CONTROL", "CHANNEL_DATA", "CHANNEL_NAMES", "TransportConfig", "PeerMesh"]

CHANNEL_CONTROL = 0
CHANNEL_DATA = 1
CHANNEL_NAMES = {CHANNEL_CONTROL: "control", CHANNEL_DATA: "data"}

_CLOSE = object()  # sender-task shutdown sentinel

# Encode-buffer pool bound per mesh: enough for every link's outbox to
# hold a few frames without thrash, small enough to cap retained memory.
_POOL_MAX = 64

# Receive side: small frames are parsed in one reused staging buffer; a
# body of _DIRECT_MIN_BYTES or more (always less than the stage) is read
# by the kernel straight into a buffer of its own.
_STAGE_BYTES = 1 << 16
_DIRECT_MIN_BYTES = 1 << 12

# Send side: one sendmsg takes at most IOV_MAX buffers (Linux: 1024).
_IOV_MAX = 1024


def _send_views(sock: socket.socket, views: list) -> list:
    """Write ``views`` (a list this reuses) with non-blocking ``sendmsg``
    calls of at most ``_IOV_MAX`` buffers, until the kernel would block;
    returns what it did not take, the first view trimmed past what it did."""
    i = 0
    while i < len(views):
        try:
            sent = sock.sendmsg(views[i:i + _IOV_MAX])
        except BlockingIOError:
            break
        while i < len(views) and sent >= len(views[i]):
            sent -= len(views[i])
            i += 1
        if sent:
            views[i] = memoryview(views[i])[sent:]
    return views[i:]


async def _send_rest(sock: socket.socket, views: list) -> None:
    """Slow path: await the head view, then send on what goes at once."""
    loop = asyncio.get_running_loop()
    while views:
        await loop.sock_sendall(sock, views[0])
        views = _send_views(sock, views[1:])


@dataclass(frozen=True)
class TransportConfig:
    """Tunables for the live transport (timeouts, retries, heartbeats
    and coalescing)."""

    connect_timeout_s: float = 5.0
    send_timeout_s: float = 10.0
    retry_base_s: float = 0.05
    retry_max_s: float = 1.0
    retry_attempts: int = 6
    heartbeat_interval_s: float = 0.2
    outbox_capacity: int = 4096
    # One batched write drains at most this many bytes from an outbox;
    # keeps a single coalesced write from monopolising the link when a
    # burst backs up behind a stall.
    coalesce_max_bytes: int = 262144

    def __post_init__(self) -> None:
        if min(self.connect_timeout_s, self.send_timeout_s, self.retry_base_s,
               self.retry_max_s, self.heartbeat_interval_s) <= 0:
            raise ValueError("transport timeouts must be positive")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        if self.outbox_capacity < 1:
            raise ValueError("outbox_capacity must be >= 1")
        if self.coalesce_max_bytes < 1:
            raise ValueError("coalesce_max_bytes must be >= 1")


class _OutLink:
    """One outgoing (peer, channel) link with its FIFO outbox. Its
    sender task owns ``sock`` and closes it on exit; anyone else severs
    it with ``shutdown`` (:meth:`PeerMesh._sever`), never ``close``."""

    __slots__ = (
        "dst", "channel", "queue", "sock", "task", "addr",
        "ever_connected", "high_water",
    )

    def __init__(self, dst: int, channel: int, capacity: int):
        self.dst = dst
        self.channel = channel
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=capacity)
        self.sock: socket.socket | None = None  # non-blocking TCP
        self.task: asyncio.Task | None = None
        self.addr: tuple[str, int] | None = None
        self.ever_connected = False  # distinguishes connect vs. reconnect
        self.high_water = 0  # deepest the outbox has ever been


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: frames are parsed where the kernel wrote
    them and dispatched from ``buffer_updated``. Every frame owns its
    body, so decoded arrays never alias a buffer that is reused."""

    def __init__(self, mesh: "PeerMesh"):
        self.mesh = mesh
        self.transport = None
        self.stage = memoryview(bytearray(_STAGE_BYTES))
        self.fill = 0  # staged bytes not yet parsed
        self.body: memoryview | None = None  # a large body, while it fills
        self.got = 0
        self.msg_type = 0
        self.peer = self.channel = None  # set by the Hello

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.mesh._inbound.add(transport)

    def connection_lost(self, exc) -> None:
        self.mesh._inbound.discard(self.transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self.body is not None:
            return self.body[self.got:]
        return self.stage[self.fill:]

    def buffer_updated(self, nbytes: int) -> None:
        try:
            if self.body is None:
                self.fill += nbytes
                self._parse()
                return
            self.got += nbytes
            if self.got == len(self.body):
                body, self.body = self.body, None
                self._dispatch(self.msg_type, body.toreadonly())
        except CodecError:
            self.transport.close()  # garbage stream; the sender decides death

    def _parse(self) -> None:
        stage, pos, fill = self.stage, 0, self.fill
        while fill - pos >= FRAME_HEADER_BYTES:
            msg_type, body_len = decode_frame_header(stage[pos:pos + FRAME_HEADER_BYTES])
            start = pos + FRAME_HEADER_BYTES
            if body_len >= _DIRECT_MIN_BYTES:
                # np.empty, not bytearray: a header that lies about its
                # length must not cost its full size in resident memory.
                body = memoryview(np.empty(body_len, np.uint8))
                pos = min(fill, start + body_len)
                body[:pos - start] = stage[start:pos]
                if pos - start < body_len:
                    self.body, self.got, self.msg_type = body, pos - start, msg_type
                    break
                self._dispatch(msg_type, body.toreadonly())
            elif start + body_len <= fill:
                pos = start + body_len
                self._dispatch(msg_type, bytes(stage[start:pos]))
            else:
                break
        self.fill = fill - pos
        if pos and self.fill:
            stage[:self.fill] = stage[pos:fill]

    def _dispatch(self, msg_type: int, body) -> None:
        msg = decode_body(msg_type, body)
        if self.peer is None:
            if not isinstance(msg, Hello):
                raise CodecError("connection did not open with Hello")
            self.peer, self.channel = msg.sender, msg.channel
        else:
            self.mesh._receive(self.peer, self.channel, msg)


class PeerMesh:
    """One worker's live transport endpoint (server + outgoing links)."""

    def __init__(
        self,
        worker_id: int,
        *,
        on_message: Callable[[int, int, object], None],
        on_peer_dead: Callable[[int], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
        on_heartbeat: Callable[[Heartbeat], None] | None = None,
        rate_fn: Callable[[int], float] | None = None,
        config: TransportConfig | None = None,
        metrics=None,
        tracer=NULL_TRACER,
        now_fn: Callable[[], float] | None = None,
        progress_fn: Callable[[], int] | None = None,
        seed: int = 0,
        host: str = "127.0.0.1",
    ):
        self.worker_id = worker_id
        self.host = host
        self.cfg = config if config is not None else TransportConfig()
        self._on_message = on_message
        self._on_peer_dead = on_peer_dead
        self._on_error = on_error
        self._on_heartbeat = on_heartbeat
        self._rate_fn = rate_fn
        self._now_fn = now_fn
        self._progress_fn = progress_fn
        self.tracer = tracer
        self._rng = random.Random(seed * 7919 + worker_id)

        self._server: asyncio.AbstractServer | None = None
        self._out: dict[tuple[int, int], _OutLink] = {}
        self._buckets: dict[int, TokenBucket] = {}
        self._dead: set[int] = set()
        self._graceful: set[int] = set()
        self._closing = False
        self._draining = False  # close() in its flush phase
        self._hb_task: asyncio.Task | None = None
        self._inbound: set[asyncio.Transport] = set()  # accepted connections

        # Pooled encode buffers: send() borrows one, the sender task (or
        # any drop path) returns it once the frame view is dead.
        self._pool: list[FrameBuffer] = []

        # Metric families (registered only when a registry is attached,
        # so sim-backend dumps carry no empty transport series). The
        # catalog itself lives in core/run_metrics.py next to the
        # engine's shared families.
        self._m = None
        if metrics is not None:
            self._m = TransportMetrics(metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind the listening socket; returns the bound TCP port."""
        loop = asyncio.get_event_loop()
        self._server = await loop.create_server(lambda: _Inbound(self), self.host, 0)
        return self._server.sockets[0].getsockname()[1]

    async def connect(self, port_map: Mapping[int, tuple[str, int]]) -> None:
        """Open control+data links to every peer and start heartbeats.

        ``port_map`` maps worker id to ``(host, port)``; this worker's
        own entry is ignored. Blocks until every link's first connection
        succeeds (or a peer exhausts its retry budget and is declared
        dead).
        """
        waits: list[Awaitable] = []
        for dst, addr in sorted(port_map.items()):
            if dst == self.worker_id:
                continue
            if self._rate_fn is not None:
                self._buckets[dst] = TokenBucket(max(1.0, self._rate_fn(dst)))
            for channel in (CHANNEL_CONTROL, CHANNEL_DATA):
                link = _OutLink(dst, channel, self.cfg.outbox_capacity)
                link.addr = tuple(addr)
                self._out[(dst, channel)] = link
                waits.append(self._ensure_connected(link))
        await asyncio.gather(*waits)
        for link in self._out.values():
            link.task = asyncio.ensure_future(self._sender(link))
            link.task.add_done_callback(self._task_done)
        if self._progress_fn is not None:
            self._hb_task = asyncio.ensure_future(self._heartbeat_loop())
            self._hb_task.add_done_callback(self._task_done)

    async def close(self, *, bye: bool = True, drain_timeout_s: float = 2.0) -> None:
        """Flush outboxes, announce departure, and tear everything down."""
        if bye:
            for dst in self.live_peers():
                self.send(dst, CHANNEL_CONTROL, Bye(self.worker_id))
        # From here on we are departing: a peer that cannot be reached
        # any more (it is tearing down too) is a graceful goodbye, not a
        # crash to surface through on_peer_dead.
        self._draining = True
        # Event-driven drain: every enqueued frame is task_done()'d by
        # its sender once written (or abandoned), so join() resolves the
        # moment an outbox is truly flushed — no polling.
        joins = [
            asyncio.ensure_future(link.queue.join())
            for link in self._out.values()
            if link.dst not in self._dead
        ]
        if joins:
            _, pending = await asyncio.wait(joins, timeout=drain_timeout_s)
            for j in pending:
                j.cancel()
        self._closing = True
        if self._hb_task is not None:
            self._hb_task.cancel()
        for link in self._out.values():
            self._put_close(link)
        tasks = [link.task for link in self._out.values() if link.task is not None]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=drain_timeout_s)
            for t in pending:
                t.cancel()
            if pending:
                # Let each run its finally, which closes its socket.
                await asyncio.wait(pending, timeout=drain_timeout_s)
        for link in self._out.values():
            if link.task is None:  # connect() never got to start it
                self._close_sock(link)
        for transport in list(self._inbound):
            transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self, dst: int, channel: int, msg, *, trace_name: str | None = None,
        delay_s: float = 0.0,
    ) -> bool:
        """Enqueue ``msg`` for ``dst`` on ``channel`` (FIFO per link),
        to be written no sooner than ``delay_s`` wall seconds from now.

        Returns ``False`` when the mesh is closing, the link is unknown,
        the peer is dead or the link's outbox is full (backpressure) —
        the last two count a drop; ``True`` means the message is
        queued, with delivery subject to the retry budget.
        """
        if self._closing:
            return False
        link = self._out.get((dst, channel))
        if link is None:
            return False
        if dst in self._dead:
            if self._m:
                self._m.dropped.inc(1, self.worker_id, dst, CHANNEL_NAMES[channel])
            return False
        if isinstance(msg, (bytes, bytearray, memoryview)):
            frame, fbuf = bytes(msg), None
        else:
            fbuf = self._pool.pop() if self._pool else FrameBuffer()
            try:
                frame = encode_into(msg, fbuf)
            except CodecError:
                self._release(fbuf)
                raise
        t_enq = asyncio.get_event_loop().time()
        not_before = t_enq + delay_s if delay_s > 0.0 else 0.0
        try:
            link.queue.put_nowait((frame, trace_name, not_before, t_enq, fbuf))
        except asyncio.QueueFull:
            self._release(fbuf)
            if self._m:
                self._m.dropped.inc(1, self.worker_id, dst, CHANNEL_NAMES[channel])
            return False
        depth = link.queue.qsize()
        if depth > link.high_water:
            link.high_water = depth
            if self._m:
                self._m.outbox_high_water.set(
                    depth, self.worker_id, dst, CHANNEL_NAMES[channel]
                )
        if self._m:
            self._m.outbox_depth.set(
                depth, self.worker_id, dst, CHANNEL_NAMES[channel]
            )
        return True

    def revive(self, peer: int, addr: tuple[str, int]) -> None:
        """Resurrect ``peer`` at a (possibly new) address.

        Clears the dead/graceful state, rebuilds the token bucket, and
        replaces both channels' links with fresh outboxes and sender
        tasks pointed at ``addr`` — resetting the reconnect episode.
        Safe to call even when the peer was never declared dead (e.g.
        the supervisor respawned it before the retry budget ran out):
        the old links are superseded, and their in-flight retry loops
        unwind without side effects (see :meth:`_ensure_connected`).
        Frames still queued on the old links are abandoned — exactly the
        in-flight loss a real crash implies.
        """
        if self._closing:
            return
        self._dead.discard(peer)
        self._graceful.discard(peer)
        if self._rate_fn is not None:
            self._buckets[peer] = TokenBucket(max(1.0, self._rate_fn(peer)))
        for channel in (CHANNEL_CONTROL, CHANNEL_DATA):
            old = self._out.get((peer, channel))
            if old is not None:
                self._put_close(old)
                self._sever(old)
            link = _OutLink(peer, channel, self.cfg.outbox_capacity)
            link.addr = tuple(addr)
            self._out[(peer, channel)] = link
            link.task = asyncio.ensure_future(self._sender(link))
            link.task.add_done_callback(self._task_done)
        if self._m:
            self._m.revives.inc(1, self.worker_id, peer)
        if self.tracer.enabled:
            self.tracer.instant(
                "peer-revived",
                self.worker_id,
                TID_NET,
                self._now_fn() if self._now_fn is not None else 0.0,
                cat="net",
                args={"peer": peer, "addr": f"{addr[0]}:{addr[1]}"},
            )

    def live_peers(self) -> list[int]:
        """Peers not (yet) declared dead, in ascending id order."""
        return sorted({dst for dst, _ in self._out} - self._dead)

    # ------------------------------------------------------------------
    # Internals: outgoing side
    # ------------------------------------------------------------------
    def _release(self, fbuf: FrameBuffer | None) -> None:
        if fbuf is not None and len(self._pool) < _POOL_MAX:
            self._pool.append(fbuf)

    @staticmethod
    def _put_close(link: _OutLink) -> None:
        """Wake ``link``'s sender with the shutdown sentinel. The
        sentinel is not work: its unfinished-count contribution is
        balanced here so ``queue.join()`` only tracks real frames."""
        try:
            link.queue.put_nowait(_CLOSE)
            link.queue.task_done()
        except asyncio.QueueFull:
            pass

    async def _sender(self, link: _OutLink) -> None:
        loop = asyncio.get_event_loop()
        carry = None  # dequeued head whose injected delay hasn't elapsed
        try:
            while True:
                if carry is not None:
                    item, carry = carry, None
                else:
                    item = await link.queue.get()
                if item is _CLOSE:
                    return  # already balanced by _put_close
                if item[2]:
                    # Injected latency: hold the FIFO head back, so ordering
                    # is preserved (later frames queue behind the delay).
                    pause = item[2] - loop.time()
                    if pause > 0:
                        await asyncio.sleep(pause)
                # Coalesce: drain whatever else is already queued into one
                # batched write, bounded by coalesce_max_bytes. A delayed
                # frame ends the batch (it must wait; order is preserved by
                # carrying it into the next round).
                batch = [item]
                batch_bytes = len(item[0])
                close_after = False
                while batch_bytes < self.cfg.coalesce_max_bytes:
                    try:
                        nxt = link.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is _CLOSE:
                        close_after = True
                        break
                    if nxt[2] and nxt[2] > loop.time():
                        carry = nxt
                        break
                    batch.append(nxt)
                    batch_bytes += len(nxt[0])
                ok = await self._send_batch(link, batch, batch_bytes)
                for it in batch:
                    link.queue.task_done()
                    self._release(it[4])
                if not ok:
                    if carry is not None:
                        link.queue.task_done()
                        self._release(carry[4])
                    return  # dead / superseded / closing; outbox abandoned
                if close_after:
                    return
        finally:
            self._close_sock(link)

    async def _send_batch(self, link: _OutLink, batch: list, batch_bytes: int) -> bool:
        """Write ``batch`` (one or more frames) as a single transport
        operation; returns ``False`` when the link is defunct."""
        loop = asyncio.get_event_loop()
        while True:
            if not await self._ensure_connected(link):
                return False
            bucket = self._buckets.get(link.dst)
            t0_sim = self._now_fn() if self._now_fn is not None else 0.0
            if bucket is not None:
                if self._rate_fn is not None:
                    bucket.set_rate(max(1.0, self._rate_fn(link.dst)))
                # One charge for the whole batch: the modelled link pays
                # for every byte exactly once, and the stall counter
                # reflects the real sleep the batch produced.
                stalled = await bucket.throttle(batch_bytes)
                if stalled > 0 and self._m:
                    self._m.stall_seconds.inc(stalled, self.worker_id, link.dst)
            try:
                # The common case: the kernel takes the whole batch
                # straight from the encode buffers, with no await.
                rest = _send_views(link.sock, [it[0] for it in batch])
                if rest:
                    await asyncio.wait_for(
                        _send_rest(link.sock, rest), self.cfg.send_timeout_s
                    )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                self._close_sock(link)
                continue  # re-enter the connect/retry path
            break
        if self._m:
            ch = CHANNEL_NAMES[link.channel]
            self._m.send_bytes.inc(batch_bytes, self.worker_id, link.dst, ch)
            self._m.send_msgs.inc(len(batch), self.worker_id, link.dst, ch)
            if len(batch) > 1:
                self._m.coalesced.inc(len(batch), self.worker_id, link.dst, ch)
            self._m.outbox_depth.set(
                link.queue.qsize(), self.worker_id, link.dst, ch
            )
            t_done = loop.time()
            for frame, _tn, _nb, t_enq, _fb in batch:
                self._m.h_frame_bytes.observe(
                    len(frame), self.worker_id, link.dst, ch
                )
                self._m.h_frame_latency.observe(
                    max(t_done - t_enq, 0.0), self.worker_id, link.dst, ch
                )
        if self.tracer.enabled and self._now_fn is not None:
            t1_sim = self._now_fn()
            dur = max(t1_sim - t0_sim, 0.0)
            for frame, trace_name, _nb, _t_enq, _fb in batch:
                self.tracer.complete(
                    trace_name or f"send->{link.dst}",
                    self.worker_id,
                    TID_NET,
                    t0_sim,
                    dur,
                    cat="net",
                    args={"dst": link.dst, "bytes": len(frame)},
                )
        return True

    def _task_done(self, task: asyncio.Task) -> None:
        """Surface an unexpected sender/heartbeat crash instead of a stall.

        A transport task that dies with an exception would otherwise
        leave its outbox quietly backing up forever; route the failure
        to ``on_error`` (the live runtime fails the whole run) or
        re-raise into the event loop's exception handler.
        """
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None or self._closing:
            return
        if self._on_error is not None:
            self._on_error(exc)
        else:
            raise exc

    @staticmethod
    def _close_sock(link: _OutLink) -> None:
        """Close ``link``'s socket; only its own sender may do this."""
        if link.sock is not None:
            link.sock.close()
            link.sock = None

    @staticmethod
    def _sever(link: _OutLink) -> None:
        """Break ``link``'s connection: a blocked send fails at once, and
        its sender closes the socket, never while the loop watches the fd."""
        if link.sock is not None:
            try:
                link.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _superseded(self, link: _OutLink) -> bool:
        """Whether ``link`` was replaced by :meth:`revive` — its retry
        loop must unwind without declaring the (revived) peer dead."""
        return self._out.get((link.dst, link.channel)) is not link

    async def _ensure_connected(self, link: _OutLink) -> bool:
        if self._superseded(link):
            return False
        if link.sock is not None:
            return True
        if link.dst in self._dead or self._closing:
            return False
        for attempt in range(self.cfg.retry_attempts):
            if self._closing or self._superseded(link) or link.dst in self._dead:
                return False
            try:
                link.sock = await self._dial(link)
                if self._m:
                    self._m.connects.inc(1, self.worker_id, link.dst)
                    if link.ever_connected:
                        self._m.reconnects.inc(1, self.worker_id, link.dst)
                link.ever_connected = True
                return True
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if self._m:
                    self._m.retries.inc(1, self.worker_id, link.dst)
                # Exponential backoff with jitter.
                delay = min(
                    self.cfg.retry_max_s,
                    self.cfg.retry_base_s * (2.0 ** attempt),
                ) * (0.5 + self._rng.random())
                await asyncio.sleep(delay)
        if not self._superseded(link):
            self._declare_dead(link.dst)
        return False

    async def _dial(self, link: _OutLink) -> socket.socket:
        """Connect a non-blocking ``TCP_NODELAY`` socket to ``link.addr``
        and send the ``Hello``; the socket is closed if either fails."""
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET6 if ":" in link.addr[0] else socket.AF_INET)
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            await asyncio.wait_for(loop.sock_connect(sock, link.addr),
                                   self.cfg.connect_timeout_s)
            await loop.sock_sendall(sock, encode_message(Hello(self.worker_id, link.channel)))
        except BaseException:
            sock.close()
            raise
        return sock

    def _declare_dead(self, peer: int) -> None:
        if peer in self._dead:
            return
        self._dead.add(peer)
        for channel in (CHANNEL_CONTROL, CHANNEL_DATA):
            link = self._out.get((peer, channel))
            if link is None:
                continue
            dropped = 0
            while not link.queue.empty():
                item = link.queue.get_nowait()
                if item is not _CLOSE:
                    link.queue.task_done()
                    dropped += 1
                    self._release(item[4])
            if dropped and self._m:
                self._m.dropped.inc(
                    dropped, self.worker_id, peer, CHANNEL_NAMES[channel]
                )
            self._put_close(link)
            self._sever(link)
        graceful = peer in self._graceful or self._closing or self._draining
        if self.tracer.enabled:
            self.tracer.instant(
                "peer-dead" if not graceful else "peer-bye",
                self.worker_id,
                TID_NET,
                self._now_fn() if self._now_fn is not None else 0.0,
                cat="net",
                args={"peer": peer},
            )
        if not graceful and self._on_peer_dead is not None:
            self._on_peer_dead(peer)

    # ------------------------------------------------------------------
    # Internals: heartbeats
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        while not self._closing:
            await asyncio.sleep(self.cfg.heartbeat_interval_s)
            sim_now = self._now_fn() if self._now_fn is not None else 0.0
            hb = Heartbeat(
                self.worker_id, int(self._progress_fn()), sim_now,
                wall=asyncio.get_event_loop().time(),
            )
            for dst in self.live_peers():
                self.send(dst, CHANNEL_CONTROL, hb)
            if self._m:
                self._m.heartbeats.inc(1, self.worker_id)

    # ------------------------------------------------------------------
    # Internals: incoming side
    # ------------------------------------------------------------------
    def _receive(self, peer: int, channel: int, msg) -> None:
        """Handle one decoded frame from an accepted connection."""
        if isinstance(msg, Heartbeat):
            if msg.wall and msg.sender not in self._dead:
                # Echo the sender's wall timestamp so it can measure a
                # full round trip (its clock, both ends — no
                # cross-process clock comparison).
                self.send(
                    msg.sender, CHANNEL_CONTROL,
                    HeartbeatAck(self.worker_id, msg.wall),
                )
            if self._on_heartbeat is not None:
                self._on_heartbeat(msg)
        elif isinstance(msg, HeartbeatAck):
            if self._m:
                rtt = asyncio.get_event_loop().time() - msg.echo_wall
                if rtt >= 0:
                    self._m.hb_rtt.set(rtt, self.worker_id, msg.sender)
        elif isinstance(msg, Bye):
            # A departed peer's outboxes are abandoned now, not redialled
            # until close()'s drain timeout; no on_peer_dead (graceful).
            self._graceful.add(msg.sender)
            self._declare_dead(msg.sender)
        elif not isinstance(msg, Hello):
            self._on_message(peer, channel, msg)
