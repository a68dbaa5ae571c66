"""Loopback transport throughput benchmark for the live PeerMesh.

Stands up N :class:`~repro.transport.mesh.PeerMesh` endpoints on one
asyncio loop (ring topology: each worker opens links to its next
``RING_K`` successors, so 64 workers stay well under the fd limit) and
pushes pre-encoded dense-gradient frames until every expected frame has
been delivered. Per cluster size it records messages/sec, bytes/sec,
and the cluster-wide p99 enqueue-to-write frame latency — read straight
off the ``transport_frame_latency_seconds`` histogram the mesh's own
instrumentation records, so the benchmark doubles as an end-to-end
check of the telemetry plane.

Every link is a TCP socket with frame coalescing. A codec
micro-measurement also records the net allocation count and bytes per
encoded frame on the pooled zero-copy path, so the "allocation-free in
steady state" claim is machine-checked right next to the throughput it
buys.

Numbers land in ``BENCH_transport.json`` at the repo root (best-of-2 in
full mode). CI runs this file in smoke mode (``REPRO_BENCH_SMOKE=1``):
4 workers only, few frames, no wall-clock assertions — the delivery and
accounting checks always run.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import pathlib
import time
import tracemalloc

import numpy as np

from repro.cluster.messages import GradientMessage
from repro.obs.metrics import MetricsRegistry
from repro.transport.codec import FrameBuffer, encode_into, encode_message
from repro.transport.mesh import CHANNEL_DATA, PeerMesh, TransportConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_transport.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPS = 1 if SMOKE else 2
CLUSTER_SIZES = (4,) if SMOKE else (4, 16, 64)
FRAMES_PER_LINK = 30 if SMOKE else 400
# Each worker opens links to its next RING_K ring successors: coverage
# of the multi-hop topology without the all-pairs fd explosion at 64.
RING_K = 2
PAYLOAD_FLOATS = 1024  # ~4 KB dense-gradient frames

_CFG = TransportConfig(connect_timeout_s=10.0)


def _successors(w: int, n: int) -> list[int]:
    return [(w + i) % n for i in range(1, RING_K + 1) if (w + i) % n != w]


def _payload_frame(sender: int) -> bytes:
    rng = np.random.default_rng(sender)
    dense = {"var0": rng.standard_normal(PAYLOAD_FLOATS).astype(np.float32)}
    return encode_message(
        GradientMessage(sender=sender, iteration=1, lbs=16, dense=dense)
    )


async def _run_cluster(n: int) -> dict:
    """One measured round: every worker floods its ring successors."""
    registry = MetricsRegistry()
    expected = sum(len(_successors(w, n)) for w in range(n)) * FRAMES_PER_LINK
    got = 0
    done = asyncio.Event()

    def on_message(peer, channel, msg):
        nonlocal got
        got += 1
        if got >= expected:
            done.set()

    meshes = [
        PeerMesh(w, on_message=on_message, config=_CFG, metrics=registry)
        for w in range(n)
    ]
    ports = [await m.start() for m in meshes]
    await asyncio.gather(*[
        m.connect({d: ("127.0.0.1", ports[d]) for d in _successors(w, n)})
        for w, m in enumerate(meshes)
    ])

    frames = [_payload_frame(w) for w in range(n)]
    frame_bytes = len(frames[0])
    t0 = time.perf_counter()
    for i in range(FRAMES_PER_LINK):
        for w, m in enumerate(meshes):
            for d in _successors(w, n):
                while not m.send(d, CHANNEL_DATA, frames[w]):
                    await asyncio.sleep(0)  # outbox backpressure
        if i % 4 == 0:
            await asyncio.sleep(0)  # let sender tasks drain
    await asyncio.wait_for(done.wait(), timeout=300.0)
    wall = time.perf_counter() - t0
    await asyncio.gather(*[m.close(bye=False) for m in meshes])

    assert got == expected, (got, expected)
    lat = registry.get("transport_frame_latency_seconds")
    sent = registry.get("transport_send_msgs_total")
    data_sent = sum(v for k, v in sent.items() if k[2] == "data")
    assert data_sent == expected, (data_sent, expected)
    coalesced = registry.get("transport_coalesced_frames_total")
    coalesced_frames = sum(
        v for k, v in coalesced.items() if k[2] == "data"
    )
    return {
        "workers": n,
        "links": expected // FRAMES_PER_LINK,
        "frames": expected,
        "frame_bytes": frame_bytes,
        "wall_s": wall,
        "msgs_per_s": expected / wall,
        "bytes_per_s": expected * frame_bytes / wall,
        "coalesced_frac": coalesced_frames / expected,
        "frame_latency_p50_s": lat.percentile_all(0.50),
        "frame_latency_p99_s": lat.percentile_all(0.99),
    }


def _bench_cluster(n: int) -> dict:
    best = None
    for _ in range(REPS):
        row = asyncio.run(_run_cluster(n))
        if best is None or row["msgs_per_s"] > best["msgs_per_s"]:
            best = row
    return best


def _encode_allocs() -> dict:
    """Net allocations per frame on the pooled encode path (the
    zero-copy claim, measured): tracemalloc block/byte deltas across
    many re-encodes into one warmed FrameBuffer, divided per frame."""
    fbuf = FrameBuffer()
    rng = np.random.default_rng(0)
    msg = GradientMessage(
        sender=0, iteration=1, lbs=16,
        dense={"var0": rng.standard_normal(PAYLOAD_FLOATS).astype(np.float32)},
    )
    reps = 50 if SMOKE else 500
    for _ in range(3):  # warm the buffer to steady state
        encode_into(msg, fbuf)
    gc.collect()
    tracemalloc.start()
    try:
        snap0 = tracemalloc.take_snapshot()
        for _ in range(reps):
            encode_into(msg, fbuf)
        snap1 = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    diff = snap1.compare_to(snap0, "filename")
    # Exclude tracemalloc's own snapshot bookkeeping.
    blocks = sum(
        d.count_diff for d in diff if "tracemalloc" not in d.traceback[0].filename
    )
    nbytes = sum(
        d.size_diff for d in diff if "tracemalloc" not in d.traceback[0].filename
    )
    return {
        "frames": reps,
        "net_allocs_per_frame": blocks / reps,
        "net_bytes_per_frame": nbytes / reps,
    }


def _record(payload: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(payload)
    data["smoke"] = SMOKE
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_loopback_throughput():
    """Ring-flood each cluster size; record throughput, p99 latency,
    coalescing fraction, and encode allocation counts."""
    alloc = _encode_allocs()
    rows = [_bench_cluster(n) for n in CLUSTER_SIZES]
    _record({
        "ring_k": RING_K,
        "frames_per_link": FRAMES_PER_LINK,
        "reps": REPS,
        "cpu_count": os.cpu_count(),
        "encode_allocations": alloc,
        "clusters": rows,
    })
    for row in rows:
        print(
            f"\n{row['workers']:>3} workers: "
            f"{row['msgs_per_s']:,.0f} msgs/s, "
            f"{row['bytes_per_s'] / 1e6:.1f} MB/s, "
            f"coalesced {row['coalesced_frac'] * 100:.0f}%, "
            f"p99 frame latency "
            f"{(row['frame_latency_p99_s'] or 0.0) * 1e3:.2f} ms, "
            f"{alloc['net_allocs_per_frame']:.2f} allocs/frame"
        )
        # The instrumentation itself must have observed every frame.
        assert row["frame_latency_p99_s"] is not None
    # Steady-state encode must not allocate per frame (pool + views).
    assert alloc["net_allocs_per_frame"] < 1.0, alloc
    if not SMOKE:
        # Loopback should sustain well beyond paper-scale message rates.
        assert all(r["msgs_per_s"] > 1000 for r in rows), rows
