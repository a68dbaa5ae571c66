"""The mesh's receive framer under arbitrary read boundaries.

``_Inbound`` is driven directly through ``get_buffer`` /
``buffer_updated`` with a fake transport — no socket — so every way the
kernel could split a byte stream is reachable: 1-byte reads, one giant
read, and random chunkings across the 4 KiB direct-read threshold and
the 64 KiB staging buffer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import (
    ControlMessage,
    DktRequestMessage,
    GradientMessage,
    LossShareMessage,
    RcpShareMessage,
    WeightMessage,
)
from repro.transport.codec import Hello, encode_message
from repro.transport.mesh import CHANNEL_DATA, PeerMesh, _Inbound

# float32 counts whose dense bodies land on both sides of the direct
# threshold (~1,015) and of the staging buffer (~16,375).
_dense_counts = st.one_of(
    st.integers(1, 64),
    st.integers(1000, 1040),
    st.integers(16360, 16400),
    st.integers(1, 20000),
)


@st.composite
def messages(draw):
    seq = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["loss", "dkt", "rcp", "control", "sparse", "dense", "weights"]
    ))
    if kind == "loss":
        return LossShareMessage(3, seq, float(rng.random()))
    if kind == "dkt":
        return DktRequestMessage(3, seq)
    if kind == "rcp":
        return RcpShareMessage(3, float(rng.random()))
    if kind == "control":
        return ControlMessage(3, "go", {"seq": seq, "tag": "x" * (seq % 300)})
    if kind == "sparse":
        # 8 bytes per entry: up to 600 entries straddles 4 KiB.
        n = draw(st.integers(1, 600))
        idx = np.sort(rng.choice(1 << 20, size=n, replace=False))
        vals = rng.standard_normal(n).astype(np.float32)
        return GradientMessage(3, seq, 32, sparse={"w": (idx, vals)})
    arrays = {
        "w": rng.standard_normal(draw(_dense_counts)).astype(np.float32),
        "b": rng.standard_normal((2, 3)).astype(np.float32),
    }
    if kind == "dense":
        return GradientMessage(3, seq, 32, dense=arrays)
    return WeightMessage(3, seq, arrays)


_chunkings = st.one_of(
    st.just([1]),
    st.just([1 << 30]),
    st.lists(st.integers(1, 1 << 17), min_size=1, max_size=6),
)


def _arrays(msg) -> list:
    if isinstance(msg, GradientMessage) and msg.sparse is not None:
        return [a for pair in msg.sparse.values() for a in pair]
    if isinstance(msg, GradientMessage):
        return list(msg.dense.values())
    if isinstance(msg, WeightMessage):
        return list(msg.weights.values())
    return []


def _assert_same(got, want) -> None:
    assert type(got) is type(want)
    if not _arrays(want):
        assert got == want
        return
    assert (got.sender, got.iteration) == (want.sender, want.iteration)
    for g, w in zip(_arrays(got), _arrays(want), strict=True):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)


class _FakeTransport:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def _feed(proto: _Inbound, data: bytes, chunks: list) -> None:
    """Hand ``data`` to ``proto`` the way a socket transport does: each
    read fills at most the buffer ``get_buffer`` returned."""
    off = k = 0
    while off < len(data):
        buf = proto.get_buffer(-1)
        n = min(len(buf), chunks[k % len(chunks)], len(data) - off)
        buf[:n] = data[off:off + n]
        proto.buffer_updated(n)
        off += n
        k += 1


class TestFramer:
    @settings(max_examples=60, deadline=None)
    @given(msgs=st.lists(messages(), min_size=1, max_size=6), chunks=_chunkings)
    def test_any_read_boundaries_decode_every_frame(self, msgs, chunks):
        received, snapshots = [], []

        def on_message(peer, channel, msg):
            assert (peer, channel) == (3, CHANNEL_DATA)
            _assert_same(msg, msgs[len(received)])
            received.append(msg)
            snapshots.append([a.copy() for a in _arrays(msg)])

        proto = _Inbound(PeerMesh(1, on_message=on_message))
        transport = _FakeTransport()
        proto.connection_made(transport)
        stream = encode_message(Hello(3, CHANNEL_DATA)) + b"".join(
            encode_message(m) for m in msgs
        )
        _feed(proto, stream, chunks)

        assert not transport.closed
        assert len(received) == len(msgs)
        for got, snap in zip(received, snapshots):
            for arr, before in zip(_arrays(got), snap, strict=True):
                assert not arr.flags.writeable
                # Later frames never overwrite an earlier message's body.
                assert arr.tobytes() == before.tobytes()
        proto.connection_lost(None)
