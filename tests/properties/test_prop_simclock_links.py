"""Property-based tests for the event clock and link FIFO invariants."""

from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import BandwidthMatrix
from repro.cluster.simclock import SimClock
from repro.cluster.traces import ConstantTrace, PiecewiseTrace
from tests.cluster.test_network import varying_links


@given(times=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(times):
    clk = SimClock()
    fired: list[float] = []
    for t in times:
        clk.schedule(t, lambda t=t: fired.append(clk.now))
    clk.run_until(1e7)
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    times=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
    horizon=st.floats(0.0, 150.0),
)
@settings(max_examples=150, deadline=None)
def test_run_until_processes_exactly_due_events(times, horizon):
    clk = SimClock()
    for t in times:
        clk.schedule(t, lambda: None)
    n = clk.run_until(horizon)
    assert n == sum(1 for t in times if t <= horizon)
    assert clk.pending() == len(times) - n


@given(
    payloads=st.lists(st.integers(1, 10_000_000), min_size=1, max_size=40),
    enqueue_gaps=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40),
    bw=st.floats(0.1, 1000.0),
)
@settings(max_examples=150, deadline=None)
def test_link_transfers_never_overlap(payloads, enqueue_gaps, bw):
    """FIFO invariant: deliveries are ordered and the link is never
    carrying two transfers at once (each starts after the previous
    delivery minus latency)."""
    link = BandwidthMatrix([[bw, bw], [bw, bw]], latency=0.0).link(0, 1)
    t = 0.0
    deliveries = []
    for nbytes, gap in zip(payloads, enqueue_gaps):
        t += gap
        deliveries.append(link.enqueue_transfer(nbytes, t))
    assert deliveries == sorted(deliveries)
    # total serialization time is conserved
    total_bits = sum(payloads[: len(deliveries)]) * 8
    assert deliveries[-1] >= total_bits / (bw * 1e6) - 1e-9


@given(
    nbytes=st.integers(0, 10_000_000),
    bw=st.floats(0.1, 1000.0),
    t=st.floats(0.0, 1e4),
)
@settings(max_examples=150, deadline=None)
def test_transfer_duration_proportional_to_bytes(nbytes, bw, t):
    link = BandwidthMatrix([[bw, bw], [bw, bw]]).link(0, 1)
    d = link.transfer_duration(nbytes, t)
    assert d >= 0
    assert d == (nbytes * 8.0) / (bw * 1e6)


# ----------------------------------------------------------------------
# The link store against a scalar oracle
# ----------------------------------------------------------------------
class _Oracle:
    """The reference arithmetic, one transfer at a time: a NIC queue
    (when modelled) hands the transfer to a FIFO link at the time its
    last byte leaves the interface; both read their rate at start."""

    def __init__(self, spec, latency, egress):
        self.spec, self.latency, self.egress = spec, latency, egress
        self.nic_busy = [0.0] * len(spec)
        self.busy, self.bytes, self.transfers = {}, {}, {}

    @staticmethod
    def _level(resource, t):
        return resource.value_at(t) if hasattr(resource, "value_at") else float(resource)

    def enqueue(self, src, dst, nbytes, t):
        if self.egress is not None:
            start = max(t, self.nic_busy[src])
            rate = self._level(self.egress[src], start)
            t = self.nic_busy[src] = start + (nbytes * 8.0) / (rate * 1e6)
        start = max(t, self.busy.get((src, dst), 0.0))
        mbps = self._level(self.spec[src][dst], start)
        self.busy[src, dst] = start + (nbytes * 8.0) / (mbps * 1e6)
        self.bytes[src, dst] = self.bytes.get((src, dst), 0) + nbytes
        self.transfers[src, dst] = self.transfers.get((src, dst), 0) + 1
        return self.busy[src, dst] + self.latency


_levels = st.one_of(st.integers(1, 100), st.floats(0.5, 100.0))


def _trace(steps):
    """``[(gap, level), ...]`` -> a trace starting at t=0 (first gap unused)."""
    gaps, levels = zip(*steps)
    return PiecewiseTrace(list(zip(accumulate(gaps[1:], initial=0.0), levels)))


_piecewise = st.lists(
    st.tuples(st.floats(0.05, 3.0), st.floats(0.5, 100.0)), min_size=2, max_size=4
).map(_trace)
_resource = st.one_of(_levels, _levels.map(ConstantTrace), _piecewise, _piecewise)
# Mostly payloads that keep a link busy across a trace breakpoint.
_sizes = st.one_of(st.integers(0, 5000), st.integers(1_000_000, 20_000_000))


@st.composite
def _store_cases(draw):
    n = draw(st.integers(2, 6))
    spec = [[draw(_resource) for _ in range(n)] for _ in range(n)]
    egress = draw(st.none() | st.lists(_resource, min_size=n, max_size=n))
    ops = []
    for _ in range(draw(st.integers(10, 40))):
        src = draw(st.integers(0, n - 1))
        peers = [j for j in range(n) if j != src]
        gap = draw(st.floats(0.0, 0.5))
        if draw(st.booleans()):
            dsts = draw(st.permutations(peers))[: draw(st.integers(0, n - 1))]
        else:
            dsts = draw(st.sampled_from(peers))  # a scalar enqueue
        count = len(dsts) if isinstance(dsts, list) else 1
        sizes = draw(st.lists(_sizes, min_size=count, max_size=count))
        ops.append((gap, src, dsts, sizes))
    return spec, draw(st.floats(0.0, 0.05)), egress, ops


def _bits(values):
    return [float(v).hex() for v in values]


@given(case=_store_cases())
@settings(max_examples=250, deadline=None)
def test_link_store_matches_scalar_oracle_bitwise(case):
    """Every spec — constant, ``ConstantTrace``, piecewise, behind a NIC
    queue or not — through scalar and batch enqueues: delivery times and
    the per-link state equal the oracle's to the last bit, and a batch
    equals the in-order scalar loop."""
    spec, latency, egress, ops = case
    n = len(spec)
    mixed = BandwidthMatrix(spec, latency=latency, egress=egress)
    looped = BandwidthMatrix(spec, latency=latency, egress=egress)
    oracle = _Oracle(spec, latency, egress)
    # Only a bandwidth that varies keeps a trace beside the arrays.
    assert varying_links(mixed) == {
        (i, j) for i in range(n) for j in range(n)
        if i != j and isinstance(spec[i][j], PiecewiseTrace)
    }
    t = 0.0
    for gap, src, dsts, sizes in ops:
        t += gap
        if isinstance(dsts, list):
            got = mixed.enqueue_transfers(src, dsts, sizes, t)
        else:
            got = [mixed.enqueue_transfer(src, dsts, sizes[0], t)]
            dsts = [dsts]
        loop = [looped.enqueue_transfer(src, d, s, t) for d, s in zip(dsts, sizes)]
        want = [oracle.enqueue(src, d, s, t) for d, s in zip(dsts, sizes)]
        assert _bits(got) == _bits(want)
        assert _bits(loop) == _bits(want)
    for matrix in (mixed, looped):
        for i in range(n):
            for link in matrix.out_links(i):
                key = (i, link.dst)
                assert link.busy_until.hex() == oracle.busy.get(key, 0.0).hex()
                assert link.bytes_sent == oracle.bytes.get(key, 0)
                assert link.transfers == oracle.transfers.get(key, 0)
        assert matrix.total_bytes() == sum(oracle.bytes.values())
        if egress is not None:
            assert [q.busy_until for q in matrix.egress.values()] == oracle.nic_busy
