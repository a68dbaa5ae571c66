"""Tests for links, FIFO serialization, and the bandwidth matrix."""

import tracemalloc

import numpy as np
import pytest

from repro.cluster.monitor import NetworkResourceMonitor
from repro.cluster.network import (
    AWS_REGION_BANDWIDTH,
    AWS_REGIONS,
    BandwidthMatrix,
    Link,
)
from repro.cluster.topology import ClusterTopology
from repro.cluster.traces import ConstantTrace, PiecewiseTrace


def varying_links(net) -> set[tuple[int, int]]:
    """The links whose bandwidth, by the matrix's rule, is a trace."""
    return {
        (i, j)
        for i in range(net.n)
        for j in range(net.n)
        if i != j and not isinstance(net._bandwidth(i, j), float)
    }


def make_link(src, dst, bandwidth, *, latency=0.002):
    """A standalone link: the ``src -> dst`` view of a small uniform matrix."""
    n = max(src, dst, 1) + 1
    matrix = BandwidthMatrix([[bandwidth] * n for _ in range(n)], latency=latency)
    return Link(matrix, src, dst)


class TestLink:
    def test_transfer_duration(self):
        link = make_link(0, 1, 50.0, latency=0.0)
        # 1 MB at 50 Mbps = 8e6 bits / 5e7 bps = 0.16 s
        assert link.transfer_duration(1_000_000, 0.0) == pytest.approx(0.16)

    def test_fifo_serialization(self):
        link = make_link(0, 1, 80.0, latency=0.0)
        d1 = link.enqueue_transfer(1_000_000, 0.0)   # 0.1 s
        d2 = link.enqueue_transfer(1_000_000, 0.0)   # queued behind
        assert d1 == pytest.approx(0.1)
        assert d2 == pytest.approx(0.2)

    def test_idle_gap_resets_queue(self):
        link = make_link(0, 1, 80.0, latency=0.0)
        link.enqueue_transfer(1_000_000, 0.0)
        d = link.enqueue_transfer(1_000_000, 10.0)  # queue long drained
        assert d == pytest.approx(10.1)

    def test_latency_added_after_serialization(self):
        link = make_link(0, 1, 80.0, latency=0.05)
        assert link.enqueue_transfer(1_000_000, 0.0) == pytest.approx(0.15)

    def test_queue_delay(self):
        link = make_link(0, 1, 80.0, latency=0.0)
        link.enqueue_transfer(2_000_000, 0.0)  # busy until 0.2
        assert link.queue_delay(0.1) == pytest.approx(0.1)
        assert link.queue_delay(0.5) == 0.0

    def test_bandwidth_trace_respected(self):
        link = make_link(0, 1, PiecewiseTrace([(0, 10), (100, 100)]), latency=0.0)
        slow = link.transfer_duration(1_000_000, 0.0)
        fast = link.transfer_duration(1_000_000, 150.0)
        assert slow == pytest.approx(10 * fast)

    def test_stats(self):
        link = make_link(0, 1, 80.0)
        link.enqueue_transfer(100, 0.0)
        link.enqueue_transfer(200, 0.0)
        assert link.bytes_sent == 300
        assert link.transfers == 2

    def test_no_self_link(self):
        with pytest.raises(ValueError):
            make_link(2, 2, 10.0)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            make_link(0, 1, 10.0).transfer_duration(-1, 0.0)


class TestBandwidthMatrix:
    def test_from_worker_capacity_uses_min(self):
        m = BandwidthMatrix.from_worker_capacity([50, 20, 35])
        assert m.link(0, 1).bandwidth_at(0) == 20
        assert m.link(1, 0).bandwidth_at(0) == 20
        assert m.link(0, 2).bandwidth_at(0) == 35

    def test_from_worker_capacity_uses_min_for_traces_too(self):
        drop = PiecewiseTrace([(0, 50), (300, 20)])
        m = BandwidthMatrix.from_worker_capacity([50, drop, 20])
        # both directions follow the slower endpoint at every instant
        for src, dst in ((0, 1), (1, 0)):
            assert m.bandwidth_at(src, dst, 299.0) == 50
            assert m.bandwidth_at(src, dst, 300.0) == 20
        # a trace that is never slower than its peer leaves a constant link
        assert varying_links(m) == {(0, 1), (1, 0)}
        assert m.bandwidth_at(1, 2, 0.0) == m.bandwidth_at(2, 1, 300.0) == 20

    def test_reset_returns_links_and_egress_to_idle(self):
        fresh = BandwidthMatrix.from_worker_capacity([50, 20, 35], shared_egress=True)
        used = BandwidthMatrix.from_worker_capacity([50, 20, 35], shared_egress=True)
        for t in (0.0, 0.1, 0.2):
            used.enqueue_transfer(0, 1, 1_000_000, t)
        used.reset()
        assert used.total_bytes() == 0 and used.link(0, 1).busy_until == 0.0
        assert all(q.busy_until == 0.0 and q.bytes_sent == 0
                   for q in used.egress.values())
        assert used.enqueue_transfer(0, 1, 1_000_000, 1.0) == fresh.enqueue_transfer(
            0, 1, 1_000_000, 1.0
        )

    def test_full_mesh_no_self_links(self):
        m = BandwidthMatrix.from_worker_capacity([10] * 4)
        assert sum(len(m.out_links(i)) for i in range(4)) == 12
        with pytest.raises(KeyError):
            m.link(1, 1)

    def test_out_links(self):
        m = BandwidthMatrix.from_worker_capacity([10] * 3)
        outs = m.out_links(1)
        assert sorted(l.dst for l in outs) == [0, 2]

    def test_from_regions_lan_and_wan(self):
        m = BandwidthMatrix.from_regions([0, 0, 3], lan_mbps=1000.0)
        assert m.link(0, 1).bandwidth_at(0) == 1000.0  # same region
        # Virginia -> Mumbai from Table 2 = 53 Mbps
        assert m.link(0, 2).bandwidth_at(0) == 53.0
        # Mumbai -> Virginia = 53 as well (table is roughly symmetric here)
        assert m.link(2, 0).bandwidth_at(0) == AWS_REGION_BANDWIDTH[3][0]

    def test_table2_shape_and_values(self):
        assert AWS_REGION_BANDWIDTH.shape == (6, 6)
        assert len(AWS_REGIONS) == 6
        # spot-check the paper's numbers
        assert AWS_REGION_BANDWIDTH[0][1] == 190   # Virginia -> Oregon
        assert AWS_REGION_BANDWIDTH[2][4] == 30    # Ireland -> Seoul
        assert AWS_REGION_BANDWIDTH[5][2] == 36    # Sydney -> Ireland
        assert (np.diag(AWS_REGION_BANDWIDTH) == 0).all()

    def test_total_bytes(self):
        m = BandwidthMatrix.from_worker_capacity([10] * 2)
        m.link(0, 1).enqueue_transfer(500, 0.0)
        assert m.total_bytes() == 500

    def test_square_spec_required(self):
        with pytest.raises(ValueError):
            BandwidthMatrix([[1, 2], [3]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BandwidthMatrix([[0, 0.0], [5, 0]]),
            lambda: BandwidthMatrix(np.array([[0.0, 5.0], [-5.0, 0.0]])),
            lambda: BandwidthMatrix([[1, ConstantTrace(50.0)], [-5, 1]]),
            lambda: BandwidthMatrix.from_worker_capacity([50, -5, 20]),
            lambda: BandwidthMatrix.from_worker_capacity(
                [50, -5, 20], shared_egress=True
            ),
            lambda: BandwidthMatrix([[0, 5.0], [5.0, 0]], egress=[10.0, 0.0]),
            lambda: ClusterTopology.build(cores=[4, 4, 4], bandwidth=[50, 0, 20]),
        ],
        ids=["list", "ndarray", "constant-trace", "capacity", "capacity+egress",
             "egress", "topology"],
    )
    def test_non_positive_bandwidth_rejected(self, build):
        """Every off-diagonal bandwidth and egress capacity must be > 0
        (it used to surface as a delivery before the start, or ``inf``)."""
        with pytest.raises(ValueError):
            build()

    def test_diagonal_is_ignored(self):
        """Table 2 carries 0 on its diagonal; only real links are checked."""
        m = BandwidthMatrix(AWS_REGION_BANDWIDTH)
        assert m.link(0, 1).bandwidth_at(0.0) == 190.0


class TestVectorMode:
    """The array store behind every matrix, and its batch path."""

    def _scalar_matrix(self):
        return BandwidthMatrix.from_worker_capacity(
            [50.0, 35.0, 20.0, 10.0], latency=0.01
        )

    def test_links_mapping_view(self):
        m = self._scalar_matrix()
        view = m.link(0, 2)
        assert view.bandwidth_at(0.0) == 20.0
        assert view.latency == 0.01
        with pytest.raises(KeyError):
            m.link(2, 2)
        with pytest.raises(KeyError):
            m.link(0, 4)

    def test_batch_matches_sequential_bit_exact(self):
        """enqueue_transfers == the scalar loop, to the last ulp."""
        a, b = self._scalar_matrix(), self._scalar_matrix()
        # Load some links so busy_until differs per destination.
        for m in (a, b):
            m.enqueue_transfer(0, 1, 2_000_000, 0.0)
            m.enqueue_transfer(0, 3, 500_000, 0.0)
        dsts = [1, 2, 3]
        seq = [a.enqueue_transfer(0, d, 750_000, 1.0) for d in dsts]
        vec = b.enqueue_transfers(0, dsts, [750_000] * 3, 1.0)
        assert list(vec) == seq
        # Stats written back identically.
        for d in dsts:
            la, lb = a.link(0, d), b.link(0, d)
            assert la.busy_until == lb.busy_until
            assert la.bytes_sent == lb.bytes_sent
            assert la.transfers == lb.transfers
        assert a.total_bytes() == b.total_bytes()

    def test_batch_validation(self):
        m = self._scalar_matrix()
        with pytest.raises(KeyError):
            m.enqueue_transfers(0, [0, 1], [10, 10], 0.0)
        with pytest.raises(ValueError):
            m.enqueue_transfers(0, [1], [-5], 0.0)

    def test_scalar_path_returns_python_float(self):
        end = self._scalar_matrix().enqueue_transfer(0, 1, 1000, 0.0)
        assert type(end) is float

    def test_fifo_serialization_in_vector_mode(self):
        m = self._scalar_matrix()
        first = m.enqueue_transfer(0, 1, 35_000_000 // 8, 0.0)
        second = m.enqueue_transfer(0, 1, 35_000_000 // 8, 0.0)
        assert first == pytest.approx(1.0 + 0.01)
        assert second == pytest.approx(2.0 + 0.01)

    def test_vector_total_bytes(self):
        m = self._scalar_matrix()
        m.enqueue_transfer(0, 1, 1000, 0.0)
        m.enqueue_transfer(2, 3, 234, 0.0)
        assert m.total_bytes() == 1234


class TestLinkStore:
    """State for the links that carry traffic, none for the rest:
    O(links used), not O(n²)."""

    @pytest.mark.parametrize(
        "capacities",
        [
            [50.0] * 1000,
            # one varying worker: every link touching it has a trace
            [PiecewiseTrace([(0, 50), (10, 20)])] + [35.0] * 299,
        ],
        ids=["constant-1000", "traced-300"],
    )
    def test_capacity_build_allocates_no_n_by_n_state(self, capacities):
        tracemalloc.start()
        try:
            m = BandwidthMatrix.from_worker_capacity(capacities)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.n == len(capacities)
        assert peak < 1_000_000

    def test_k_transfers_on_k_links_leave_k_records(self):
        m = BandwidthMatrix.from_worker_capacity([50.0] * 100)
        links = [(src, (3 * src + 1) % 100) for src in range(0, 100, 2)]
        assert len(set(links)) == len(links)
        for src, dst in links:
            m.enqueue_transfer(src, dst, 1000, 0.0)
        assert len(m._links) == len(links)
        # a link that carried traffic before keeps its one record
        m.enqueue_transfer(*links[0], 1000, 1.0)
        assert len(m._links) == len(links)
        assert m.link(*links[0]).transfers == 2
        assert m.total_bytes() == 1000 * (len(links) + 1)

    def test_reads_make_no_record(self):
        drop = PiecewiseTrace([(0, 50), (300, 20)])
        m = BandwidthMatrix.from_worker_capacity([50.0, drop, 35.0, 20.0])
        for src, dst in ((0, 1), (1, 0), (2, 3)):
            link = m.link(src, dst)
            assert link.bytes_sent == 0
            assert link.transfers == 0
            assert link.busy_until == 0.0
            assert link.queue_delay(1.0) == 0.0
        assert m.link(0, 1).bandwidth_at(300.0) == 20.0
        assert m.bandwidth_at(2, 3, 0.0) == 20.0
        monitor = NetworkResourceMonitor(2, m)
        reads = [monitor.available_bandwidth(dst, 300.0) for dst in (0, 1, 3)]
        assert reads == [35.0, 20.0, 20.0]
        assert m.total_bytes() == 0
        assert m._links == {}

    def test_first_transfer_takes_the_rule_bandwidth(self):
        drop = PiecewiseTrace([(0, 50), (300, 20)])
        m = BandwidthMatrix.from_worker_capacity([50.0, drop, 35.0], latency=0.0)
        # 50 Mbps before the drop, 20 after, on the link's own record
        assert m.enqueue_transfer(0, 1, 6_250_000, 0.0) == 1.0
        assert m.enqueue_transfer(0, 1, 2_500_000, 300.0) == 301.0
        assert m.bandwidth_at(0, 1, 300.0) == 20.0
        assert m.enqueue_transfer(2, 0, 4_375_000, 0.0) == 1.0
        assert set(m._links) == {(0, 1), (2, 0)}
