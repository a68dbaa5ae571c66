"""Tests for queues, the network monitor, and topology construction."""

import numpy as np
import pytest

from repro.cluster.monitor import NetworkResourceMonitor
from repro.cluster.network import BandwidthMatrix
from repro.cluster.queues import MessageQueues
from repro.cluster.topology import ClusterTopology
from repro.cluster.traces import PiecewiseTrace


class TestMessageQueues:
    def test_fifo_order(self):
        q = MessageQueues()
        q.push_data("a")
        q.push_data("b")
        assert q.pop_data() == "a"
        assert q.pop_data() == "b"
        assert q.pop_data() is None

    def test_control_and_data_separate(self):
        q = MessageQueues()
        q.push_control("ctl")
        q.push_data("dat")
        assert q.pop_control() == "ctl"
        assert q.pop_data() == "dat"

    def test_unbounded_by_default(self):
        q = MessageQueues()
        for i in range(10_000):
            q.push_data(i)
        assert q.data_depth == 10_000

    def test_depth_properties(self):
        q = MessageQueues()
        q.push_control("a")
        q.push_data("b")
        q.push_data("c")
        assert (q.control_depth, q.data_depth) == (1, 2)
        q.pop_data()
        assert q.data_depth == 1


class TestNetworkResourceMonitor:
    def test_reads_link_bandwidth(self):
        m = BandwidthMatrix.from_worker_capacity([50, 20, 35])
        mon = NetworkResourceMonitor(0, m)
        assert mon.available_bandwidth(1, 0.0) == 20.0
        assert mon.available_bandwidth(2, 0.0) == 35.0

    def test_tracks_traces(self):
        trace = PiecewiseTrace([(0, 30), (100, 100)])
        m = BandwidthMatrix([[1, trace], [trace, 1]])
        mon = NetworkResourceMonitor(0, m)
        assert mon.available_bandwidth(1, 0.0) == 30
        assert mon.available_bandwidth(1, 150.0) == 100

    def test_noise_is_seeded(self):
        m = BandwidthMatrix.from_worker_capacity([50, 50])
        a = NetworkResourceMonitor(0, m, noise=0.2, rng=np.random.default_rng(1))
        b = NetworkResourceMonitor(0, m, noise=0.2, rng=np.random.default_rng(1))
        assert a.available_bandwidth(1, 0.0) == b.available_bandwidth(1, 0.0)

    def test_noise_unbiased_on_average(self):
        m = BandwidthMatrix.from_worker_capacity([50, 50])
        mon = NetworkResourceMonitor(0, m, noise=0.1, rng=np.random.default_rng(0))
        vals = [mon.available_bandwidth(1, 0.0) for _ in range(400)]
        assert np.mean(vals) == pytest.approx(50.0, rel=0.05)

    def test_noise_without_rng_rejected(self):
        # noise > 0 with no rng would silently return noiseless
        # estimates; the constructor must refuse the combination.
        m = BandwidthMatrix.from_worker_capacity([50, 50])
        with pytest.raises(ValueError, match="requires an rng"):
            NetworkResourceMonitor(0, m, noise=0.2)

    def test_negative_noise_rejected(self):
        m = BandwidthMatrix.from_worker_capacity([50, 50])
        with pytest.raises(ValueError, match="non-negative"):
            NetworkResourceMonitor(0, m, noise=-0.1, rng=np.random.default_rng(0))


class TestClusterTopology:
    def test_build_from_table3_style_spec(self):
        topo = ClusterTopology.build(
            cores=[24, 24, 12, 12, 6, 6], bandwidth=[50, 50, 35, 35, 20, 20]
        )
        assert topo.n_workers == 6
        assert topo.compute[0].rate_at(0) == 4 * topo.compute[4].rate_at(0)
        assert topo.network.link(0, 5).bandwidth_at(0) == 20

    def test_peers(self):
        topo = ClusterTopology.build(cores=[1, 1, 1], bandwidth=[10, 10, 10])
        assert topo.peers(1) == [0, 2]

    def test_size_mismatch_rejected(self):
        from repro.cluster.compute import ComputeProfile

        with pytest.raises(ValueError):
            ClusterTopology(
                compute=[ComputeProfile(1)],
                network=BandwidthMatrix.from_worker_capacity([10, 10]),
            )

    def test_single_worker_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology.build(cores=[1], bandwidth=[10])
