"""The WorkerHost seam: a third backend in 30 lines, the shared surface,
and the one RunResult state both backends serialise through."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import SimClock
from repro.core.engine import TrainingEngine
from repro.core.host import RunResult, WorkerHost
from repro.obs.metrics import MetricsRegistry
from repro.transport.runtime import LiveWorkerRuntime
from repro.utils.metrics import TimeSeries


class InMemoryHost(WorkerHost):
    """Every worker on one virtual clock; a message is a scheduled call."""

    DELAY = 0.01

    def __init__(self, config, topology, **kw):
        super().__init__(config, topology, SimClock(), seed=0, **kw)
        self.delivered = []
        self._record_start()

    def _deliver(self, src, dst, nbytes, handler, msg, *, kind="msg"):
        self.delivered.append((kind, src, dst, msg))
        self.clock.schedule_in(self.DELAY, handler, msg)

    def run(self, horizon):
        self._arm_gbs_tick()
        self._start_workers()
        self.clock.run_until(horizon)
        return self.finalize()


def test_in_memory_host_is_at_most_thirty_lines():
    assert len(inspect.getsource(InMemoryHost).splitlines()) <= 30


@pytest.fixture
def two_workers():
    from repro.cluster.topology import ClusterTopology

    return ClusterTopology.build(
        cores=[8, 4], bandwidth=[20.0, 10.0],
        per_core_rate=16.0, overhead=0.02, jitter=0.0,
    )


class TestInMemoryHost:
    def test_two_workers_train_through_the_three_hooks(
        self, fast_config, two_workers
    ):
        host = InMemoryHost(fast_config, two_workers)
        result = host.run(6.0)
        assert all(n >= 3 for n in result.iterations)
        assert all(len(s) == n for s, n in zip(result.loss, result.iterations))
        assert all(len(s) >= 1 for s in result.accuracy)
        kinds = {kind for kind, *_ in host.delivered}
        assert {"grad", "ctrl"} <= kinds
        # Every gradient went through the one link-stat helper.
        grads = sum(1 for kind, *_ in host.delivered if kind == "grad")
        assert sum(len(s) for s in result.link_entries.values()) == grads
        assert result.events == host.clock.events_processed > 0

    def test_same_start_as_the_simulator(self, fast_config, two_workers):
        """Construction is the host's: same models, shards and LBS probes."""
        host = InMemoryHost(fast_config, two_workers)
        sim = TrainingEngine(fast_config, two_workers, seed=0)
        for a, b in zip(host.workers, sim.workers):
            for name, arr in a.model.variables().items():
                assert (arr == b.model.variables()[name]).all()
        assert host.result.to_state() == sim.result.to_state()

    def test_broadcast_shares_one_message(self, fast_config, tiny_topology):
        host = InMemoryHost(fast_config, tiny_topology)
        host.broadcast_rcp(0, 1.5)
        host.broadcast_loss_share(0, 3, 0.25)
        rcp = [m for _, _, _, m in host.delivered[:2]]
        loss = [m for _, _, _, m in host.delivered[2:]]
        assert len(rcp) == len(loss) == 2
        assert rcp[0] is rcp[1] and loss[0] is loss[1]

    def test_record_hooks_bump_the_result(self, fast_config, two_workers):
        host = InMemoryHost(fast_config, two_workers)
        host.record_loss(1, 0.5)
        host.record_dkt_merge(1)
        assert host.result.iterations == [0, 1]
        assert host.result.dkt_merges == 1

    def test_foreign_worker_is_rejected(self, fast_config, two_workers):
        host = InMemoryHost(fast_config, two_workers, hosted=(1,))
        assert [w.worker_id for w in host.workers] == [1]
        with pytest.raises(ValueError, match="not held"):
            host.evaluate_worker(0)

    def test_non_control_message_is_rejected(self, fast_config, two_workers):
        host = InMemoryHost(fast_config, two_workers)
        with pytest.raises(TypeError, match="not a control message"):
            host.send_control(0, 1, object())


class TestSurface:
    # What a backend may define under the same name as the other one:
    # the hooks, and overrides that call super().
    ALLOWED = {
        "__init__", "_deliver", "global_epoch", "finalize", "record_loss",
        "_blackout_edge",
    }

    def test_backends_share_only_hooks_and_overrides(self):
        sim = {n for n, v in vars(TrainingEngine).items() if callable(v)}
        live = {n for n, v in vars(LiveWorkerRuntime).items() if callable(v)}
        assert sim & live <= self.ALLOWED
        assert len((sim & live) - {"__init__"}) <= 5

    def test_both_backends_are_worker_hosts(self):
        assert issubclass(TrainingEngine, WorkerHost)
        assert issubclass(LiveWorkerRuntime, WorkerHost)
        for name in ("send_gradients", "send_control", "_gbs_tick", "record_lbs"):
            assert name not in vars(TrainingEngine)
            assert name not in vars(LiveWorkerRuntime)


# -- RunResult.to_state / absorb ---------------------------------------

N = 3
_series = st.lists(
    st.tuples(st.floats(0, 1e3), st.floats(-1e6, 1e6)), max_size=6
).map(lambda pts: TimeSeries(*map(list, zip(*sorted(pts)))) if pts else TimeSeries())
_links = st.dictionaries(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), _series, max_size=4
)


@st.composite
def results(draw):
    r = RunResult.blank(N, metrics=MetricsRegistry())
    for name in ("accuracy", "loss", "lbs"):
        setattr(r, name, [draw(_series) for _ in range(N)])
    r.gbs, r.active_workers = draw(_series), draw(_series)
    r.link_entries, r.link_chosen_n = draw(_links), draw(_links)
    r.iterations = draw(st.lists(st.integers(0, 500), min_size=N, max_size=N))
    r.dkt_merges = draw(st.integers(0, 50))
    r.events = draw(st.integers(0, 10_000))
    r.epochs = draw(st.floats(0, 100))
    return r


class TestRunResultState:
    @settings(deadline=None, max_examples=60)
    @given(result=results())
    def test_round_trip(self, result):
        state = result.to_state()
        back = RunResult.blank(N, metrics=MetricsRegistry())
        back.absorb(state)
        assert back.to_state() == state
        assert set(back.link_entries) == set(result.link_entries)
        assert set(back.link_chosen_n) == set(result.link_chosen_n)
        assert back.iterations == result.iterations
        assert back.dkt_merges == result.dkt_merges

    def test_state_is_a_copy(self):
        r = RunResult.blank(2, metrics=MetricsRegistry())
        r.loss[0].append(1.0, 0.5)
        state = r.to_state()
        r.loss[0].append(2.0, 0.4)
        assert state["loss"][0].times == [1.0]

    def test_absorbing_two_workers_merges_like_one_shared_result(self):
        """The rule LiveEngine._merge applied by hand before: per-worker
        series by index, link series by key, counts summed, epochs the
        furthest view, cluster series from the lowest worker."""

        def child(w, gbs_at):
            r = RunResult.blank(2, metrics=MetricsRegistry())
            r.loss[w].append(1.0 + w, 0.9)
            r.accuracy[w].append(2.0, 0.5 + w / 10)
            r.lbs[w].append(0.0, 8)
            r.gbs.append(gbs_at, 16)
            r.active_workers.append(0.0, 2)
            r.link_entries[(w, 1 - w)] = TimeSeries([1.0], [100.0 + w])
            r.iterations[w] = 7 + w
            r.dkt_merges, r.events, r.epochs = 1 + w, 40 + w, 0.5 + w
            return r.to_state()

        merged = RunResult.blank(2, metrics=MetricsRegistry())
        for state in (child(0, 0.0), child(1, 0.25)):
            merged.absorb(state)
        assert merged.loss[0].times == [1.0] and merged.loss[1].times == [2.0]
        assert merged.accuracy[1].values == [0.6]
        assert merged.iterations == [7, 8]
        assert (merged.dkt_merges, merged.events, merged.epochs) == (3, 81, 1.5)
        assert merged.link_entries[(1, 0)].values == [101.0]
        assert merged.gbs.times == [0.0]  # worker 0's view, not both
        assert len(merged.active_workers) == 1

