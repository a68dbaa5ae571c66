"""The WorkerHost seam: a third backend in 30 lines, the shared surface,
and the one run state (the metrics registry) both backends serialise
through."""

import dataclasses
import gc
import hashlib
import inspect
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.chaos import ChaosPlan, LinkFaultInjector
from repro.cluster.messages import GradientMessage, RcpShareMessage
from repro.cluster.simclock import SimClock
from repro.core.engine import TrainingEngine
from repro.core.host import RunResult, WorkerHost
from repro.core.run_metrics import RunMetrics
from repro.nn import datasets
from repro.nn.datasets import SyntheticImageDataset
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.transport.runtime import LiveRunSpec, LiveWorkerRuntime
from repro.utils.metrics import TimeSeries
from repro.utils.rng import RngPool


class InMemoryHost(WorkerHost):
    """Every worker on one virtual clock; a message is a scheduled call."""

    DELAY = 0.01

    def __init__(self, config, topology, **kw):
        super().__init__(config, topology, SimClock(), seed=0, **kw)
        self.delivered = []
        self._record_start()

    def _deliver(self, src, dst, nbytes, msg, kind, delay):
        self.delivered.append((kind, src, dst, msg))
        self.clock.schedule_in(self.DELAY + delay, self._receive, dst, msg)

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
        assert host.metrics.dump_state() == sim.metrics.dump_state()

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


# -- the one verdict site ----------------------------------------------

# 0 -> 1 is blacked out and 0 -> 2 delayed by 0.5 s for the whole test.
_PLAN = ChaosPlan.from_dict({"link_faults": [
    {"kind": "blackout", "start": 0.0, "duration": 10.0, "src": 0, "dst": 1},
    {"kind": "delay", "start": 0.0, "duration": 10.0, "src": 0, "dst": 2,
     "delay_s": 0.5},
]})
_SPEEDUP = 4.0


@pytest.fixture(params=["in-memory", "live"])
def chaotic_host(request, fast_config, tiny_topology, monkeypatch):
    """A host holding worker 0 under ``_PLAN``, its ``_deliver`` calls
    recorded; the live one's mesh is a stub that records each send."""
    if request.param == "in-memory":
        host = InMemoryHost(fast_config, tiny_topology, tracer=Tracer())
        host._fault_injector = LinkFaultInjector(_PLAN, np.random.default_rng(0))
        host.mesh_sends = None
    else:
        host = LiveWorkerRuntime(0, LiveRunSpec(
            config=fast_config, topology=tiny_topology, seed=0, horizon=10.0,
            speedup=_SPEEDUP, trace=True, chaos=_PLAN,
        ))
        host.mesh_sends = []
        monkeypatch.setattr(
            host.mesh, "send",
            lambda dst, channel, msg, **kw: host.mesh_sends.append((dst, kw)),
        )
    host.deliveries = []
    deliver = host._deliver

    def recording_deliver(*args):
        host.deliveries.append(args)
        deliver(*args)

    host._deliver = recording_deliver
    return host


class TestOneVerdictSite:
    def test_blackout_drops_before_deliver(self, chaotic_host):
        host = chaotic_host
        grad = GradientMessage(
            sender=0, iteration=1, lbs=8, dense={"w": np.ones(4, np.float32)}
        )
        host.send_gradients(0, 1, grad, chosen_n=None)
        host.send_control(0, 1, RcpShareMessage(sender=0, rcp=1.0))
        assert host.deliveries == []
        assert host.mesh_sends in (None, [])
        assert host.metrics.get("chaos_dropped_total").value(0, 1) == 2
        drops = [e for e in host.tracer.events() if e.get("name") == "chaos-drop"]
        assert [e["args"] for e in drops] == [
            {"dst": 1, "kind": "grad"}, {"dst": 1, "kind": "ctrl"},
        ]

    def test_delay_window_reaches_deliver(self, chaotic_host):
        host = chaotic_host
        host.send_control(0, 2, RcpShareMessage(sender=0, rcp=1.0))
        [(src, dst, _nbytes, _msg, kind, delay)] = host.deliveries
        assert (src, dst, kind, delay) == (0, 2, "ctrl", 0.5)
        if host.mesh_sends is None:
            assert host.clock.peek_time() == InMemoryHost.DELAY + 0.5
        else:
            [(sent_to, kw)] = host.mesh_sends
            assert sent_to == 2 and kw["delay_s"] == 0.5 / _SPEEDUP
        assert host.metrics.get("chaos_dropped_total").value(0, 2) == 0


def _digest(config, topology, seed, **engine_kwargs) -> str:
    """sha256 of a short run's trace bytes plus its sorted metrics dump."""
    tracer, metrics = Tracer(), MetricsRegistry()
    TrainingEngine(
        config, topology, seed=seed,
        tracer=tracer, metrics=metrics, **engine_kwargs,
    ).run(4.0)
    dump = json.dumps(metrics.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(tracer.dumps().encode() + dump.encode()).hexdigest()


class TestSharedDataset:
    """Engines built from the same seed share one read-only render."""

    def test_same_preset_and_seed_share_one_object(self, fast_config, tiny_topology):
        a = TrainingEngine(fast_config, tiny_topology, seed=5)
        b = TrainingEngine(fast_config, tiny_topology, seed=5)
        assert a.dataset is b.dataset
        others = [
            TrainingEngine(fast_config, tiny_topology, seed=6),
            TrainingEngine(
                dataclasses.replace(fast_config, train_size=250), tiny_topology, seed=5
            ),
            TrainingEngine(
                dataclasses.replace(fast_config, dataset_kwargs={"noise": 1.2}),
                tiny_topology, seed=5,
            ),
        ]
        assert all(o.dataset is not a.dataset for o in others)
        assert len({id(o.dataset) for o in others}) == 3

    def test_cache_empties_once_the_engines_are_collected(
        self, fast_config, tiny_topology
    ):
        a = TrainingEngine(fast_config, tiny_topology, seed=5)
        b = TrainingEngine(fast_config, tiny_topology, seed=5)
        ref = weakref.ref(a.dataset)
        del a, b
        gc.collect()
        assert ref() is None
        assert len(datasets._SHARED) == 0

    def test_a_hit_gives_the_cold_run_bytes(self, fast_config, tiny_topology):
        gc.collect()
        cold = _digest(fast_config, tiny_topology, 9)
        sibling = TrainingEngine(fast_config, tiny_topology, seed=9)
        hit = _digest(fast_config, tiny_topology, 9)
        again = TrainingEngine(fast_config, tiny_topology, seed=9)
        assert again.dataset is sibling.dataset
        # the render each engine made for itself before datasets were shared
        own = SyntheticImageDataset.cifar_like(
            RngPool(9).get("dataset"),
            train_size=fast_config.train_size, test_size=fast_config.test_size,
        )
        assert cold == hit == _digest(fast_config, tiny_topology, 9, dataset=own)


class TestSurface:
    # What a backend may define under the same name as the other one:
    # the hooks, and overrides that call super().
    ALLOWED = {
        "__init__", "_deliver", "global_epoch", "finalize", "_blackout_edge",
    }

    def test_backends_share_only_hooks_and_overrides(self):
        sim = {n for n, v in vars(TrainingEngine).items() if callable(v)}
        live = {n for n, v in vars(LiveWorkerRuntime).items() if callable(v)}
        assert sim & live <= self.ALLOWED
        assert len((sim & live) - {"__init__"}) <= 4

    def test_both_backends_are_worker_hosts(self):
        assert issubclass(TrainingEngine, WorkerHost)
        assert issubclass(LiveWorkerRuntime, WorkerHost)
        for name in ("send_gradients", "send_control", "_gbs_tick", "record_lbs"):
            assert name not in vars(TrainingEngine)
            assert name not in vars(LiveWorkerRuntime)


# -- the run state: MetricsRegistry.dump_state / merge_state ----------

N = 3
_points = st.lists(
    st.tuples(st.floats(0, 1e3), st.floats(-1e6, 1e6)), max_size=6
).map(sorted)
_links = st.dictionaries(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), _points, max_size=4
)


@st.composite
def run_registries(draw):
    """A registry holding an arbitrary run: every series family of
    RunMetrics plus the counters RunResult reads."""
    metrics = MetricsRegistry()
    rm = RunMetrics(metrics)
    for fam in (rm.s_accuracy, rm.s_loss, rm.s_lbs):
        for w in range(N):
            for t, v in draw(_points):
                fam.append(t, v, w)
    for fam in (rm.s_gbs, rm.s_active, rm.s_epochs):
        for t, v in draw(_points):
            fam.append(t, v)
    for fam in (rm.s_link_entries, rm.s_link_chosen_n):
        for (src, dst), points in draw(_links).items():
            for t, v in points:
                fam.append(t, v, src, dst)
    for w in range(N):
        rm.c_iterations.inc(draw(st.integers(0, 500)), w)
    rm.c_dkt_merges.inc(draw(st.integers(0, 50)), 0)
    rm.c_events.inc(draw(st.integers(0, 10_000)))
    return metrics


def _view(metrics):
    """Everything RunResult reads off a registry, as plain data."""
    r = RunResult(N, 0.0, metrics)
    return (
        r.accuracy, r.loss, r.lbs, r.gbs, r.active_workers, r.link_entries,
        r.link_chosen_n, r.iterations, r.dkt_merges, r.events, r.epochs,
    )


class TestRunResultState:
    @settings(deadline=None, max_examples=60)
    @given(metrics=run_registries())
    def test_round_trip(self, metrics):
        state = metrics.dump_state()
        back = MetricsRegistry()
        back.merge_state(state)
        assert back.dump_state() == state
        assert _view(back) == _view(metrics)

    def test_state_is_a_copy(self):
        metrics = MetricsRegistry()
        loss = RunMetrics(metrics).s_loss
        loss.append(1.0, 0.5, 0)
        state = metrics.dump_state()
        loss.append(2.0, 0.4, 0)
        assert state["loss_series"]["series"][(0,)] == ([1.0], [0.5])
        back = MetricsRegistry()
        back.merge_state(state)
        RunMetrics(back).s_loss.append(3.0, 0.3, 0)
        assert state["loss_series"]["series"][(0,)] == ([1.0], [0.5])

    def test_two_hosts_merge_like_one_shared_host(self, fast_config, two_workers):
        """What LiveEngine._merge relies on: per-worker series by key,
        counters summed, cluster series the first view merged."""

        def record(host, w):
            host.record_loss(w, 0.9 - w / 10)
            host.record_lbs(w, 8 + w)
            host.record_dkt_merge(w)
            host.evaluate_worker(w)
            grad = GradientMessage(
                sender=w, iteration=1, lbs=8, dense={"w": np.ones(4, np.float32)}
            )
            host.send_gradients(w, 1 - w, grad, chosen_n=25.0 + w)

        shared = InMemoryHost(fast_config, two_workers)
        hosts = [InMemoryHost(fast_config, two_workers, hosted=(w,)) for w in (0, 1)]
        for w, host in enumerate(hosts):
            record(shared, w)
            record(host, w)
        merged = MetricsRegistry()
        for host in hosts:
            merged.merge_state(host.metrics.dump_state())
        assert merged.dump_state() == shared.metrics.dump_state()
        result = RunResult(2, 0.0, merged)
        assert result.iterations == [1, 1] and result.dkt_merges == 2
        assert result.link_chosen_n[(1, 0)].values == [26.0]

        # A later host's differing view of a cluster-wide series is dropped.
        late = MetricsRegistry()
        RunMetrics(late).s_gbs.append(5.0, 64)
        merged.merge_state(late.dump_state())
        assert result.gbs == shared.result.gbs

    def test_reading_an_absent_series_blocks_no_merge(self):
        metrics = MetricsRegistry()
        RunMetrics(metrics)
        result = RunResult(2, 0.0, metrics)
        assert len(result.loss[1]) == 0 and not result.gbs
        incoming = MetricsRegistry()
        rm = RunMetrics(incoming)
        rm.s_loss.append(1.0, 0.5, 1)
        rm.s_gbs.append(0.0, 16)
        metrics.merge_state(incoming.dump_state())
        assert result.loss[1].values == [0.5] and result.gbs.values == [16.0]

        bare = MetricsRegistry()
        assert RunResult(2, 0.0, bare).loss[0] == TimeSeries()
        assert bare.names() == []
