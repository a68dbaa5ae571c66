"""Tests for custom environment files and result export."""

import json

import pytest

from repro.cluster.traces import ConstantTrace, PiecewiseTrace
from repro.experiments.envfile import load_environment, parse_environment, trace_from_spec
from repro.experiments.export import result_to_dict, write_accuracy_csv, write_json
from tests.cluster.test_network import varying_links


VALID_DOC = {
    "name": "my-cluster",
    "platform": "cpu",
    "workers": [
        {"cores": 24, "bandwidth": 50},
        {"cores": [[0, 24], [300, 12]], "bandwidth": [[0, 50], [300, 20]]},
        {"cores": 6, "bandwidth": 20},
    ],
}


class TestTraceFromSpec:
    def test_scalar(self):
        t = trace_from_spec(24)
        assert isinstance(t, ConstantTrace)
        assert t.value_at(100.0) == 24.0

    def test_piecewise(self):
        t = trace_from_spec([[0, 24], [300, 12]])
        assert isinstance(t, PiecewiseTrace)
        assert t.value_at(299) == 24 and t.value_at(300) == 12

    def test_invalid(self):
        with pytest.raises(ValueError):
            trace_from_spec("fast")
        with pytest.raises(ValueError):
            trace_from_spec([[0, 1, 2]])

    # json.loads accepts NaN / Infinity, and True is an int to Python.
    @pytest.mark.parametrize("bad", [True, float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["scalar", "level", "time", "document"])
    def test_levels_and_times_must_be_finite_numbers(self, bad, where):
        spec = {
            "scalar": bad,
            "level": [[0, 24], [300, bad]],
            "time": [[0, 24], [bad, 12]],
            "document": bad,
        }[where]
        with pytest.raises(ValueError):
            if where == "document":
                doc = json.loads(json.dumps(VALID_DOC))
                doc["workers"][0]["cores"] = spec
                parse_environment(json.loads(json.dumps(doc)))
            else:
                trace_from_spec(spec)


class TestParseEnvironment:
    def test_valid_document(self):
        env = parse_environment(VALID_DOC)
        assert env.name == "my-cluster"
        assert env.platform == "cpu"
        assert len(env.cores) == 3
        assert env.cores[0] == 24.0
        assert isinstance(env.cores[1], PiecewiseTrace)
        assert isinstance(env.bandwidth[1], PiecewiseTrace)

    def test_missing_name(self):
        doc = dict(VALID_DOC)
        del doc["name"]
        with pytest.raises(ValueError, match="name"):
            parse_environment(doc)

    def test_too_few_workers(self):
        doc = dict(VALID_DOC)
        doc["workers"] = doc["workers"][:1]
        with pytest.raises(ValueError, match="workers"):
            parse_environment(doc)

    def test_worker_missing_fields(self):
        doc = json.loads(json.dumps(VALID_DOC))
        del doc["workers"][0]["cores"]
        with pytest.raises(ValueError, match="cores"):
            parse_environment(doc)

    def test_bad_platform(self):
        doc = dict(VALID_DOC)
        doc["platform"] = "tpu"
        with pytest.raises(ValueError, match="platform"):
            parse_environment(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps(VALID_DOC))
        env = load_environment(path)
        assert env.name == "my-cluster"
        assert len(env.cores) == len(env.bandwidth) == 3

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_environment(path)


class TestEnvironmentTopology:
    """Env files land in the same array store as float capacities."""

    def test_constant_document_takes_the_array_path(self):
        from repro.cluster.network import BandwidthMatrix
        from repro.experiments.runner import build_topology, cpu_workload

        doc = {
            "name": "flat",
            "workers": [{"cores": 24, "bandwidth": b} for b in (50, 35, 20)],
        }
        workload = cpu_workload()
        net = build_topology(parse_environment(doc), workload).network
        assert varying_links(net) == set()
        ws = workload.wire_scale()
        ref = BandwidthMatrix.from_worker_capacity([50.0 * ws, 35.0 * ws, 20.0 * ws])
        for src, dst, nbytes, t in [(0, 1, 40_000, 0.0), (0, 1, 7, 0.001), (2, 0, 999, 0.5)]:
            assert net.enqueue_transfer(src, dst, nbytes, t) == ref.enqueue_transfer(
                src, dst, nbytes, t
            )
        assert list(net.enqueue_transfers(1, [0, 2], [123_456, 1], 0.75)) == list(
            ref.enqueue_transfers(1, [0, 2], [123_456, 1], 0.75)
        )

    def test_dynamic_preset_as_document_is_the_preset(self):
        """Dynamic SYS A written out as an env document runs the same
        bytes as the preset, across both phase switches."""
        from repro.core.engine import TrainingEngine
        from repro.experiments.environments import get_environment
        from repro.experiments.runner import (
            Workload, build_config, build_topology, cpu_workload,
        )
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        class ShortPhases(Workload):
            def phase_duration(self):
                return 6.0

        workload = ShortPhases(**vars(cpu_workload()))
        preset = get_environment("Dynamic SYS A")
        phases = [get_environment(p) for p in preset.phases]
        starts = [k * workload.phase_duration() for k in range(len(phases))]
        doc = {
            "name": "dynamic-sys-a-by-hand",
            "workers": [
                {
                    "cores": [[s, p.cores[i]] for s, p in zip(starts, phases)],
                    "bandwidth": [[s, p.bandwidth[i]] for s, p in zip(starts, phases)],
                }
                for i in range(6)
            ],
        }

        def run(env):
            tracer, metrics = Tracer(), MetricsRegistry()
            topo = build_topology(env, workload, n_workers=3)
            TrainingEngine(
                build_config("dlion", workload), topo, seed=3,
                tracer=tracer, metrics=metrics,
            ).run(15.0)
            return tracer.dumps(), json.dumps(metrics.to_dict(), sort_keys=True, default=str)

        assert run(parse_environment(doc)) == run(preset)

    def test_only_traced_workers_keep_a_trace(self):
        from repro.cluster.topology import ClusterTopology

        env = parse_environment(VALID_DOC)
        net = ClusterTopology.build(cores=env.cores, bandwidth=env.bandwidth).network
        # A link is its slower endpoint at every instant: both
        # directions of 0 <-> 1 follow worker 1's drop to 20 Mbps ...
        assert varying_links(net) == {(0, 1), (1, 0)}
        assert net.bandwidth_at(1, 0, 299.0) == 50.0
        assert net.bandwidth_at(1, 0, 300.0) == 20.0
        assert net.bandwidth_at(0, 1, 300.0) == 20.0
        # ... while constant-constant links, and a trace against a
        # constant that is never faster, hold no trace.
        assert net.bandwidth_at(0, 2, 300.0) == 20.0
        assert net.bandwidth_at(1, 2, 0.0) == net.bandwidth_at(2, 1, 300.0) == 20.0


class TestExport:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.cluster.topology import ClusterTopology
        from repro.core.config import DktConfig, GbsConfig, LbsConfig, TrainConfig
        from repro.core.engine import TrainingEngine

        topo = ClusterTopology.build(
            cores=[8, 4], bandwidth=[20.0, 10.0], per_core_rate=16.0,
            overhead=0.02, jitter=0.0,
        )
        cfg = TrainConfig(
            model="mlp",
            model_kwargs={"in_dim": 576, "hidden": (32,)},
            train_size=200, test_size=60, eval_subset=60, initial_lbs=8,
            gbs=GbsConfig(update_period_s=5.0),
            lbs=LbsConfig(probe_batches=(4, 8), probe_repeats=1),
            dkt=DktConfig(period_iters=10),
            eval_period_iters=10,
        )
        return TrainingEngine(cfg, topo, seed=0).run(15.0)

    def test_dict_roundtrips_through_json(self, result):
        doc = result_to_dict(result)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["n_workers"] == 2
        assert back["final_mean_accuracy"] == pytest.approx(
            result.final_mean_accuracy()
        )
        assert len(back["accuracy"]) == 2
        assert "0->1" in back["link_bytes"]

    def test_write_json(self, result, tmp_path):
        path = tmp_path / "run.json"
        write_json(result, path)
        doc = json.loads(path.read_text())
        assert doc["horizon"] == pytest.approx(result.horizon)

    def test_write_accuracy_csv(self, result, tmp_path):
        path = tmp_path / "acc.csv"
        write_accuracy_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "worker,time_s,accuracy"
        assert len(lines) == 1 + sum(len(s) for s in result.accuracy)
