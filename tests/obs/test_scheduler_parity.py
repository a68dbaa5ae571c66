"""Rerun determinism: the same configuration twice, byte for byte.

Running one ``(environment, system, overlay, seed)`` twice must produce
the exact same Chrome trace bytes and full metric dump, which pins down
any hidden wall-clock, object-identity or iteration-order dependence in
the scheduler, the engine and every strategy. The DLion rows cover the
Table 3 presets across every heterogeneity axis (incl. a dynamic
phase-switching row) plus a ring and a k-regular overlay, whose
degree-scaled engine paths ride the same determinism contract; one
preset per baseline system covers the dense and accumulating paths.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import RunSpec, run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _golden_run(environment, overlay, horizon, system="dlion"):
    tracer = Tracer()
    metrics = MetricsRegistry()
    spec = RunSpec(
        environment=environment,
        system=system,
        seed=3,
        horizon=horizon,
        overlay=overlay,
    )
    result = run_experiment(spec, tracer=tracer, metrics=metrics)
    metric_dump = json.dumps(metrics.to_dict(), sort_keys=True, default=str)
    return result, tracer.dumps(), metric_dump


CONFIGS = [
    ("Homo B", None, 12.0),
    ("Hetero CPU B", None, 12.0),
    ("Hetero NET A", None, 12.0),
    ("Hetero SYS B", None, 12.0),
    ("Dynamic SYS A", None, 12.0),
    ("Hetero NET A", "ring", 12.0),
    ("Homo B", "kregular:3", 12.0),
]

BASELINE_PRESETS = [
    ("baseline", "Hetero SYS A"),
    ("hop", "Hetero SYS A"),
    ("gaia", "Hetero NET A"),
    ("ako", "Homo B"),
]


def _assert_rerun_identical(one, two):
    assert one[1] == two[1]  # trace bytes
    assert one[2] == two[2]  # metric dump
    assert one[0].iterations == two[0].iterations
    assert one[0].events == two[0].events
    assert sum(one[0].iterations) > 0  # the run must have trained


class TestRerunByteIdentical:
    @pytest.mark.parametrize(
        "environment,overlay,horizon", CONFIGS,
        ids=[f"{e}{'+' + o if o else ''}" for e, o, _ in CONFIGS],
    )
    def test_dlion(self, environment, overlay, horizon):
        _assert_rerun_identical(
            _golden_run(environment, overlay, horizon),
            _golden_run(environment, overlay, horizon),
        )

    @pytest.mark.parametrize("system,environment", BASELINE_PRESETS)
    def test_baseline_systems(self, system, environment):
        _assert_rerun_identical(
            _golden_run(environment, None, 12.0, system),
            _golden_run(environment, None, 12.0, system),
        )
