#!/usr/bin/env python3
"""One sha256 line per simulator run, for "same bytes as the parent" claims.

Runs twenty short seeded simulations — the eleven presets of
``tests/obs/test_scheduler_parity.py`` plus Dynamic SYS B, a shared-egress
cluster, a bandwidth square wave, a square wave behind shared egress, an
env-file document with a bandwidth step, the top-k, random-k and threshold
selectors on Hetero NET A and a fixed N on Homo B — and prints
``sha256(trace bytes + sorted metrics dump)`` for each. The simulator is
byte-deterministic, so two trees behave identically on these runs exactly
when the outputs ``diff`` clean::

    python tools/same_bytes.py > head.txt
    cp tools/same_bytes.py ../parent/tools/ && python ../parent/tools/same_bytes.py > base.txt
    diff base.txt head.txt

The script imports ``repro`` from the ``src/`` next to its own ``tools/``
directory, and uses only entry points every commit since PR 15 has.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

SEED = 3
HORIZON = 12.0

# (environment, system, overlay): tests/obs/test_scheduler_parity.py's
# CONFIGS and BASELINE_PRESETS, then the second dynamic preset.
PRESETS = [
    ("Homo B", "dlion", None),
    ("Hetero CPU B", "dlion", None),
    ("Hetero NET A", "dlion", None),
    ("Hetero SYS B", "dlion", None),
    ("Dynamic SYS A", "dlion", None),
    ("Hetero NET A", "dlion", "ring"),
    ("Homo B", "dlion", "kregular:3"),
    ("Hetero SYS A", "baseline", None),
    ("Hetero SYS A", "hop", None),
    ("Hetero NET A", "gaia", None),
    ("Homo B", "ako", None),
    ("Dynamic SYS B", "dlion", None),
]

# (environment, label, MaxNConfig keyword arguments): the planner's
# level-grid fit for each non-default selector, and its fixed-N path.
MAXN_RUNS = [
    ("Hetero NET A", "selector topk", {"selector": "topk"}),
    ("Hetero NET A", "selector randomk", {"selector": "randomk"}),
    ("Hetero NET A", "selector threshold", {"selector": "threshold"}),
    ("Homo B", "fixed N 10", {"fixed_n": 10.0}),
]


def _digest(tracer, metrics) -> str:
    dump = json.dumps(metrics.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(tracer.dumps().encode() + dump.encode()).hexdigest()


def _preset(environment, system, overlay, config_overrides=None) -> str:
    from repro.experiments.runner import RunSpec, run_experiment
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    tracer, metrics = Tracer(), MetricsRegistry()
    spec = RunSpec(
        environment=environment, system=system, seed=SEED,
        horizon=HORIZON, overlay=overlay,
        config_overrides=config_overrides or {},
    )
    run_experiment(spec, tracer=tracer, metrics=metrics)
    return _digest(tracer, metrics)


def _run(topo) -> str:
    from repro.core.engine import TrainingEngine
    from repro.experiments.runner import build_config, cpu_workload
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    tracer, metrics = Tracer(), MetricsRegistry()
    TrainingEngine(
        build_config("dlion", cpu_workload()), topo, seed=SEED,
        tracer=tracer, metrics=metrics,
    ).run(HORIZON)
    return _digest(tracer, metrics)


def _custom(bandwidth, *, shared_egress) -> str:
    """DLion on a hand-built cluster (per-worker capacities or traces)."""
    from repro.cluster.topology import ClusterTopology
    from repro.experiments.runner import cpu_workload

    workload = cpu_workload()
    return _run(ClusterTopology.build(
        cores=[24] * len(bandwidth),
        bandwidth=bandwidth,
        per_core_rate=workload.per_unit_rate,
        overhead=workload.overhead,
        shared_egress=shared_egress,
    ))


def _document(doc) -> str:
    """DLion on an env-file document: parse_environment -> build_topology."""
    from repro.experiments.envfile import parse_environment
    from repro.experiments.runner import build_topology, cpu_workload

    env = parse_environment(doc)
    if isinstance(env, tuple):  # before PR 24: (spec, cores, bandwidths)
        env = env[0]
    return _run(build_topology(env, cpu_workload()))


def main() -> int:
    from repro.cluster.traces import square_wave
    from repro.experiments.runner import cpu_workload

    ws = cpu_workload().wire_scale()
    hetero_net_a = [b * ws for b in (50, 50, 35, 35, 20, 20)]
    # Three workers, 20 <-> 50 Mbps every 3.5 s: three flips in a run.
    waves = [
        square_wave(20 * ws, 50 * ws, 3.5, start_high=bool(i % 2), horizon=60.0)
        for i in range(3)
    ]
    for env, system, overlay in PRESETS:
        name = f"{env} / {system}" + (f" / {overlay}" if overlay else "")
        print(f"{_preset(env, system, overlay)}  {name}", flush=True)
    for name, bandwidth, shared_egress in [
        ("Hetero NET A + shared egress", hetero_net_a, True),
        ("square wave x3", waves, False),
        ("square wave x3 + shared egress", waves, True),
    ]:
        digest = _custom(bandwidth, shared_egress=shared_egress)
        print(f"{digest}  {name} / dlion", flush=True)
    # Three workers; worker 1's capacity steps 50 -> 20 Mbps at t = 5 s.
    step = {"name": "step", "workers": [
        {"cores": 24, "bandwidth": b} for b in (50, [[0, 50], [5, 20]], 35)
    ]}
    print(f"{_document(step)}  env document, bandwidth step / dlion", flush=True)
    from repro.core.config import MaxNConfig

    for env, label, kwargs in MAXN_RUNS:
        digest = _preset(env, "dlion", None, {"maxn": MaxNConfig(**kwargs)})
        print(f"{digest}  {env} / dlion / {label}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
