"""One rep of a ``sim_*`` workload, inside a fresh child process.

Drives the simulator only through the surface the roadmap's refactors
keep: ``get_environment`` / ``workload_for`` / ``build_config`` /
``build_topology``, ``PeerGraph.from_spec``,
``TrainingEngine(config, topo, seed=, peer_graph=).run(horizon)`` and
``RunResult``. Everything else about the engine stays at its default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import spans
from metrics import TARGET_ACCURACY

__all__ = ["SimSpec", "SIM_SPECS", "run"]


@dataclass(frozen=True)
class SimSpec:
    env: str
    system: str
    horizon: float  # simulated seconds of the timed run
    warm: float  # simulated seconds of the warm-up run
    workers: int | None = None  # None = the environment's own size
    overlay: str | None = None  # None = the paper's full mesh
    must_learn: bool = False  # last loss < first loss is a sanity check
    # Stress 1k spends its first half simulated second in a 1,000-way
    # RCP-share storm (3.3 s of host time) before any worker trains, so
    # a short same-size warm-up would warm nothing and triple set-up.
    # Its warm-up runs the same preset truncated to this many workers.
    warm_workers: int | None = None


SIM_SPECS = {
    "sim_homo_b": SimSpec("Homo B", "dlion", 375.0, 20.0, must_learn=True),
    "sim_hetero_dense": SimSpec(
        "Hetero SYS A", "baseline", 1500.0, 60.0, must_learn=True
    ),
    "sim_stress_1k": SimSpec(
        "Stress 1k", "dlion", 6.0, 3.0, workers=1000, overlay="hier:8",
        warm_workers=64,
    ),
}

# The same workloads at tiny sizes: only the sizes differ.
SMOKE_SPECS = {
    "sim_homo_b": replace(SIM_SPECS["sim_homo_b"], horizon=20.0, warm=5.0),
    "sim_hetero_dense": replace(
        SIM_SPECS["sim_hetero_dense"], horizon=60.0, warm=10.0
    ),
    "sim_stress_1k": replace(
        SIM_SPECS["sim_stress_1k"], horizon=2.0, warm=2.0, workers=200,
        warm_workers=32,
    ),
}


def run(name, seed, *, smoke, rec, traced, t_spawn, tracer_on=False) -> dict:
    """Imports -> build -> warm-up -> timed run; returns the result row.

    ``rec`` takes the harness's own few spans in every mode; the
    per-call wrappers go in only when ``traced``."""
    spec = (SMOKE_SPECS if smoke else SIM_SPECS)[name]
    with rec.span("setup.import"):
        from repro.cluster.peergraph import PeerGraph
        from repro.core.engine import TrainingEngine
        from repro.experiments.environments import get_environment
        from repro.experiments.runner import (
            build_config,
            build_topology,
            workload_for,
        )
    if traced:
        spans.install(rec, "sim")

    env = get_environment(spec.env)
    workload = workload_for(env)
    config = build_config(spec.system, workload)
    extra = {}
    if tracer_on:
        # The one extra rep behind obs.tracer_on.overhead_frac.
        from repro.obs.trace import Tracer

        extra["tracer"] = Tracer()

    def build(workers=spec.workers):
        topo = build_topology(env, workload, n_workers=workers)
        graph = None
        if spec.overlay is not None:
            graph = PeerGraph.from_spec(spec.overlay, topo.n_workers)
        return TrainingEngine(config, topo, seed=seed, peer_graph=graph, **extra)

    # Warm-up: same shape, short horizon. Fills the planner's shared
    # scratch pool, the lru caches and NumPy's lazily built internals.
    with rec.span("setup.warmup"), rec.paused():
        build(spec.warm_workers or spec.workers).run(spec.warm)
    engine = build()
    setup_s = time.monotonic() - t_spawn

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with rec.span("run") as root:
        result = engine.run(spec.horizon)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    iterations = int(sum(result.iterations))
    grad_bytes = int(sum(result.link_bytes.values()))
    accuracy = result.final_mean_accuracy()
    dropped = result.metrics.get("queue_dropped_total")
    n_dropped = sum(v for _, v in dropped.items()) if dropped is not None else 0

    errors = []
    if iterations <= 0:
        errors.append("no iterations completed")
    if n_dropped:
        errors.append(f"queue_dropped_total = {n_dropped}")
    if spec.must_learn:
        first = sum(s.values[0] for s in result.loss if len(s)) / result.n_workers
        last = sum(s.values[-1] for s in result.loss if len(s)) / result.n_workers
        if not last < first:
            errors.append(f"loss did not fall: first {first:.4f}, last {last:.4f}")

    return {
        "root": [root],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops_per_s": iterations / wall_s,
        "final_accuracy": accuracy,
        "sim_time_to_target_s": result.time_to_accuracy(TARGET_ACCURACY),
        "ops_attempted": 1,
        "ops_failed": int(bool(errors)),
        "errors": errors,
        # The determinism contract: equal across reps of one seed, and
        # between the traced and the untraced run.
        "digest": {
            "events": int(result.events),
            "iterations": iterations,
            "final_accuracy": accuracy,
            "link_bytes": grad_bytes,
            "dkt_merges": int(result.dkt_merges),
        },
        "extra": {
            "engine.events": int(result.events),
            "engine.iterations": iterations,
            "engine.grad_bytes": grad_bytes,
            "engine.dkt_merges": int(result.dkt_merges),
            "engine.us_per_event": 1e6 * wall_s / max(int(result.events), 1),
        },
    }
