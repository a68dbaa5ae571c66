"""Names, units and directions of everything the ledger reports.

``BENCHMARK.json`` at the repo root is the contract the driver reads;
``test_smoke.py`` checks that its workloads, end-to-end metrics and
per-layer names match the tables here, so the two cannot drift.

Why two gated tables: the driver runs one workload per invocation with a
different seed each time and expects *every* ``end_to_end`` metric from
*every* workload, so ``E2E`` holds only metrics that exist, and are never
0, on all four workloads. ``final_accuracy`` and ``sim_time_to_target_s``
mean nothing on ``live_mesh``, ``frame_latency_p50_ms`` nothing on the
simulator, and the first two move 4 % / 25 % from seed to seed; they are
exact for a fixed seed, so the fixed-seed ledger (``run.py`` without
``--seconds``) and ``compare.py`` gate them per workload through
``WORKLOAD_GATED``. In driver mode they are reported, un-gated, with
``--trace 1``.
"""

from __future__ import annotations

__all__ = ["WORKLOADS", "E2E", "WORKLOAD_GATED", "PER_LAYER", "TARGET_ACCURACY"]

# The paper's metric 2 is "time to a target accuracy"; 0.70 is reached
# by both 6-worker workloads well inside their horizons.
TARGET_ACCURACY = 0.70

WORKLOADS = {
    "sim_homo_b": (
        "Homo B + dlion, 6 workers, 375 sim-s: NN forward/backward and sparse "
        "apply dominate; uniform budgets keep the Max-N planner on its warm path"
    ),
    "sim_hetero_dense": (
        "Hetero SYS A + baseline, 1500 sim-s: dense apply_grads under lockstep; "
        "planner, LBS/GBS and DKT do zero work - the bypass for those layers"
    ),
    "sim_stress_1k": (
        "Stress 1k + dlion, 1000 workers, hier:8 overlay, 6 sim-s: tiny model, so "
        "per-event and per-peer bookkeeping, non-warm planning and set-up dominate"
    ),
    "live_mesh": (
        "two PeerMesh endpoints over loopback TCP, seeded gradient/weight/loss "
        "script, flood then ping-pong: codec, mesh and shaper only, no simulator"
    ),
}

# name -> (unit, better, bound as a share of the parent's median)
E2E = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# Exact for a fixed seed; gated by compare.py on the workloads listed.
# name -> (unit, better, bound, "rel" | "abs", workloads)
_SIM6 = ("sim_homo_b", "sim_hetero_dense")
WORKLOAD_GATED = {
    "final_accuracy": ("frac", "higher", 0.01, "abs", _SIM6),
    "sim_time_to_target_s": ("sim_s", "lower", 0.05, "rel", _SIM6),
    "frame_latency_p50_ms": ("ms", "lower", 0.10, "rel", ("live_mesh",)),
}


def _layer(name, calls=True):
    rows = [(f"{name}.self_s", "s", "lower")]
    if calls:
        rows.append((f"{name}.calls", "count", "lower"))
    return rows


# (name, unit, better), in README order.
PER_LAYER = [
    *_layer("nn.loss_and_grads"),
    *_layer("nn.apply_sparse_grads"),
    *_layer("nn.apply_grads"),
    *_layer("nn.evaluate"),
    *_layer("engine.evaluate_worker", calls=False),
    *_layer("transmission.plan"),
    *_layer("strategy.generate"),
    *_layer("worker.recompute_lbs"),
    *_layer("worker.run_profiling"),
    *_layer("worker.finish_iteration", calls=False),
    *_layer("worker.on_gradient_message"),
    *_layer("worker.try_start_iteration"),
    *_layer("worker.control"),
    *_layer("dkt.merge"),
    *_layer("compute_pool"),
    *_layer("engine.send"),
    *_layer("engine.deliver"),
    *_layer("network.enqueue"),
    *_layer("simclock.schedule"),
    *_layer("simclock.dispatch", calls=False),
    ("engine.events", "count", "lower"),
    ("engine.iterations", "count", "higher"),
    ("engine.grad_bytes", "B", "lower"),
    ("engine.dkt_merges", "count", "higher"),
    ("engine.us_per_event", "us", "lower"),
    ("host.cpu_s", "s", "lower"),
    *_layer("setup.import", calls=False),
    *_layer("setup.dataset", calls=False),
    *_layer("setup.build_model"),
    *_layer("setup.engine_init", calls=False),
    *_layer("setup.warmup", calls=False),
    *_layer("codec.encode"),
    *_layer("codec.decode"),
    ("codec.encode.us_per_msg", "us", "lower"),
    ("codec.decode.us_per_msg", "us", "lower"),
    *_layer("mesh.send"),
    *_layer("mesh.loop", calls=False),
    *_layer("harness.callback", calls=False),
    *_layer("shaper.reserve"),
    ("shaper.throttle.calls", "count", "lower"),
    ("shaper.stall_s", "s", "lower"),
    ("mesh.wire_bytes", "B", "lower"),
    ("mesh.wire_overhead_frac", "frac", "lower"),
    ("mesh.coalesced_frac", "frac", "higher"),
    ("mesh.outbox_high_water", "count", "lower"),
    ("mesh.send_refused", "count", "lower"),
    ("mesh.flood_msgs_per_s", "1/s", "higher"),
    ("mesh.flood_latency_p99_ms", "ms", "lower"),
    ("mesh.pingpong_p99_ms", "ms", "lower"),
    ("mesh.shm.msgs_per_s", "1/s", "higher"),
    ("final_accuracy", "frac", "higher"),
    ("sim_time_to_target_s", "sim_s", "lower"),
    ("frame_latency_p50_ms", "ms", "lower"),
    ("obs.tracer_on.overhead_frac", "frac", "lower"),
    ("trace.attributed_frac", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.missing_targets", "count", "lower"),
]
