"""The run-accounting metric families shared by both backends.

The simulator (:class:`~repro.core.engine.TrainingEngine`) and the live
multi-process backend (:mod:`repro.transport.runtime`) must report the
same metric catalog with the same names and label schemas — that is
what lets ``repro-dlion report`` and a ``--metrics-out`` dump read
identically whichever backend produced them, and what the sim/live
parity tests compare. Registering the families in one place keeps the
two backends from drifting.

The catalog is documented in ``docs/observability.md``. Transport-layer
families (``transport_*``) live in :class:`TransportMetrics` below —
they are instantiated by :class:`repro.transport.mesh.PeerMesh` because
only the live backend has real sockets to account for, but their names,
label schemas, and buckets are catalogued here next to everything else
so the two backends (and the telemetry docs) read one source of truth.
The live runtime's one other family, the ``lifecycle_events`` series,
is registered by :class:`~repro.transport.runtime.LiveWorkerRuntime`.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["RunMetrics", "TransportMetrics"]

# Wire frames range from padded control messages (~128 B) to dense
# full-model weight snapshots (MBs); log-spaced byte buckets cover both.
FRAME_BYTES_BUCKETS = (
    128.0, 512.0, 2048.0, 8192.0, 32768.0, 131072.0,
    524288.0, 2097152.0, 8388608.0,
)

# Frame latency = enqueue to drained write. Loopback sits in the
# sub-millisecond range; shaped (token-bucket paced) links reach
# seconds, so the buckets span both regimes.
FRAME_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class RunMetrics:
    """Registers (or re-attaches to) the run metric families.

    Instantiating this against a registry is idempotent: families are
    get-or-create, so an engine can attach to a registry that already
    carries series (e.g. the parent registry a live run merges into).
    """

    def __init__(self, registry: MetricsRegistry):
        m = registry
        self.registry = registry
        self.c_grad_bytes = m.counter(
            "grad_bytes_total", "gradient payload bytes per directed link",
            ("src", "dst"),
        )
        self.c_grad_msgs = m.counter(
            "grad_msgs_total", "gradient messages per directed link",
            ("src", "dst"),
        )
        self.c_weight_bytes = m.counter(
            "weight_bytes_total", "DKT weight-snapshot bytes per directed link",
            ("src", "dst"),
        )
        self.h_chosen_n = m.histogram(
            "maxn_chosen_n", "Max-N value chosen per link decision", ("link",),
            buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0),
        )
        self.c_iterations = m.counter(
            "iterations_total", "completed gradient iterations", ("worker",)
        )
        self.h_iteration_s = m.histogram(
            "iteration_seconds", "simulated duration of one iteration",
            ("worker",),
        )
        self.h_wait_s = m.histogram(
            "sync_wait_seconds", "simulated length of one sync-gate wait",
            ("worker",),
        )
        self.c_wait_total = m.counter(
            "sync_wait_seconds_total",
            "simulated seconds blocked on the sync gate", ("worker",),
        )
        self.c_compute_total = m.counter(
            "compute_seconds_total",
            "simulated seconds computing gradients", ("worker",),
        )
        self.c_dkt_merges = m.counter(
            "dkt_merges_total", "DKT weight merges applied", ("worker",)
        )
        self.c_dkt_pulls = m.counter(
            "dkt_pulls_total", "DKT weight-pull requests sent", ("worker",)
        )
        self.g_gbs = m.gauge("gbs", "current global batch size")
        self.g_lbs = m.gauge("lbs", "current local batch size", ("worker",))
        self.g_queue_depth = m.gauge(
            "queue_depth",
            "pending messages in a worker's queue, per kind",
            ("worker", "kind"),
        )
        # Unbounded queues drop nothing; the family stays registered
        # (always empty) so every metrics dump keeps its layout.
        m.counter(
            "queue_dropped_total",
            "messages rejected by a bounded worker queue, per kind",
            ("worker", "kind"),
        )
        self.g_active = m.gauge("active_workers", "currently active workers")
        self.c_events = m.counter(
            "events_processed", "simulation events dispatched"
        )
        # The run's history (RunResult's series; the paper's metrics are
        # accuracy and loss over time). Exported with --output, not with
        # --metrics-out (MetricsRegistry.to_dict skips series).
        self.s_accuracy = m.series(
            "accuracy_series", "held-out accuracy per evaluation", ("worker",)
        )
        self.s_loss = m.series(
            "loss_series", "training loss per iteration", ("worker",)
        )
        self.s_lbs = m.series(
            "lbs_series", "local batch size at each change", ("worker",)
        )
        self.s_gbs = m.series("gbs_series", "global batch size at each change")
        self.s_active = m.series(
            "active_workers_series", "active worker count at each change"
        )
        self.s_link_entries = m.series(
            "link_entries_series", "entries per gradient message",
            ("src", "dst"),
        )
        self.s_link_chosen_n = m.series(
            "link_chosen_n_series", "Max-N value chosen per gradient message",
            ("src", "dst"),
        )
        self.s_epochs = m.series(
            "epochs_series", "cluster-wide epochs completed, at the horizon"
        )
        # Crash-recovery accounting (docs/robustness.md). Recovery time
        # is the modelled outage on both backends: the simulator records
        # the plan's restart_after, the live supervisor crash time to
        # the rejoiner's go (its clock offset) — one family, one unit,
        # so dashboards and the parity tests read one catalog.
        self.c_worker_restarts = m.counter(
            "worker_restarts_total",
            "supervised worker respawns after a crash", ("worker",),
        )
        self.h_recovery_s = m.histogram(
            "recovery_time_seconds",
            "crash detection to rejoin-go, per recovery", ("worker",),
            buckets=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0),
        )
        self.c_lost_iterations = m.counter(
            "lost_iterations_total",
            "iterations lost to a crash (progress beyond the restored "
            "checkpoint)", ("worker",),
        )
        self.g_partition = m.gauge(
            "partition_active",
            "currently-active injected link blackout windows",
        )
        self.c_chaos_dropped = m.counter(
            "chaos_dropped_total",
            "messages dropped by fault injection", ("src", "dst"),
        )
        # Wall-clock attribution (populated at finalize when a profiler
        # is attached, empty otherwise): self seconds and calls per
        # ledger layer, the numbers the --profile table prints.
        self.c_profile_seconds = m.counter(
            "profile_seconds_total",
            "wall-clock seconds per profiler scope", ("scope",),
        )
        self.c_profile_calls = m.counter(
            "profile_calls_total", "profiler scope entries", ("scope",)
        )


class TransportMetrics:
    """The ``transport_*`` families recorded by the live mesh.

    Same idempotent get-or-create discipline as :class:`RunMetrics`;
    :class:`repro.transport.mesh.PeerMesh` instantiates this when a
    registry is attached (sim-backend dumps carry no empty transport
    series). Per-link telemetry labels directed edges ``(src, dst)``
    plus the channel name (``control`` / ``data``).
    """

    def __init__(self, registry: MetricsRegistry):
        m = registry
        self.registry = registry
        self.connects = m.counter(
            "transport_connect_total",
            "successful outgoing transport connections", ("worker", "peer"),
        )
        self.reconnects = m.counter(
            "transport_reconnect_total",
            "connections re-established after an established link dropped",
            ("worker", "peer"),
        )
        self.retries = m.counter(
            "transport_retry_total",
            "failed connection attempts (incl. backoff retries)",
            ("worker", "peer"),
        )
        self.send_bytes = m.counter(
            "transport_send_bytes_total",
            "bytes actually written per directed link and channel",
            ("src", "dst", "channel"),
        )
        self.send_msgs = m.counter(
            "transport_send_msgs_total",
            "frames actually written per directed link and channel",
            ("src", "dst", "channel"),
        )
        self.coalesced = m.counter(
            "transport_coalesced_frames_total",
            "frames written as part of a multi-frame batched write",
            ("src", "dst", "channel"),
        )
        self.dropped = m.counter(
            "transport_dropped_total",
            "frames dropped (outbox full or peer declared dead)",
            ("src", "dst", "channel"),
        )
        self.heartbeats = m.counter(
            "transport_heartbeat_total", "heartbeat rounds sent", ("worker",)
        )
        self.revives = m.counter(
            "transport_revive_total",
            "peer resurrections applied (links rebuilt at a new address)",
            ("worker", "peer"),
        )
        self.outbox_depth = m.gauge(
            "transport_outbox_depth",
            "queued frames per outgoing link",
            ("worker", "dst", "channel"),
        )
        self.outbox_high_water = m.gauge(
            "transport_outbox_high_water",
            "deepest the outgoing link's outbox has ever been",
            ("worker", "dst", "channel"),
        )
        self.h_frame_latency = m.histogram(
            "transport_frame_latency_seconds",
            "enqueue-to-drained-write latency per frame",
            ("src", "dst", "channel"),
            buckets=FRAME_LATENCY_BUCKETS,
        )
        self.h_frame_bytes = m.histogram(
            "transport_frame_bytes",
            "wire size of frames actually written",
            ("src", "dst", "channel"),
            buckets=FRAME_BYTES_BUCKETS,
        )
        self.stall_seconds = m.counter(
            "transport_stall_seconds_total",
            "wall seconds sender tasks slept in the token-bucket shaper",
            ("src", "dst"),
        )
        self.hb_rtt = m.gauge(
            "transport_heartbeat_rtt_seconds",
            "latest heartbeat round-trip time (send to echoed ack)",
            ("worker", "peer"),
        )
