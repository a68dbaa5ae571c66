"""Observability: event tracing, metrics, and wall-clock profiling.

Three independent instruments share this package (see
``docs/observability.md``):

* :mod:`repro.obs.trace` — spans and instant events in **simulated**
  time, exported as Chrome-trace-format JSON (Perfetto /
  ``chrome://tracing``). Answers "what happened when" inside one run.
* :mod:`repro.obs.metrics` — named counters, gauges, fixed-bucket
  histograms and time series with labels. Answers "how much / how
  many / how it went" and is what :class:`~repro.core.engine.RunResult`
  reads.
* :mod:`repro.obs.profile` — self seconds per ledger layer, timed by
  wrappers it installs on the layers' methods while a profiler is
  active. Answers "where does the **wall clock** go" (``--profile``).

The live backend's telemetry plane ships each worker's registry state —
its lifecycle events (peer deaths, checkpoints, rejoins, finalize) are
one more series family there, ``lifecycle_events`` — and adds one
module:

* :mod:`repro.obs.live_status` — the supervisor's atomically-replaced
  cluster-health snapshot (``live_status.json``) and its renderers.

All instruments default to off (or to a no-op implementation) so the
simulator's hot path pays only an ``enabled`` check when nothing is
observing — and nothing at all for the profiler, which has no hook in
the measured code.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    percentile_from_buckets,
)
from repro.obs.profile import Profiler, activate, render
from repro.obs.trace import (
    NULL_TRACER,
    TID_CTRL,
    TID_DKT,
    TID_ITER,
    TID_NET,
    TID_SYNC,
    NullTracer,
    Tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TID_ITER",
    "TID_SYNC",
    "TID_NET",
    "TID_DKT",
    "TID_CTRL",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "percentile_from_buckets",
    "Profiler",
    "activate",
    "render",
]
