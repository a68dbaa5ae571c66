"""Live-run status snapshots: the supervisor's side-channel to disk.

While a ``--backend proc`` run is in flight, the supervisor folds each
worker's telemetry deltas into a cluster-health **snapshot**: one JSON
document, atomically replaced in place, that an outside observer —
``repro-dlion status <dir>`` (optionally ``--watch``) or anything else
that can read a file — consumes without touching the run. The write is
``tmp + os.replace`` so a reader never sees a torn document; the reader
treats a missing or mid-replace file as "no snapshot yet".

The functions here are deliberately pure-data (build/write/read/render
on plain dicts) so tests can exercise the full surface without a live
run or any wall-clock sleeps.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics

__all__ = [
    "SNAPSHOT_NAME",
    "SNAPSHOT_VERSION",
    "STRAGGLER_FACTOR",
    "build_snapshot",
    "events_tail",
    "write_snapshot",
    "read_snapshot",
    "render_health_line",
    "render_snapshot",
]

SNAPSHOT_NAME = "live_status.json"
SNAPSHOT_VERSION = 2

# A worker is flagged a straggler when its iteration rate falls below
# this fraction of the cluster's median (only among positive rates, so
# a cold cluster is not all-stragglers).
STRAGGLER_FACTOR = 0.5


def build_snapshot(
    *,
    time_model_s: float,
    horizon_s: float,
    wall_elapsed_s: float,
    speedup: float,
    workers: dict[int, dict],
    cluster: dict,
    events_tail: dict[int, list] | None = None,
) -> dict:
    """Assemble one snapshot document and flag stragglers.

    ``workers`` maps worker id to at least ``iteration`` / ``rate``
    (iterations per wall second) / ``alive`` / ``restarts``; a
    ``straggler`` flag is added here from the cross-worker rate
    distribution. ``cluster`` carries pre-aggregated transport numbers
    (see :func:`render_health_line` for the keys it reads);
    ``events_tail`` each worker's newest lifecycle events
    (:func:`events_tail`).
    """
    rates = [
        info.get("rate", 0.0) for info in workers.values() if info.get("alive")
    ]
    positive = [r for r in rates if r > 0]
    floor = STRAGGLER_FACTOR * statistics.median(positive) if positive else 0.0
    out_workers = {}
    for w, info in sorted(workers.items()):
        entry = dict(info)
        entry["straggler"] = bool(
            entry.get("alive")
            and positive
            and entry.get("rate", 0.0) < floor
        )
        out_workers[str(w)] = entry
    snap = {
        "version": SNAPSHOT_VERSION,
        "time_model_s": round(time_model_s, 3),
        "horizon_s": horizon_s,
        "wall_elapsed_s": round(wall_elapsed_s, 3),
        "speedup": speedup,
        "workers": out_workers,
        "cluster": dict(cluster),
    }
    if events_tail:
        snap["events_tail"] = {
            str(w): list(events) for w, events in sorted(events_tail.items())
        }
    return snap


def events_tail(family, n: int) -> dict[int, list]:
    """The newest ``n`` events per worker of a ``lifecycle_events``
    series family (None reads as no events), oldest first, each as
    ``{time, event, peer, iteration}``."""
    per_worker: dict[int, list] = {}
    for (w, event, peer), series in (family.items() if family else ()):
        per_worker.setdefault(w, []).extend(
            {"time": round(t, 3), "event": event, "peer": peer,
             "iteration": int(i)}
            for t, i in zip(series.times, series.values)
        )
    return {
        w: sorted(events, key=lambda e: e["time"])[-n:]
        for w, events in sorted(per_worker.items())
    }


def write_snapshot(directory: str | pathlib.Path, snapshot: dict) -> pathlib.Path:
    """Atomically publish ``snapshot`` as ``<directory>/live_status.json``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / SNAPSHOT_NAME
    tmp = directory / (SNAPSHOT_NAME + ".tmp")
    tmp.write_text(json.dumps(snapshot, indent=2))
    os.replace(tmp, path)
    return path


def read_snapshot(directory: str | pathlib.Path) -> dict | None:
    """The current snapshot, or None when absent/unreadable (no raise)."""
    path = pathlib.Path(directory) / SNAPSHOT_NAME
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GB"  # pragma: no cover - loop always returns


def _fmt_latency(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def render_health_line(snapshot: dict) -> str:
    """One line of cluster health, the ``--stats-interval`` output.

    Example::

        [live t=12.3/40.0s] it/s 0:3.1 1:3.0 2:1.2* | p99 1.8ms | \
outbox<=3 queue<=2 | 1.2k msgs 5.6MB | up 3/3
    """
    workers = snapshot.get("workers", {})
    cluster = snapshot.get("cluster", {})
    per_worker = " ".join(
        f"{w}:{info.get('rate', 0.0):.1f}{'*' if info.get('straggler') else ''}"
        + ("" if info.get("alive") else "!")
        for w, info in sorted(workers.items(), key=lambda kv: int(kv[0]))
    )
    alive = sum(1 for info in workers.values() if info.get("alive"))
    msgs = cluster.get("send_msgs_total", 0)
    msgs_s = f"{msgs / 1e3:.1f}k" if msgs >= 1000 else f"{int(msgs)}"
    return (
        f"[live t={snapshot.get('time_model_s', 0.0):.1f}"
        f"/{snapshot.get('horizon_s', 0.0):.1f}s]"
        f" it/s {per_worker}"
        f" | p99 {_fmt_latency(cluster.get('frame_latency_p99_s'))}"
        f" | outbox<={int(cluster.get('outbox_depth_max', 0))}"
        f" queue<={int(cluster.get('queue_depth_max', 0))}"
        f" | {msgs_s} msgs {_fmt_bytes(cluster.get('send_bytes_total', 0))}"
        f" | up {alive}/{len(workers)}"
    )


def render_snapshot(snapshot: dict) -> str:
    """Multi-line rendering for ``repro-dlion status`` (one table)."""
    lines = [render_health_line(snapshot)]
    lines.append(
        f"  wall {snapshot.get('wall_elapsed_s', 0.0):.1f}s at speedup "
        f"{snapshot.get('speedup', 0.0):g}"
    )
    header = (
        f"  {'worker':>6} {'alive':>5} {'iter':>8} {'it/s':>7} "
        f"{'restarts':>8} {'straggler':>9}"
    )
    lines.append(header)
    for w, info in sorted(
        snapshot.get("workers", {}).items(), key=lambda kv: int(kv[0])
    ):
        lines.append(
            f"  {w:>6} {('yes' if info.get('alive') else 'NO'):>5} "
            f"{info.get('iteration', 0):>8} {info.get('rate', 0.0):>7.2f} "
            f"{info.get('restarts', 0):>8} "
            f"{('YES' if info.get('straggler') else '-'):>9}"
        )
    for w, events in sorted(
        (snapshot.get("events_tail") or {}).items(), key=lambda kv: int(kv[0])
    ):
        if events:
            last = events[-1]
            peer = f" peer {last['peer']}" if last["peer"] >= 0 else ""
            lines.append(
                f"  worker {w} last event: {last['event']}{peer} at "
                f"t={last['time']:.1f}s (iteration {last['iteration']})"
            )
    return "\n".join(lines)
