"""Summarize a Chrome-trace file produced by ``--trace``.

``repro-dlion report <trace.json>`` turns a trace back into the
paper-style diagnostic tables: per-worker compute/wait breakdown
(who spent the horizon training vs. blocked on the sync gate),
per-link utilization (which links carried the bytes and how busy they
were), the GBS/LBS timelines, and DKT protocol activity. Everything is
derived from the trace alone, so traces archived from old runs stay
analyzable.
"""

from __future__ import annotations

import json
import pathlib
from collections import defaultdict

from repro.experiments.reporting import format_table

__all__ = [
    "load_trace",
    "summarize_trace",
    "render_report",
    "load_metrics",
    "render_metrics_report",
]


def load_trace(path: str | pathlib.Path) -> list[dict]:
    """Read a Chrome-trace JSON file and return its event list."""
    doc = json.loads(pathlib.Path(path).read_text())
    if isinstance(doc, list):  # bare-array variant of the format
        return doc
    try:
        return doc["traceEvents"]
    except (TypeError, KeyError):
        raise ValueError(f"{path}: not a Chrome-trace JSON document")


def _process_names(events: list[dict]) -> dict[int, str]:
    return {
        ev["pid"]: ev["args"]["name"]
        for ev in events
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }


def summarize_trace(events: list[dict]) -> dict:
    """Aggregate a trace into plain data (used by :func:`render_report`).

    Returns a dict with ``horizon_s``, ``workers`` (per-pid compute/wait
    totals and iteration counts), ``links`` (per src->dst byte and busy
    totals), ``gbs`` / ``lbs`` counter timelines, and ``dkt`` instant
    counts.
    """
    names = _process_names(events)
    worker_pids = sorted(
        pid for pid, name in names.items() if name.startswith("worker ")
    )
    workers = {
        pid: {"iterations": 0, "compute_s": 0.0, "wait_s": 0.0, "lbs_changes": 0,
              "lbs_final": None}
        for pid in worker_pids
    }
    links: dict[tuple[int, int], dict] = defaultdict(
        lambda: {"transfers": 0, "bytes": 0, "busy_s": 0.0}
    )
    gbs: list[tuple[float, float]] = []
    lbs: dict[int, list[tuple[float, float]]] = defaultdict(list)
    dkt: dict[str, int] = defaultdict(int)
    horizon_us = 0.0

    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        ts = float(ev.get("ts", 0.0))
        dur = float(ev.get("dur", 0.0)) if ph == "X" else 0.0
        horizon_us = max(horizon_us, ts + dur)
        cat = ev.get("cat", "")
        pid = ev.get("pid")
        if ph == "X" and cat == "iter" and pid in workers:
            workers[pid]["iterations"] += 1
            workers[pid]["compute_s"] += dur / 1e6
        elif ph == "X" and cat == "sync" and pid in workers:
            workers[pid]["wait_s"] += dur / 1e6
        elif ph == "X" and cat == "net":
            args = ev.get("args", {})
            dst = args.get("dst")
            if dst is None:  # fall back to the "kind->dst" span name
                try:
                    dst = int(str(ev.get("name", "")).rsplit("->", 1)[1])
                except (IndexError, ValueError):
                    continue
            link = links[(pid, int(dst))]
            link["transfers"] += 1
            link["bytes"] += int(args.get("bytes", 0))
            link["busy_s"] += dur / 1e6
        elif ph == "C":
            name = ev.get("name", "")
            values = ev.get("args", {})
            if name == "gbs":
                gbs.append((ts / 1e6, float(values.get("gbs", 0.0))))
            elif name == "lbs" and pid in workers:
                lbs[pid].append((ts / 1e6, float(values.get("lbs", 0.0))))
        elif ph == "i" and cat == "dkt":
            dkt[ev.get("name", "dkt")] += 1

    for pid, series in lbs.items():
        workers[pid]["lbs_changes"] = len(series)
        workers[pid]["lbs_final"] = series[-1][1] if series else None

    return {
        "horizon_s": horizon_us / 1e6,
        "workers": workers,
        "links": dict(links),
        "gbs": gbs,
        "lbs": dict(lbs),
        "dkt": dict(dkt),
    }


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole > 0 else "-"


def render_report(events: list[dict]) -> str:
    """The full plain-text report for one trace."""
    summary = summarize_trace(events)
    horizon = summary["horizon_s"]
    sections = [f"trace horizon : {horizon:.1f} simulated seconds"]

    rows = []
    for pid, w in sorted(summary["workers"].items()):
        rows.append(
            [
                f"worker {pid}",
                w["iterations"],
                round(w["compute_s"], 2),
                _pct(w["compute_s"], horizon),
                round(w["wait_s"], 2),
                _pct(w["wait_s"], horizon),
                w["lbs_changes"],
                "-" if w["lbs_final"] is None else int(w["lbs_final"]),
            ]
        )
    if rows:
        sections.append("\nper-worker compute/wait breakdown:")
        sections.append(
            format_table(
                ["worker", "iters", "compute s", "compute %",
                 "wait s", "wait %", "lbs changes", "lbs final"],
                rows,
            )
        )

    rows = []
    for (src, dst), link in sorted(summary["links"].items()):
        rows.append(
            [
                f"{src}->{dst}",
                link["transfers"],
                round(link["bytes"] / 1e6, 2),
                round(link["busy_s"], 2),
                _pct(link["busy_s"], horizon),
            ]
        )
    if rows:
        sections.append("\nper-link utilization:")
        sections.append(
            format_table(["link", "transfers", "MB", "busy s", "util %"], rows)
        )

    if summary["gbs"]:
        steps = ", ".join(f"{t:.0f}s->{int(v)}" for t, v in summary["gbs"])
        sections.append(f"\nGBS timeline   : {steps}")

    if summary["dkt"]:
        counts = ", ".join(
            f"{name}={n}" for name, n in sorted(summary["dkt"].items())
        )
        sections.append(f"DKT activity   : {counts}")

    return "\n".join(sections)


def load_metrics(path: str | pathlib.Path) -> dict:
    """Read a ``--metrics-out`` registry dump (name -> family record)."""
    doc = json.loads(pathlib.Path(path).read_text())
    if not isinstance(doc, dict) or any(
        not isinstance(v, dict) or "kind" not in v for v in doc.values()
    ):
        raise ValueError(f"{path}: not a metrics registry dump")
    return doc


def _series_label(labels: dict) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in labels.items())


def render_metrics_report(dump: dict) -> str:
    """Latency/size distribution tables from a ``--metrics-out`` dump.

    One table per histogram family, one row per label series with the
    count, mean, and the p50/p95/p99 each sample carries (``-`` where
    a key is missing).
    """
    sections = []
    for name, fam in sorted(dump.items()):
        if fam.get("kind") != "histogram" or not fam.get("samples"):
            continue
        rows = []
        for rec in fam["samples"]:
            count = rec.get("count", 0)
            if not count:
                continue
            mean = rec.get("sum", 0.0) / count

            def fmt(v):
                return "-" if v is None else f"{v:.6g}"

            rows.append(
                [
                    _series_label(rec.get("labels", {})),
                    count,
                    f"{mean:.6g}",
                    fmt(rec.get("p50")),
                    fmt(rec.get("p95")),
                    fmt(rec.get("p99")),
                    fmt(rec.get("max")),
                ]
            )
        if not rows:
            continue
        sections.append(f"\n{name} ({fam.get('help', '')}):")
        sections.append(
            format_table(
                ["series", "count", "mean", "p50", "p95", "p99", "max"], rows
            )
        )
    if not sections:
        return "no histogram samples in this metrics dump"
    return "\n".join(sections).lstrip("\n")
