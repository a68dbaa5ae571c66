"""One rep of one workload in a fresh process; prints one JSON row.

Spawned by ``run.py`` with a fixed environment. ``--mode`` is ``plain``
(end-to-end numbers; no wrapper installed), ``traced`` (span wrappers
installed before anything is built), ``tracer_on`` (the repo's own
``Tracer`` attached to a sim engine) or ``shm`` (the mesh flood over
shared-memory lanes).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings

from spans import SpanRecorder


def _layer_block(rec, row: dict, roots, trace_out: str | None, tag: str) -> None:
    """Fold the recorder into the row: per-name self time and calls."""
    traced_s = sum(rec.duration(r) for r in roots)
    self_times = rec.self_times()
    # The harness's own root spans: their self time is what no wrapped
    # layer covers. For the simulator that is the glue in engine.run()
    # outside SimClock.run_until; for the mesh it *is* the mesh.loop
    # layer (asyncio, sender tasks, socket I/O).
    unattributed = self_times.get("run", (0.0, 0))[0]
    row["layers"] = {
        name: [self_s, calls]
        for name, (self_s, calls) in self_times.items()
        if name != "run"
    }
    for name, n in rec.counts.items():
        row["layers"].setdefault(name, [0.0, 0])[1] = n
    row["trace"] = {
        "traced_s": traced_s,
        "attributed_frac": 1.0 - unattributed / traced_s if traced_s else 0.0,
        "spans": len(rec.names),
        "missing": rec.missing,
    }
    if trace_out:
        os.makedirs(trace_out, exist_ok=True)
        rec.dump(os.path.join(trace_out, f"spans-{tag}.json"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", default="plain",
                    choices=("plain", "traced", "tracer_on", "shm"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--t-spawn", type=float, default=None,
                    help="parent's time.monotonic() just before the spawn")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    t_spawn = args.t_spawn if args.t_spawn is not None else time.monotonic()

    rec = SpanRecorder()
    traced = args.mode == "traced"
    if traced:
        # Every missing wrap target is told, not just the first.
        warnings.simplefilter("always", RuntimeWarning)

    if args.workload == "live_mesh":
        import mesh_workload

        if args.mode == "shm":
            row = mesh_workload.run_shm_flood(args.seed, smoke=args.smoke)
        else:
            row = mesh_workload.run(
                args.seed, smoke=args.smoke, rec=rec, traced=traced, t_spawn=t_spawn
            )
    else:
        import sim_workload

        row = sim_workload.run(
            args.workload, args.seed, smoke=args.smoke, rec=rec, traced=traced,
            t_spawn=t_spawn, tracer_on=args.mode == "tracer_on",
        )

    row["workload"] = args.workload
    row["seed"] = args.seed
    row["mode"] = args.mode
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    roots = row.pop("root", [])
    if traced:
        _layer_block(
            rec, row, roots, args.trace_out, f"{args.workload}-seed{args.seed}"
        )
    sys.stdout.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
