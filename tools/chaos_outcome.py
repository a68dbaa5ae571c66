#!/usr/bin/env python3
"""Check the outcome of a run of ``examples/chaos/smoke.json``.

Reads a ``--metrics-out`` file and fails unless the crashed worker (2)
lost no iteration to its checkpoint lag — ``lost_iterations_total`` is
0 or absent for it — and completed at least 0.9x the iterations of the
slower survivor::

    python tools/chaos_outcome.py metrics.json

Prints one line: the per-worker iteration counts, the victim's lost
iterations and ``ok`` / ``FAIL``; exits 1 on ``FAIL``.
"""

from __future__ import annotations

import json
import sys

VICTIM = 2
MIN_PACE = 0.9


def per_worker(metrics: dict, name: str) -> dict[int, float]:
    samples = metrics.get(name, {}).get("samples", [])
    return {int(s["labels"]["worker"]): s["value"] for s in samples}


def main(path: str) -> int:
    with open(path) as fh:
        metrics = json.load(fh)
    iterations = per_worker(metrics, "iterations_total")
    lost = per_worker(metrics, "lost_iterations_total").get(VICTIM, 0)
    slower_survivor = min(n for w, n in iterations.items() if w != VICTIM)
    ok = lost == 0 and iterations.get(VICTIM, 0) >= MIN_PACE * slower_survivor
    counts = [int(iterations.get(w, 0)) for w in sorted(iterations)]
    print(f"iterations {counts} lost{{worker={VICTIM}}} {int(lost)} "
          f"{'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
