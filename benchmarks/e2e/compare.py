"""Compare two ledgers written by ``run.py``: ``compare.py A.json B.json``.

A is the parent, B the change. One row per (workload, gated metric),
with the direction and bound of each metric taken from ``BENCHMARK.json``
(the metrics every workload has) and ``metrics.WORKLOAD_GATED`` (the
fixed-seed ones). Verdicts:

``regressed``   B's median is worse than A's by more than the bound
``improved``    B's median is better by more than either side's own
                inter-quartile spread
``unresolved``  neither, and a side's spread is wider than the bound:
                the runs cannot tell "unchanged" from "slightly worse"
``unchanged``   neither, and both spreads are inside the bound

Then the failed-ops share and the digest of each workload. Exit status
is non-zero when any row regressed or B failed a larger share of its
ops than A. A digest difference is reported, not failed: a behaviour
change is allowed to move it, a perf-only change shows it did not.
"""

from __future__ import annotations

import json
import pathlib
import sys

from metrics import WORKLOAD_GATED

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

__all__ = ["gates", "verdict", "report"]


def gates() -> dict:
    """``{metric: (better, bound, "rel" | "abs", workloads or None)}``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        m["name"]: (m["better"], m["bound"], "rel", None)
        for m in bench["end_to_end"]
    }
    for name, (_unit, better, bound, kind, workloads) in WORKLOAD_GATED.items():
        out[name] = (better, bound, kind, workloads)
    return out


def verdict(a: dict, b: dict, better: str, bound: float, kind: str):
    """``(verdict, signed change, spread)``; change > 0 means worse.

    ``a`` / ``b`` are ``{"median", "q1", "q3"}``. Change and spread are
    shares of A's median for a relative bound, raw for an absolute one.
    """
    worse = b["median"] - a["median"]
    if better == "higher":
        worse = -worse
    spread_a, spread_b = a["q3"] - a["q1"], b["q3"] - b["q1"]
    if kind == "rel":
        worse /= abs(a["median"])
        spread_a /= abs(a["median"])
        spread_b /= abs(b["median"])
    spread = max(spread_a, spread_b)
    if worse > bound:
        return "regressed", worse, spread
    if worse < 0 and -worse > spread:
        return "improved", worse, spread
    if spread > bound:
        return "unresolved", worse, spread
    return "unchanged", worse, spread


def report(a: dict, b: dict, *, timing: bool = True, out=sys.stdout) -> int:
    """Print the comparison of two ledgers; returns the exit status.

    ``timing=False`` keeps only the fixed-seed metrics (smoke sizes are
    too small for a timing bound to mean anything)."""
    status = 0
    table = gates()
    print(f"{'workload':18s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict", file=out)
    for w in a["workloads"]:
        if w not in b["workloads"]:
            print(f"{w:18s} missing from B", file=out)
            status = 1
            continue
        ea, eb = a["workloads"][w], b["workloads"][w]
        for name, (better, bound, kind, only) in table.items():
            if only is not None and w not in only:
                continue
            if not timing and only is None:
                continue
            ma, mb = ea["metrics"].get(name), eb["metrics"].get(name)
            if ma is None and mb is None:
                # Not reached on either side (a target accuracy inside
                # a smoke horizon): nothing to compare, nothing lost.
                continue
            if ma is None or mb is None:
                print(f"{w:18s} {name:22s} present on one side only", file=out)
                status = 1
                continue
            verd, change, spread = verdict(ma, mb, better, bound, kind)
            pct = "%" if kind == "rel" else ""
            scale = 100.0 if kind == "rel" else 1.0
            print(
                f"{w:18s} {name:22s} {ma['median']:12.6g} {mb['median']:12.6g} "
                f"{scale * change:+7.2f}{pct} {scale * spread:6.2f}{pct} "
                f"{scale * bound:5.2f}{pct}  {verd}",
                file=out,
            )
            if verd == "regressed":
                status = 1
        fa = ea["ops_failed"] / max(ea["ops_attempted"], 1)
        fb = eb["ops_failed"] / max(eb["ops_attempted"], 1)
        print(f"{w:18s} failed ops: A {ea['ops_failed']}/{ea['ops_attempted']}"
              f" B {eb['ops_failed']}/{eb['ops_attempted']}", file=out)
        if fb > fa:
            status = 1
        da, db = ea["digest"] or {}, eb["digest"] or {}
        if da == db:
            print(f"{w:18s} digest: identical", file=out)
        else:
            diff = {
                k: [da.get(k), db.get(k)]
                for k in sorted(set(da) | set(db))
                if da.get(k) != db.get(k)
            }
            print(f"{w:18s} digest: DIFFERS {json.dumps(diff)}", file=out)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    return report(a, b, timing=not (a.get("smoke") or b.get("smoke")))


if __name__ == "__main__":
    sys.exit(main())
