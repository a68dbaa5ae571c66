"""The performance ledger: one command, four workloads, every metric.

Two ways to run it, sharing every line of measuring code:

``run.py --workload W --seed N --seconds S --trace 0|1``
    The driver contract (``BENCHMARK.json``). One workload; fresh child
    processes are run back to back until ``S`` seconds have been
    measured; each end-to-end value is the median over those reps and
    set-up is timed once per rep. With ``--trace 1`` one untraced and
    one traced child give the per-layer metrics. The last line of
    standard output is the result JSON.

``run.py [--seed 0] [--rounds 5] [--workload W] [--trace-out DIR]``
    The fixed-seed ledger. In each round every workload runs once,
    round-robin, so a burst of neighbour noise hits one rep of each
    workload and not all reps of one; then one traced round. Prints
    every metric by name with its unit and writes ``ledger.json`` for
    ``compare.py``. ``--smoke`` is the same at tiny sizes with every
    correctness check on; ``--selfcheck`` runs two ledgers of the same
    code and feeds them through ``compare.py``.

It claims no gain. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from metrics import E2E, PER_LAYER, WORKLOAD_GATED, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD_TIMEOUT_S = {False: 120.0, True: 60.0}  # keyed by smoke
# The contract allows 180 s per invocation; stop starting reps here.
DRIVER_BUDGET_S = 150.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {
    **{name: spec[0] for name, spec in E2E.items()},
    **{name: unit for name, unit, _ in PER_LAYER},
}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    """The environment every child gets, whatever the caller's was.

    One BLAS thread: with NumPy's default threading the simulator burns
    two cores for one thread of work and its median drifts 7.0 -> 8.7 s
    between sets; pinned it is faster and repeats (README, "Noise").
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload, seed, *, smoke=False, mode="plain", trace_out=None) -> dict:
    """One rep in a fresh process. Never raises: a crash, a timeout or
    unparsable output comes back as a row whose ops all failed."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--t-spawn", repr(time.monotonic()),
    ]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = CHILD_TIMEOUT_S[smoke]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return _failed_row(workload, seed, mode, f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return _failed_row(
            workload, seed, mode, f"exit {proc.returncode}: " + " | ".join(tail)
        )
    try:
        row = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return _failed_row(workload, seed, mode, "no JSON row on stdout")
    if proc.stderr.strip():
        row["stderr"] = proc.stderr.strip().splitlines()[-5:]
    return row


def _failed_row(workload, seed, mode, why) -> dict:
    return {
        "workload": workload, "seed": seed, "mode": mode,
        "ops_attempted": 1, "ops_failed": 1, "errors": [why], "digest": None,
    }


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_reps(rows) -> tuple[int, int, list[str]]:
    """Ops attempted / failed over plain reps, and why.

    On top of each child's own checks: every rep of one seed must give
    the same digest (the determinism contract). A rep that disagrees
    with the first good one is a failed op."""
    attempted = sum(r["ops_attempted"] for r in rows)
    failed = sum(r["ops_failed"] for r in rows)
    errors = [e for r in rows for e in r["errors"]]
    good = [r for r in rows if not r["ops_failed"]]
    for r in good[1:]:
        if r["digest"] != good[0]["digest"]:
            failed += r["ops_attempted"]
            errors.append(
                f"digest differs between reps of seed {r['seed']}: "
                f"{good[0]['digest']} vs {r['digest']}"
            )
    return attempted, failed, errors


def summarize(rows, names) -> dict:
    """``{metric: {median, q1, q3, values}}`` over the reps that ran."""
    out = {}
    for name in names:
        values = [r[name] for r in rows if r.get(name) is not None]
        if values:
            q1, med, q3 = quartiles(values)
            out[name] = {"median": med, "q1": q1, "q3": q3, "values": values}
    return out


def gated_names(workload) -> list[str]:
    return list(E2E) + [
        name for name, spec in WORKLOAD_GATED.items() if workload in spec[4]
    ]


def per_layer(plain, traced, variants) -> dict:
    """Every ``PER_LAYER`` name -> number, for one workload.

    ``plain`` is an untraced row of the same seed (the reference for the
    tracing overhead), ``traced`` the traced child's row, ``variants``
    the extra traced-round children by mode. A layer that did not run
    on this workload reads 0; so does one whose wrap target is gone,
    and ``trace.missing_targets`` counts those."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, (self_s, calls) in traced.get("layers", {}).items():
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] = self_s
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = calls
    for row in (traced, *variants.values()):
        for name, value in row.get("extra", {}).items():
            if name in out:
                out[name] = value
    for name in WORKLOAD_GATED:
        if traced.get(name) is not None:
            out[name] = traced[name]
    out["host.cpu_s"] = plain.get("cpu_s", 0.0)
    trace = traced.get("trace", {})
    out["trace.attributed_frac"] = trace.get("attributed_frac", 0.0)
    out["trace.missing_targets"] = len(trace.get("missing", []))
    if plain.get("wall_s") and traced.get("wall_s"):
        out["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    tracer_on = variants.get("tracer_on", {})
    if plain.get("wall_s") and tracer_on.get("wall_s"):
        out["obs.tracer_on.overhead_frac"] = (
            tracer_on["wall_s"] / plain["wall_s"] - 1.0
        )
    return out


def trace_checks(plain, traced, layers) -> dict:
    """The three checks that make the traced numbers trustworthy."""
    traced_s = traced.get("trace", {}).get("traced_s", 0.0)
    dispatch = layers["simclock.dispatch.self_s"]
    return {
        # Wrappers are inert: same simulation / same deliveries.
        "digest_equal": plain.get("digest") is not None
        and plain.get("digest") == traced.get("digest"),
        # Self times of named layers sum to the traced wall within 1 %.
        "attributed": layers["trace.attributed_frac"] >= 0.99,
        # ... without hiding it in the "everything else" bucket.
        "dispatch_small": traced_s > 0 and dispatch <= 0.05 * traced_s,
    }


def traced_round(workload, seed, plain, *, smoke, trace_out) -> dict:
    """Traced child + the un-gated variants; returns layers and checks."""
    traced = run_child(workload, seed, smoke=smoke, mode="traced", trace_out=trace_out)
    variants = {}
    if workload == "sim_homo_b":
        variants["tracer_on"] = run_child(workload, seed, smoke=smoke, mode="tracer_on")
    if workload == "live_mesh":
        variants["shm"] = run_child(workload, seed, smoke=smoke, mode="shm")
    layers = per_layer(plain, traced, variants)
    errors = list(traced.get("errors", []))
    for mode, row in variants.items():
        # A variant that cannot run reads 0; one that runs wrong is told.
        errors += [f"{mode}: {e}" for e in row.get("errors", [])]
    return {
        "per_layer": layers,
        "trace_checks": trace_checks(plain, traced, layers),
        "trace_missing": traced.get("trace", {}).get("missing", []),
        "traced_s": traced.get("trace", {}).get("traced_s", 0.0),
        "errors": errors,
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_e2e(workload, summary, attempted, failed) -> None:
    for name, s in summary.items():
        spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
        print(
            f"{workload:18s} {name:22s} {_fmt(s['median']):>12s} {UNITS[name]:6s}"
            f" q1 {_fmt(s['q1'])} q3 {_fmt(s['q3'])} iqr/med {spread:.3f}"
            f" n {len(s['values'])}"
        )
    print(f"{workload:18s} ops_attempted {attempted} ops_failed {failed}")


def print_layers(workload, layers, traced_s) -> None:
    for name, value in layers.items():
        share = ""
        if name.endswith(".self_s") and traced_s and not name.startswith("setup."):
            share = f" {100.0 * value / traced_s:5.1f}% of traced wall"
        print(f"{workload:18s} {name:34s} {_fmt(value):>12s} {UNITS[name]:6s}{share}")


# ----------------------------------------------------------------------
# Driver mode
# ----------------------------------------------------------------------
def driver(args) -> int:
    workload, seed = args.workload, args.seed
    if args.trace:
        plain = run_child(workload, seed, smoke=args.smoke)
        result = traced_round(
            workload, seed, plain, smoke=args.smoke, trace_out=args.trace_out
        )
        attempted, failed, errors = check_reps([plain])
        errors += result["errors"]
        for name, passed in result["trace_checks"].items():
            if passed:
                continue
            if name == "digest_equal":
                errors.append("traced digest differs from the untraced digest")
            else:
                print(f"warning: trace check {name!r} failed on {workload}",
                      file=sys.stderr)
        print_layers(workload, result["per_layer"], result["traced_s"])
        values = result["per_layer"]
    else:
        t_start = time.monotonic()
        rows = []
        while True:
            t_rep = time.monotonic()
            rows.append(run_child(workload, seed, smoke=args.smoke))
            now = time.monotonic()
            elapsed, last = now - t_start, now - t_rep
            if elapsed >= args.seconds or elapsed + last > DRIVER_BUDGET_S:
                break
        attempted, failed, errors = check_reps(rows)
        summary = summarize([r for r in rows if not r["ops_failed"]], E2E)
        print_e2e(workload, summary, attempted, failed)
        values = {name: s["median"] for name, s in summary.items()}
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if not values:
        print("error: no rep succeeded, so there is no result", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# Ledger mode
# ----------------------------------------------------------------------
def environment_block() -> dict:
    try:
        import numpy as np

        numpy_version = np.__version__
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas = {k: blas.get(k) for k in ("name", "version")}
    except Exception:  # an old NumPy, or none in the parent: not fatal here
        numpy_version, blas = None, None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "git_commit": commit,
        "pinned": {**{k: "1" for k in PINNED_THREADS}, "PYTHONHASHSEED": "0",
                   "PYTHONPATH": "src", "REPRO_*": "removed"},
    }


def build_ledger(args) -> dict:
    env = environment_block()
    if env["loadavg_start"][0] > (env["nproc"] or 1):
        print(
            f"WARNING: 1-min load average {env['loadavg_start'][0]:.2f} exceeds "
            f"nproc {env['nproc']}: timings below are not trustworthy",
            file=sys.stderr,
        )
    names = [args.workload] if args.workload else list(WORKLOADS)
    rows = {w: [] for w in names}
    for rnd in range(args.rounds):
        for w in names:
            rows[w].append(run_child(w, args.seed, smoke=args.smoke))
            print(f"round {rnd + 1}/{args.rounds} {w}: "
                  f"{_fmt(rows[w][-1].get('wall_s', float('nan')))} s",
                  file=sys.stderr)
    ledger = {
        "schema": 1,
        "claim": None,
        "box": args.box,
        "seed": args.seed,
        "rounds": args.rounds,
        "smoke": args.smoke,
        "environment": env,
        "workloads": {},
    }
    for w in names:
        attempted, failed, errors = check_reps(rows[w])
        good = [r for r in rows[w] if not r["ops_failed"]]
        entry = {
            "why": WORKLOADS[w],
            "ops_attempted": attempted,
            "ops_failed": failed,
            "errors": errors,
            "digest": good[0]["digest"] if good else None,
            "metrics": summarize(good, gated_names(w)),
        }
        if good:
            # The untraced reference is the rep nearest the median wall.
            med = entry["metrics"]["wall_s"]["median"]
            plain = min(good, key=lambda r: abs(r["wall_s"] - med))
            traced = traced_round(
                w, args.seed, plain, smoke=args.smoke, trace_out=args.trace_out
            )
            entry["errors"] += traced.pop("errors")
            entry.update(traced)
        ledger["workloads"][w] = entry
    env["loadavg_end"] = list(os.getloadavg())
    return ledger


def ledger_ok(ledger) -> bool:
    """Every op succeeded and every traced digest matched."""
    ok = True
    for w, entry in ledger["workloads"].items():
        for e in entry["errors"]:
            print(f"error: {w}: {e}", file=sys.stderr)
        checks = entry.get("trace_checks", {})
        if entry["ops_failed"] or entry["errors"] or not checks.get("digest_equal"):
            ok = False
        for name, passed in checks.items():
            if not passed:
                print(f"warning: {w}: trace check {name!r} failed", file=sys.stderr)
    return ok


def print_ledger(ledger) -> None:
    for w, entry in ledger["workloads"].items():
        print_e2e(w, entry["metrics"], entry["ops_attempted"], entry["ops_failed"])
        print(f"{w:18s} digest {json.dumps(entry['digest'])}")
        if "per_layer" in entry:
            print_layers(w, entry["per_layer"], entry["traced_s"])


def write_ledger(ledger, args, name="ledger.json") -> pathlib.Path:
    out = pathlib.Path(args.out) if args.out else pathlib.Path(args.trace_out) / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="driver mode: measure one workload for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="driver mode: 1 = per-layer metrics from a traced child")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--trace-out", default=None,
                    help="where span files and ledger.json go "
                         "(ledger mode default: benchmarks/e2e/out)")
    ap.add_argument("--out", help="ledger mode: path of the ledger JSON")
    ap.add_argument("--box", default="unnamed box",
                    help="ledger mode: name the machine, e.g. '2-core shared box'")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every correctness check on, one round")
    ap.add_argument("--selfcheck", action="store_true",
                    help="two ledgers of the same code through compare.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark builds "
              "nothing of its own and needs the program's source", file=sys.stderr)
        return 2
    if args.seconds is not None:
        if args.workload is None:
            ap.error("--seconds needs --workload")
        return driver(args)

    if args.trace_out is None:
        args.trace_out = str(HERE / "out")
    if args.smoke:
        args.rounds = 1
    first = build_ledger(args)
    print_ledger(first)
    path = write_ledger(first, args)
    print(f"wrote {path}", file=sys.stderr)
    ok = ledger_ok(first)
    if args.selfcheck:
        import compare

        second = build_ledger(args)
        path = write_ledger(second, args, name="ledger-second.json")
        print(f"wrote {path}", file=sys.stderr)
        ok = ledger_ok(second) and ok
        # Timing bounds mean nothing at smoke sizes; exactness still does.
        ok = compare.report(first, second, timing=not args.smoke) == 0 and ok
        for w, entry in first["workloads"].items():
            # Same code, same seed: the exact-repeat numbers must be
            # bit-identical between the two sets.
            if entry["digest"] != second["workloads"][w]["digest"]:
                print(f"error: {w}: digest differs between the two sets",
                      file=sys.stderr)
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
