"""One driver per paper table/figure.

Each ``fig*/table*`` function runs the experiment behind that figure and
returns a :class:`~repro.experiments.reporting.FigureResult` whose rows
mirror the paper's reported series. The benchmark files under
``benchmarks/`` are thin wrappers that call these and print the result;
EXPERIMENTS.md records paper-vs-measured from the same rows.

All runs respect ``REPRO_BENCH_SCALE`` (fast/full) through the runner.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import AWS_REGION_BANDWIDTH, AWS_REGIONS
from repro.cluster.traces import PiecewiseTrace
from repro.core.config import DktConfig, GbsConfig, LbsConfig, MaxNConfig
from repro.core.engine import TrainingEngine
from repro.experiments.environments import ENVIRONMENTS, LAN_MBPS, get_environment
from repro.experiments.reporting import FigureResult
from repro.experiments.runner import (
    bench_seeds,
    build_config,
    build_topology,
    cpu_workload,
    run_seeds,
)
from repro.utils.metrics import detect_convergence, mean_and_ci95, time_to_accuracy

__all__ = [
    "table1", "table2", "table3",
    "fig05", "fig06", "fig07", "fig08",
    "fig09a", "fig09b", "fig09c",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21",
]

SYSTEMS = ("dlion", "baseline", "ako", "gaia", "hop")
TARGET_ACCURACY = 0.70  # the paper's time-to-accuracy target


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _system_comparison(
    figure: str,
    title: str,
    environments: tuple[str, ...],
    *,
    systems: tuple[str, ...] = SYSTEMS,
    metric: str = "accuracy",
) -> FigureResult:
    """Run ``systems × environments``; one row per pair.

    ``metric``: "accuracy" (mean cluster accuracy at the horizon, the
    paper's within-budget accuracy), or "deviation" (std of per-worker
    accuracy — Fig. 17).
    """
    header = ["environment", "system", metric, "ci95", "vs dlion"]
    result = FigureResult(figure=figure, title=title, header=header)
    for env in environments:
        dlion_mean = None
        for system in systems:
            runs = run_seeds(env, system)
            if metric == "accuracy":
                vals = [r.final_mean_accuracy() for r in runs]
            elif metric == "deviation":
                vals = [r.accuracy_deviation_at(r.horizon) for r in runs]
            else:
                raise ValueError(metric)
            mean, ci = mean_and_ci95(vals)
            if system == systems[0]:
                dlion_mean = mean
            ratio = None if dlion_mean in (None, 0) else dlion_mean / max(mean, 1e-9)
            result.rows.append([env, system, mean, ci, ratio])
    result.notes.append(
        "'vs dlion' = dlion metric / system metric (>1 means dlion wins on accuracy)"
    )
    return result


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1() -> FigureResult:
    """Table 1: lines of plugin code to express each system."""
    from repro.baselines.loc import table1_rows

    paper = {
        "baseline": {"generate_partial_gradients": 1, "synch_training": 0},
        "hop": {"generate_partial_gradients": 1, "synch_training": 20},
        "gaia": {"generate_partial_gradients": 1, "synch_training": 0},
        "ako": {"generate_partial_gradients": 23, "synch_training": 0},
    }
    res = FigureResult(
        figure="Table 1",
        title="Lines of code to emulate systems in the DLion framework",
        header=["system", "API", "ours (LoC)", "paper (LoC)"],
    )
    for system, apis in table1_rows().items():
        for api, loc in apis.items():
            res.rows.append([system, api, loc, paper.get(system, {}).get(api)])
    res.notes.append(
        "paper counts the *changed* lines against its TF prototype; we count "
        "executable lines of the plugin method bodies — same order of magnitude"
    )
    return res


def table2() -> FigureResult:
    """Table 2: measured WAN bandwidth between six Amazon regions."""
    res = FigureResult(
        figure="Table 2",
        title="Inter-region bandwidth (Mbps) used for WAN emulation",
        header=["from \\ to"] + [r[:3] for r in AWS_REGIONS],
    )
    for i, region in enumerate(AWS_REGIONS):
        res.rows.append(
            [region] + [int(AWS_REGION_BANDWIDTH[i][j]) if i != j else "-" for j in range(6)]
        )
    return res


def table3() -> FigureResult:
    """Table 3: the emulated micro-cloud environments."""
    res = FigureResult(
        figure="Table 3",
        title="Emulation details for micro-cloud environments",
        header=["environment", "platform", "computation", "network (Mbps)"],
    )
    for env in ENVIRONMENTS.values():
        if env.name == "Stress 1k":  # a scaling extension, not a paper row
            continue
        if env.dynamic:
            res.rows.append([env.name, env.platform, " -> ".join(env.phases), "(phased)"])
        else:
            res.rows.append(
                [
                    env.name,
                    env.platform,
                    "/".join(str(int(c)) for c in env.cores),
                    "/".join(str(int(b)) for b in env.bandwidth),
                ]
            )
    return res


# ----------------------------------------------------------------------
# Exploratory figures (§3)
# ----------------------------------------------------------------------
def fig05() -> FigureResult:
    """Fig. 5: accuracy after 30 epochs vs. the epoch GBS doubling starts."""
    workload = cpu_workload()
    epochs = 30.0  # the paper's fixed 30-epoch budget
    res = FigureResult(
        figure="Fig. 5",
        title="Final accuracy vs. GBS-doubling start epoch (early doubling hurts)",
        header=["doubling start epoch", "accuracy", "final GBS"],
    )
    sweep: list[float | None] = [0.0, 1.0, 2.0, 4.0, 8.0, None]
    for start in sweep:
        if start is None:
            gbs = GbsConfig(enabled=False)
        else:
            gbs = GbsConfig(
                warmup_cap_frac=1e-6,  # skip warm-up: pure doubling
                speedup_factor=2.0,
                start_epoch=start,
                min_epochs_between_updates=1.0,
                update_period_s=2.0,
            )
        overrides = dict(
            gbs=gbs,
            lbs=LbsConfig(enabled=False),
            dkt=DktConfig(enabled=False),
            maxn=MaxNConfig(fixed_n=100.0),
            weighted_update=False,
            # An easier task than the system-comparison runs: the paper's
            # Fig. 5 curves have plateaued by 30 epochs, so the model must
            # be able to converge within the epoch budget — otherwise
            # every GBS increase just means fewer updates and the sweep
            # conflates convergence speed with the early-doubling penalty.
            dataset_kwargs={"noise": 1.2},
            lr=0.05,
        )
        accs, final_gbs = [], None
        for seed in bench_seeds():
            cfg = build_config("dlion", workload, **overrides)
            topo = build_topology(get_environment("Homo A"), workload)
            engine = TrainingEngine(cfg, topo, seed=seed)
            r = engine.run_epochs(epochs, max_time=20_000.0)
            accs.append(r.final_mean_accuracy())
            final_gbs = int(r.gbs.values[-1])
        mean, _ = mean_and_ci95(accs)
        res.rows.append(["never" if start is None else start, mean, final_gbs])
    res.notes.append("paper finding: doubling at epoch 0/1 loses accuracy; >=2 is safe")
    return res


def fig06() -> FigureResult:
    """Fig. 6: LBS per worker as GBS grows, hetero cores 24/24/12/12/4/4."""
    workload = cpu_workload()
    topo = workload.cluster([24, 24, 12, 12, 4, 4], [LAN_MBPS] * 6)
    cfg = build_config("dlion", workload)
    horizon = 1000.0 * workload.time_scale
    r = TrainingEngine(cfg, topo, seed=0).run(horizon)
    res = FigureResult(
        figure="Fig. 6",
        title="LBS adaptation under GBS growth (cores 24/24/12/12/4/4)",
        header=["time (s)"] + [f"LBS w{i}" for i in range(6)] + ["GBS"],
    )
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        t = horizon * frac
        lbs = [int(s.value_at(t)) for s in r.lbs]
        res.rows.append([round(t, 1)] + lbs + [int(r.gbs.value_at(t))])
    res.notes.append("powerful workers hold proportionally larger LBS; sum tracks GBS")
    return res


def fig07() -> FigureResult:
    """Fig. 7: converged accuracy of Max N for different N."""
    res = FigureResult(
        figure="Fig. 7",
        title="Model accuracy vs. Max N's N (larger N = more gradient data)",
        header=["N", "accuracy", "ci95"],
    )
    for n in (0.1, 1.0, 10.0, 50.0, 100.0):
        overrides = dict(maxn=MaxNConfig(fixed_n=n), dkt=DktConfig(enabled=False))
        runs = run_seeds("Homo A", "dlion", config_overrides=overrides)
        mean, ci = mean_and_ci95([r.final_mean_accuracy() for r in runs])
        res.rows.append([n, mean, ci])
    res.notes.append("paper finding: accuracy increases with N")
    return res


def fig08() -> FigureResult:
    """Fig. 8: per-link partial-gradient sizes under different bandwidths."""
    runs = run_seeds("Hetero NET A", "dlion")
    r = runs[0]
    env = get_environment("Hetero NET A")
    res = FigureResult(
        figure="Fig. 8",
        title="Partial gradient size per link (worker 0 to fast vs slow peers)",
        header=["link", "bandwidth (paper Mbps)", "mean entries/msg", "mean chosen N"],
    )
    for dst in (1, 2, 4):
        entries = r.link_entries.get((0, dst))
        chosen = r.link_chosen_n.get((0, dst))
        res.rows.append(
            [
                f"0->{dst}",
                int(min(env.bandwidth[0], env.bandwidth[dst])),
                float(np.mean(entries.values)) if entries else None,
                float(np.mean(chosen.values)) if chosen else None,
            ]
        )
    res.notes.append("slower links carry fewer gradient entries (smaller fitted N)")
    return res


def _scaled_period(paper_iters: int, workload) -> int:
    return max(2, int(round(paper_iters * workload.time_scale)))


def fig09a() -> FigureResult:
    """Fig. 9a: time to 70% accuracy vs. DKT period."""
    workload = cpu_workload()
    res = FigureResult(
        figure="Fig. 9a",
        title="Training time to 70% accuracy vs. weight-exchange period",
        header=["DKT period (iters)", "time to 70% (s)", "accuracy at horizon"],
    )
    variants: list[tuple[str, DktConfig]] = []
    for paper_period in (10, 100, 1000):
        p = _scaled_period(paper_period, workload)
        variants.append((str(paper_period), DktConfig(period_iters=p)))
    # "frequent at the early learning phase": short period early, then 100.
    variants.append(
        (
            "early-frequent",
            DktConfig(
                period_iters=_scaled_period(100, workload),
                early_period_iters=_scaled_period(10, workload),
                early_until_iter=_scaled_period(400, workload),
            ),
        )
    )
    for label, dkt in variants:
        runs = run_seeds("Homo B", "dlion", config_overrides={"dkt": dkt})
        times = [r.time_to_accuracy(TARGET_ACCURACY) for r in runs]
        times = [t for t in times if t is not None]
        t_mean = float(np.mean(times)) if times else None
        acc, _ = mean_and_ci95([r.final_mean_accuracy() for r in runs])
        res.rows.append([label, t_mean, acc])
    res.notes.append("paper finding: moderate period (100) fastest; early-frequent comparable")
    return res


def fig09b() -> FigureResult:
    """Fig. 9b: whom to send — No_DKT vs Best2worst vs Best2all."""
    res = FigureResult(
        figure="Fig. 9b",
        title="DKT whom-to-send variants (accuracy at the horizon)",
        header=["variant", "accuracy", "ci95"],
    )
    cases = [
        ("No_DKT", {"dkt": DktConfig(enabled=False)}),
        ("DKT_Best2worst", {"dkt": DktConfig(period_iters=_scaled_period(100, cpu_workload()), whom="worst")}),
        ("DKT_Best2all", {"dkt": DktConfig(period_iters=_scaled_period(100, cpu_workload()), whom="all")}),
    ]
    for label, ov in cases:
        runs = run_seeds("Homo B", "dlion", config_overrides=ov)
        mean, ci = mean_and_ci95([r.final_mean_accuracy() for r in runs])
        res.rows.append([label, mean, ci])
    res.notes.append("paper finding: Best2all highest, No_DKT lowest")
    return res


def fig09c() -> FigureResult:
    """Fig. 9c: merge ratio λ sweep."""
    workload = cpu_workload()
    res = FigureResult(
        figure="Fig. 9c",
        title="DKT merge ratio lambda (accuracy at the horizon)",
        header=["lambda", "accuracy", "ci95"],
    )
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        if lam == 0.0:
            ov = {"dkt": DktConfig(enabled=False)}
        else:
            ov = {"dkt": DktConfig(period_iters=_scaled_period(100, workload), merge_lambda=lam)}
        runs = run_seeds("Homo B", "dlion", config_overrides=ov)
        mean, ci = mean_and_ci95([r.final_mean_accuracy() for r in runs])
        res.rows.append([lam, mean, ci])
    res.notes.append("lambda=0 is No_DKT; intermediate lambda best at the end")
    return res


# ----------------------------------------------------------------------
# Evaluation figures (§5)
# ----------------------------------------------------------------------
def fig11() -> FigureResult:
    """Fig. 11: system heterogeneity on the CPU cluster (5 systems x 3 envs)."""
    return _system_comparison(
        "Fig. 11",
        "System heterogeneity, CPU cluster (accuracy within the time budget)",
        ("Homo A", "Hetero SYS A", "Hetero SYS B"),
    )


def fig12() -> FigureResult:
    """Fig. 12: GPU-cluster robustness in the severe network-bottleneck regime."""
    return _system_comparison(
        "Fig. 12",
        "GPU cluster robustness (MobileNet-class workload, network-bound)",
        ("Homo C", "Hetero SYS C"),
    )


def fig13() -> FigureResult:
    """Fig. 13: compute-only heterogeneity (network homogeneous)."""
    return _system_comparison(
        "Fig. 13",
        "Heterogeneous compute resources (network homogeneous)",
        ("Homo A", "Hetero CPU A", "Hetero CPU B"),
    )


def fig14() -> FigureResult:
    """Fig. 14: dynamic batching / weighted update ablation (time to 70%)."""
    res = FigureResult(
        figure="Fig. 14",
        title="Ablation: DLion-no-DBWU vs DLion-no-WU vs DLion (time to 70%)",
        header=["environment", "variant", "time to 70% (s)", "accuracy at horizon"],
    )
    for env in ("Homo A", "Hetero CPU A", "Hetero CPU B"):
        for variant in ("dlion-no-dbwu", "dlion-no-wu", "dlion"):
            runs = run_seeds(env, variant)
            times = [r.time_to_accuracy(TARGET_ACCURACY) for r in runs]
            times = [t for t in times if t is not None]
            t_mean = float(np.mean(times)) if times else None
            acc, _ = mean_and_ci95([r.final_mean_accuracy() for r in runs])
            res.rows.append([env, variant, t_mean, acc])
    res.notes.append("paper: DB speeds up everywhere; WU adds ~12-13% in hetero envs")
    return res


def fig15() -> FigureResult:
    """Fig. 15: network-only heterogeneity (compute homogeneous)."""
    return _system_comparison(
        "Fig. 15",
        "Heterogeneous network resources (compute homogeneous)",
        ("Homo A", "Homo B", "Hetero NET A"),
    )


def fig16() -> FigureResult:
    """Fig. 16: the Max-10 algorithm alone vs the four existing systems."""
    return _system_comparison(
        "Fig. 16",
        "Max10 alone (no other DLion techniques) vs existing systems",
        ("Homo A", "Hetero SYS A"),
        systems=("dlion-max10", "baseline", "ako", "gaia", "hop"),
    )


def fig17() -> FigureResult:
    """Fig. 17: per-worker accuracy deviation in straggler environments."""
    res = _system_comparison(
        "Fig. 17",
        "Deviation of model accuracy among workers (std-dev, lower is better)",
        ("Hetero SYS B", "Hetero NET B", "Hetero CPU B"),
        metric="deviation",
    )
    res.notes.append("paper: DLion smallest deviation (DKT synchronizes replicas)")
    return res


def fig18() -> FigureResult:
    """Fig. 18: dynamically changing resources (Dynamic SYS A/B)."""
    res = _system_comparison(
        "Fig. 18",
        "Dynamically changing resources (highest accuracy)",
        ("Dynamic SYS A", "Dynamic SYS B"),
    )
    res.notes.append("three 500 s phases (scaled); A front-loads resources, B back-loads")
    return res


def fig19() -> FigureResult:
    """Fig. 19: LBS trajectories under changing compute, GBS fixed at 192."""
    workload = cpu_workload()
    ts = workload.time_scale
    schedule = [
        (0.0, (24, 24, 24, 24, 24, 24)),
        (100.0 * ts, (24, 24, 12, 12, 4, 4)),
        (300.0 * ts, (12, 12, 12, 12, 12, 12)),
        (500.0 * ts, (4, 4, 12, 12, 24, 24)),
    ]
    cores = [
        PiecewiseTrace([(t, row[i]) for t, row in schedule]) for i in range(6)
    ]
    topo = workload.cluster(cores, [LAN_MBPS] * 6)
    cfg = build_config(
        "dlion",
        workload,
        gbs=GbsConfig(enabled=False),  # GBS pinned to 192 like the paper
        lbs=LbsConfig(profile_period_iters=10),
        dkt=DktConfig(enabled=False),
    )
    horizon = 800.0 * ts
    r = TrainingEngine(cfg, topo, seed=0).run(horizon)
    res = FigureResult(
        figure="Fig. 19",
        title="LBS adaptation to changing cores (GBS fixed at 192)",
        header=["time (s)", "cores"] + [f"LBS w{i}" for i in range(6)],
    )
    probes = [50, 200, 400, 600, 780]
    for paper_t in probes:
        t = paper_t * ts
        row_cores = "/".join(
            str(int(c.value_at(t))) for c in cores
        )
        res.rows.append([round(t, 1), row_cores] + [int(s.value_at(t)) for s in r.lbs])
    res.notes.append("LBS follows each worker's available cores at that moment")
    return res


def fig20() -> FigureResult:
    """Fig. 20: partial gradient size tracking a bandwidth square wave."""
    workload = cpu_workload()
    ts = workload.time_scale
    horizon = 1000.0 * ts
    # 30 Mbps for 0-100 s and 600-1000 s, 100 Mbps in between (paper timing).
    trace = PiecewiseTrace([(0.0, 30.0), (100.0 * ts, 100.0), (600.0 * ts, 30.0)])
    topo = workload.cluster([24] * 6, [trace] * 6)
    # GBS pinned: otherwise growing batches lengthen iterations and raise
    # the per-iteration byte budget, confounding the bandwidth effect.
    cfg = build_config(
        "dlion", workload, dkt=DktConfig(enabled=False), gbs=GbsConfig(enabled=False)
    )
    r = TrainingEngine(cfg, topo, seed=0).run(horizon)
    entries = r.link_entries[(0, 1)]
    res = FigureResult(
        figure="Fig. 20",
        title="Partial gradient entries per message vs. bandwidth square wave",
        header=["window (s)", "bandwidth (paper Mbps)", "mean entries/msg"],
    )
    windows = [(0, 100), (100, 600), (600, 1000)]
    times, values = entries.as_arrays()
    for a, b in windows:
        lo, hi = a * ts, b * ts
        mask = (times >= lo) & (times < hi)
        mean_e = float(values[mask].mean()) if mask.any() else None
        res.rows.append([f"{a}-{b}", 30 if a in (0, 600) else 100, mean_e])
    res.notes.append("entry count rises and falls with the available bandwidth")
    return res


def fig21() -> FigureResult:
    """Fig. 21: converged accuracy and time to convergence, Homo A."""
    workload = cpu_workload()
    res = FigureResult(
        figure="Fig. 21",
        title="Highest accuracy and training time until full convergence (Homo A)",
        header=["system", "converged accuracy", "time to converge (s)"],
    )
    max_horizon = workload.horizon() * 2.0
    env = get_environment("Homo A")
    for system in SYSTEMS:
        accs, times = [], []
        for seed in bench_seeds():
            cfg = build_config(system, workload)
            engine = TrainingEngine(cfg, build_topology(env, workload), seed=seed)
            engine.advance_to(workload.horizon() * 0.25)
            conv = None
            while engine.clock.now < max_horizon:
                conv = detect_convergence(
                    _mean_series(engine), window=8, tolerance=0.004
                )
                if conv is not None:
                    break
                engine.advance_to(engine.clock.now + workload.horizon() * 0.1)
            r = engine.finalize()
            if conv is None:
                conv = (r.horizon, r.final_mean_accuracy())
            times.append(conv[0])
            accs.append(max(conv[1], r.final_mean_accuracy()))
        res.rows.append([system, float(np.mean(accs)), float(np.mean(times))])
    res.notes.append("paper: DLion reaches the highest converged accuracy (via DKT)")
    return res


def _mean_series(engine: TrainingEngine):
    return engine.result.mean_accuracy_series()
