"""Extension studies beyond the paper's figures.

The paper calls out two natural extensions that this reproduction
implements and measures:

* **selector ablation** — §6 notes that gradient-compression algorithms
  "can be placed in the data quality assurance module"; we swap Max N
  for top-k, random-k, and absolute-threshold selection and rerun the
  heterogeneous-network experiment.
* **technique ablation** — each of DLion's three techniques removed one
  at a time (weighted dynamic batching is already ablated by Fig. 14;
  this adds the DKT and Max-N axes) in one heterogeneous environment.
"""

from __future__ import annotations

from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.core.config import DktConfig, MaxNConfig
from repro.core.engine import TrainingEngine
from repro.experiments.environments import get_environment
from repro.experiments.reporting import FigureResult
from repro.experiments.runner import (
    bench_seeds,
    build_config,
    build_topology,
    cpu_workload,
    run_seeds,
)
from repro.utils.metrics import mean_and_ci95

__all__ = [
    "ablation_selectors",
    "ablation_techniques",
    "ablation_churn",
    "ablation_network_model",
    "ablation_overlay",
]


def ablation_selectors(environment: str = "Hetero NET A") -> FigureResult:
    """Max N vs top-k vs random-k vs threshold in a constrained WAN."""
    res = FigureResult(
        figure="Ablation A",
        title=f"Data-quality-assurance selector ablation ({environment})",
        header=["selector", "accuracy", "ci95"],
    )
    for selector in ("maxn", "topk", "randomk", "threshold"):
        overrides = {"maxn": MaxNConfig(selector=selector)}
        runs = run_seeds(environment, "dlion", config_overrides=overrides)
        mean, ci = mean_and_ci95([r.final_mean_accuracy() for r in runs])
        res.rows.append([selector, mean, ci])
    res.notes.append(
        "magnitude-aware rules (maxn/topk) should beat randomk; threshold "
        "is calibration-sensitive"
    )
    return res


def ablation_techniques(environment: str = "Hetero SYS A") -> FigureResult:
    """Remove each DLion technique in turn."""
    res = FigureResult(
        figure="Ablation B",
        title=f"DLion technique ablation ({environment})",
        header=["variant", "accuracy", "ci95", "MB on wire"],
    )
    cases = [
        ("dlion (full)", "dlion", {}),
        ("no weighted update", "dlion-no-wu", {}),
        ("no dynamic batching", "dlion-no-dbwu", {}),
        ("no DKT", "dlion-no-dkt", {}),
        ("no Max-N (send all)", "dlion", {"maxn": MaxNConfig(fixed_n=100.0)}),
        ("frequent DKT (period 10)", "dlion", {"dkt": DktConfig(period_iters=10)}),
    ]
    for label, variant, overrides in cases:
        runs = run_seeds(environment, variant, config_overrides=overrides)
        mean, ci = mean_and_ci95([r.final_mean_accuracy() for r in runs])
        mb = sum(sum(r.link_bytes.values()) for r in runs) / len(runs) / 1e6
        res.rows.append([label, mean, ci, round(mb, 1)])
    res.notes.append("every removed technique should cost accuracy or bandwidth")
    return res


def ablation_churn(environment: str = "Hetero SYS A") -> FigureResult:
    """Elastic-membership extension: training under worker churn.

    The two strongest workers crash for the middle third of the run and
    restart (bootstrapping weights via a DKT pull). Compared against the
    same systems with a stable membership.
    """
    workload = cpu_workload()
    horizon = workload.horizon()
    env = get_environment(environment)
    churn = ChaosPlan(crashes=[
        CrashEvent(horizon / 3, w, restart_after=horizon / 3) for w in (0, 1)
    ])
    res = FigureResult(
        figure="Ablation C",
        title="Worker churn: two strongest workers offline for the middle third "
        f"({environment})",
        header=["system", "membership", "accuracy", "ci95"],
    )
    for system in ("dlion", "baseline", "ako"):
        for label, plan in (("stable", None), ("churn", churn)):
            accs = []
            for seed in bench_seeds():
                cfg = build_config(system, workload)
                engine = TrainingEngine(
                    cfg, build_topology(env, workload), seed=seed, chaos=plan
                )
                accs.append(engine.run(horizon).final_mean_accuracy())
            mean, ci = mean_and_ci95(accs)
            res.rows.append([system, label, mean, ci])
    res.notes.append(
        "DLion's LBS reallocation + DKT join bootstrap should shrink the "
        "churn penalty relative to the static systems"
    )
    return res


def ablation_network_model(environment: str = "Hetero NET A") -> FigureResult:
    """Per-link vs shared-egress (NIC contention) network models.

    The paper's ``tc`` emulation shapes per-worker interfaces, which the
    default per-link model approximates with independent pipes. The
    shared-egress model serializes each worker's outgoing transfers
    through one NIC queue — a harsher but arguably more physical
    assumption. Whole-gradient systems (which broadcast n−1 full copies
    per iteration) should suffer most under it; DLion's budget fit sees
    only the per-link estimate, so its payloads overshoot under
    contention yet the Max-N floor keeps it training.
    """
    workload = cpu_workload()
    env = get_environment(environment)
    res = FigureResult(
        figure="Ablation D",
        title=f"Network model: per-link vs shared NIC egress ({environment})",
        header=["system", "link model", "accuracy", "ci95"],
    )
    cases = [
        ("dlion", "per-link", False, {}),
        ("dlion", "shared-egress", True, {}),
        # DLion told about the sharing: each link claims 1/5 of the NIC.
        ("dlion", "shared-egress (budget/5)", True,
         {"maxn": MaxNConfig(budget_fraction=0.2)}),
        ("baseline", "per-link", False, {}),
        ("baseline", "shared-egress", True, {}),
        ("ako", "per-link", False, {}),
        ("ako", "shared-egress", True, {}),
    ]
    for system, label, shared, overrides in cases:
        accs = []
        for seed in bench_seeds():
            topo = workload.cluster(env.cores, env.bandwidth, shared_egress=shared)
            cfg = build_config(system, workload, **overrides)
            accs.append(
                TrainingEngine(cfg, topo, seed=seed).run(workload.horizon())
                .final_mean_accuracy()
            )
        mean, ci = mean_and_ci95(accs)
        res.rows.append([system, label, mean, ci])
    res.notes.append(
        "NIC contention penalizes whole-gradient broadcast hardest; DLion "
        "recovers once its budget fit accounts for the sharing"
    )
    return res


def ablation_overlay(environment: str = "Homo B") -> FigureResult:
    """Partial exchange overlays: full mesh vs ring vs 3-regular vs star.

    Sparse overlays cut per-worker traffic (a ring sends to 2 peers, the
    mesh to 5) at the cost of slower information spread (graph diameter).
    In a bandwidth-constrained WAN the trade can go either way — the
    gossip-SGD question, asked inside DLion.
    """
    from repro.cluster.peergraph import PeerGraph

    workload = cpu_workload()
    env = get_environment(environment)
    overlays = [
        ("full mesh", PeerGraph.full_mesh(6)),
        ("3-regular", PeerGraph.k_regular(6, 3, seed=0)),
        ("ring", PeerGraph.ring(6)),
        ("star", PeerGraph.star(6)),
    ]
    res = FigureResult(
        figure="Ablation E",
        title=f"Exchange overlay for DLion ({environment})",
        header=["overlay", "edges", "diameter", "accuracy", "ci95", "MB on wire"],
    )
    for label, overlay in overlays:
        accs, mbs = [], []
        for seed in bench_seeds():
            topo = workload.cluster(env.cores, env.bandwidth)
            cfg = build_config("dlion", workload)
            r = TrainingEngine(
                cfg, topo, seed=seed, peer_graph=overlay
            ).run(workload.horizon())
            accs.append(r.final_mean_accuracy())
            mbs.append(sum(r.link_bytes.values()) / 1e6)
        mean, ci = mean_and_ci95(accs)
        res.rows.append(
            [label, overlay.edges, overlay.diameter(), mean, ci,
             round(sum(mbs) / len(mbs), 1)]
        )
    res.notes.append("sparser overlays trade wire volume against mixing speed")
    return res
