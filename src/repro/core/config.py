"""Configuration for a distributed training run.

One :class:`TrainConfig` fully determines a run together with the
cluster topology and the seed. The defaults follow the paper's
evaluation settings (§5.1.4): minimum N = 0.85 for Max N, DKT period 100
iterations with λ = 0.75, Gaia's S = 1%, Hop's backup = 1 / staleness 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["GbsConfig", "LbsConfig", "MaxNConfig", "DktConfig", "TrainConfig"]


@dataclass(frozen=True)
class GbsConfig:
    """Global-batch-size controller (§3.2).

    GBS grows arithmetically by ``warmup_increment`` until it exceeds
    ``warmup_cap_frac`` of the training set, then geometrically by
    ``speedup_factor`` until ``speedup_cap_frac`` — the 1% / 10% rules.
    ``start_epoch`` delays any growth (Fig. 5's sweep variable).
    """

    enabled: bool = True
    warmup_increment: int = 32
    speedup_factor: float = 2.0
    warmup_cap_frac: float = 0.01
    speedup_cap_frac: float = 0.10
    start_epoch: float = 2.0
    update_period_s: float = 60.0
    # Minimum epoch progress between two growth steps; 1.0 reproduces the
    # Fig. 5 protocol of doubling once per epoch.
    min_epochs_between_updates: float = 0.0

    def __post_init__(self) -> None:
        if self.min_epochs_between_updates < 0:
            raise ValueError("min_epochs_between_updates must be non-negative")
        if self.warmup_increment < 1:
            raise ValueError("warmup_increment must be >= 1")
        if self.speedup_factor <= 1.0:
            raise ValueError("speedup_factor must exceed 1")
        if not 0 < self.warmup_cap_frac <= self.speedup_cap_frac <= 1:
            raise ValueError("need 0 < warmup cap <= speedup cap <= 1")
        if self.update_period_s <= 0:
            raise ValueError("update_period_s must be positive")


@dataclass(frozen=True)
class LbsConfig:
    """Local-batch-size controller (§3.2).

    Profiling fits iteration time vs. batch size by linear regression
    over ``probe_batches`` and inverts the fit at ``unit_time_s`` to get
    the worker's relative compute power (RCP).
    """

    enabled: bool = True
    probe_batches: tuple[int, ...] = (8, 16, 32, 64)
    probe_repeats: int = 2
    unit_time_s: float = 1.0
    profile_period_iters: int = 25
    min_lbs: int = 1

    def __post_init__(self) -> None:
        if len(self.probe_batches) < 2:
            raise ValueError("need at least two probe batch sizes")
        if self.probe_repeats < 1:
            raise ValueError("probe_repeats must be >= 1")
        if self.unit_time_s <= 0:
            raise ValueError("unit_time_s must be positive")
        if self.profile_period_iters < 1:
            raise ValueError("profile_period_iters must be >= 1")


@dataclass(frozen=True)
class MaxNConfig:
    """Per-link prioritized gradient exchange (§3.3).

    ``selector`` picks the data-quality-assurance rule: ``"maxn"`` (the
    paper's algorithm, default) or one of the drop-in alternatives from
    :mod:`repro.core.selectors` (``"topk"``, ``"randomk"``,
    ``"threshold"``) — the plug point the paper describes for gradient
    compression algorithms.
    """

    enabled: bool = True
    n_min: float = 0.85
    n_max: float = 100.0
    fixed_n: float | None = None  # bypass the budget fit (Fig. 7 / Fig. 16)
    selector: str = "maxn"
    # Fraction of the per-link budget actually claimed. The paper's
    # model (independent per-destination shaping) uses 1.0; under a
    # shared NIC set this to 1/(n_peers) so the sum of concurrent
    # payloads fits the interface (see the Ablation D study).
    budget_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.n_min <= self.n_max <= 100.0:
            raise ValueError("need 0 < n_min <= n_max <= 100")
        if self.fixed_n is not None and not 0 < self.fixed_n <= 100.0:
            raise ValueError("fixed_n must be in (0, 100]")
        if self.selector not in ("maxn", "topk", "randomk", "threshold"):
            raise ValueError(f"unknown selector {self.selector!r}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")


@dataclass(frozen=True)
class DktConfig:
    """Direct knowledge transfer (§3.4)."""

    enabled: bool = True
    period_iters: int = 100
    loss_window: int = 5
    merge_lambda: float = 0.75
    whom: str = "all"  # "all" (Best2all) | "worst" (Best2worst)
    # Fig. 9a's "frequent early exchange" variant: use a shorter period
    # for the first ``early_until_iter`` iterations.
    early_period_iters: int | None = None
    early_until_iter: int = 0

    def __post_init__(self) -> None:
        if self.period_iters < 1:
            raise ValueError("period_iters must be >= 1")
        if self.early_period_iters is not None and self.early_period_iters < 1:
            raise ValueError("early_period_iters must be >= 1")
        if self.early_until_iter < 0:
            raise ValueError("early_until_iter must be non-negative")
        if self.loss_window < 1:
            raise ValueError("loss_window must be >= 1")
        if not 0.0 <= self.merge_lambda <= 1.0:
            raise ValueError("merge_lambda must be in [0, 1]")
        if self.whom not in ("all", "worst"):
            raise ValueError("whom must be 'all' or 'worst'")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the topology and seed."""

    # Workload
    model: str = "mlp"
    model_kwargs: dict = field(default_factory=dict)
    dataset: str = "cifar_like"
    dataset_kwargs: dict = field(default_factory=dict)
    train_size: int = 6000
    test_size: int = 600

    # Optimization
    lr: float = 0.1
    initial_lbs: int = 32

    # System strategy ("dlion", "baseline", "ako", "gaia", "hop")
    system: str = "dlion"
    system_kwargs: dict = field(default_factory=dict)

    # Synchronization: "sync" | "async" | "bounded"
    sync_mode: str = "bounded"
    staleness_bound: int = 5
    backup_workers: int = 0

    # DLion technique configs (ablations flip `enabled`)
    gbs: GbsConfig = field(default_factory=GbsConfig)
    lbs: LbsConfig = field(default_factory=LbsConfig)
    maxn: MaxNConfig = field(default_factory=MaxNConfig)
    dkt: DktConfig = field(default_factory=DktConfig)
    weighted_update: bool = True

    # Measurement
    eval_period_iters: int = 20  # paper §5.1.3
    eval_subset: int = 400

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.initial_lbs < 1:
            raise ValueError("initial_lbs must be >= 1")
        if self.sync_mode not in ("sync", "async", "bounded"):
            raise ValueError("sync_mode must be sync/async/bounded")
        if self.staleness_bound < 0 or self.backup_workers < 0:
            raise ValueError("staleness/backup must be non-negative")
        if self.eval_period_iters < 1:
            raise ValueError("eval_period_iters must be >= 1")
        if self.eval_subset < 1:
            raise ValueError("eval_subset must be >= 1")

    def with_(self, **changes) -> "TrainConfig":
        """A modified copy (dataclass ``replace`` convenience)."""
        return replace(self, **changes)
