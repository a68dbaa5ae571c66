"""DLion core: the paper's contribution.

* :mod:`gbs_controller` / :mod:`lbs_controller` / :mod:`weighted_update`
  — weighted dynamic batching (§3.2).
* :mod:`maxn` / :mod:`transmission` — per-link prioritized gradient
  exchange (§3.3).
* :mod:`dkt` — direct knowledge transfer (§3.4).
* :mod:`sync` — synchronous / asynchronous / bounded-synchronous
  training strategies (§4.2's ``synch_training``).
* :mod:`worker` / :mod:`host` / :mod:`engine` — the per-worker module
  wiring (Fig. 10), the host surface it talks to, and the event-driven
  trainer (the simulator's host).
* :mod:`api` — the generic framework surface (``build_model``,
  ``enqueue``, whose per-destination send is the paper's ``send_data``,
  ``generate_partial_gradients``, ``synch_training``) that the
  comparison systems plug into.
"""

from repro.core.config import TrainConfig, GbsConfig, LbsConfig, MaxNConfig, DktConfig
from repro.core.gbs_controller import GbsController
from repro.core.lbs_controller import LbsController, allocate_lbs
from repro.core.weighted_update import dynamic_batching_weight
from repro.core.maxn import select_max_n, select_payload
from repro.core.transmission import (
    GradientHistograms,
    TransmissionPlanner,
    fit_level_to_budget,
    fit_levels_to_budgets,
    fit_n_to_budget,
)
from repro.core.dkt import merge_weights, DktState
from repro.core.sync import SyncPolicy, make_sync_policy
from repro.core.engine import TrainingEngine, RunResult

__all__ = [
    "TrainConfig",
    "GbsConfig",
    "LbsConfig",
    "MaxNConfig",
    "DktConfig",
    "GbsController",
    "LbsController",
    "allocate_lbs",
    "dynamic_batching_weight",
    "select_max_n",
    "select_payload",
    "GradientHistograms",
    "TransmissionPlanner",
    "fit_n_to_budget",
    "fit_level_to_budget",
    "fit_levels_to_budgets",
    "merge_weights",
    "DktState",
    "SyncPolicy",
    "make_sync_policy",
    "TrainingEngine",
    "RunResult",
]
