"""Micro-cloud emulation substrate.

The paper evaluates on real clusters with heterogeneity *emulated* by
``stress`` (compute) and ``tc`` (network). This package emulates one
level further down: a deterministic discrete-event simulator whose knobs
are the same ones Table 3 uses — CPU cores per worker and Mbps per link,
both allowed to change over time. Training remains real (actual models,
actual data); only elapsed time is simulated.

Components
----------
* :mod:`simclock` — the event heap (simulated seconds, deterministic
  tie-breaking).
* :mod:`traces` — piecewise-constant resource schedules (the
  ``stress``/``tc`` substitute).
* :mod:`compute` — per-worker iteration-time model.
* :mod:`network` — per-directed-link FIFO bandwidth model and the
  Table 2 AWS inter-region matrix.
* :mod:`messages` — typed control/data messages and their wire sizes.
* :mod:`queues` — per-worker control and data queues (the Redis
  substitute).
* :mod:`monitor` — the network resource monitor workers query.
* :mod:`topology` — cluster construction (workers, micro-clouds, links).
"""

from repro.cluster.simclock import SimClock
from repro.cluster.traces import ConstantTrace, PiecewiseTrace, square_wave
from repro.cluster.compute import ComputeProfile
from repro.cluster.network import (
    AWS_REGION_BANDWIDTH,
    AWS_REGIONS,
    BandwidthMatrix,
    Link,
)
from repro.cluster.messages import (
    ControlMessage,
    GradientMessage,
    LossShareMessage,
    DktRequestMessage,
    RcpShareMessage,
    WeightMessage,
)
from repro.cluster.queues import MessageQueues
from repro.cluster.faults import degraded_trace, flaky_capacities
from repro.cluster.monitor import NetworkResourceMonitor
from repro.cluster.peergraph import PeerGraph
from repro.cluster.topology import ClusterTopology

__all__ = [
    "SimClock",
    "ConstantTrace",
    "PiecewiseTrace",
    "square_wave",
    "ComputeProfile",
    "AWS_REGION_BANDWIDTH",
    "AWS_REGIONS",
    "BandwidthMatrix",
    "Link",
    "ControlMessage",
    "GradientMessage",
    "LossShareMessage",
    "DktRequestMessage",
    "RcpShareMessage",
    "WeightMessage",
    "MessageQueues",
    "NetworkResourceMonitor",
    "PeerGraph",
    "ClusterTopology",
    "degraded_trace",
    "flaky_capacities",
]
