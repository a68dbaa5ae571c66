"""Network resource monitor.

Paper §4.1: "Network resource monitor returns available network
bandwidths of individual connections to neighbor workers upon the
request by the partial gradient generation module." Measurements carry
optional multiplicative noise so the transmission-speed-assurance module
is exercised with realistic imperfect estimates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.network import BandwidthMatrix

__all__ = ["NetworkResourceMonitor"]


class NetworkResourceMonitor:
    """Bandwidth estimates for one worker's outgoing links."""

    def __init__(
        self,
        worker: int,
        matrix: BandwidthMatrix,
        *,
        noise: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if noise < 0:
            raise ValueError("noise must be non-negative")
        if noise > 0 and rng is None:
            # Silently returning noiseless estimates would defeat the
            # point of configuring noise; fail at construction instead.
            raise ValueError("noise > 0 requires an rng")
        self.worker = worker
        self.matrix = matrix
        self.noise = noise
        self.rng = rng

    def available_bandwidth(self, dst: int, t: float) -> float:
        """Estimated Mbps on the link ``worker -> dst`` at time ``t``."""
        bw = self.matrix.bandwidth_at(self.worker, dst, t)
        if self.noise > 0:
            bw *= math.exp(self.rng.normal(0.0, self.noise))
        return bw
