"""The emulated micro-cloud environments of Table 3.

Every environment gives each of the six workers a compute level (CPU
cores, or GPU units on the GPU platform) and a network capacity in Mbps.
Dynamic environments chain three sub-environments, each active for a
phase of the run (500 s in the paper; scaled with the run's time scale).

``Hetero NET B`` appears in Fig. 17 but not in Table 3; by analogy with
Hetero CPU B (a distinct straggler) we define it as homogeneous compute
with one distinctly slow network worker, and record the inference in
DESIGN.md / EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.traces import PiecewiseTrace

__all__ = ["EnvSpec", "ENVIRONMENTS", "get_environment", "LAN_MBPS"]

LAN_MBPS = 1000.0  # "LAN" in Table 3: the cluster's 1 Gbps fabric

# GPU instance compute units (relative): p2.xlarge = 1 GPU, p2.8xlarge = 8.
_P2X = 1.0
_P28X = 8.0


@dataclass(frozen=True)
class EnvSpec:
    """One environment: a Table 3 row, or a user's cluster file.

    ``cores`` / ``bandwidth`` hold one entry per worker, each a scalar
    or a trace (:mod:`repro.cluster.traces`). A dynamic preset names
    its ``phases`` instead and steps through their levels.
    """

    name: str
    platform: str  # "cpu" | "gpu"
    cores: tuple = ()
    bandwidth: tuple = ()
    # Dynamic environments: names of the three phase sub-environments.
    phases: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.platform not in ("cpu", "gpu"):
            raise ValueError("platform must be cpu or gpu")
        if not self.phases:
            if len(self.cores) != len(self.bandwidth):
                raise ValueError(
                    f"{self.name}: need matching cores + bandwidth lists"
                )
            if len(self.cores) < 2:
                raise ValueError(f"{self.name}: need at least 2 workers")

    @property
    def dynamic(self) -> bool:
        return bool(self.phases)

    def resources(self, phase_duration: float) -> tuple[list, list]:
        """Per-worker ``(cores, bandwidth)`` specs, paper units.

        A static environment's are its own; a dynamic preset's are
        traces stepping through its phases every ``phase_duration``
        simulated seconds.
        """
        if not self.phases:
            return list(self.cores), list(self.bandwidth)
        phases = [get_environment(p) for p in self.phases]
        starts = [k * phase_duration for k in range(len(phases))]

        def stepping(levels):  # levels[k][i]: worker i's level in phase k
            return [PiecewiseTrace(list(zip(starts, col))) for col in zip(*levels)]

        return stepping([p.cores for p in phases]), stepping([p.bandwidth for p in phases])


def _cpu(name: str, cores, bandwidth, description: str) -> EnvSpec:
    return EnvSpec(
        name=name,
        platform="cpu",
        cores=tuple(float(c) for c in cores),
        bandwidth=tuple(float(b) for b in bandwidth),
        description=description,
    )


ENVIRONMENTS: dict[str, EnvSpec] = {
    # -- homogeneous ---------------------------------------------------
    "Homo A": _cpu("Homo A", [24] * 6, [LAN_MBPS] * 6,
                   "no emulation, LAN (best case)"),
    "Homo B": _cpu("Homo B", [24] * 6, [50] * 6,
                   "no compute emulation, constrained homogeneous WAN"),
    "Homo C": EnvSpec(
        name="Homo C", platform="gpu",
        cores=(_P2X,) * 6, bandwidth=(LAN_MBPS,) * 6,
        description="6x p2.xlarge, LAN (GPU best case)",
    ),
    # -- heterogeneous compute ------------------------------------------
    "Hetero CPU A": _cpu("Hetero CPU A", [24, 24, 12, 12, 6, 6], [LAN_MBPS] * 6,
                         "evenly spread compute heterogeneity, LAN"),
    "Hetero CPU B": _cpu("Hetero CPU B", [24, 24, 24, 24, 24, 4], [LAN_MBPS] * 6,
                         "one distinct compute straggler, LAN"),
    # -- heterogeneous network ------------------------------------------
    "Hetero NET A": _cpu("Hetero NET A", [24] * 6, [50, 50, 35, 35, 20, 20],
                         "no compute emulation, heterogeneous WAN"),
    "Hetero NET B": _cpu("Hetero NET B", [24] * 6, [50, 50, 50, 50, 50, 10],
                         "one distinct network straggler (inferred; see DESIGN.md)"),
    # -- heterogeneous compute + network ---------------------------------
    "Hetero SYS A": _cpu("Hetero SYS A", [24, 24, 12, 12, 6, 6],
                         [50, 50, 35, 35, 20, 20],
                         "more compute comes with more bandwidth"),
    "Hetero SYS B": _cpu("Hetero SYS B", [24, 24, 12, 12, 6, 6],
                         [20, 20, 35, 35, 50, 50],
                         "more compute comes with less bandwidth"),
    "Hetero SYS C": EnvSpec(
        name="Hetero SYS C", platform="gpu",
        cores=(_P28X, _P28X, _P2X, _P2X, _P2X, _P2X),
        bandwidth=(190.0, 190.0, 140.0, 140.0, 100.0, 100.0),
        description="2x p2.8xlarge + 4x p2.xlarge over WAN",
    ),
    # -- scaling stress (extension; not a Table 3 row) -------------------
    # A 1,000-worker micro-cloud federation: the Hetero SYS A resource
    # pattern tiled across the fleet. Use with ``--workers N`` to
    # truncate (the bench ladder runs 16 / 128 / 1000) and ``--overlay``
    # to bound per-worker degree — a 1,000-way full mesh is exactly the
    # dense regime the sparse overlays exist to avoid.
    "Stress 1k": _cpu(
        "Stress 1k",
        ([24, 24, 12, 12, 6, 6] * 167)[:1000],
        ([50, 50, 35, 35, 20, 20] * 167)[:1000],
        "1,000-worker scaling stress preset (Hetero SYS A pattern tiled)",
    ),
    # -- dynamic ---------------------------------------------------------
    "Dynamic SYS A": EnvSpec(
        name="Dynamic SYS A", platform="cpu",
        phases=("Homo B", "Hetero SYS A", "Hetero SYS B"),
        description="more resources early in training",
    ),
    "Dynamic SYS B": EnvSpec(
        name="Dynamic SYS B", platform="cpu",
        phases=("Hetero SYS B", "Hetero SYS A", "Homo B"),
        description="more resources late in training",
    ),
}


def get_environment(name: str) -> EnvSpec:
    """Look up a Table 3 environment preset by name."""
    try:
        return ENVIRONMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; available: {sorted(ENVIRONMENTS)}"
        ) from None
