"""Network model: per-directed-link bandwidth with FIFO serialization.

Each ordered worker pair is a directed link whose bandwidth is a
constant or follows a trace (the ``tc`` substitute). Transfers on a
link are serialized: a transfer enqueued while another is in flight
waits its turn. That queueing is what produces the congestion effects
behind Fig. 9a (a DKT period that is too short floods the links and
*slows* training).

:class:`BandwidthMatrix` keeps every link's state — constant bandwidth,
busy-until, bytes, transfer count — in n x n NumPy arrays, whatever the
spec: there is no O(n²) object graph, which is what makes 1,000-worker
clusters feasible. A link whose bandwidth varies keeps its trace beside
the arrays, read once at transfer start; the optional shared-egress
model puts one :class:`EgressQueue` per worker in front of the links.
:class:`Link` is a view onto one cell of those arrays, and
:meth:`BandwidthMatrix.enqueue_transfer` is the one transfer the
simulator's sends go through.

The module also ships the paper's Table 2: measured inter-region
bandwidth (Mbps) between six Amazon regions, used to emulate WAN
micro-cloud environments.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.traces import ConstantTrace, min_trace

__all__ = ["Link", "BandwidthMatrix", "AWS_REGIONS", "AWS_REGION_BANDWIDTH"]


# Paper Table 2: available bandwidth (Mbps) between Amazon regions.
# Row = source, column = destination, order matches AWS_REGIONS.
AWS_REGIONS = ("Virginia", "Oregon", "Ireland", "Mumbai", "Seoul", "Sydney")

AWS_REGION_BANDWIDTH = np.array(
    [
        #  V    O    I    M   S1   S2
        [  0, 190, 181,  53,  58,  56],   # Virginia
        [187,   0,  91,  41,  93,  84],   # Oregon
        [171,  92,   0,  73,  30,  41],   # Ireland
        [ 53,  41,  73,   0,  85,  79],   # Mumbai
        [ 58,  88,  40,  85,   0,  79],   # Seoul
        [ 56,  84,  36,  79,  72,   0],   # Sydney
    ],
    dtype=float,
)


class Link:
    """The directed link ``src -> dst`` of a :class:`BandwidthMatrix`,
    with FIFO transfer serialization.

    A view: it reads and writes the matrix's arrays, so links are
    cheap, interchangeable, and never stale. Bandwidth changes
    mid-transfer are approximated by the bandwidth at transfer start —
    adequate for piecewise schedules whose phases are long relative to
    individual transfers (the Table 3 regimes).
    """

    __slots__ = ("_m", "src", "dst")

    def __init__(self, matrix: "BandwidthMatrix", src: int, dst: int):
        if src == dst:
            raise ValueError("no self-links")
        self._m = matrix
        self.src = src
        self.dst = dst

    @property
    def latency(self) -> float:
        return self._m._latency

    @property
    def busy_until(self) -> float:
        return float(self._m._busy[self.src, self.dst])

    @busy_until.setter
    def busy_until(self, value: float) -> None:
        self._m._busy[self.src, self.dst] = value

    @property
    def bytes_sent(self) -> int:
        return int(self._m._bytes[self.src, self.dst])

    @property
    def transfers(self) -> int:
        return int(self._m._xfers[self.src, self.dst])

    def bandwidth_at(self, t: float) -> float:
        """Available bandwidth in Mbps at time ``t``."""
        return self._m.bandwidth_at(self.src, self.dst, t)

    def transfer_duration(self, nbytes: int, t: float) -> float:
        """Serialization time for ``nbytes`` at the bandwidth active at ``t``."""
        if nbytes < 0:
            raise ValueError("negative payload")
        return (nbytes * 8.0) / (self.bandwidth_at(t) * 1e6)

    def enqueue_transfer(self, nbytes: int, t: float) -> float:
        """Queue a transfer at time ``t`` (through the source's NIC
        queue, if modelled); returns its delivery time."""
        return self._m.enqueue_transfer(self.src, self.dst, nbytes, t)

    def queue_delay(self, t: float) -> float:
        """How long a transfer enqueued now would wait before starting."""
        return max(0.0, self.busy_until - t)


class EgressQueue:
    """A per-worker NIC egress serializer (shared-egress link model).

    With the default per-link model, a worker's five outgoing transfers
    proceed in parallel, each at its link's full rate — the behaviour of
    per-destination ``tc`` classes. Real NICs often bottleneck at the
    interface: every outgoing transfer shares one egress pipe. This
    queue models that: transfers from one worker serialize through a
    single FIFO whose rate is the worker's egress capacity.
    """

    def __init__(self, worker: int, capacity_mbps):
        if isinstance(capacity_mbps, (int, float)):
            capacity_mbps = ConstantTrace(float(capacity_mbps))
        self.worker = worker
        self.capacity = capacity_mbps
        self.busy_until = 0.0
        self.bytes_sent = 0

    def enqueue(self, nbytes: int, t: float) -> float:
        """Serialize ``nbytes`` through the NIC; returns the time the
        last byte leaves the interface."""
        if nbytes < 0:
            raise ValueError("negative payload")
        start = max(t, self.busy_until)
        rate = self.capacity.value_at(start)
        self.busy_until = start + (nbytes * 8.0) / (rate * 1e6)
        self.bytes_sent += int(nbytes)
        return self.busy_until


class BandwidthMatrix:
    """The full mesh of directed links for a cluster, in one store.

    ``spec[i][j]`` gives the bandwidth (Mbps, scalar or trace) from
    worker i to worker j; every off-diagonal bandwidth must be positive
    and the diagonal is ignored (Table 2's is 0).
    ``from_worker_capacity`` builds the common Table 3 pattern where
    each worker has a single capacity (e.g. "50/50/35/35/20/20") and a
    link runs at the slower of its two endpoints — ``min(cap_i(t),
    cap_j(t))`` at transfer start, for scalars and traces alike.

    Link state lives in n x n arrays for every spec (see the module
    docstring); only a link whose bandwidth varies over time keeps an
    entry in ``_traces``, so an all-constant matrix holds none.
    """

    def __init__(self, spec, *, latency: float = 0.002, egress=None):
        n = self.n = len(spec)
        if any(len(row) != n for row in spec):
            raise ValueError("bandwidth spec must be square")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._latency = float(latency)
        # (src, dst) -> trace, for the links whose bandwidth varies;
        # their ``_bw`` cell is NaN and never read.
        self._traces: dict[tuple[int, int], object] = {}
        constant = ~np.eye(n, dtype=bool)
        if isinstance(spec, np.ndarray):
            self._bw = spec.astype(float)
        else:
            self._bw = np.full((n, n), np.nan)
            for i, row in enumerate(spec):
                for j, v in enumerate(row):
                    if i == j:
                        continue
                    if isinstance(v, ConstantTrace):
                        v = v.value
                    if hasattr(v, "value_at"):
                        self._traces[(i, j)] = v
                        constant[i, j] = False
                    else:
                        self._bw[i, j] = v
        if not (self._bw > 0)[constant].all():
            raise ValueError("link bandwidth must be positive")
        self._busy = np.zeros((n, n), dtype=float)
        self._bytes = np.zeros((n, n), dtype=np.int64)
        self._xfers = np.zeros((n, n), dtype=np.int64)
        # Optional shared-egress model: per-worker NIC queues in front
        # of the per-link pipes.
        self.egress: dict[int, EgressQueue] | None = None
        if egress is not None:
            if len(egress) != n:
                raise ValueError("need one egress capacity per worker")
            self.egress = {
                i: EgressQueue(i, cap) for i, cap in enumerate(egress)
            }

    def enqueue_transfer(self, src: int, dst: int, nbytes: int, t: float) -> float:
        """Route a transfer through the NIC (if modelled) then the link;
        returns its delivery time."""
        if src == dst:
            raise KeyError((src, dst))
        if nbytes < 0:
            raise ValueError("negative payload")
        if self.egress is not None:
            t = self.egress[src].enqueue(nbytes, t)
        busy = self._busy
        b = busy[src, dst]
        start = b if b > t else t
        mbps = self._bw[src, dst]
        if self._traces:
            trace = self._traces.get((src, dst))
            if trace is not None:
                mbps = trace.value_at(start)
        end = start + (nbytes * 8.0) / (mbps * 1e6)
        busy[src, dst] = end
        self._bytes[src, dst] += int(nbytes)
        self._xfers[src, dst] += 1
        return float(end + self._latency)

    def enqueue_transfers(self, src: int, dsts, nbytes, t: float) -> np.ndarray:
        """Queue one transfer from ``src`` to each of ``dsts`` at time
        ``t``, in order; returns the per-destination delivery times."""
        # No caller in src/: kept only because the ledger's span list
        # (benchmarks/e2e/spans.py) wraps it; ROADMAP item 4(A)(d).
        return np.array(
            [self.enqueue_transfer(src, d, s, t) for d, s in zip(dsts, nbytes)],
            dtype=float,
        )

    @classmethod
    def from_worker_capacity(
        cls,
        capacities,
        *,
        latency: float = 0.002,
        shared_egress: bool = False,
    ) -> "BandwidthMatrix":
        """One capacity (Mbps, scalar or trace) per worker, one rule per link.

        The paper's per-worker Mbps lists (Table 3) describe the
        capacity of each worker's connections; a transfer i→j is limited
        by the slower endpoint, so ``link i→j = min(cap_i(t), cap_j(t))``
        — for scalars and traces alike (:func:`~repro.cluster.traces.min_trace`).
        A link whose minimum never changes is stored as a constant.

        ``shared_egress=True`` additionally serializes each worker's
        outgoing transfers through a NIC queue at its own capacity —
        the interface-level contention model (see ``EgressQueue``).
        """
        egress = list(capacities) if shared_egress else None
        if all(isinstance(c, (int, float)) for c in capacities):
            caps = np.asarray([float(c) for c in capacities])
            spec = np.minimum.outer(caps, caps)
        else:
            spec = [[min_trace(ci, cj) for cj in capacities] for ci in capacities]
        return cls(spec, latency=latency, egress=egress)

    @classmethod
    def from_regions(
        cls,
        region_ids,
        *,
        lan_mbps: float = 1000.0,
        matrix: np.ndarray = AWS_REGION_BANDWIDTH,
        latency: float = 0.002,
    ) -> "BandwidthMatrix":
        """Workers placed in regions; same-region pairs get LAN speed.

        ``region_ids[i]`` is the region index of worker i; cross-region
        links use the Table 2 measurement for that ordered pair.
        """
        spec = [
            [lan_mbps if ri == rj else float(matrix[ri][rj]) for rj in region_ids]
            for ri in region_ids
        ]
        return cls(spec, latency=latency)

    def bandwidth_at(self, src: int, dst: int, t: float) -> float:
        """Available Mbps on ``src -> dst`` at ``t``."""
        if src == dst:
            raise KeyError((src, dst))
        trace = self._traces.get((src, dst))
        return float(self._bw[src, dst]) if trace is None else trace.value_at(t)

    def link(self, src: int, dst: int) -> Link:
        """The directed link ``src -> dst``."""
        if not (0 <= src < self.n and 0 <= dst < self.n and src != dst):
            raise KeyError((src, dst))
        return Link(self, src, dst)

    def out_links(self, src: int) -> list[Link]:
        """All links leaving worker ``src``."""
        return [Link(self, src, j) for j in range(self.n) if j != src]

    def total_bytes(self) -> int:
        """Total bytes carried by every link so far."""
        return int(self._bytes.sum())
