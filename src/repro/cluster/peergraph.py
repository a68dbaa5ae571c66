"""Partial peer topologies — gossip-style exchange graphs.

The paper's workers exchange with *all* peers. Decentralized-SGD
practice often restricts exchange to a sparse overlay (ring, k-regular,
star) to cap per-worker communication. A :class:`PeerGraph` is that
overlay: the engine only routes gradients, loss shares, and RCP shares
along its edges, so DKT and the controllers automatically operate on
each worker's neighbourhood.

The overlay is a plain adjacency dict; anything with ``.nodes`` and
``.edges`` (a :mod:`networkx` graph, say) plugs in. networkx itself is
imported only by :meth:`PeerGraph.k_regular`, whose seeded
``random_regular_graph`` is what the k-regular overlays are pinned to.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

__all__ = ["PeerGraph"]


class PeerGraph:
    """An undirected, connected exchange overlay over the workers."""

    def __init__(self, graph, n_workers: int):
        if n_workers < 2:
            raise ValueError("need at least two workers")
        if set(graph.nodes) != set(range(n_workers)):
            raise ValueError(
                f"graph nodes must be exactly 0..{n_workers - 1}, "
                f"got {sorted(graph.nodes)}"
            )
        adjacency: dict[int, set[int]] = {v: set() for v in range(n_workers)}
        for u, v in graph.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.n_workers = n_workers
        self._neighbors = {v: frozenset(adjacency[v]) for v in range(n_workers)}
        self.edges = sum(len(nbrs) for nbrs in adjacency.values()) // 2
        if len(self._distances(0)) != n_workers:
            raise ValueError("peer graph must be connected (updates must be able "
                             "to reach every worker)")

    def _distances(self, source: int) -> dict[int, int]:
        """Hop counts from ``source`` to every worker it can reach (BFS)."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    @classmethod
    def _from_edges(cls, n_workers: int, edges) -> "PeerGraph":
        graph = SimpleNamespace(nodes=range(n_workers), edges=list(edges))
        return cls(graph, n_workers)

    def neighbors(self, worker: int) -> frozenset[int]:
        """The workers adjacent to ``worker`` in the overlay."""
        return self._neighbors[worker]

    def diameter(self) -> int:
        """Longest shortest path in the overlay (mixing-speed proxy)."""
        return max(
            max(self._distances(v).values()) for v in range(self.n_workers)
        )

    # ------------------------------------------------------------------
    # Common overlays
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, n_workers: int) -> "PeerGraph":
        """Build an overlay from a compact CLI spec string.

        Accepted forms: ``full``, ``ring``, ``star``, ``kregular:K``,
        ``hier:G`` (ring-connected gateways) and ``hier:G:full``
        (fully-connected gateways), where K is the regular degree and G
        the LAN group size.
        """
        parts = spec.strip().lower().split(":")
        kind, args = parts[0], parts[1:]
        try:
            if kind == "full" and not args:
                return cls.full_mesh(n_workers)
            if kind == "ring" and not args:
                return cls.ring(n_workers)
            if kind == "star" and not args:
                return cls.star(n_workers)
            if kind == "kregular" and len(args) == 1:
                return cls.k_regular(n_workers, int(args[0]))
            if kind == "hier" and args and len(args) <= 2:
                wan = args[1] if len(args) == 2 else "ring"
                return cls.hierarchical(n_workers, int(args[0]), wan=wan)
        except ValueError as exc:
            raise ValueError(f"overlay {spec!r}: {exc}") from None
        raise ValueError(
            f"unknown overlay spec {spec!r}; expected full, ring, star, "
            "kregular:K, hier:G, or hier:G:full"
        )

    @classmethod
    def full_mesh(cls, n_workers: int) -> "PeerGraph":
        """The paper's all-to-all exchange."""
        n = n_workers
        return cls._from_edges(n, ((a, b) for a in range(n) for b in range(a + 1, n)))

    @classmethod
    def ring(cls, n_workers: int) -> "PeerGraph":
        """Each worker exchanges with its two ring neighbours."""
        n = n_workers
        return cls._from_edges(n, ((v, (v + 1) % n) for v in range(n)))

    @classmethod
    def k_regular(cls, n_workers: int, k: int, *, seed: int = 0) -> "PeerGraph":
        """A random connected k-regular overlay (gossip-SGD style)."""
        if k < 2 or k >= n_workers:
            raise ValueError("need 2 <= k < n_workers")
        if (k * n_workers) % 2:
            raise ValueError("k * n_workers must be even for a k-regular graph")
        import networkx as nx

        for attempt in range(64):
            g = nx.random_regular_graph(k, n_workers, seed=seed + attempt)
            if nx.is_connected(g):
                return cls(g, n_workers)
        raise RuntimeError("could not sample a connected k-regular graph")

    @classmethod
    def hierarchical(
        cls, n_workers: int, group_size: int, *, wan: str = "ring"
    ) -> "PeerGraph":
        """Micro-cloud-of-micro-clouds: LAN cliques bridged over the WAN.

        Workers are grouped into consecutive micro-clouds of
        ``group_size`` (the last group absorbs any remainder). Inside a
        group everyone exchanges with everyone — LAN aggregation before
        WAN egress, the natural DLion deployment. The first worker of
        each group is its WAN gateway; gateways are connected to each
        other in a ring (``wan="ring"``) or all-to-all (``wan="full"``).
        Per-worker degree is therefore bounded by the group size plus
        the gateway fan-out, independent of the cluster size.
        """
        if group_size < 2:
            raise ValueError("group_size must be >= 2")
        if group_size > n_workers:
            raise ValueError("group_size cannot exceed n_workers")
        if wan not in ("ring", "full"):
            raise ValueError(f"unknown wan topology {wan!r}")
        n_groups = n_workers // group_size
        edges: list[tuple[int, int]] = []
        starts = [k * group_size for k in range(n_groups)]
        for k, start in enumerate(starts):
            end = n_workers if k == n_groups - 1 else start + group_size
            members = range(start, end)
            edges.extend((a, b) for a in members for b in members if a < b)
        gateways = starts
        if len(gateways) > 1:
            if wan == "full":
                edges.extend((a, b) for a in gateways for b in gateways if a < b)
            else:
                edges.extend(
                    (gateways[i], gateways[(i + 1) % len(gateways)])
                    for i in range(len(gateways))
                )
        return cls._from_edges(n_workers, edges)

    @classmethod
    def star(cls, n_workers: int, *, hub: int = 0) -> "PeerGraph":
        """Everyone exchanges with one hub (a PS-like degenerate overlay)."""
        return cls._from_edges(
            n_workers, ((hub, v) for v in range(n_workers) if v != hub)
        )
