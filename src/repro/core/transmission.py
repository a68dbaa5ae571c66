"""Transmission speed assurance (§3.3).

Per link and per iteration, pick the **largest** Max-N value whose
encoded payload fits the link's byte budget

    budget_j = BW_net_j / Iter_com_i

— the bytes the link to worker j can carry during the time worker i
takes to produce the next gradient (``Iter_com_i`` = iterations per unit
time). The chosen N is floored at ``n_min`` (the data-quality floor,
0.85 in the paper's runs) and capped at ``n_max``.

Performance: evaluating a candidate N must not re-scan the gradient —
models can have single variables with ~10⁶ entries and this runs every
iteration. :class:`GradientHistograms` builds one magnitude histogram
per variable (one O(n) pass over the gradient map, total) and folds the
suffix-cumulative counts of all variables into a single
bytes-at-every-bin-edge array (O(BINS) extra), *rounding each
per-variable count up* to bin granularity so a candidate judged
feasible is guaranteed feasible exactly. Every destination budget —
one or many — is then answered by one vectorized ``searchsorted`` over
that array (:meth:`GradientHistograms.fit_many`): no per-link
re-evaluation, no bisection loop.

In steady state the histogram build itself disappears: for a plan with
one distinct budget (uniform bandwidths) the planner guesses the edge
by a ``searchsorted`` into the *previous* iteration's fold and
verifies with a couple of exact-count secant probes on the current
gradients (:meth:`GradientHistograms.fit_warm`), rebuilding the
histograms only on a probe miss. Warm answers stay exactly feasible —
probes are exact counts — and sit at most ``_WARM_SLACK`` bins (≲0.1
N) below the certified optimum.

A non-default selector (:mod:`repro.core.selectors`) is fit on a level
grid instead (:func:`fit_levels_to_budgets`). Either fit gives every
destination a ``(level, key)``; equal keys mean equal levels, and the
planner builds one payload per distinct key.

Exactness invariant (asserted by the property suite in
``tests/properties/test_prop_transmission.py``): whenever the chosen N
exceeds ``n_min``, the exact encoded payload at that N fits the budget.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.messages import VARIABLE_HEADER_BYTES
from repro.core.config import MaxNConfig
from repro.core.maxn import keep_threshold, select_payload
from repro.core.selectors import make_selector

__all__ = [
    "GradientHistograms",
    "fit_n_to_budget",
    "fit_level_to_budget",
    "fit_levels_to_budgets",
    "TransmissionPlanner",
]

_BINS = 4096

# The warm probe's budget: at most this many exact counts per plan, and
# a feasible edge at most this many bins above the certified optimum is
# accepted. One probe (~60us) is far cheaper than the fold rebuild a
# miss forces (~340us), so probes are spent generously.
_WARM_PROBES = 8
_WARM_SLACK = 4


def _build_n_at_edge() -> np.ndarray:
    """``n_at_edge[i]``: the largest N whose threshold bin is ``i``.

    In exact arithmetic ``N = 100·(1 − i/BINS)``; each entry is nudged
    down by float ulps until ``int((1 − N/100)·BINS) >= i`` actually
    holds, so a fit answer converted through this table can never land
    one bin below the edge it was resolved at (which would overshoot
    the budget).
    """
    edges = 100.0 * (1.0 - np.arange(_BINS + 1) / _BINS)
    for i in range(_BINS + 1):
        n = float(edges[i])
        while n > 0.0 and int((1.0 - n / 100.0) * _BINS) < i:
            n = math.nextafter(n, 0.0)
        edges[i] = n
    return edges


_N_AT_EDGE = _build_n_at_edge()


class GradientHistograms:
    """Batched budget resolver for one iteration's gradient map.

    Construction builds a cheap *view*: every variable's magnitudes
    packed segment-by-segment into one buffer (the values are
    never copied — payload gathers index the caller's arrays) and
    per-variable maxima via a single ``maximum.reduceat``. Whole-map
    operations then run as one NumPy call (or one short call per
    segment) instead of a full per-variable pipeline, which matters
    because dispatch overhead (not arithmetic) dominates on the
    many-small-variables gradient maps real models produce. The
    histogram itself — one shared
    bytes-at-every-bin-edge array — is folded lazily on the first fit:
    ``bytes_at_edge[i]`` is an upper bound on the Max-N payload size
    for any threshold inside bin ``i`` (the threshold is rounded *down*
    to its bin edge, so counts can only overcount and a feasibility
    verdict is always exact-feasible).

    Two extra exact primitives ride on the view: ``exact_bytes_at``
    (one vectorized count, no histogram) powers the planner's
    warm-start verification, and ``select_payload`` reuses the cached
    magnitudes.

    Each view owns its buffers: the magnitudes are allocated at
    construction, the selection mask on first use, and the fold's
    quantization arrays are local to the fold.

    Gradient maps with mixed dtypes (or non-float gradients) cannot be
    concatenated without changing comparison semantics; construction
    raises ``ValueError`` for them (no model in ``repro.nn.models``
    produces one). All-zero variables carry no information and
    contribute nothing (matching :func:`repro.core.maxn.select_max_n`).
    """

    __slots__ = (
        "_names",
        "_flats",
        "_mags",
        "_bounds",
        "_maxes",
        "_zero_entries",
        "_nnz",
        "_rev_bytes",
        "_exact_cache",
        "_mask",
        "_mask_n",
    )

    def __init__(self, grads: Mapping[str, np.ndarray]):
        self._rev_bytes: np.ndarray | None = None
        self._exact_cache: dict[float, int] = {}
        self._mask: np.ndarray | None = None
        self._mask_n: float | None = None
        names: list[str] = []
        flats: list[np.ndarray] = []
        for name, g in grads.items():
            flat = g.reshape(-1)
            if flat.size:
                names.append(name)
                flats.append(flat)
        if not flats:
            self._names = []
            self._flats = self._mags = self._bounds = None
            self._maxes = None
            self._zero_entries = self._nnz = 0
            self._rev_bytes = np.zeros(_BINS + 1, dtype=np.int64)
            return
        if len({f.dtype for f in flats}) > 1 or not np.issubdtype(
            flats[0].dtype, np.floating
        ):
            raise ValueError(
                "gradient maps must share one floating dtype, got "
                f"{sorted({str(f.dtype) for f in flats})}"
            )
        self._names = names
        self._flats = flats  # per-variable views of the caller's arrays
        sizes = [f.size for f in flats]
        offsets = np.empty(len(flats) + 1, dtype=np.intp)
        offsets[0] = 0
        np.cumsum(sizes, out=offsets[1:])
        bounds = [(int(offsets[i]), int(offsets[i + 1])) for i in range(len(flats))]
        self._bounds = bounds
        # magnitudes of all variables, packed into one buffer segment
        # by segment — never a concatenated copy of the values
        # themselves (payload gathers index the caller's arrays).
        mags = self._mags = np.empty(bounds[-1][1], dtype=flats[0].dtype)
        for i, flat in enumerate(flats):
            a, b = bounds[i]
            np.abs(flat, out=mags[a:b])
        # python-float maxima: per-variable thresholds are computed in
        # float64 and cast back to the gradient dtype, matching
        # select_max_n's python-float threshold exactly.
        self._maxes = np.maximum.reduceat(mags, offsets[:-1]).tolist()
        self._nnz = sum(mx > 0.0 for mx in self._maxes)
        self._zero_entries = sum(
            s for s, mx in zip(sizes, self._maxes) if mx == 0.0
        )

    @property
    def folded(self) -> np.ndarray | None:
        """The folded bytes array, if a fit has forced the fold yet.

        Stored in **ascending** order — index ``k`` holds the bytes at
        edge ``_BINS - k`` — which is exactly the layout
        ``searchsorted`` wants, so neither the fits here nor the
        planner's warm-start guess ever copy a reversed view.
        """
        return self._rev_bytes

    @property
    def supports_exact_counts(self) -> bool:
        """Whether the vectorized exact-count primitives are available."""
        return self._flats is not None

    def _mask_at(self, n_percent: float) -> np.ndarray:
        """Boolean selection mask at ``n_percent`` (view mode).

        One comparison per variable *segment* of one mask buffer — no
        materialized per-entry threshold array. The buffer is tagged
        with the level it holds, so the planner's usual sequence
        (warm-probe a level, then select the payload at that same
        level) builds the mask once.
        """
        mask = self._mask
        if mask is None:
            mask = self._mask = np.empty(self._mags.size, dtype=bool)
        elif self._mask_n == n_percent:
            return mask
        mags = self._mags
        dtype = mags.dtype
        for (a, b), mx in zip(self._bounds, self._maxes):
            if mx == 0.0:
                # all-zero variables select nothing at any level
                mask[a:b] = False
            else:
                # the threshold select_max_n compares against
                np.greater_equal(
                    mags[a:b], keep_threshold(mx, n_percent, dtype), out=mask[a:b]
                )
        self._mask_n = n_percent
        return mask

    def exact_bytes_at(self, n_percent: float) -> int:
        """The **exact** encoded payload size at ``n_percent``.

        One vectorized count over the cached magnitudes — no histogram.
        Every nonzero variable keeps at least its max entry, so the
        header term is a constant ``24 * nnz``.
        """
        cached = self._exact_cache.get(n_percent)
        if cached is not None:
            return cached
        if self._flats is None:
            total = 0
        else:
            cnt = int(np.count_nonzero(self._mask_at(n_percent)))
            total = 8 * cnt + VARIABLE_HEADER_BYTES * self._nnz
        self._exact_cache[n_percent] = total
        return total

    def _ensure_hist(self) -> np.ndarray:
        if self._rev_bytes is not None:
            return self._rev_bytes
        # Quantize every entry: per-variable scalar division
        # (bit-identical to the historical (mags / mx) * _BINS).
        # Normalizing before scaling keeps subnormal maxima from
        # overflowing the scale factor; the integer cast and the
        # overflow-bin fold (entries at exactly the max land in bin
        # _BINS) avoid a full-array clip pass.
        scale = np.empty_like(self._mags)
        for (a, b), mx in zip(self._bounds, self._maxes):
            if mx == 0.0:
                # zero variables land in bin 0, subtracted
                # out again below
                scale[a:b] = 0.0
            else:
                np.divide(self._mags[a:b], mx, out=scale[a:b])
        # one fused pass: the float multiply (exact — _BINS is
        # a power of two) C-cast-truncates straight into the
        # intp array bincount ingests copy-free; values are
        # identical to the historical scale-then-astype chain
        quant = np.empty(scale.size, dtype=np.intp)
        np.multiply(scale, _BINS, out=quant, casting="unsafe")
        hist = np.bincount(quant, minlength=_BINS + 1)
        hist[_BINS - 1] += hist[_BINS]
        hist[0] -= self._zero_entries
        counts = hist[:_BINS]
        # rev[k] = bytes at edge _BINS - k: 8 bytes per entry in a
        # bin >= that edge, plus — at every edge below _BINS — one
        # header per variable with a nonzero max (each keeps at
        # least its max entry in any band, so the header term is a
        # constant and the whole map folds into one array). Built
        # ascending so every fit is one searchsorted with no
        # reversed-view copy.
        rev = np.empty(_BINS + 1, dtype=np.int64)
        rev[0] = 0
        np.cumsum(counts[::-1], out=rev[1:])
        np.multiply(rev, 8, out=rev)
        rev[1:] += VARIABLE_HEADER_BYTES * self._nnz
        self._rev_bytes = rev
        return self._rev_bytes

    def bytes_at(self, n_percent: float) -> int:
        """Upper bound on the Max-N payload size (never an underestimate)."""
        thr = 1.0 - n_percent / 100.0
        idx = min(_BINS, max(0, int(thr * _BINS)))
        return int(self._ensure_hist()[_BINS - idx])

    def fit_many(
        self,
        budgets: Sequence[float] | np.ndarray,
        *,
        n_min: float = 0.85,
        n_max: float = 100.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Largest feasible N per budget, for **all** budgets at once.

        Returns ``(chosen_n, edge)`` arrays: ``edge`` is the resolved
        bin index — equal edges mean equal N and therefore an identical
        payload (the planner's payload-cache key). Budgets that cannot
        fit even the ``n_min`` selection get ``n_min`` (the quality
        floor wins over the speed goal, as in the paper).
        """
        if not 0 < n_min <= n_max <= 100.0:
            raise ValueError("need 0 < n_min <= n_max <= 100")
        budgets = np.asarray(budgets, dtype=np.float64)
        # the fold is stored ascending, so one searchsorted yields, per
        # budget, the smallest edge (= largest N) whose upper-bound
        # payload still fits.
        rev = self._ensure_hist()
        fits = np.searchsorted(rev, budgets, side="right") - 1
        i_star = _BINS - np.maximum(fits, 0)
        idx_cap = int((1.0 - n_max / 100.0) * _BINS)  # edge of the N cap
        idx_floor = int((1.0 - n_min / 100.0) * _BINS)  # edge of the floor
        edge = np.clip(i_star, idx_cap, idx_floor + 1)
        chosen = np.where(
            edge <= idx_cap,
            n_max,
            np.where(edge > idx_floor, n_min, _N_AT_EDGE[np.minimum(edge, _BINS)]),
        )
        return chosen, edge

    def fit_warm(
        self,
        budget_bytes: float,
        guess_edge: int,
        *,
        slope_hint: float,
        n_min: float = 0.85,
        n_max: float = 100.0,
    ) -> tuple[float, int] | None:
        """Try to resolve one budget from a previous iteration's fold.

        Each probe is one **exact** vectorized count (no histogram
        build); every returned edge is therefore exactly feasible.
        Minibatch gradient distributions shift the optimal edge by tens
        of bins per iteration, so each miss takes a secant step sized
        by the exact byte error over ``slope_hint`` (bytes per bin near
        the guess, read off the previous fold), which lands within a few
        bins of the true boundary.

        The search keeps a bracket — the best feasible edge found and
        the largest edge known infeasible — and accepts a feasible edge
        at most ``_WARM_SLACK`` bins above it (``100·_WARM_SLACK/4096``
        of N below the true optimum, at worst). Returns ``None`` after
        ``_WARM_PROBES`` counts without an acceptable edge — the caller
        falls back to the batched :meth:`fit_many`. Because probes use
        exact counts while the histogram overcounts, a warm answer may
        sit above the batched one; both are within one bin of the true
        optimum and exactly feasible.
        """
        if not 0 < n_min <= n_max <= 100.0:
            raise ValueError("need 0 < n_min <= n_max <= 100")
        if not self.supports_exact_counts:
            return None
        idx_cap = int((1.0 - n_max / 100.0) * _BINS)
        idx_floor = int((1.0 - n_min / 100.0) * _BINS)
        hi = idx_floor + 1

        def n_at(edge: int) -> float:
            if edge <= idx_cap:
                return n_max
            if edge > idx_floor:
                return n_min
            return float(_N_AT_EDGE[edge])

        edge = min(max(int(guess_edge), idx_cap), hi)
        best: tuple[float, int] | None = None  # smallest feasible so far
        inf_below = idx_cap - 1  # largest edge known infeasible
        for _ in range(_WARM_PROBES):
            bytes_at = self.exact_bytes_at(n_at(edge))
            if bytes_at <= budget_bytes:
                if best is None or edge < best[1]:
                    best = (n_at(edge), edge)
                if edge - (inf_below + 1) <= _WARM_SLACK:
                    # bracket closed (or within the accepted slack):
                    # the winning probe ran last, so its selection
                    # mask is the one left cached for select_payload
                    return best
                if budget_bytes - bytes_at < slope_hint * (_WARM_SLACK + 1):
                    # the unused budget is worth at most ~slack more
                    # bins by the slope model: accept without paying
                    # probes to close the bracket exactly
                    return best
                step = int((budget_bytes - bytes_at) / slope_hint)
                nxt = max(edge - max(step, 1), inf_below + 1)
                if nxt >= edge:
                    return best
                edge = nxt
            else:
                if edge >= hi:
                    # even the floor selection does not fit: the
                    # quality floor wins, same as fit_many's clamp
                    return n_min, hi
                inf_below = max(inf_below, edge)
                if best is not None and best[1] - (inf_below + 1) <= _WARM_SLACK:
                    return best
                step = int((bytes_at - budget_bytes) / slope_hint)
                nxt = min(edge + max(step, 1), hi)
                if best is not None:
                    nxt = min(nxt, best[1] - 1)
                if nxt <= edge:
                    return best
                edge = nxt
        return None

    def select_payload(
        self, n_percent: float
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Max-N payload at ``n_percent``, reusing the cached magnitudes.

        Identical output to :func:`repro.core.maxn.select_payload`, but
        skips the per-variable ``abs``/``max`` passes already paid at
        construction and runs one comparison over the concatenated map.
        """
        if not 0.0 < n_percent <= 100.0:
            raise ValueError(f"N must be in (0, 100], got {n_percent}")
        payload: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if self._flats is None:
            return payload
        mask = self._mask_at(n_percent)
        bounds = self._bounds
        for i, name in enumerate(self._names):
            a, b = bounds[i]
            idx = np.nonzero(mask[a:b])[0]
            if idx.size:
                payload[name] = (idx, self._flats[i][idx])
        return payload


def fit_n_to_budget(
    grads: Mapping[str, np.ndarray],
    budget_bytes: float,
    *,
    n_min: float = 0.85,
    n_max: float = 100.0,
) -> float:
    """Largest N in ``[n_min, n_max]`` whose payload fits ``budget_bytes``.

    If even the ``n_min`` selection exceeds the budget, ``n_min`` is
    returned anyway — the quality floor wins over the speed goal, as in
    the paper ("the minimum N for max N algorithm [is] 0.85"). The
    answer is exact at histogram-bin granularity (``100/4096`` of N).
    """
    chosen, _ = GradientHistograms(grads).fit_many(
        [budget_bytes], n_min=n_min, n_max=n_max
    )
    return float(chosen[0])


def fit_level_to_budget(
    selector,
    grads: Mapping[str, np.ndarray],
    budget_bytes: float,
    *,
    level_min: float = 0.85,
    level_max: float = 100.0,
    precision: float = 0.01,
) -> float:
    """The reference budget fit for any :class:`GradientSelector`.

    Bisection over the quality level using the selector's exact
    ``count_at`` — the size of the selection itself. Nothing in the
    planner calls it: it is the oracle that the grid fit
    (:func:`fit_levels_to_budgets`) and the Max-N fold fit
    (:func:`fit_n_to_budget`) are tested against.
    """
    if not 0 < level_min <= level_max <= 100.0:
        raise ValueError("need 0 < level_min <= level_max <= 100")

    def bytes_at(level: float) -> int:
        total = 0
        for g in grads.values():
            cnt = selector.count_at(g, level)
            if cnt:
                total += VARIABLE_HEADER_BYTES + 8 * cnt
        return total

    if bytes_at(level_max) <= budget_bytes:
        return level_max
    if bytes_at(level_min) > budget_bytes:
        return level_min
    lo, hi = level_min, level_max
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if bytes_at(mid) <= budget_bytes:
            lo = mid
        else:
            hi = mid
    return lo


# Grid resolution of the batched generic fit — mirrors the Max-N
# histogram so both paths answer at the same level granularity.
_LEVEL_GRID_POINTS = _BINS


def fit_levels_to_budgets(
    selector,
    grads: Mapping[str, np.ndarray],
    budgets: Sequence[float] | np.ndarray,
    *,
    level_min: float = 0.85,
    level_max: float = 100.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched generic fit: all budgets answered from one level grid.

    The selector's vectorized ``count_at_levels`` prices every grid
    level in one pass per variable; each budget then resolves by one
    ``searchsorted``. Because the counts are the selector's *exact*
    counts (not an upper bound), the chosen level's payload is exactly
    feasible whenever it exceeds ``level_min``. Answers agree with
    :func:`fit_level_to_budget` within one grid step,
    ``(level_max − level_min)/4096``.

    Returns ``(levels, grid_index)``; equal grid indices mean equal
    levels and therefore shareable payloads. Requires a selector whose
    ``count_at_levels`` is monotone non-decreasing in level (the
    :class:`GradientSelector` contract).
    """
    if not 0 < level_min <= level_max <= 100.0:
        raise ValueError("need 0 < level_min <= level_max <= 100")
    budgets = np.asarray(budgets, dtype=np.float64)
    steps = np.arange(_LEVEL_GRID_POINTS + 1) / _LEVEL_GRID_POINTS
    grid = level_min + (level_max - level_min) * steps
    grid[-1] = level_max  # exact endpoint despite float rounding
    bytes_at = np.zeros(grid.size, dtype=np.int64)
    for g in grads.values():
        counts = np.asarray(selector.count_at_levels(g, grid), dtype=np.int64)
        bytes_at += 8 * counts + VARIABLE_HEADER_BYTES * (counts > 0)
    fits = np.searchsorted(bytes_at, budgets, side="right") - 1
    idx = np.maximum(fits, 0)  # fits < 0: even level_min is infeasible
    return grid[idx], idx


class TransmissionPlanner:
    """Builds per-link partial-gradient payloads for one worker.

    ``plan(grads, bandwidths_mbps, iter_time_s)`` returns, per
    destination, the chosen N and the sparse payload. A fixed-N config
    (Fig. 7 / Fig. 16 studies) bypasses the budget fit *and* the
    payload sharing entirely. Otherwise every destination gets a
    ``(level, key)`` from one of two fits — the Max-N fold (warm probe
    first) for the default selector, the level-grid fit for the others
    — and destinations with equal keys share one payload object:
    strictly more reuse than sharing by bandwidth value, since distinct
    bandwidths frequently land in the same bin.
    """

    def __init__(self, config: MaxNConfig):
        self.config = config
        # None = the Max-N fold fit
        self.selector = (
            None
            if config.selector == "maxn"
            else make_selector(config.selector, rng=np.random.default_rng(0))
        )
        # most recent bytes-at-edge fold: the warm-start *guess* source
        # for later iterations (guesses need no freshness — every warm
        # answer is verified by exact counts on the current gradients).
        # _warm_miss counts consecutive uniform plans without a warm
        # hit; past the give-up streak the planner stops paying for
        # probes that keep failing (gradient distributions that shift
        # too fast per iteration) and only re-probes occasionally.
        self._stale_fold: np.ndarray | None = None
        self._warm_miss = 0

    def budget_bytes(self, bandwidth_mbps: float, iter_time_s: float) -> float:
        """``BW_net_j / Iter_com_i`` expressed in bytes per iteration.

        Scaled by the config's ``budget_fraction`` (1.0 in the paper's
        per-link shaping model; 1/peers under a shared NIC).
        """
        if bandwidth_mbps <= 0 or iter_time_s <= 0:
            raise ValueError("bandwidth and iteration time must be positive")
        bytes_per_sec = bandwidth_mbps * 1e6 / 8.0
        return bytes_per_sec * iter_time_s * self.config.budget_fraction

    def plan(
        self,
        grads: Mapping[str, np.ndarray],
        bandwidths_mbps: Mapping[int, float],
        iter_time_s: float,
    ) -> dict[int, tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]]:
        """Per-destination ``(chosen_n, sparse_payload)``.

        Destinations whose budgets resolve to the same histogram bin
        (identical bandwidths in particular) reuse one payload object.
        """
        plans: dict[int, tuple[float, dict]] = {}
        cfg = self.config
        if cfg.fixed_n is not None:
            # Fixed-N studies bypass the fit and the cache: no budgets
            # are computed (zero-bandwidth links are fine here) and
            # every destination gets its own payload object.
            for dst in bandwidths_mbps:
                plans[dst] = (cfg.fixed_n, self._select(grads, cfg.fixed_n))
            return plans

        dsts = list(bandwidths_mbps)
        budgets = [
            self.budget_bytes(bandwidths_mbps[dst], iter_time_s) for dst in dsts
        ]
        if self.selector is None:
            hist = GradientHistograms(grads)
            fits = self._fit_budgets(hist, budgets)
            select = hist.select_payload
        else:
            levels, keys = fit_levels_to_budgets(
                self.selector, grads, budgets, level_min=cfg.n_min, level_max=cfg.n_max
            )
            fits = zip(levels.tolist(), keys.tolist())
            select = functools.partial(self._select, grads)
        shared: dict[int, dict] = {}
        for dst, (level, key) in zip(dsts, fits):
            payload = shared.get(key)
            if payload is None:
                payload = shared[key] = select(level)
            plans[dst] = (level, payload)
        return plans

    def _fit_budgets(
        self, hist: GradientHistograms, budgets: list[float]
    ) -> list[tuple[float, int]]:
        """``(chosen_n, edge)`` per budget, warm-starting when possible.

        A plan with a single distinct budget (uniform bandwidths — the
        common homogeneous-cluster case) guesses the edge from the most
        recent fold by one ``searchsorted`` — gradient *distributions*
        drift slowly across iterations even when the budget itself
        jumps around (measured iteration times jitter) — and verifies
        with a couple of exact counts on the current gradients. Only on
        a verification miss (or with heterogeneous budgets) does the
        batched histogram fit run, which also refreshes the guess
        source.
        """
        cfg = self.config
        uniform = len(set(budgets)) == 1
        if uniform and self._stale_fold is not None:
            if self._warm_miss < 4 or self._warm_miss % 64 == 0:
                stale = self._stale_fold
                fit = (
                    int(np.searchsorted(stale, budgets[0], side="right")) - 1
                )
                k = max(fit, 0)
                guess = _BINS - k
                # local byte-cost of one bin near the guess, read
                # off the stale fold: sizes the secant steps and
                # the early-accept margin inside fit_warm
                k1 = max(k - 64, 0)
                k2 = min(k + 64, _BINS)
                slope = float(stale[k2] - stale[k1]) / max(k2 - k1, 1)
                warm = hist.fit_warm(
                    budgets[0],
                    guess,
                    slope_hint=max(slope, 8.0),
                    n_min=cfg.n_min,
                    n_max=cfg.n_max,
                )
                if warm is not None:
                    self._warm_miss = 0
                    return [warm] * len(budgets)
            self._warm_miss += 1
        chosen, edges = hist.fit_many(budgets, n_min=cfg.n_min, n_max=cfg.n_max)
        # kept per planner, so kept narrow: int32 holds every fold below
        # 268M gradient entries, and the warm start's searchsorted and
        # slope read the same numbers off it
        fold = hist.folded
        self._stale_fold = fold.astype(np.int32) if fold[-1] < 2**31 else fold
        return list(zip(chosen.tolist(), edges.tolist()))

    def _select(self, grads: Mapping[str, np.ndarray], level: float) -> dict:
        if self.selector is None:
            return select_payload(grads, level)
        payload = {}
        for name, g in grads.items():
            idx, vals = self.selector.select(g, level)
            if idx.size:
                payload[name] = (idx, vals)
        return payload
