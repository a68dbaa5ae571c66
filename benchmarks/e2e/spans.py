"""Span recorder for the traced run, installed from outside the program.

The end-to-end numbers are measured with none of these wrappers
installed. A separate traced child calls :func:`install` *after* the program's
modules are imported and *before* any engine or mesh is built: it
replaces the entry points listed in ``SIM_TARGETS`` / ``MESH_TARGETS``
with ``functools.wraps`` wrappers that record one span (name, start,
end, parent) per call. No file under ``src/`` changes.

A layer's self time is its spans' duration minus the part their direct
child spans cover, so the self times of everything under one root span
sum to that root's duration by construction. Nested and recursive calls
of the same name therefore add up correctly.

Only synchronous calls are timed. ``async`` entry points are counted
(``ASYNC_TARGETS``): a coroutine's wall time is mostly other tasks.

A target that no longer exists is skipped with a warning and listed in
``SpanRecorder.missing``; its metrics read 0 and ``trace.missing_targets``
counts it. Deleting a wrapped function can never crash a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time
import warnings

__all__ = [
    "SpanRecorder",
    "SIM_TARGETS",
    "MESH_TARGETS",
    "ASYNC_TARGETS",
    "install",
    "install_strategies",
]

# A trailing "~" folds a span's self time into the base name without
# counting a call: decode_frame_header + decode_body are one decode.
FOLD = "~"

# (span name, "module:attr.path")
SIM_TARGETS = [
    ("nn.loss_and_grads", "repro.nn.model:Model.loss_and_grads"),
    ("nn.apply_grads", "repro.nn.model:Model.apply_grads"),
    ("nn.apply_sparse_grads", "repro.nn.model:Model.apply_sparse_grads"),
    ("nn.evaluate", "repro.nn.model:Model.evaluate"),
    ("transmission.plan", "repro.core.transmission:TransmissionPlanner.plan"),
    ("worker.recompute_lbs", "repro.core.worker:Worker.recompute_lbs"),
    ("worker.run_profiling", "repro.core.worker:Worker.run_profiling"),
    ("worker.finish_iteration", "repro.core.worker:Worker._finish_iteration"),
    ("worker.on_gradient_message", "repro.core.worker:Worker.on_gradient_message"),
    ("worker.try_start_iteration", "repro.core.worker:Worker.try_start_iteration"),
    ("worker.control", "repro.core.worker:Worker.on_rcp_share"),
    ("worker.control", "repro.core.worker:Worker.set_gbs"),
    ("worker.control", "repro.core.worker:Worker.on_loss_share"),
    ("worker.control", "repro.core.worker:Worker.on_dkt_request"),
    ("worker.control", "repro.core.worker:Worker.on_control_message"),
    ("worker.control", "repro.core.worker:Worker.on_membership_change"),
    ("dkt.merge", "repro.core.worker:Worker.on_weight_message"),
    ("compute_pool", "repro.core.compute_pool:ComputePool.collect"),
    ("compute_pool", "repro.core.compute_pool:ComputePool.prefetch"),
    ("engine.send", "repro.core.engine:TrainingEngine.send_gradients"),
    ("engine.send", "repro.core.engine:TrainingEngine.send_gradients_batch"),
    ("engine.send", "repro.core.engine:TrainingEngine.send_control"),
    ("engine.send", "repro.core.engine:TrainingEngine.send_weights"),
    ("engine.send", "repro.core.engine:TrainingEngine.broadcast_rcp"),
    ("engine.send", "repro.core.engine:TrainingEngine.broadcast_loss_share"),
    ("engine.deliver", "repro.core.engine:TrainingEngine._deliver"),
    ("engine.evaluate_worker", "repro.core.engine:TrainingEngine.evaluate_worker"),
    ("network.enqueue", "repro.cluster.network:BandwidthMatrix.enqueue_transfer"),
    ("network.enqueue", "repro.cluster.network:BandwidthMatrix.enqueue_transfers"),
    ("simclock.schedule", "repro.cluster.simclock:SimClock.schedule"),
    # Root of the timed region: its self time is pop/advance plus
    # everything no other wrapper covers.
    ("simclock.dispatch", "repro.cluster.simclock:SimClock.run_until"),
    ("setup.build_model", "repro.nn.models:build_model"),
    ("setup.dataset", "repro.nn.datasets:SyntheticImageDataset.__init__"),
    ("setup.dataset", "repro.nn.datasets:SyntheticImageDataset.shards"),
    ("setup.engine_init", "repro.core.engine:TrainingEngine.__init__"),
]

MESH_TARGETS = [
    ("codec.encode", "repro.transport.codec:encode_into"),
    ("codec.decode", "repro.transport.codec:decode_body"),
    ("codec.decode" + FOLD, "repro.transport.codec:decode_frame_header"),
    ("codec.decode" + FOLD, "repro.transport.codec:decode_message"),
    ("mesh.send", "repro.transport.mesh:PeerMesh.send"),
    ("shaper.reserve", "repro.transport.shaper:TokenBucket.reserve"),
]

ASYNC_TARGETS = [
    ("shaper.throttle", "repro.transport.shaper:TokenBucket.throttle"),
]


class SpanRecorder:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock  # injectable so the unit checks can count ticks
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}  # async entry points
        self.missing: list[str] = []
        # Wrappers call straight through while this is False (warm-up,
        # the socket-free codec loop).
        self.enabled = True
        self._stack: list[int] = []
        self._tid = threading.get_ident()

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn):
        """A wrapper around ``fn`` that records one span per call."""
        rec = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = self.clock
        get_ident = threading.get_ident
        tid = self._tid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The span stack belongs to the thread that built the
            # recorder; calls from pool threads run untimed.
            if not rec.enabled or get_ident() != tid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def wrap_async(self, name: str, fn):
        """A wrapper around coroutine function ``fn`` that counts calls."""
        counts = self.counts
        counts.setdefault(name, 0)
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if rec.enabled:
                counts[name] += 1
            return await fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """An explicit span opened by the harness (roots, set-up steps).

        Recorded even while ``enabled`` is False, so a set-up step can
        switch the wrappers off inside itself and keep all its time."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        try:
            yield idx
        finally:
            self.ends[idx] = self.clock()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Wrappers call straight through inside this block."""
        prev, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = prev

    # -- analysis ------------------------------------------------------
    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over every recorded span."""
        n = len(self.names)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, list] = {}
        for i in range(n):
            name = self.names[i]
            counted = not name.endswith(FOLD)
            if not counted:
                name = name[: -len(FOLD)]
            row = out.setdefault(name, [0.0, 0])
            row[0] += ends[i] - starts[i] - child[i]
            row[1] += counted
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        """Write every span as JSON: names table + parallel arrays."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        with open(path, "w") as f:
            json.dump(
                {
                    "names": table,
                    "name": [index[n] for n in self.names],
                    "start": self.starts,
                    "end": self.ends,
                    "parent": self.parents,
                    "counts": self.counts,
                    "missing": self.missing,
                },
                f,
            )

    # -- installation --------------------------------------------------
    def note_missing(self, span_name: str, path: str) -> None:
        self.missing.append(path)
        warnings.warn(
            f"trace target {path} not found; {span_name.rstrip(FOLD)} reads 0",
            RuntimeWarning,
            stacklevel=3,
        )

    def install_target(self, span_name: str, path: str, *, is_async=False) -> bool:
        """Replace the callable at ``module:attr.path`` with a wrapper."""
        modname, _, attrpath = path.partition(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            self.note_missing(span_name, path)
            return False
        *scopes, attr = attrpath.split(".")
        for scope in scopes:
            owner = getattr(owner, scope, None)
            if owner is None:
                self.note_missing(span_name, path)
                return False
        original = getattr(owner, attr, None)
        if not callable(original):
            self.note_missing(span_name, path)
            return False
        wrap = self.wrap_async if is_async else self.wrap
        wrapper = wrap(span_name, original)
        if inspect.ismodule(owner):
            # ``from codec import encode_into`` copied the reference
            # into the importing module: replace every copy.
            top = modname.split(".")[0]
            for name, mod in list(sys.modules.items()):
                if mod is None or name.split(".")[0] != top:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        else:
            setattr(owner, attr, wrapper)
        return True


def install_strategies(rec: SpanRecorder) -> int:
    """Wrap ``generate_partial_gradients`` of every strategy class."""
    try:
        importlib.import_module("repro.baselines.registry")
        base = importlib.import_module("repro.core.api").ExchangeStrategy
    except (ImportError, AttributeError):
        rec.note_missing("strategy.generate", "repro.core.api:ExchangeStrategy")
        return 0
    wrapped = 0
    todo = [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        fn = cls.__dict__.get("generate_partial_gradients")
        if callable(fn):
            setattr(
                cls, "generate_partial_gradients", rec.wrap("strategy.generate", fn)
            )
            wrapped += 1
    return wrapped


def install(rec: SpanRecorder, kind: str) -> None:
    """Install every wrapper for a ``"sim"`` or ``"mesh"`` workload."""
    if kind == "sim":
        for span_name, path in SIM_TARGETS:
            rec.install_target(span_name, path)
        install_strategies(rec)
    else:
        for span_name, path in MESH_TARGETS:
            rec.install_target(span_name, path)
        for span_name, path in ASYNC_TARGETS:
            rec.install_target(span_name, path, is_async=True)
