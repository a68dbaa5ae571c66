"""Wall-clock attribution per layer, installed from outside the measured code.

Unlike :mod:`repro.obs.trace` (simulated time), this measures where the
**wall clock** goes. A *layer* names one or more methods (``LAYERS``);
the names are the per-layer ledger's, and ``benchmarks/e2e/spans.py``
wraps the very same methods. No other module carries a hook: while a
:class:`Profiler` is active, every layer method whose module is loaded
is replaced on its class by a timing wrapper, and on exit the originals
come back::

    prof = Profiler()
    with activate(prof):
        engine.advance_to(80.0)
    prof.rows()  # {"nn.loss_and_grads": (calls, self seconds), ...}

A layer's **self** time is its calls' wall time minus the part spent in
calls of other layers they make, so the self seconds of everything under
one root sum to that root's wall time (``simclock.dispatch`` is the
simulator's root). Coroutine layers (``ASYNC_LAYERS``) are counted, not
timed: a coroutine's wall time is mostly other tasks, and a layer that
runs while it awaits is a root of its own. Calls from any thread other
than the activating one run untimed.

The ledger's ``setup.*`` layers and its module-level codec functions are
not listed: a profiler activates after construction, and only a method
can be swapped on its class without chasing copies imported elsewhere.
"""

from __future__ import annotations

import functools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

__all__ = ["ASYNC_LAYERS", "LAYERS", "Profiler", "activate", "render"]

# (layer, "module:Class.method")
LAYERS = [
    ("nn.loss_and_grads", "repro.nn.model:Model.loss_and_grads"),
    ("nn.apply_grads", "repro.nn.model:Model.apply_grads"),
    ("nn.apply_sparse_grads", "repro.nn.model:Model.apply_sparse_grads"),
    ("nn.evaluate", "repro.nn.model:Model.evaluate"),
    ("transmission.plan", "repro.core.transmission:TransmissionPlanner.plan"),
    ("strategy.generate", "repro.core.strategy:DLionStrategy.generate_partial_gradients"),
    ("strategy.generate", "repro.baselines.baseline_full:BaselineStrategy.generate_partial_gradients"),
    ("strategy.generate", "repro.baselines.ako:AkoStrategy.generate_partial_gradients"),
    ("strategy.generate", "repro.baselines.gaia:GaiaStrategy.generate_partial_gradients"),
    ("strategy.generate", "repro.baselines.hop:HopStrategy.generate_partial_gradients"),
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
    ("simclock.dispatch", "repro.cluster.simclock:SimClock.run_until"),
    ("mesh.send", "repro.transport.mesh:PeerMesh.send"),
    ("shaper.reserve", "repro.transport.shaper:TokenBucket.reserve"),
]

ASYNC_LAYERS = [
    ("shaper.throttle", "repro.transport.shaper:TokenBucket.throttle"),
]


class Profiler:
    """Calls and self seconds per layer, recorded on one thread."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self._rows: dict[str, list] = {}  # layer -> [calls, self seconds]
        self._stack: list[float] = []  # child seconds of each open call
        self._installed: list[tuple] = []  # (class, attr, own original | None)
        self._tid: int | None = None  # the activating thread, while installed

    def rows(self) -> dict[str, tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` for every layer called."""
        return {name: (calls, s) for name, (calls, s) in self._rows.items() if calls}

    def _timed(self, name: str, fn):
        row = self._rows.setdefault(name, [0, 0.0])
        stack, clock, get_ident = self._stack, self.clock, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != self._tid:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                row[0] += 1
                row[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _counted(self, name: str, fn):
        row = self._rows.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if threading.get_ident() == self._tid:
                row[0] += 1
            return await fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer whose module is loaded; time this thread's calls."""
        self._tid = threading.get_ident()
        for layers, wrap in ((LAYERS, self._timed), (ASYNC_LAYERS, self._counted)):
            for name, path in layers:
                modname, _, qualname = path.partition(":")
                module = sys.modules.get(modname)
                if module is None:
                    continue
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._installed.append((cls, attr, cls.__dict__.get(attr)))
                setattr(cls, attr, wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        """Put every original back; an inherited method is deleted again."""
        self._tid = None
        while self._installed:
            cls, attr, own = self._installed.pop()
            if own is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, own)


@contextmanager
def activate(profiler: Profiler) -> Iterator[Profiler]:
    """Install ``profiler``'s wrappers for the block (re-entrant)."""
    outermost = not profiler._installed
    try:
        if outermost:
            profiler.install()
        yield profiler
    finally:
        if outermost:
            profiler.uninstall()


def render(seconds, calls) -> str:
    """The ``--profile`` table from the ``profile_seconds_total`` and
    ``profile_calls_total`` counter families of a run's metrics.

    One row per layer, most self time first; ``share`` is the row's part
    of the summed self seconds.
    """
    rows = sorted(
        ((key[0], n, seconds.value(*key)) for key, n in calls.items()),
        key=lambda row: (-row[2], row[0]),
    )
    if not rows:
        return "profile: no layer was called"
    total = sum(s for _, _, s in rows) or 1.0
    width = max(len("layer"), *(len(name) for name, _, _ in rows))
    lines = [f"{'layer'.ljust(width)}  {'calls':>9}  {'self s':>10}  {'share':>6}"]
    for name, n, s in rows:
        lines.append(f"{name.ljust(width)}  {int(n):>9d}  {s:>10.4f}  {s / total:>6.1%}")
    return "\n".join(lines)
