"""Unit tests for the wall-clock profiler, driven by a fake tick clock."""

import asyncio
import importlib
import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.obs import profile
from repro.obs.metrics import Counter
from repro.obs.profile import ASYNC_LAYERS, LAYERS, Profiler, activate, render

ROOT = Path(__file__).resolve().parents[2]


class _Toy:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        return self.leaf()

    def leaf(self):
        return 1

    def boom(self):
        self.leaf()
        raise RuntimeError("boom")

    def spawn(self):
        """Call ``leaf`` from another thread while this call is open."""
        t = threading.Thread(target=self.leaf)
        t.start()
        t.join()

    async def wait(self, gate):
        await gate.wait()


class _ToyChild(_Toy):
    pass


class _TickClock:
    """Advances one tick per reading and keeps every reading."""

    def __init__(self):
        self.readings = []

    def __call__(self):
        self.readings.append(len(self.readings))
        return self.readings[-1]


@pytest.fixture
def toy_layers(monkeypatch):
    monkeypatch.setattr(profile, "LAYERS", [
        ("outer", f"{__name__}:_Toy.outer"),
        ("inner", f"{__name__}:_Toy.inner"),
        ("leaf", f"{__name__}:_Toy.leaf"),
        ("boom", f"{__name__}:_Toy.boom"),
        ("spawn", f"{__name__}:_Toy.spawn"),
        ("child.leaf", f"{__name__}:_ToyChild.leaf"),
    ])
    monkeypatch.setattr(profile, "ASYNC_LAYERS", [
        ("wait", f"{__name__}:_Toy.wait"),
    ])


def _families(rows):
    seconds = Counter("profile_seconds_total", "", ("scope",))
    calls = Counter("profile_calls_total", "", ("scope",))
    for name, (n, s) in rows.items():
        seconds.inc(s, name)
        calls.inc(n, name)
    return seconds, calls


@pytest.mark.usefixtures("toy_layers")
class TestProfiler:
    def test_scope_records_calls_and_time(self):
        prof = Profiler(clock=_TickClock())
        with activate(prof):
            _Toy().leaf()
            _Toy().leaf()
        assert prof.rows() == {"leaf": (2, 2)}

    def test_report_sorted_by_total(self):
        lines = render(*_families({"small": (3, 0.1), "big": (1, 2.0)})).splitlines()
        assert lines[1].startswith("big")
        assert lines[2].startswith("small")

    def test_report_empty(self):
        assert "no layer" in render(*_families({}))


@pytest.mark.usefixtures("toy_layers")
class TestActivate:
    def test_noop_when_inactive(self):
        original = _Toy.__dict__["leaf"]
        prof = Profiler(clock=_TickClock())
        with activate(prof):
            assert _Toy.__dict__["leaf"] is not original
            leaf = _Toy().leaf  # bound to the wrapper
        assert _Toy.__dict__["leaf"] is original
        leaf()
        _Toy().leaf()
        assert prof.rows() == {}

    def test_activate_restores_previous(self):
        own, inherited = _Toy.__dict__["leaf"], "leaf" not in _ToyChild.__dict__
        assert inherited
        outer, inner = Profiler(clock=_TickClock()), Profiler(clock=_TickClock())
        with activate(outer):
            outer_wrapper = _ToyChild.__dict__["leaf"]
            with activate(inner):
                _ToyChild().leaf()
            assert _ToyChild.__dict__["leaf"] is outer_wrapper
        assert _Toy.__dict__["leaf"] is own
        assert "leaf" not in _ToyChild.__dict__
        # Both profilers saw the call made under both.
        assert inner.rows()["child.leaf"][0] == outer.rows()["child.leaf"][0] == 1

    def test_reentrant_activation_wraps_once(self):
        prof = Profiler(clock=_TickClock())
        with activate(prof), activate(prof):
            _Toy().leaf()
        assert prof.rows() == {"leaf": (1, 1)}


@pytest.mark.usefixtures("toy_layers")
class TestExclusiveTime:
    def test_nested_scope_self_excludes_child(self):
        clock = _TickClock()
        prof = Profiler(clock=clock)
        with activate(prof):
            _Toy().outer()
        rows = prof.rows()
        # outer 0..9 holds inner 1..4 and 5..8, each holding one leaf tick.
        assert rows == {"outer": (1, 3), "inner": (2, 4), "leaf": (2, 2)}
        assert sum(s for _, s in rows.values()) == clock.readings[-1] - clock.readings[0]

    def test_exception_unwinds_frames(self):
        prof = Profiler(clock=_TickClock())
        with activate(prof):
            with pytest.raises(RuntimeError):
                _Toy().boom()
            assert prof.rows() == {"boom": (1, 2), "leaf": (1, 1)}
            # The stack is empty again: a new call is a root.
            _Toy().inner()
        assert prof.rows()["inner"] == (1, 2)
        assert prof._stack == []

    def test_sibling_threads_do_not_nest(self):
        clock = _TickClock()
        prof = Profiler(clock=clock)
        with activate(prof):
            _Toy().spawn()
        # The other thread's leaf call ran untimed: no row, no tick, and
        # nothing subtracted from the caller's self time.
        assert prof.rows() == {"spawn": (1, 1)}
        assert len(clock.readings) == 2

    def test_report_has_self_column(self):
        prof = Profiler(clock=_TickClock())
        with activate(prof):
            _Toy().leaf()
        header = render(*_families(prof.rows())).splitlines()[0]
        assert "self s" in header and "calls" in header


@pytest.mark.usefixtures("toy_layers")
class TestAsyncLayers:
    def test_coroutine_layer_is_counted_not_timed(self):
        prof = Profiler(clock=_TickClock())

        async def main():
            gate = asyncio.Event()
            gate.set()
            await _Toy().wait(gate)

        with activate(prof):
            asyncio.run(main())
        assert prof.rows() == {"wait": (1, 0.0)}

    def test_layer_run_during_an_await_keeps_its_own_time(self):
        """A training step that runs while a send awaits its drain is a
        root of its own, not a child of the send."""
        prof = Profiler(clock=_TickClock())

        async def main():
            gate = asyncio.Event()

            async def step():
                _Toy().inner()
                gate.set()

            task = asyncio.create_task(step())
            await _Toy().wait(gate)
            await task

        with activate(prof):
            asyncio.run(main())
        assert prof.rows() == {"wait": (1, 0.0), "inner": (1, 2), "leaf": (1, 1)}


class TestLayerTable:
    def _spans(self):
        spec = importlib.util.spec_from_file_location(
            "_ledger_spans", ROOT / "benchmarks" / "e2e" / "spans.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_layer_is_a_ledger_row(self):
        per_layer = {
            row["name"]
            for row in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        }
        for name, _path in LAYERS:
            assert f"{name}.self_s" in per_layer, name
        for name, _path in ASYNC_LAYERS:
            assert f"{name}.calls" in per_layer, name

    def test_every_layer_is_a_ledger_span_target(self):
        spans = self._spans()
        targets = set(spans.SIM_TARGETS) | set(spans.MESH_TARGETS)
        for pair in LAYERS:
            if pair[0] != "strategy.generate":
                assert pair in targets, pair
        assert set(ASYNC_LAYERS) <= set(spans.ASYNC_TARGETS)

    def test_uninstall_restores_own_and_inherited_methods(self):
        from repro.core.engine import TrainingEngine
        from repro.core.host import WorkerHost

        assert "send_gradients" not in TrainingEngine.__dict__
        deliver = TrainingEngine.__dict__["_deliver"]
        with activate(Profiler()):
            assert "send_gradients" in TrainingEngine.__dict__
            assert TrainingEngine.__dict__["_deliver"] is not deliver
        assert "send_gradients" not in TrainingEngine.__dict__
        assert TrainingEngine.send_gradients is WorkerHost.send_gradients
        assert TrainingEngine.__dict__["_deliver"] is deliver

    def test_every_layer_resolves(self):
        for _name, path in LAYERS + ASYNC_LAYERS:
            modname, _, qualname = path.partition(":")
            cls_name, attr = qualname.split(".")
            cls = getattr(importlib.import_module(modname), cls_name)
            assert callable(getattr(cls, attr)), path

    def test_strategy_layers_cover_every_registered_system(self):
        from repro.baselines.registry import create_strategy  # noqa: F401
        from repro.core.api import ExchangeStrategy

        listed = {
            path.rpartition(":")[2].split(".")[0]
            for name, path in LAYERS
            if name == "strategy.generate"
        }
        todo, defined = [ExchangeStrategy], set()
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if (
                cls is not ExchangeStrategy
                and cls.__module__.startswith("repro.")
                and "generate_partial_gradients" in cls.__dict__
            ):
                defined.add(cls.__name__)
        assert defined <= listed
