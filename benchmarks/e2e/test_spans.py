"""Unit checks of the span recorder (run: ``pytest benchmarks/e2e``).

Not collected by tier-1, whose ``testpaths`` is ``tests/``.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import types
import warnings

import pytest

import run
import spans


def ticking_recorder():
    """A recorder whose clock advances one second per reading."""
    ticks = itertools.count()
    return spans.SpanRecorder(clock=lambda: float(next(ticks)))


def test_nested_spans_give_self_time():
    rec = ticking_recorder()
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: (inner(), inner()))
    outer()
    # Clock readings: outer 0, inner 1-2, inner 3-4, outer 5.
    assert rec.self_times() == {"outer": (3.0, 1), "inner": (2.0, 2)}


def test_recursive_spans_sum_to_the_root():
    rec = ticking_recorder()

    def fact(n):
        return 1 if n == 0 else n * fact(n - 1)

    fact = rec.wrap("fact", fact)
    assert fact(4) == 24
    (self_s, calls), = rec.self_times().values()
    assert calls == 5
    assert self_s == rec.duration(0) == 9.0


def test_fold_adds_time_without_counting_a_call():
    rec = ticking_recorder()
    rec.wrap("decode" + spans.FOLD, lambda: None)()
    rec.wrap("decode", lambda: None)()
    assert rec.self_times() == {"decode": (2.0, 1)}


def test_paused_wrappers_call_straight_through():
    rec = ticking_recorder()
    fn = rec.wrap("layer", lambda: 7)
    with rec.span("setup.warmup"), rec.paused():
        assert fn() == 7
    assert rec.self_times() == {"setup.warmup": (1.0, 1)}


def test_missing_targets_degrade_to_a_warning():
    rec = spans.SpanRecorder()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not rec.install_target("gone", "no.such.module:fn")
        assert not rec.install_target("gone", "json:no_such_function")
        assert not rec.install_target("gone", "json:JSONDecoder.no_such_method")
    assert len(caught) == 3
    assert rec.missing == [
        "no.such.module:fn", "json:no_such_function",
        "json:JSONDecoder.no_such_method",
    ]
    assert rec.self_times() == {}


def test_module_functions_are_replaced_where_imported_by_name():
    defining = types.ModuleType("e2e_fake.defining")
    importing = types.ModuleType("e2e_fake.importing")
    defining.work = lambda: "done"
    importing.work = defining.work
    sys.modules.update({"e2e_fake.defining": defining, "e2e_fake.importing": importing})
    try:
        rec = spans.SpanRecorder()
        assert rec.install_target("work", "e2e_fake.defining:work")
        assert importing.work is defining.work
        assert importing.work() == "done"
        assert rec.self_times()["work"][1] == 1
    finally:
        del sys.modules["e2e_fake.defining"], sys.modules["e2e_fake.importing"]


# The wrappers replace class attributes process-wide, so the checks that
# install them on the real program run in a child of their own.
_IDENTITY = """
import spans
from repro.core.compute_pool import ComputePool
from repro.core.worker import Worker
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
from repro.core.engine import TrainingEngine

original = Worker._finish_iteration
spans.install(spans.SpanRecorder(), "sim")
assert Worker._finish_iteration is not original
assert Worker._finish_iteration.__wrapped__ is original
env = get_environment("Homo B")
wl = workload_for(env)
engine = TrainingEngine(build_config("dlion", wl), build_topology(env, wl), seed=0)
# The compute pool recognises scheduled completions by comparing a bound
# method's __func__ with the class attribute: both must be the wrapper.
assert engine.workers[0]._finish_iteration.__func__ is Worker._finish_iteration
classify = getattr(ComputePool, "_classify", None)
if classify is not None:
    classify(engine.compute_pool)
    assert engine.compute_pool._fn_finish is Worker._finish_iteration
print("ok")
"""


def test_wrappers_preserve_func_identity_for_the_compute_pool():
    proc = subprocess.run(
        [sys.executable, "-c", _IDENTITY], env=run.child_env(), cwd=run.HERE,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_traced_digest_equals_untraced_digest():
    plain = run.run_child("sim_homo_b", 0, smoke=True)
    traced = run.run_child("sim_homo_b", 0, smoke=True, mode="traced")
    assert not plain["errors"] and not traced["errors"]
    assert plain["digest"] == traced["digest"]
    assert traced["trace"]["missing"] == []
    assert traced["trace"]["attributed_frac"] == pytest.approx(1.0, abs=0.01)
