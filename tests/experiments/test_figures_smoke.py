"""Smoke tests for every figure driver.

The benchmark suite runs the drivers at experiment scale; these tests
run each one end-to-end with a drastically shrunk workload (tiny
dataset, ~8 simulated seconds per run) so a broken driver fails the
unit suite rather than an hour-long benchmark run.
"""

import dataclasses
from pathlib import Path

import pytest

import repro.experiments.ablations as ablations
import repro.experiments.figures as figures
import repro.experiments.runner as runner

_TINY = {"train_size": 400, "test_size": 120, "eval_subset": 100}


@pytest.fixture
def tiny_runs(monkeypatch):
    """Shrink every experiment the drivers launch."""
    original_run = runner.run_experiment

    def fast_run(spec):
        overrides = dict(spec.config_overrides)
        for key, value in _TINY.items():
            overrides.setdefault(key, value)
        return original_run(
            runner.RunSpec(
                environment=spec.environment,
                system=spec.system,
                seed=spec.seed,
                horizon=8.0,
                config_overrides=overrides,
            )
        )

    def fast_run_seeds(environment, system, *, seeds=None, horizon=None,
                       config_overrides=None):
        return [
            fast_run(
                runner.RunSpec(
                    environment=environment,
                    system=system,
                    seed=0,
                    config_overrides=dict(config_overrides or {}),
                )
            )
        ]

    def tiny_workload(base_fn):
        def make():
            w = base_fn()
            return dataclasses.replace(
                w, paper_horizon=32.0, train_size=400, test_size=120,
                eval_subset=100,
            )
        return make

    for module in (figures, ablations):
        if hasattr(module, "run_seeds"):
            monkeypatch.setattr(module, "run_seeds", fast_run_seeds)
        if hasattr(module, "bench_seeds"):
            monkeypatch.setattr(module, "bench_seeds", lambda: (0,))
        if hasattr(module, "cpu_workload"):
            monkeypatch.setattr(
                module, "cpu_workload", tiny_workload(runner.cpu_workload)
            )
    yield


CHEAP_TABLES = [figures.table1, figures.table2, figures.table3]

DRIVERS = [
    figures.fig05,
    figures.fig06,
    figures.fig07,
    figures.fig08,
    figures.fig09a,
    figures.fig09b,
    figures.fig09c,
    figures.fig11,
    figures.fig13,
    figures.fig14,
    figures.fig15,
    figures.fig16,
    figures.fig17,
    figures.fig18,
    figures.fig19,
    figures.fig20,
    figures.fig21,
    ablations.ablation_selectors,
    ablations.ablation_techniques,
    ablations.ablation_churn,
    ablations.ablation_network_model,
    ablations.ablation_overlay,
]


@pytest.mark.parametrize("driver", CHEAP_TABLES, ids=lambda d: d.__name__)
def test_table_drivers(driver):
    fig = driver()
    assert fig.rows
    assert "==" in fig.render()


@pytest.mark.parametrize("driver", CHEAP_TABLES, ids=lambda d: d.__name__)
def test_static_table_equals_its_archive(driver):
    """What ``benchmarks/bench_figures.py`` would write is the tracked file."""
    fig = driver()
    slug = fig.figure.lower().replace(" ", "").replace(".", "")
    archive = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    assert fig.render() + "\n" == (archive / f"{slug}.txt").read_text()


@pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
def test_figure_driver_smoke(tiny_runs, driver):
    fig = driver()
    assert fig.rows, f"{driver.__name__} produced no rows"
    rendered = fig.render()
    assert fig.title in rendered
    # every row matches the header width
    for row in fig.rows:
        assert len(row) == len(fig.header)


def test_fig12_smoke(tiny_runs):
    # GPU driver exercised separately: its tiny runs are still the
    # slowest of the smoke set.
    fig = figures.fig12()
    assert len(fig.rows) == 10
