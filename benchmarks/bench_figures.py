"""Every paper table / figure and extension study, one harness.

Each case regenerates one table or figure: it runs the driver from
:mod:`repro.experiments.figures` (or one of the five studies in
:mod:`repro.experiments.ablations`) exactly once under pytest-benchmark
(the "benchmark" here is the experiment itself), prints the paper-style
rows, and archives them under ``benchmarks/results/`` so EXPERIMENTS.md
can be refreshed from real runs. Case ids are the driver names::

    pytest benchmarks/bench_figures.py -k fig11 --benchmark-only -s
    pytest benchmarks/bench_figures.py -k "table1 or table2 or table3" --benchmark-disable

Scale control: ``REPRO_BENCH_SCALE=fast`` (default, compressed time
axis, one seed) or ``full`` (paper-length runs, three seeds).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import ablations, figures

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DRIVERS = [getattr(figures, name) for name in figures.__all__] + [
    getattr(ablations, name) for name in ablations.__all__
]


@pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
def test_figure(benchmark, driver):
    """Run one figure driver once, print and archive its rows."""
    fig = benchmark.pedantic(driver, rounds=1, iterations=1)
    rendered = fig.render()
    print("\n" + rendered)
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = fig.figure.lower().replace(" ", "").replace(".", "")
    (RESULTS_DIR / f"{slug}.txt").write_text(rendered + "\n")
