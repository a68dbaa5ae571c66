"""The program reads no behaviour switch from the environment.

``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SMOKE`` size the benchmark suites;
any other ``REPRO_*`` name under ``src/`` would be a second code path
selected outside the arguments a run records.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {"REPRO_BENCH_SCALE", "REPRO_BENCH_SMOKE"}


def test_only_benchmark_sizing_env_vars_under_src():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for name in re.findall(r"\bREPRO_[A-Z0-9_]+", path.read_text()):
            found.setdefault(name, path.relative_to(SRC).as_posix())
    assert found, "scan is broken: REPRO_BENCH_SCALE lives in experiments/runner.py"
    assert set(found) <= ALLOWED, {n: f for n, f in found.items() if n not in ALLOWED}
