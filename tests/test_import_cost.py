"""Importing the engine or the transport must stay light.

Every child process of every workload pays the import; networkx alone
was ~0.18 s and ~14 MB of it before ``PeerGraph`` kept its own
adjacency. Only ``PeerGraph.k_regular`` (and ``.graph``) may load it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module",
    ["repro.core.engine", "repro.transport.mesh", "repro.transport.runtime"],
)
def test_no_eager_heavy_import(module):
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
        "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
