"""Importing the engine or the transport must stay light.

Every child process of every workload pays the import; networkx alone
was ~0.18 s and ~14 MB of it before ``PeerGraph`` kept its own
adjacency. Only ``PeerGraph.k_regular`` may load it.
Importing the whole package may load nothing outside the standard
library and the declared dependencies.
"""

import re
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


def test_import_closure_is_the_declared_dependencies():
    """Importing every ``repro`` module loads no third-party module that
    ``pyproject.toml``'s ``dependencies`` do not name: an undeclared
    import fails a clean install, and a heavy dependency's own helper
    modules show up here too."""
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    # A regex, not tomllib: Python 3.10 has no tomllib.
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject, re.M | re.S)
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in re.findall(r"\"([^\"]+)\"", deps.group(1))
    }
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import importlib, pkgutil\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        # ``__mp_main__`` and the like are the interpreter's aliases.
        "print(' '.join(sorted(n for n in new if n not in sys.stdlib_module_names\n"
        "                      and not n.startswith('__'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    undeclared = set(out.stdout.split()) - declared - {"repro"}
    assert not undeclared, f"imports outside pyproject's dependencies: {undeclared}"
