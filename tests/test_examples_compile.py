"""Every example must at least parse, compile and import.

This guarantees they cannot rot syntactically or import-break. It does
not call their ``main``: an example that calls a deleted API still
passes here, so CI's tier-1 job also runs every example end to end
(about a minute for all of them).
"""

import pathlib
import py_compile

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # the deliverable floor; we ship more


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Importing the example module must not fail (no __main__ side
    effects run because every example guards them)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert hasattr(module, "main")
