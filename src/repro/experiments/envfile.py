"""Custom environments from JSON files.

Downstream users rarely have the paper's exact clusters; this module
lets them describe their own micro-clouds declaratively and run any
system against them (``repro-dlion run --env-file my-cluster.json``).

Schema (all bandwidths in Mbps, compute in cores/GPU-equivalents)::

    {
      "name": "my-cluster",
      "platform": "cpu",
      "workers": [
        {"cores": 24, "bandwidth": 50},
        {"cores": [[0, 24], [300, 12]],          // piecewise trace
         "bandwidth": [[0, 50], [300, 20]]},
        ...
      ]
    }

A scalar is a constant resource; a list of ``[start_time, value]``
pairs is a :class:`~repro.cluster.traces.PiecewiseTrace` (first start
must be 0); levels are finite positive numbers. The document becomes an
:class:`~repro.experiments.environments.EnvSpec` and takes a preset's
path to a cluster (``runner.build_topology``): the link between two
workers runs at ``min(cap_i(t), cap_j(t))`` — the slower endpoint at
transfer start, scalars and traces alike.
"""

from __future__ import annotations

import json
import pathlib

from repro.cluster.traces import ConstantTrace, PiecewiseTrace
from repro.experiments.environments import EnvSpec

__all__ = ["load_environment", "parse_environment", "trace_from_spec"]


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def trace_from_spec(spec):
    """A scalar → ConstantTrace; ``[[t, v], ...]`` → PiecewiseTrace."""
    if _number(spec):
        return ConstantTrace(spec)
    if isinstance(spec, list):
        for pair in spec:
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(_number, pair))):
                raise ValueError(f"trace segment must be [time, value], got {pair!r}")
        return PiecewiseTrace(spec)
    raise ValueError(f"cannot interpret resource spec {spec!r}")


def _resource(spec):
    """A validated per-worker entry: scalars stay floats, lists become traces."""
    trace = trace_from_spec(spec)
    return trace.value if isinstance(trace, ConstantTrace) else trace


def parse_environment(doc: dict) -> EnvSpec:
    """Validate a JSON document; returns the environment it describes."""
    if not isinstance(doc, dict):
        raise ValueError("environment document must be a JSON object")
    name = doc.get("name")
    if not name or not isinstance(name, str):
        raise ValueError("environment needs a string 'name'")
    workers = doc.get("workers")
    if not isinstance(workers, list) or len(workers) < 2:
        raise ValueError("environment needs a 'workers' list with >= 2 entries")
    for i, w in enumerate(workers):
        if not isinstance(w, dict) or "cores" not in w or "bandwidth" not in w:
            raise ValueError(f"worker {i} needs 'cores' and 'bandwidth'")
    return EnvSpec(
        name=name,
        platform=doc.get("platform", "cpu"),
        cores=tuple(_resource(w["cores"]) for w in workers),
        bandwidth=tuple(_resource(w["bandwidth"]) for w in workers),
        description=f"custom environment from file ({name})",
    )


def load_environment(path: str | pathlib.Path) -> EnvSpec:
    """Read and validate an environment JSON file."""
    text = pathlib.Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    return parse_environment(doc)
