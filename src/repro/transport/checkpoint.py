"""Atomic worker checkpoints for the live (``--backend proc``) engine.

Each live worker periodically serializes everything its process would
need to resume after a SIGKILL: model weight variables (plus BatchNorm
running statistics), every named RNG stream position, the iteration
counter, the batch-size controller state, per-peer sequence state, the
exchange strategy (accumulators, cursors, planner state), and the
worker's metric registry (its counters and recorded series). The
supervisor respawns a crashed worker with ``resume=True`` and the child restores
the newest readable checkpoint before rejoining the mesh (see
docs/robustness.md for the exact restored/lost inventory).

File format: one ``.ckpt.npz`` archive per snapshot, named
``worker{w:03d}-{iteration:08d}.ckpt.npz``. Weight arrays live under a
``model/`` prefix; everything non-array is a single pickled ``meta``
blob stored as a uint8 array. Writes go to a ``.tmp`` sibling first and
are published with ``os.replace``, so a crash mid-write can never
corrupt the latest checkpoint — readers either see the previous
complete file or the new complete file. ``np.load`` validates the zip
CRC, so a torn or truncated file is detected and skipped by
:func:`load_latest`.
"""

from __future__ import annotations

import os
import pickle
import re
import zipfile
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CheckpointConfig",
    "checkpoint_path",
    "write_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "load_latest",
]

_NAME_RE = re.compile(r"^worker(\d{3})-(\d{8})\.ckpt\.npz$")
_META_KEY = "meta"
_MODEL_PREFIX = "model/"


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpoint tunables recorded in the run spec (picklable).

    ``interval_s`` is in **modelled** seconds, so one setting means the
    same training-progress cadence at any ``--speedup``. ``retention``
    bounds how many snapshots per worker are kept on disk.
    """

    directory: str
    interval_s: float = 5.0
    retention: int = 2

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("checkpoint interval_s must be positive")
        if self.retention < 1:
            raise ValueError("checkpoint retention must be >= 1")


def checkpoint_path(directory: str, worker: int, iteration: int) -> str:
    """The canonical snapshot path for one (worker, iteration) pair."""
    return os.path.join(
        directory, f"worker{worker:03d}-{iteration:08d}.ckpt.npz"
    )


def write_checkpoint(
    directory: str,
    worker: int,
    arrays: dict[str, np.ndarray],
    meta: dict,
    *,
    retention: int = 2,
) -> str:
    """Atomically write one snapshot; prune old ones; return the path."""
    os.makedirs(directory, exist_ok=True)
    iteration = int(meta.get("iteration", 0))
    path = checkpoint_path(directory, worker, iteration)
    tmp = path + ".tmp"
    payload = {_MODEL_PREFIX + name: arr for name, arr in arrays.items()}
    payload[_META_KEY] = np.frombuffer(
        pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _prune(directory, worker, retention)
    return path


def list_checkpoints(directory: str, worker: int) -> list[str]:
    """This worker's checkpoint paths, newest (highest iteration) first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        m = _NAME_RE.match(name)
        if m and int(m.group(1)) == worker:
            found.append((int(m.group(2)), name))
    found.sort(reverse=True)
    return [os.path.join(directory, name) for _, name in found]


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read one snapshot back as ``(weight_arrays, meta)``.

    Raises ``OSError``/``ValueError`` on a missing, truncated, or
    corrupt file (zip CRC mismatch included).
    """
    # The file is opened here, not by np.load: on a truncated archive
    # np.load raises with its own handle still open.
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if _META_KEY not in data:
                raise ValueError(f"{path}: no meta record")
            meta = pickle.loads(data[_META_KEY].tobytes())
            arrays = {
                key[len(_MODEL_PREFIX):]: data[key]
                for key in data.files
                if key.startswith(_MODEL_PREFIX)
            }
    except (zipfile.BadZipFile, EOFError, pickle.UnpicklingError, KeyError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint ({exc})") from None
    return arrays, meta


def load_latest(
    directory: str, worker: int
) -> tuple[dict[str, np.ndarray], dict] | None:
    """The newest *readable* snapshot for ``worker``, or ``None``.

    Corrupt or partially-written files are skipped (never fatal): after
    a crash the worker must come back with whatever state survives.
    """
    for path in list_checkpoints(directory, worker):
        try:
            return load_checkpoint(path)
        except (OSError, ValueError):
            continue
    return None


def _prune(directory: str, worker: int, retention: int) -> None:
    for path in list_checkpoints(directory, worker)[retention:]:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - already gone
            pass
