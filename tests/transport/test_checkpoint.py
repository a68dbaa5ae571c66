"""Unit tests for the atomic checkpoint store used by the live backend."""

import os
import pickle

import numpy as np
import pytest

from repro.transport.checkpoint import (
    CheckpointConfig,
    checkpoint_path,
    list_checkpoints,
    load_checkpoint,
    load_latest,
    write_checkpoint,
)


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "dense0/W": rng.normal(size=(4, 3)).astype(np.float32),
        "dense0/b": rng.normal(size=(3,)).astype(np.float32),
        "__bn0/mean": rng.normal(size=(3,)).astype(np.float64),
    }


def _meta(iteration=5, **kw):
    meta = {
        "format": 1,
        "worker": 1,
        "iteration": iteration,
        "rng": {"sampler": {"state": 123}},
        "received_from": {0: 4, 2: 5},
    }
    meta.update(kw)
    return meta


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval_s"):
            CheckpointConfig(directory="x", interval_s=0.0)
        with pytest.raises(ValueError, match="retention"):
            CheckpointConfig(directory="x", retention=0)
        cfg = CheckpointConfig(directory="x")
        assert cfg.interval_s == 5.0 and cfg.retention == 2

    def test_picklable(self):
        cfg = CheckpointConfig(directory="/tmp/ck", interval_s=2.0, retention=3)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestRoundTrip:
    def test_exact_restore(self, tmp_path):
        arrays, meta = _arrays(), _meta()
        path = write_checkpoint(str(tmp_path), 1, arrays, meta)
        assert path == checkpoint_path(str(tmp_path), 1, 5)
        got_arrays, got_meta = load_checkpoint(path)
        assert got_meta == meta
        assert set(got_arrays) == set(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(got_arrays[name], arr)
            assert got_arrays[name].dtype == arr.dtype

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_checkpoint(str(tmp_path), 0, _arrays(), _meta())
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


class TestListing:
    def test_newest_first_and_per_worker(self, tmp_path):
        d = str(tmp_path)
        write_checkpoint(d, 0, _arrays(), _meta(iteration=3), retention=10)
        write_checkpoint(d, 0, _arrays(), _meta(iteration=12), retention=10)
        write_checkpoint(d, 1, _arrays(), _meta(iteration=7), retention=10)
        assert list_checkpoints(d, 0) == [
            checkpoint_path(d, 0, 12),
            checkpoint_path(d, 0, 3),
        ]
        assert list_checkpoints(d, 1) == [checkpoint_path(d, 1, 7)]
        assert list_checkpoints(d, 2) == []

    def test_missing_directory_is_empty(self, tmp_path):
        assert list_checkpoints(str(tmp_path / "nope"), 0) == []


class TestRetention:
    def test_prunes_oldest(self, tmp_path):
        d = str(tmp_path)
        for it in (1, 2, 3, 4):
            write_checkpoint(d, 2, _arrays(), _meta(iteration=it), retention=2)
        assert list_checkpoints(d, 2) == [
            checkpoint_path(d, 2, 4),
            checkpoint_path(d, 2, 3),
        ]

    def test_retention_is_per_worker(self, tmp_path):
        d = str(tmp_path)
        write_checkpoint(d, 0, _arrays(), _meta(iteration=1), retention=1)
        write_checkpoint(d, 1, _arrays(), _meta(iteration=1), retention=1)
        assert list_checkpoints(d, 0) and list_checkpoints(d, 1)


class TestCorruption:
    def test_truncated_file_raises(self, tmp_path):
        path = write_checkpoint(str(tmp_path), 0, _arrays(), _meta())
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="corrupt"):
            load_checkpoint(path)

    def test_load_latest_skips_corrupt_and_falls_back(self, tmp_path):
        d = str(tmp_path)
        write_checkpoint(d, 0, _arrays(seed=1), _meta(iteration=3), retention=5)
        newest = write_checkpoint(
            d, 0, _arrays(seed=2), _meta(iteration=9), retention=5
        )
        with open(newest, "wb") as fh:
            fh.write(b"garbage that is not a zip archive")
        result = load_latest(d, 0)
        assert result is not None
        arrays, meta = result
        assert meta["iteration"] == 3
        np.testing.assert_array_equal(arrays["dense0/W"], _arrays(seed=1)["dense0/W"])

    def test_load_latest_none_when_nothing_readable(self, tmp_path):
        assert load_latest(str(tmp_path), 0) is None
        path = checkpoint_path(str(tmp_path), 0, 1)
        with open(path, "wb") as fh:
            fh.write(b"junk")
        assert load_latest(str(tmp_path), 0) is None
