"""Unit tests for live-status snapshots: build, write/read, render.

Everything here is pure data — no live runs and no wall-clock sleeps.
"""

import json

from repro.obs.live_status import (
    SNAPSHOT_NAME,
    SNAPSHOT_VERSION,
    build_snapshot,
    events_tail,
    read_snapshot,
    render_health_line,
    render_snapshot,
    write_snapshot,
)
from repro.obs.metrics import MetricsRegistry


_EVENT = {"time": 7.5, "event": "peer-dead", "peer": 1, "iteration": 71}


def _snapshot(**overrides):
    base = dict(
        time_model_s=12.34,
        horizon_s=40.0,
        wall_elapsed_s=2.5,
        speedup=5.0,
        workers={
            0: {"iteration": 30, "rate": 3.0, "alive": True, "restarts": 0},
            1: {"iteration": 29, "rate": 2.9, "alive": True, "restarts": 0},
            2: {"iteration": 7, "rate": 1.0, "alive": True, "restarts": 1},
        },
        cluster={
            "frame_latency_p99_s": 0.0018,
            "send_msgs_total": 1234,
            "send_bytes_total": 5.6e6,
            "outbox_depth_max": 3,
            "queue_depth_max": 2,
            "deltas_received": 12,
        },
    )
    base.update(overrides)
    return build_snapshot(**base)


class TestBuildSnapshot:
    def test_straggler_flagged_below_half_median_rate(self):
        snap = _snapshot()
        assert snap["workers"]["2"]["straggler"] is True
        assert snap["workers"]["0"]["straggler"] is False
        assert snap["workers"]["1"]["straggler"] is False

    def test_dead_workers_never_stragglers(self):
        snap = _snapshot(
            workers={
                0: {"iteration": 30, "rate": 3.0, "alive": True, "restarts": 0},
                2: {"iteration": 7, "rate": 0.0, "alive": False, "restarts": 0},
            }
        )
        assert snap["workers"]["2"]["straggler"] is False

    def test_cold_cluster_not_all_stragglers(self):
        snap = _snapshot(
            workers={
                0: {"iteration": 0, "rate": 0.0, "alive": True, "restarts": 0},
                1: {"iteration": 0, "rate": 0.0, "alive": True, "restarts": 0},
            }
        )
        assert not any(w["straggler"] for w in snap["workers"].values())

    def test_events_tail_included(self):
        snap = _snapshot(events_tail={2: [_EVENT]})
        assert snap["version"] == SNAPSHOT_VERSION == 2
        assert snap["events_tail"]["2"][0]["event"] == "peer-dead"


class TestEventsTail:
    def test_newest_events_per_worker_in_time_order(self):
        fam = MetricsRegistry().series(
            "lifecycle_events", labels=("worker", "event", "peer")
        )
        fam.append(5.0, 50, 0, "checkpoint", -1)
        fam.append(10.0, 100, 0, "checkpoint", -1)
        fam.append(7.25, 71, 0, "peer-dead", 2)
        fam.append(1.0, 9, 1, "finalize", -1)
        tail = events_tail(fam, 2)
        assert tail == {
            0: [
                {"time": 7.25, "event": "peer-dead", "peer": 2, "iteration": 71},
                {"time": 10.0, "event": "checkpoint", "peer": -1, "iteration": 100},
            ],
            1: [{"time": 1.0, "event": "finalize", "peer": -1, "iteration": 9}],
        }

    def test_no_family_is_no_events(self):
        assert events_tail(None, 16) == {}


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        snap = _snapshot()
        path = write_snapshot(tmp_path, snap)
        assert path.name == SNAPSHOT_NAME
        assert read_snapshot(tmp_path) == snap

    def test_write_is_atomic_replace(self, tmp_path):
        write_snapshot(tmp_path, _snapshot())
        write_snapshot(tmp_path, _snapshot(time_model_s=20.0))
        assert read_snapshot(tmp_path)["time_model_s"] == 20.0
        # no stray tmp file left behind
        assert [p.name for p in tmp_path.iterdir()] == [SNAPSHOT_NAME]

    def test_missing_or_torn_file_reads_as_none(self, tmp_path):
        assert read_snapshot(tmp_path) is None
        (tmp_path / SNAPSHOT_NAME).write_text("{not json")
        assert read_snapshot(tmp_path) is None

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        write_snapshot(target, _snapshot())
        assert read_snapshot(target) is not None


class TestRender:
    def test_health_line_fields(self):
        line = render_health_line(_snapshot())
        assert line.startswith("[live t=12.3/40.0s]")
        assert "it/s 0:3.0 1:2.9 2:1.0*" in line  # straggler starred
        assert "p99 1.8ms" in line
        assert "outbox<=3" in line and "queue<=2" in line
        assert "1.2k msgs" in line
        assert line.endswith("up 3/3")

    def test_health_line_marks_dead_workers(self):
        snap = _snapshot(
            workers={
                0: {"iteration": 30, "rate": 3.0, "alive": True, "restarts": 0},
                2: {"iteration": 7, "rate": 0.0, "alive": False, "restarts": 0},
            }
        )
        line = render_health_line(snap)
        assert "2:0.0!" in line
        assert line.endswith("up 1/2")

    def test_health_line_tolerates_missing_latency(self):
        snap = _snapshot()
        snap["cluster"]["frame_latency_p99_s"] = None
        assert "p99 -" in render_health_line(snap)

    def test_full_render_has_worker_table(self):
        text = render_snapshot(_snapshot(events_tail={2: [_EVENT]}))
        assert "worker" in text and "restarts" in text
        assert "speedup 5" in text
        assert "worker 2 last event: peer-dead peer 1 at t=7.5s" in text

    def test_snapshot_is_json_serializable(self):
        json.dumps(_snapshot())
