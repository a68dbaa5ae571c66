"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def _crash_plan(tmp_path, *crashes):
    """A --chaos plan file scripting ``(time, worker, restart_after)``
    crashes (worker churn)."""
    import json

    path = tmp_path / "churn.json"
    path.write_text(json.dumps({"crashes": [
        {"time": t, "worker": w, "restart_after": r} for t, w, r in crashes
    ]}))
    return str(path)


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_environment(self):
        # -e is validated in the command (either -e or --env-file).
        assert main(["run"]) == 2

    def test_run_rejects_unknown_environment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "-e", "Homo Z"])

    def test_figure_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_run_rejects_removed_compute_threads_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "-e", "Homo A", "--horizon", "5", "--compute-threads", "2"])
        assert exc.value.code == 2
        assert "--compute-threads" in capsys.readouterr().err


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Hetero SYS A" in out
        assert "dlion" in out
        assert "fig11" in out

    def test_run_short(self, capsys):
        rc = main(
            ["run", "-e", "Homo A", "-s", "baseline", "--horizon", "15", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "iterations" in out

    def test_compare_short(self, capsys):
        rc = main(
            ["compare", "-e", "Homo A", "--systems", "baseline,hop", "--horizon", "12"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "hop" in out

    def test_compare_unknown_system(self, capsys):
        rc = main(["compare", "-e", "Homo A", "--systems", "zab"])
        assert rc == 2

    def test_figure_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "Virginia" in capsys.readouterr().out

    def test_run_with_churn(self, tmp_path, capsys):
        rc = main(
            [
                "run", "-e", "Homo A", "-s", "dlion", "--horizon", "20",
                "--chaos", _crash_plan(tmp_path, (6.0, 3, 8.0)),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "active workers" in out
        assert "6s->5, 14s->6" in out

    def test_run_requires_exactly_one_env_source(self, capsys):
        assert main(["run", "-s", "baseline"]) == 2

    def test_run_with_env_file_and_outputs(self, tmp_path, capsys):
        import json

        env = {
            "name": "tiny",
            "platform": "cpu",
            "workers": [
                {"cores": 8, "bandwidth": 20},
                {"cores": [[0, 4], [10, 8]], "bandwidth": 10},
            ],
        }
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(env))
        out_json = tmp_path / "run.json"
        out_csv = tmp_path / "acc.csv"
        rc = main(
            [
                "run", "--env-file", str(env_path), "-s", "baseline",
                "--horizon", "12", "--output", str(out_json), "--csv", str(out_csv),
            ]
        )
        assert rc == 0
        assert "tiny" in capsys.readouterr().out
        doc = json.loads(out_json.read_text())
        assert doc["n_workers"] == 2
        assert out_csv.read_text().startswith("worker,time_s,accuracy")

    def test_run_with_observability_flags(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main(
            [
                "run", "-e", "Homo A", "-s", "dlion", "--horizon", "15",
                "--trace", str(trace_path),
                "--metrics-out", str(metrics_path),
                "--profile",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace          :" in out
        assert "simclock.dispatch" in out  # the profile table
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "compute" in names
        metrics = json.loads(metrics_path.read_text())
        assert "grad_bytes_total" in metrics
        assert "maxn_chosen_n" in metrics

    def test_report_summarizes_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        assert main(
            ["run", "-e", "Homo A", "-s", "dlion", "--horizon", "15",
             "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "per-worker compute/wait breakdown" in out
        assert "per-link utilization" in out
        assert "worker 0" in out

    def test_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "not-a-trace.json"
        bad.write_text('{"foo": 1}')
        assert main(["report", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/trace.json"]) == 2


class TestRunBackendsAndWorkers:
    """The --backend / --workers / plan-sizing surface of run."""

    def test_workers_truncates_cluster(self, capsys):
        rc = main(
            ["run", "-e", "Homo A", "-s", "baseline", "--workers", "2",
             "--horizon", "10"]
        )
        assert rc == 0
        line = next(
            ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("iterations")
        )
        assert line.count(",") == 1  # two workers -> two counts

    def test_churn_validated_against_actual_cluster_size(self, tmp_path, capsys):
        # Regression: churn entries used to be validated against a
        # hard-coded 6-worker cluster instead of the built topology.
        rc = main(
            ["run", "-e", "Homo A", "--workers", "3", "--horizon", "5",
             "--chaos", _crash_plan(tmp_path, (2.0, 4, None))]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "worker 4" in err and "only 3 workers" in err

    def test_churn_within_truncated_cluster(self, tmp_path, capsys):
        rc = main(
            ["run", "-e", "Homo A", "-s", "baseline", "--workers", "3",
             "--horizon", "12", "--chaos", _crash_plan(tmp_path, (5.0, 2, None))]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "active workers" in out
        assert "->2" in out

    def test_proc_backend_keeps_two_workers_up(self, tmp_path, capsys):
        # Checked before any process is spawned.
        rc = main(
            ["run", "-e", "Homo A", "--backend", "proc", "--workers", "2",
             "--chaos", _crash_plan(tmp_path, (5.0, 0, None))]
        )
        assert rc == 2
        assert "at least two must stay up" in capsys.readouterr().err

    def test_env_file_rejects_workers(self, tmp_path, capsys):
        """A file environment takes the preset path: --workers truncates it."""
        import json

        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps({
            "name": "tiny",
            "platform": "cpu",
            "workers": [{"cores": 8, "bandwidth": 20}] * 3,
        }))
        rc = main(
            ["run", "--env-file", str(env_path), "--workers", "2",
             "-s", "baseline", "--horizon", "5"]
        )
        assert rc == 0
        assert "tiny (2 workers)" in capsys.readouterr().out

    def test_proc_backend_smoke(self, capsys):
        rc = main(
            ["run", "-e", "Homo A", "-s", "baseline", "--backend", "proc",
             "--workers", "2", "--horizon", "10", "--speedup", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "iterations" in out


class TestTelemetryFlags:
    """The --stats-interval/--status-dir/--ship-interval/status/report
    --metrics surface of the telemetry plane."""

    def test_telemetry_flags_rejected_on_sim_backend(self, capsys):
        for flag in (["--stats-interval", "1"], ["--status-dir", "/tmp/x"],
                     ["--ship-interval", "1"]):
            rc = main(["run", "-e", "Homo A", "--horizon", "5", *flag])
            assert rc == 2
            assert "--backend proc" in capsys.readouterr().err

    def test_nonpositive_intervals_rejected(self, capsys):
        for flag in ("--stats-interval", "--ship-interval"):
            rc = main(
                ["run", "-e", "Homo A", "--backend", "proc",
                 "--horizon", "5", flag, "0"]
            )
            assert rc == 2
            assert "must be positive" in capsys.readouterr().err

    def test_status_reads_a_snapshot(self, tmp_path, capsys):
        from repro.obs.live_status import build_snapshot, write_snapshot

        write_snapshot(tmp_path, build_snapshot(
            time_model_s=5.0, horizon_s=10.0, wall_elapsed_s=1.0,
            speedup=5.0,
            workers={0: {"iteration": 10, "rate": 2.0, "alive": True,
                         "restarts": 0}},
            cluster={"send_msgs_total": 7},
        ))
        assert main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[live t=" in out
        assert "worker" in out

    def test_status_without_snapshot_fails(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == 1
        assert "no live status snapshot" in capsys.readouterr().err

    def test_report_metrics_renders_percentiles(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["run", "-e", "Homo A", "-s", "dlion", "--horizon", "15",
             "--metrics-out", str(metrics_path)]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "iteration_seconds" in out

    def test_report_requires_some_input(self, capsys):
        assert main(["report"]) == 2
        assert "--metrics" in capsys.readouterr().err

    def test_report_rejects_garbage_metrics(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("[1, 2]")
        assert main(["report", "--metrics", str(bad)]) == 2
        assert "cannot read metrics dump" in capsys.readouterr().err


class TestRunChaos:
    """The --chaos / --checkpoint-* validation surface of run."""

    def _plan(self, tmp_path, doc):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
        return str(path)

    def test_missing_plan_file(self, capsys):
        rc = main(
            ["run", "-e", "Homo A", "--horizon", "5",
             "--chaos", "/nonexistent/plan.json"]
        )
        assert rc == 2
        assert "bad --chaos plan" in capsys.readouterr().err

    def test_plan_not_json(self, tmp_path, capsys):
        plan = self._plan(tmp_path, "{not json")
        rc = main(["run", "-e", "Homo A", "--horizon", "5", "--chaos", plan])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad --chaos plan" in err and "not valid JSON" in err

    def test_plan_with_unknown_keys(self, tmp_path, capsys):
        plan = self._plan(tmp_path, {"crashs": []})
        rc = main(["run", "-e", "Homo A", "--horizon", "5", "--chaos", plan])
        assert rc == 2
        assert "unknown chaos plan keys" in capsys.readouterr().err

    def test_plan_names_out_of_range_worker(self, tmp_path, capsys):
        # Validation must use the *built* topology size.
        plan = self._plan(
            tmp_path, {"crashes": [{"time": 1.0, "worker": 5}]}
        )
        rc = main(
            ["run", "-e", "Homo A", "--workers", "3", "--horizon", "5",
             "--chaos", plan]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "worker 5" in err and "only 3 workers" in err

    def test_sim_run_with_plan(self, tmp_path, capsys):
        plan = self._plan(
            tmp_path,
            {"crashes": [{"time": 6.0, "worker": 2, "restart_after": 5.0}]},
        )
        rc = main(
            ["run", "-e", "Homo A", "-s", "dlion", "--workers", "3",
             "--horizon", "20", "--chaos", plan]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "active workers" in out
        assert "->2" in out and "->3" in out

    def test_checkpoint_flags_rejected_on_sim_backend(self, tmp_path, capsys):
        rc = main(
            ["run", "-e", "Homo A", "--horizon", "5",
             "--checkpoint-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "--backend proc" in capsys.readouterr().err

    def test_checkpoint_interval_requires_dir(self, capsys):
        rc = main(
            ["run", "-e", "Homo A", "--backend", "proc", "--horizon", "5",
             "--checkpoint-interval", "2"]
        )
        assert rc == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_bad_checkpoint_interval(self, tmp_path, capsys):
        rc = main(
            ["run", "-e", "Homo A", "--backend", "proc", "--horizon", "5",
             "--checkpoint-dir", str(tmp_path),
             "--checkpoint-interval", "-1"]
        )
        assert rc == 2
        assert "bad checkpoint settings" in capsys.readouterr().err


class TestOverlayFlag:
    def test_overlay_run(self, capsys):
        rc = main(["run", "-e", "Homo A", "--overlay", "ring",
                   "--horizon", "10"])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out

    def test_overlay_changes_traffic(self, tmp_path, capsys):
        import json

        paths = {}
        for name, extra in (("mesh", []), ("ring", ["--overlay", "ring"])):
            out = tmp_path / f"{name}.json"
            rc = main(["run", "-e", "Homo A", "--horizon", "10",
                       "--output", str(out), *extra])
            assert rc == 0
            paths[name] = json.loads(out.read_text())
        capsys.readouterr()
        mesh_links = {k for k, v in paths["mesh"]["link_bytes"].items() if v}
        ring_links = {k for k, v in paths["ring"]["link_bytes"].items() if v}
        assert ring_links < mesh_links  # strictly fewer pairs exchange

    def test_overlay_rejected_on_proc_backend(self, capsys):
        rc = main(["run", "-e", "Homo A", "--backend", "proc",
                   "--overlay", "ring", "--horizon", "5"])
        assert rc == 2
        assert "--overlay" in capsys.readouterr().err

    def test_bad_overlay_spec(self, capsys):
        rc = main(["run", "-e", "Homo A", "--overlay", "mesh", "--horizon", "5"])
        assert rc == 2
        assert "bad --overlay" in capsys.readouterr().err

    def test_overlay_spec_validated_against_cluster_size(self, capsys):
        # kregular:7 is impossible on a 6-worker preset.
        rc = main(["run", "-e", "Homo A", "--overlay", "kregular:7",
                   "--horizon", "5"])
        assert rc == 2
        assert "bad --overlay" in capsys.readouterr().err

    def test_stress_preset_truncates(self, capsys):
        rc = main(["run", "-e", "Stress 1k", "--workers", "12",
                   "--overlay", "hier:4", "--horizon", "4"])
        assert rc == 0
        assert "Stress 1k" in capsys.readouterr().out
