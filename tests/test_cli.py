"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.datastore import SerpDataset
from repro.core.experiment import StudyConfig
from repro.core.runner import Study
from repro.queries.corpus import build_corpus
from repro.queries.model import QueryCategory


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    corpus = build_corpus()
    queries = [corpus.get("School"), corpus.get("Starbucks"), corpus.get("Gay Marriage"),
               corpus.get("Barack Obama")]
    config = StudyConfig.small(queries, days=2, locations_per_granularity=3)
    dataset = Study(config).run()
    path = tmp_path_factory.mktemp("cli") / "dataset.jsonl.gz"
    dataset.save(path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--out", "x.jsonl"])
        assert args.scale == "small"

    def test_report_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--dataset", "x", "--figure", "9"])


class TestCommands:
    def test_run_and_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "mini.jsonl"
        # A 1-day small run is the cheapest full pipeline exercise.
        assert main(["run", "--scale", "small", "--days", "1", "--out", str(out)]) == 0
        assert SerpDataset.load(out)
        assert main(["report", "--dataset", str(out), "--figure", "2"]) == 0
        captured = capsys.readouterr()
        assert "Figure 2" in captured.out

    def test_report_all_figures(self, saved_dataset, capsys):
        assert main(["report", "--dataset", str(saved_dataset), "--figure", "all"]) == 0
        out = capsys.readouterr().out
        for figure in ("Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
                       "Figure 7", "Figure 8"):
            assert figure in out

    def test_report_without_local_queries_skips_fig8(self, tmp_path, capsys):
        queries = list(build_corpus().by_category(QueryCategory.POLITICIAN))[:2]
        config = StudyConfig.small(queries, days=1, locations_per_granularity=2)
        path = tmp_path / "politicians.jsonl"
        Study(config).run().save(path)
        assert main(["report", "--dataset", str(path), "--figure", "all"]) == 0
        out = capsys.readouterr().out
        for figure in ("Figure 2", "Figure 5", "Figure 7"):
            assert figure in out
        assert "Figure 8 skipped: no 'local' queries in dataset" in out

    def test_validate_command(self, capsys):
        assert main(["validate", "--machines", "6", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "result agreement" in out

    def test_demographics_command(self, saved_dataset, capsys):
        assert main(["demographics", "--dataset", str(saved_dataset), "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "median_income" in out
        assert "physical_distance_miles" in out

    def test_chart_command(self, saved_dataset, capsys):
        assert main(["chart", "--dataset", str(saved_dataset), "--figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "█" in out

    def test_chart_fig8(self, saved_dataset, capsys):
        assert main(
            ["chart", "--dataset", str(saved_dataset), "--figure", "8",
             "--granularity", "county"]
        ) == 0
        assert "noise floor" in capsys.readouterr().out

    def test_content_command(self, saved_dataset, capsys):
        assert main(["content", "--dataset", str(saved_dataset)]) == 0
        out = capsys.readouterr().out
        assert "locality" in out
        assert "source mix" in out

    def test_carryover_command(self, capsys):
        assert main(["carryover", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Session carryover" in out

    def test_export_command(self, saved_dataset, tmp_path, capsys):
        out_dir = tmp_path / "export"
        assert main(
            ["export", "--dataset", str(saved_dataset), "--out", str(out_dir)]
        ) == 0
        assert (out_dir / "fig2.csv").exists()
        assert (out_dir / "fig8_county.json").exists()

    def test_audit_command(self, capsys):
        assert main(["audit", "Coffee", "Barack Obama", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "Coffee" in out
        assert "verdict" in out

    def test_diff_command(self, saved_dataset, capsys):
        assert main(["diff", "--a", str(saved_dataset), "--b", str(saved_dataset)]) == 0
        out = capsys.readouterr().out
        assert "identical pages: 100.0%" in out

    def test_reportcard_command(self, saved_dataset, tmp_path, capsys):
        out_file = tmp_path / "REPORT.md"
        assert main(
            ["reportcard", "--dataset", str(saved_dataset), "--out", str(out_file)]
        ) == 0
        assert "## Headline" in out_file.read_text()

    def test_serve_bench_command(self, capsys):
        assert main(
            ["serve-bench", "--requests", "120", "--clients", "25", "--seed", "9",
             "--routing", "geo-affinity", "--cache-size", "256"]
        ) == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "hit-rate" in out
        assert "per-replica" in out

    def test_serve_bench_rejects_bad_routing(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--routing", "coin-flip"])

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("serve-bench", "--clients"),
            ("serve-bench", "--rate"),
            ("serve-bench", "--queue-capacity"),
            ("chaos-serve", "--clients"),
            ("chaos-serve", "--rate"),
            ("chaos-serve", "--gateways"),
            ("chaos-serve", "--replication"),
        ],
    )
    def test_bad_load_shape_is_refused_in_one_line(self, command, flag, capsys):
        # Exit 2 is a usage error; chaos-serve's exit 1 means the outcome
        # partition leaked, so a typo must never look like that.
        assert main([command, "--requests", "20", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if line]
        assert lines[-1].startswith(f"{command}: ")
        assert "Traceback" not in captured.err

    def test_chaos_serve_smoke_accounts_for_everything(self, tmp_path, capsys):
        ledger = tmp_path / "serve-ledger.json"
        assert main(["chaos-serve", "--smoke", "--requests", "200",
                     "--seed", "9", "--fault-seed", "11",
                     "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "unaccounted=0 (OK)" in out
        import json

        raw = json.loads(ledger.read_text())
        assert raw["unaccounted"] == 0
        assert raw["offered"] == 200
        assert raw["offered"] == (
            raw["served_fresh"] + raw["served_stale"]
            + raw["shed"] + raw["failed"]
        )
        assert sum(raw["faults_injected"].values()) > 0

    def test_run_with_workers_matches_sequential(self, tmp_path):
        sequential = tmp_path / "seq.jsonl"
        parallel = tmp_path / "par.jsonl"
        assert main(["run", "--scale", "small", "--days", "1",
                     "--out", str(sequential)]) == 0
        assert main(["run", "--scale", "small", "--days", "1",
                     "--out", str(parallel), "--workers", "2"]) == 0
        assert sequential.read_bytes() == parallel.read_bytes()

    def test_schedule_command(self, capsys):
        assert main(["schedule", "--machines", "44"]) == 0
        out = capsys.readouterr().out
        assert "feasible: yes" in out
        assert main(["schedule", "--machines", "1"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out


class TestChaosCommand:
    def test_chaos_smoke(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fault ledger (injected = recovered + lost):" in out
        assert "retry histogram" in out
        assert "location coverage" in out
        assert "all injected faults accounted for" in out

    def test_chaos_smoke_parallel_with_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "chaos.ckpt"
        assert main(
            ["chaos", "--smoke", "--workers", "2", "--checkpoint", str(ckpt)]
        ) == 0
        assert ckpt.exists()
        assert "all injected faults accounted for" in capsys.readouterr().out
        # Re-running against the completed journal replays rather than
        # re-crawling and reaches the same verdict.
        assert main(
            ["chaos", "--smoke", "--workers", "2", "--checkpoint", str(ckpt)]
        ) == 0
        assert "all injected faults accounted for" in capsys.readouterr().out

    def test_chaos_kill_workers_journals_and_resumes(self, tmp_path, capsys):
        from repro.store.record_log import read_log

        ckpt = tmp_path / "kill.ckpt"
        out = tmp_path / "kill.jsonl"
        argv = ["chaos", "--smoke", "--kill-workers", "--workers", "2",
                "--checkpoint", str(ckpt), "--out", str(out)]
        assert main(argv) == 0
        assert "crash-detected" in capsys.readouterr().out
        assert ckpt.exists()
        assert main(["fsck", str(ckpt)]) == 0
        first = out.read_bytes()
        # Cut the journal back to round 0 (as a parent killed there
        # leaves it): re-running the command resumes from round 1.
        round0_end = max(
            end
            for payload, end in read_log(str(ckpt))
            if payload.get("kind") == "state" and payload["ordinal"] == 0
        )
        with open(ckpt, "r+b") as handle:
            handle.truncate(round0_end)
        out.unlink()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_run_with_checkpoint_is_reproducible(self, tmp_path):
        out = tmp_path / "mini.jsonl"
        ckpt = tmp_path / "mini.ckpt"
        argv = ["run", "--scale", "small", "--days", "1", "--out", str(out),
                "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert ckpt.exists()
        assert main(argv) == 0
        assert out.read_bytes() == first


class TestObservabilityCommands:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs")
        out = root / "mini.jsonl"
        trace = root / "mini.trace.jsonl"
        metrics = root / "mini.metrics.json"
        argv = [
            "run", "--scale", "small", "--days", "1", "--workers", "2",
            "--gateway", "--plan", "flaky-network", "--fault-seed", "7",
            "--out", str(out), "--trace", str(trace), "--metrics", str(metrics),
        ]
        assert main(argv) == 0
        return trace, metrics

    def test_trace_check_passes(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["trace", str(trace), "--check"]) == 0
        assert ": ok (" in capsys.readouterr().out

    def test_trace_check_fails_on_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.trace.jsonl"
        bogus.write_text('{"kind":"span","id":"x"}\n', encoding="utf-8")
        assert main(["trace", str(bogus), "--check"]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_trace_reports_corruption_without_traceback(
        self, traced_run, tmp_path, capsys
    ):
        from tests.test_store import _flip_payload_digit

        trace, _ = traced_run
        flipped = tmp_path / "flipped.trace.jsonl"
        flipped.write_bytes(_flip_payload_digit(trace.read_bytes(), 3))
        for extra in ([], ["--check"], ["--chrome", str(tmp_path / "c.json")]):
            assert main(["trace", str(flipped), *extra]) == 1
            err = capsys.readouterr().err
            assert "INVALID: corrupt record after record 3" in err
            assert "Traceback" not in err

    def test_telemetry_reports_corruption_without_traceback(
        self, tmp_path, capsys
    ):
        from repro.obs.events import EventLog
        from tests.test_store import _flip_payload_digit

        path = tmp_path / "flipped.events.jsonl"
        log = EventLog(str(path), log_id="deadbeef")
        for i in range(4):
            log.emit({"id": f"e{i}", "stream": "serve", "ts": float(i)})
        log.close()
        path.write_bytes(_flip_payload_digit(path.read_bytes(), 2))
        for sub in ([], ["query"], ["slo"]):
            assert main(["telemetry", str(path), *sub]) == 1
            err = capsys.readouterr().err
            assert all(line.startswith("INVALID: ") for line in err.splitlines())
            assert "corrupt record after record 2" in err

    def test_trace_profile_default(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["trace", str(trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "top spans" in out

    def test_trace_chrome_export(self, traced_run, tmp_path):
        import json

        trace, _ = traced_run
        chrome = tmp_path / "mini.chrome.json"
        assert main(["trace", str(trace), "--chrome", str(chrome)]) == 0
        doc = json.loads(chrome.read_text(encoding="utf-8"))
        assert doc["traceEvents"]

    def test_metrics_table_and_prom(self, traced_run, capsys):
        _, metrics = traced_run
        assert main(["metrics", str(metrics)]) == 0
        table = capsys.readouterr().out
        assert "crawl_pages_total" in table
        assert "gateway_requests_total" in table
        assert main(["metrics", str(metrics), "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_crawl_pages_total counter" in prom

    def test_run_trace_rejects_checkpoint(self, tmp_path, capsys):
        argv = [
            "run", "--scale", "small", "--days", "1",
            "--out", str(tmp_path / "x.jsonl"),
            "--trace", str(tmp_path / "x.trace"),
            "--checkpoint", str(tmp_path / "x.ckpt"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "run: --trace and --checkpoint cannot be combined "
            "(the checkpoint journal does not carry spans)"
        ]
        assert not any(tmp_path.iterdir())

    def test_run_incompatible_checkpoint_is_one_line(self, tmp_path, capsys):
        journal = tmp_path / "x.ckpt"
        journal.write_text("not a journal\n")
        argv = [
            "run", "--scale", "small", "--days", "1",
            "--out", str(tmp_path / "x.jsonl"),
            "--checkpoint", str(journal),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"run: checkpoint {str(journal)!r}")
        assert "Traceback" not in "\n".join(err)
        assert not (tmp_path / "x.jsonl").exists()

    def test_serve_bench_trace(self, tmp_path, capsys):
        trace = tmp_path / "serve.trace.jsonl"
        assert main(
            ["serve-bench", "--requests", "200", "--clients", "40",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(trace), "--check"]) == 0
        assert "0 round(s)" in capsys.readouterr().out

    def test_chaos_retry_histogram_renders_bars(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "retry histogram (attempts per delivered query):" in out
        assert "attempt(s):" in out
        assert "#" in out


class TestAuditServiceCLI:
    def test_terms_subcommand_explicit(self, capsys):
        assert main(["audit", "terms", "Coffee", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "Coffee" in out and "verdict" in out

    def test_run_once_smoke_writes_store_and_ledger(self, tmp_path, capsys):
        store = tmp_path / "audits"
        ledger = tmp_path / "alerts.jsonl"
        argv = [
            "audit", "run-once", "--smoke", "--cycles", "2",
            "--store", str(store), "--ledger", str(ledger),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "smoke: cycles 2/2" in out
        assert (store / "smoke.audit.jsonl").exists()
        assert ledger.exists()

    def test_run_once_is_deterministic_across_invocations(self, tmp_path, capsys):
        store_a, store_b = tmp_path / "a", tmp_path / "b"
        for store in (store_a, store_b):
            assert main(
                ["audit", "run-once", "--smoke", "--cycles", "2",
                 "--store", str(store)]
            ) == 0
        capsys.readouterr()
        assert (store_a / "smoke.audit.jsonl").read_bytes() == (
            store_b / "smoke.audit.jsonl"
        ).read_bytes()

    def test_status_subcommand(self, tmp_path, capsys):
        store = tmp_path / "audits"
        assert main(
            ["audit", "run-once", "--smoke", "--cycles", "1", "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert main(["audit", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "smoke: 1 cycle(s)" in out

    def test_status_empty_directory(self, tmp_path, capsys):
        assert main(["audit", "status", "--store", str(tmp_path)]) == 0
        assert "no audit stores" in capsys.readouterr().out

    def test_serve_check_round_trips_every_route(self, tmp_path, capsys):
        argv = [
            "audit", "serve", "--smoke", "--cycles", "1",
            "--store", str(tmp_path / "audits"), "--port", "0", "--check",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for path in ("/healthz", "/audits", "/metrics", "/audits/smoke/series"):
            assert f"GET {path} -> 200" in out
