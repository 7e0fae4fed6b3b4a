"""The one crawl loop and its one round release (``RunOutputs``).

Every run crawls through ``Study.run_shard`` and hands each finished
round to a ``RunOutputs``.  These tests pin what that shape promises
beyond byte identity (which the parity, resume and telemetry suites
cover): the in-process run snapshots state only when a journal needs
it, and a refused resume touches no output file.
"""

import pytest

from repro.core.experiment import StudyConfig
from repro.core.runner import RunOutputs, Study
from repro.faults.checkpoint import CheckpointError
from repro.queries.corpus import build_corpus


def _config(**overrides):
    corpus = build_corpus()
    queries = [corpus.get("Starbucks"), corpus.get("School")]
    config = StudyConfig.small(queries, days=2, locations_per_granularity=2)
    return config.with_overrides(machine_count=5, **overrides)


def _count_snapshots(study):
    calls = []
    original = study.capture_state

    def spy(now_minutes):
        calls.append(now_minutes)
        return original(now_minutes)

    study.capture_state = spy
    return calls


class TestSnapshotContract:
    def test_plain_run_never_snapshots(self):
        study = Study(_config())
        calls = _count_snapshots(study)
        study.run()
        assert calls == []

    def test_journalled_run_snapshots_once_per_round(self, tmp_path):
        study = Study(_config())
        calls = _count_snapshots(study)
        study.run(checkpoint=str(tmp_path / "c.ckpt"))
        assert len(calls) == study.round_count()
        assert calls == [scheduled.timestamp for scheduled in study.iter_rounds()]

    def test_journalled_run_matches_plain_run(self, tmp_path):
        plain = Study(_config()).run()
        journalled = Study(_config()).run(checkpoint=str(tmp_path / "c.ckpt"))
        assert [r.to_dict() for r in journalled] == [r.to_dict() for r in plain]


class TestRefusals:
    def test_refused_resume_leaves_event_log_untouched(self, tmp_path):
        checkpoint = str(tmp_path / "c.ckpt")
        events = tmp_path / "e.jsonl"
        Study(_config()).run(checkpoint=checkpoint, events=str(events))
        before = events.read_bytes()
        with pytest.raises(CheckpointError, match="1-worker run"):
            Study(_config()).run(workers=2, checkpoint=checkpoint, events=str(events))
        assert events.read_bytes() == before

    def test_foreign_journal_leaves_event_log_untouched(self, tmp_path):
        checkpoint = str(tmp_path / "c.ckpt")
        events = tmp_path / "e.jsonl"
        Study(_config()).run(checkpoint=checkpoint, events=str(events))
        before = events.read_bytes()
        with pytest.raises(CheckpointError, match="different study"):
            Study(_config(seed=7)).run(checkpoint=checkpoint, events=str(events))
        assert events.read_bytes() == before

    def test_trace_with_checkpoint_refused_before_any_file(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint"):
            RunOutputs(
                Study(_config()),
                workers=1,
                checkpoint=str(tmp_path / "c.ckpt"),
                trace=str(tmp_path / "t.trace"),
                events=str(tmp_path / "e.jsonl"),
            )
        assert not any(tmp_path.iterdir())
