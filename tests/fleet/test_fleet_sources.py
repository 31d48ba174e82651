"""Event sources: the JSONL codec and file replay.

The ``repro-fleet-events/1`` codec must round-trip a computation exactly —
replaying a recorded log has to feed monitors the byte-identical stream the
synthetic source generated — and a malformed or truncated log must raise
instead of monitoring garbage.
"""

import asyncio
import json

import pytest

from repro.fleet import (
    FleetConfig,
    ReplaySource,
    SyntheticSource,
    TenantSpec,
    run_fleet,
)
from repro.fleet.sources import (
    EVENT_LOG_SCHEMA,
    SOURCE_KINDS,
    EventSource,
    computation_to_records,
    dump_event_log,
    load_event_log,
    records_to_computation,
)


def _synthetic_computation(seed=2015):
    return asyncio.run(
        SyntheticSource().load(
            num_processes=3, events_per_process=4, property_name="B", seed=seed
        )
    )


def _load(source):
    return asyncio.run(
        source.load(num_processes=3, events_per_process=4, property_name="B", seed=1)
    )


class TestEventLogCodec:
    def test_records_round_trip(self):
        computation = _synthetic_computation()
        rebuilt = records_to_computation(computation_to_records(computation))
        assert rebuilt == computation

    def test_header_leads_and_carries_the_schema(self):
        records = computation_to_records(_synthetic_computation())
        assert records[0]["record"] == "header"
        assert records[0]["schema"] == EVENT_LOG_SCHEMA
        assert all(record["record"] == "event" for record in records[1:])

    def test_file_round_trip(self, tmp_path):
        computation = _synthetic_computation()
        path = tmp_path / "events.jsonl"
        dump_event_log(computation, path)
        assert load_event_log(path) == computation

    def test_log_lines_are_plain_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        dump_event_log(_synthetic_computation(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["schema"] == EVENT_LOG_SCHEMA

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty event log"):
            records_to_computation([])

    def test_missing_header_rejected(self):
        records = computation_to_records(_synthetic_computation())
        with pytest.raises(ValueError, match="header record"):
            records_to_computation(records[1:])

    def test_unexpected_record_type_rejected(self):
        records = computation_to_records(_synthetic_computation())
        records.append({"record": "trailer"})
        with pytest.raises(ValueError, match="unexpected record type 'trailer'"):
            records_to_computation(records)

    def test_truncated_stream_rejected(self):
        # dropping a mid-stream event breaks contiguous sequence numbering,
        # which Computation.__post_init__ re-validates on rebuild
        records = computation_to_records(_synthetic_computation())
        events = [r for r in records if r["record"] == "event"]
        victim = next(r for r in events if r["sn"] == 1)
        records.remove(victim)
        with pytest.raises(ValueError):
            records_to_computation(records)

    @pytest.mark.parametrize("width", [2, 4], ids=["narrow", "wide"])
    def test_an_event_clock_of_another_width_is_refused(self, width, tmp_path):
        # Event.__post_init__ only checks vc[process] == sn: before
        # Computation checked the width, such a log loaded and the run could
        # die mid-session with an IndexError inside the monitors
        records = computation_to_records(_synthetic_computation())
        victim = next(r for r in records[1:] if r["process"] == 1 and r["sn"] == 2)
        victim["vc"] = (victim["vc"] + [0])[:width]
        message = f"event 2 of process 1 has a clock {width} wide in a computation of 3"
        with pytest.raises(ValueError, match=message):
            records_to_computation(records)
        path = tmp_path / "events.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_event_log(path)


class TestReplaySource:
    def test_replays_the_recorded_stream(self, tmp_path):
        computation = _synthetic_computation()
        path = tmp_path / "events.jsonl"
        dump_event_log(computation, path)
        assert _load(ReplaySource(str(path))) == computation

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            _load(ReplaySource(str(tmp_path / "no-such.jsonl")))

    def test_replay_tenant_equals_synthetic_tenant(self, tmp_path):
        # a tenant fed from a recorded log reaches the same verdicts as the
        # synthetic tenant whose stream was recorded
        computation = _synthetic_computation(seed=2077)
        path = tmp_path / "events.jsonl"
        dump_event_log(computation, path)
        synthetic = TenantSpec(tenant_id="t", seed=2077)
        replayed = TenantSpec(
            tenant_id="t", seed=2077, source=ReplaySource(str(path))
        )
        results = {}
        for label, spec in (("synthetic", synthetic), ("replay", replayed)):
            report = run_fleet(FleetConfig(tenants=(spec,)))
            assert report.tenants_evicted == 0
            results[label] = report.results[0].equivalence_key()
        assert results["synthetic"] == results["replay"]


class TestSourceRegistry:
    def test_catalogue_lists_every_source(self):
        assert set(SOURCE_KINDS) == {"synthetic", "replay"}

    @pytest.mark.parametrize(
        "source",
        [
            SyntheticSource(),
            ReplaySource("events.jsonl"),
        ],
        ids=["synthetic", "replay"],
    )
    def test_sources_satisfy_the_protocol(self, source):
        assert isinstance(source, EventSource)
        assert type(source) in SOURCE_KINDS.values()
