"""The JSON-lines event logger: leveling, bounding, null default.

Unit cases pin the record schema and the bounded-field guarantees; the
end-to-end case streams a world with a logger attached and checks the
pipeline's own events land (the event catalogue lives in
``docs/observability.md``).
"""

import json

import pytest

from repro.chain.index import ChainIndex
from repro.obs import NULL_LOGGER, EventLogger, JsonLinesLogger
from repro.service import ForensicsService
from repro.simulation import scenarios


def _records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestJsonLinesLogger:
    def test_record_schema(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesLogger(path, clock=lambda: 123.5) as log:
            log.info("snapshot_written", height=7, seconds=0.25)
        (record,) = _records(path)
        assert record == {
            "ts": 123.5,
            "level": "info",
            "event": "snapshot_written",
            "height": 7,
            "seconds": 0.25,
        }

    def test_min_level_filters_before_serialization(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesLogger(path, min_level="warning") as log:
            log.debug("block_ingested", height=0)
            log.info("snapshot_written", height=1)
            log.error("audit_violation", check="partition")
        events = [record["event"] for record in _records(path)]
        assert events == ["audit_violation"]

    def test_unknown_level_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonLinesLogger(tmp_path / "x.jsonl", min_level="loud")

    def test_field_count_bounded_with_marker(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesLogger(path, max_fields=2) as log:
            log.info("wide", a=1, b=2, c=3, d=4)
        (record,) = _records(path)
        assert record["truncated_fields"] == 2
        kept = set(record) - {"ts", "level", "event", "truncated_fields"}
        assert len(kept) == 2

    def test_long_values_truncated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesLogger(path, max_chars=8) as log:
            log.info("clipped", detail="x" * 100)
        (record,) = _records(path)
        assert record["detail"] == "x" * 8 + "…"

    def test_non_json_values_rendered_via_repr(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesLogger(path) as log:
            log.info("odd", value={1, 2}, flag=True, none=None)
        (record,) = _records(path)
        assert isinstance(record["value"], str)
        assert record["flag"] is True
        assert record["none"] is None

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesLogger(path) as log:
            log.info("first")
        with JsonLinesLogger(path) as log:
            log.info("second")
        assert [r["event"] for r in _records(path)] == ["first", "second"]


class TestNullLogger:
    def test_disabled_and_inert(self):
        assert NULL_LOGGER.enabled is False
        assert isinstance(NULL_LOGGER, EventLogger)
        NULL_LOGGER.debug("x", a=1)
        NULL_LOGGER.error("y")
        NULL_LOGGER.close()

    def test_default_service_logger_is_null(self):
        world = scenarios.micro_economy(seed=3, n_blocks=6)
        service = ForensicsService.from_world(world)
        assert service.log is NULL_LOGGER


class TestPipelineEvents:
    def test_ingest_emits_block_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        world = scenarios.micro_economy(seed=3, n_blocks=8)
        index = ChainIndex()
        with JsonLinesLogger(path, min_level="debug") as log:
            ForensicsService(index, tags=None, log=log)
            for block in world.blocks:
                index.add_block(block)
        records = _records(path)
        ingested = [
            r for r in records if r["event"] == "block_ingested"
        ]
        assert [r["height"] for r in ingested] == list(
            range(len(world.blocks))
        )
        assert all(r["level"] == "debug" for r in ingested)

    def test_subscriber_failure_logged(self, tmp_path):
        path = tmp_path / "events.jsonl"
        world = scenarios.micro_economy(seed=3, n_blocks=4)
        index = ChainIndex()
        with JsonLinesLogger(path, min_level="debug") as log:
            ForensicsService(index, tags=None, log=log)

            def explode(delta):
                raise RuntimeError("boom")

            index.subscribe_deltas(explode, name="bad-observer")
            with pytest.raises(RuntimeError):
                index.add_block(world.blocks[0])
        errors = [
            r
            for r in _records(path)
            if r["event"] == "subscriber_error"
        ]
        assert errors
        assert errors[0]["level"] == "error"
        assert errors[0]["subscriber"] == "bad-observer"
        assert "boom" in errors[0]["error"]
