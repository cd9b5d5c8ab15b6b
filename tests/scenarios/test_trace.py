"""Tests for the scenario trace format: round-trip and tamper evidence."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.scenarios.trace import (
    TRACE_ARTIFACT,
    ScenarioTrace,
    TraceEvent,
    load_trace,
    trace_digest,
    write_trace,
)
from repro.telemetry.schema import SchemaMismatch


def _tiny_trace(**overrides):
    events = (
        TraceEvent(t=0.001, app="kv", op="set", key=b"\x00" * 8, value=b"v" * 8),
        TraceEvent(t=0.002, app="kv", op="get", key=b"\x00" * 8, tenant="gold"),
        TraceEvent(t=0.003, app="session", op="delete", key=b"\x01" * 8),
    )
    fields = dict(
        name="tiny",
        seed=7,
        duration_s=0.01,
        keyspace=4,
        apps=("kv", "session"),
        tenants={"gold": 1.0},
        generator={"rate_rps": 300.0},
        events=events,
    )
    fields.update(overrides)
    return ScenarioTrace(**fields)


class TestEventSerialization:
    def test_round_trip_preserves_every_field(self):
        event = TraceEvent(
            t=0.0125, app="crypto", op="set", key=b"\x02" * 8,
            tenant="silver", value=b"\xff" * 4,
        )
        assert TraceEvent.from_json(event.to_json()) == event

    def test_valueless_event_omits_the_value_field(self):
        event = TraceEvent(t=0.1, app="kv", op="get", key=b"k" * 8)
        assert "value" not in json.loads(event.to_json())
        assert TraceEvent.from_json(event.to_json()).value is None

    def test_serialization_is_canonical(self):
        # Sorted keys, compact separators: the digest depends on it.
        line = _tiny_trace().events[0].to_json()
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


def _reference_line(event):
    """The canonical line as first defined: ``json.dumps`` of the record."""
    record = {
        "t": event.t,
        "app": event.app,
        "op": event.op,
        "key": event.key.hex(),
        "tenant": event.tenant,
    }
    if event.value is not None:
        record["value"] = event.value.hex()
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


#: Characters whose JSON escaping differs from the plain ASCII path.
_AWKWARD = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\u2029\ufeff\U0001f600'
_names = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(_AWKWARD + "az09 -_"), max_size=12),
)
_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=1e15, max_value=1e20),
    st.sampled_from(
        [0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e-5, 1e16, 9.999999999999998e15]
    ),
)


class TestCanonicalLine:
    @given(
        t=_times,
        app=_names,
        op=_names,
        tenant=_names,
        key=st.binary(max_size=16),
        value=st.none() | st.binary(max_size=64),
    )
    @example(t=1e-7, app="\u2028", op='"', tenant="\\", key=b"", value=None)
    @example(t=1e16, app="\x00\x1f", op="\U0001f600", tenant="é", key=b"\xff", value=b"")
    @example(t=5e-324, app="kv", op="set", tenant="", key=bytes(8), value=bytes(64))
    def test_line_is_the_reference_json_and_round_trips(
        self, t, app, op, tenant, key, value
    ):
        event = TraceEvent(t=t, app=app, op=op, key=key, tenant=tenant, value=value)
        line = event.to_json()
        assert line == _reference_line(event)
        assert TraceEvent.from_json(line) == event

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 3, True])
    def test_non_finite_or_non_float_times_take_the_encoder(self, t):
        event = TraceEvent(t=t, app="kv", op="get", key=b"k" * 8)
        assert event.to_json() == _reference_line(event)

    def test_non_str_names_take_the_encoder(self):
        event = TraceEvent(t=0.5, app="kv", op="get", key=b"k", tenant=None)
        assert event.to_json() == _reference_line(event)


class TestTraceValidation:
    def test_events_past_the_duration_rejected(self):
        late = TraceEvent(t=0.02, app="kv", op="get", key=b"k" * 8)
        with pytest.raises(ValueError, match="outside"):
            _tiny_trace(events=(late,))

    def test_undeclared_app_rejected(self):
        stray = TraceEvent(t=0.001, app="crypto", op="get", key=b"k" * 8)
        with pytest.raises(ValueError, match="undeclared"):
            _tiny_trace(events=(stray,))

    def test_empty_app_set_rejected(self):
        with pytest.raises(ValueError, match="at least one app"):
            _tiny_trace(apps=(), events=())


class TestFileRoundTrip:
    def test_write_then_load_preserves_everything(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        loaded = load_trace(path)
        assert loaded == trace
        assert loaded.digest == trace.digest

    def test_header_carries_the_stamp_and_digest(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        header = json.loads(open(path, encoding="utf-8").readline())
        assert header["artifact"] == TRACE_ARTIFACT
        assert header["sha256"] == trace_digest(trace.events)
        assert header["events"] == len(trace.events)

    def test_same_trace_writes_byte_identical_files(self, tmp_path):
        a = write_trace(_tiny_trace(), str(tmp_path / "a.jsonl"))
        b = write_trace(_tiny_trace(), str(tmp_path / "b.jsonl"))
        assert open(a, "rb").read() == open(b, "rb").read()


def _count_serialisations(monkeypatch):
    calls = []
    original = TraceEvent.to_json

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TraceEvent, "to_json", counting)
    return calls


class TestDigestCache:
    def test_digest_serialises_the_events_once(self, monkeypatch):
        trace = _tiny_trace()
        calls = _count_serialisations(monkeypatch)
        first = trace.digest
        assert trace.digest == first
        assert len(calls) == len(trace.events)
        assert first == trace_digest(trace.events)

    def test_write_serialises_each_event_once(self, tmp_path, monkeypatch):
        trace = _tiny_trace()
        calls = _count_serialisations(monkeypatch)
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        assert len(calls) == len(trace.events)
        header = json.loads(open(path, encoding="utf-8").readline())
        assert header["sha256"] == trace.digest
        assert len(calls) == len(trace.events)

    def test_loading_a_canonical_file_serialises_nothing(self, tmp_path, monkeypatch):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        calls = _count_serialisations(monkeypatch)
        loaded = load_trace(path)
        assert calls == []
        assert vars(loaded)["digest"] == trace.digest
        assert loaded == trace

    def test_loaded_trace_reuses_the_verified_digest(self, tmp_path, monkeypatch):
        path = write_trace(_tiny_trace(), str(tmp_path / "t.jsonl"))
        loaded = load_trace(path)
        calls = _count_serialisations(monkeypatch)
        assert loaded.digest == _tiny_trace().digest
        # Only the fresh trace on the right-hand side serialised.
        assert len(calls) == len(loaded.events)


class TestTamperEvidence:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace(str(path))

    def test_missing_stamp_rejected(self, tmp_path):
        path = tmp_path / "unstamped.jsonl"
        path.write_text('{"name": "x"}\n')
        with pytest.raises(SchemaMismatch):
            load_trace(str(path))

    def test_unparsable_header_rejected(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError, match="unparsable trace header"):
            load_trace(str(path))

    def test_dropped_event_caught_by_the_count(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        lines = open(path, encoding="utf-8").read().splitlines()
        open(path, "w", encoding="utf-8").write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="declares"):
            load_trace(str(path))

    def test_edited_event_caught_by_the_digest(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        lines = open(path, encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        record["op"] = "delete"
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="modified"):
            load_trace(str(path))

    def test_corrupt_event_line_rejected(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        with pytest.raises(ValueError, match="unparsable trace event"):
            load_trace(str(path))


def _rewrite_events(path, rewrite):
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[1:] = [rewrite(line) for line in lines[1:]]
    open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
    return lines


def _rehash_header(path):
    """Make the header's digest match the event lines as they now stand."""
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    body = "\n".join(lines[1:])
    header["sha256"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    lines[0] = json.dumps(header)
    open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")


def _many_events(n, seed=5):
    rng = random.Random(seed)
    return tuple(
        TraceEvent(
            t=(i + rng.random()) / (n + 1),
            app=rng.choice(("kv", "session")),
            op=rng.choice(("get", "set", "delete")),
            key=rng.randrange(256).to_bytes(8, "big"),
            tenant=rng.choice(("", "gold")),
            value=i.to_bytes(8, "big") if i % 3 == 0 else None,
        )
        for i in range(n)
    )


class TestLoaderPaths:
    def test_non_canonical_equivalent_file_still_loads(self, tmp_path, monkeypatch):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        rng = random.Random(3)

        def loosen(line):
            items = list(json.loads(line).items())
            rng.shuffle(items)
            record = {
                k: v.upper() if k in ("key", "value") else v for k, v in items
            }
            return json.dumps(record, separators=(", ", " : "))

        lines = _rewrite_events(path, loosen)
        assert lines[1] != trace.events[0].to_json()
        calls = _count_serialisations(monkeypatch)
        loaded = load_trace(path)
        # The raw lines no longer hash to the header: the digest was
        # recomputed over the canonical serialisation of every event.
        assert len(calls) == len(trace.events)
        assert loaded == trace
        assert loaded.digest == trace.digest

    def test_events_spanning_several_chunks_round_trip(self, tmp_path):
        trace = _tiny_trace(events=_many_events(2_600), duration_s=1.0)
        loaded = load_trace(write_trace(trace, str(tmp_path / "t.jsonl")))
        assert loaded == trace
        assert loaded.digest == trace_digest(trace.events)

    def test_loaded_events_share_their_name_strings(self, tmp_path):
        trace = _tiny_trace(events=_many_events(50), duration_s=1.0)
        loaded = load_trace(write_trace(trace, str(tmp_path / "t.jsonl")))
        gets = [e.op for e in loaded.events if e.op == "get"]
        assert len(gets) > 1 and all(op is gets[0] for op in gets)

    @pytest.mark.parametrize("rehash", [False, True], ids=["header", "raw-lines"])
    def test_malformed_line_mid_chunk_is_unparsable(self, tmp_path, rehash):
        trace = _tiny_trace(events=_many_events(40), duration_s=1.0)
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[20] = lines[20][:-1]  # drop the closing brace
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        if rehash:
            _rehash_header(path)
        with pytest.raises(ValueError, match="unparsable trace event"):
            load_trace(path)

    def test_two_records_on_one_line_are_unparsable(self, tmp_path):
        # Joined into a chunk, the line would parse as two array items.
        trace = _tiny_trace(events=_many_events(40), duration_s=1.0)
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[10:12] = [lines[10] + "," + lines[11]]
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        _rehash_header(path)
        with pytest.raises(ValueError, match="unparsable trace event.*Extra data"):
            load_trace(path)

    def test_first_bad_line_in_order_names_the_error(self, tmp_path):
        trace = _tiny_trace(events=_many_events(40), duration_s=1.0)
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[5] = lines[5].replace('"key":', '"kee":')
        lines[30] = "{broken"
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        _rehash_header(path)
        with pytest.raises(ValueError, match="unparsable trace event: 'key'"):
            load_trace(path)
