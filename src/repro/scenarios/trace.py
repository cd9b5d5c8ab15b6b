"""The scenario trace format: schema-stamped JSONL request timelines.

A trace file is one header line plus one line per request arrival:

- **Header** — the usual :func:`repro.telemetry.schema.stamp` fields for
  the ``scenario-trace`` artifact, the scenario's identity (name, seed,
  duration, keyspace, app set, tenant mix), the generator parameters it
  was produced from, the event count, and a SHA-256 digest over the
  exact event lines.  :func:`load_trace` refuses files whose stamp,
  count or digest disagree — a committed eval trace either replays the
  bytes it was reviewed with, or not at all.
- **Events** — ``{"t": <seconds since trace start>, "app": ..., "op":
  ..., "key": <hex>, "tenant": ...}`` plus ``"value": <hex>`` on
  payload-carrying ops.  Events are sorted by ``t`` and serialized with
  sorted keys and no whitespace, so a trace's bytes are a pure function
  of its events — which is what makes "same seed → byte-identical file"
  testable.

Keys are the serve layer's fixed-width 8-byte big-endian integers (see
:mod:`repro.workloads.keydist`), hex-encoded for JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from repro.telemetry.schema import check_stamp, stamp

#: Artifact kind of a trace file's header stamp.
TRACE_ARTIFACT = "scenario-trace"

#: Event lines per ``json.loads`` call when loading a verified trace:
#: bounded, so peak memory holds one chunk's records, not the file's.
_PARSE_CHUNK = 1_024
#: Event fields holding names that repeat across a trace's events.
_NAME_FIELDS = ("app", "op", "tenant")


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped request arrival."""

    t: float
    app: str
    op: str
    key: bytes
    tenant: str = ""
    value: bytes | None = None

    def to_json(self) -> str:
        """The event's canonical serialized form (digest input).

        Exactly ``json.dumps(record, sort_keys=True, separators=(",",
        ":"))`` of the event's record, built directly: keys in sorted
        order, strings ASCII-escaped by the encoder's own escaper, ``t``
        as ``float.__repr__`` and hex for the bytes.  Anything but str
        text and a finite float ``t`` takes the encoder itself.
        """
        t, app, op, tenant = self.t, self.app, self.op, self.tenant
        if not (
            type(t) is float
            and math.isfinite(t)
            and type(app) is type(op) is type(tenant) is str
        ):
            return json.dumps(self._record(), sort_keys=True, separators=(",", ":"))
        line = (
            f'{{"app":{_quote(app)},"key":"{self.key.hex()}",'
            f'"op":{_quote(op)},"t":{float.__repr__(t)},'
            f'"tenant":{_quote(tenant)}'
        )
        if self.value is None:
            return line + "}"
        return f'{line},"value":"{self.value.hex()}"}}'

    def _record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "t": self.t,
            "app": self.app,
            "op": self.op,
            "key": self.key.hex(),
            "tenant": self.tenant,
        }
        if self.value is not None:
            record["value"] = self.value.hex()
        return record

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Parse one serialized event line."""
        return cls.from_record(json.loads(line))

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "TraceEvent":
        """Build the event a parsed line's record describes."""
        value = record.get("value")
        return cls(
            float(record["t"]),
            record["app"],
            record["op"],
            bytes.fromhex(record["key"]),
            record.get("tenant", ""),
            bytes.fromhex(value) if value is not None else None,
        )


@dataclass(frozen=True)
class ScenarioTrace:
    """A named, replayable request timeline."""

    name: str
    seed: int
    duration_s: float
    keyspace: int
    apps: tuple[str, ...]
    tenants: dict[str, float] | None = None
    generator: dict[str, Any] = field(default_factory=dict)
    events: tuple[TraceEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.apps:
            raise ValueError("a trace must declare at least one app")
        out_of_range = [e for e in self.events if not 0 <= e.t < self.duration_s]
        if out_of_range:
            raise ValueError(
                f"{len(out_of_range)} events fall outside [0, {self.duration_s}s)"
            )
        unknown = sorted({e.app for e in self.events} - set(self.apps))
        if unknown:
            raise ValueError(f"events address undeclared apps {unknown}")

    @cached_property
    def digest(self) -> str:
        """SHA-256 over the serialized event lines (the header's hash).

        Cached: the trace is frozen, and serialising every event is the
        cost of a read (replays read it once per run).
        """
        return trace_digest(self.events)

    def header(self) -> dict[str, Any]:
        """The trace file's first line, as a dict."""
        return {
            **stamp(TRACE_ARTIFACT),
            "name": self.name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "keyspace": self.keyspace,
            "apps": list(self.apps),
            "tenants": dict(self.tenants) if self.tenants else None,
            "generator": dict(self.generator),
            "events": len(self.events),
            "sha256": self.digest,
        }


def trace_digest(events: tuple[TraceEvent, ...]) -> str:
    """SHA-256 over the newline-joined canonical event lines."""
    return _body_digest("\n".join([event.to_json() for event in events]))


def _body_digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_trace(trace: ScenarioTrace, path: str) -> str:
    """Write ``trace`` as schema-stamped JSONL; returns the path.

    The byte layout is canonical (sorted keys, compact separators, one
    trailing newline), so writing the same trace twice produces the same
    file — the determinism tests hash the bytes.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    # Serialise each event once: the header's digest hashes the very
    # body written below (and fills the trace's digest cache).
    body = "\n".join([event.to_json() for event in trace.events])
    vars(trace).setdefault("digest", _body_digest(body))
    header = json.dumps(trace.header(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("\n")
        if trace.events:
            fh.write(body)
            fh.write("\n")
    return path


def load_trace(path: str) -> ScenarioTrace:
    """Load and verify one trace file.

    Verification takes two steps.  First, the header's SHA-256 is
    checked against the event lines exactly as read — the bytes
    :func:`write_trace` hashed — which costs one hash and no
    serialisation, and lets the events be parsed in bounded chunks.
    Only when that fails are the events parsed line by line and the
    digest recomputed over their canonical serialisation, so a file
    rewritten as equivalent but non-canonical JSON (spacing, key order,
    hex case) still loads, and a modified one is still refused.  (A
    header whose digest was recomputed over non-canonical lines passes
    the first step, as the format defines the digest over the lines.)

    Raises :class:`repro.telemetry.schema.SchemaMismatch` on a bad or
    missing stamp, and :class:`ValueError` when the event count or
    digest disagree with the header (a corrupted or hand-edited trace).
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: unparsable trace header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: trace header is not an object")
    check_stamp(header, TRACE_ARTIFACT, source=path)
    body = lines[1:]
    digest = _body_digest("\n".join(body))
    verbatim = header.get("sha256") == digest
    try:
        if verbatim:
            events = _parse_events(body)
        else:
            events = tuple(TraceEvent.from_json(line) for line in body)
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: unparsable trace event: {exc}") from exc
    declared = header.get("events")
    if declared != len(events):
        raise ValueError(
            f"{path}: header declares {declared} events, file has {len(events)}"
        )
    if not verbatim:
        digest = trace_digest(events)
        if header.get("sha256") != digest:
            raise ValueError(
                f"{path}: event digest {digest[:12]}… does not match the header "
                f"({str(header.get('sha256'))[:12]}…) — the trace was modified"
            )
    tenants = header.get("tenants")
    trace = ScenarioTrace(
        name=header["name"],
        seed=int(header["seed"]),
        duration_s=float(header["duration_s"]),
        keyspace=int(header["keyspace"]),
        apps=tuple(header["apps"]),
        tenants=dict(tenants) if tenants else None,
        generator=dict(header.get("generator") or {}),
        events=events,
    )
    vars(trace)["digest"] = digest  # just verified: fill the cache
    return trace


def _parse_events(lines: list[str]) -> tuple[TraceEvent, ...]:
    """Parse event lines ``_PARSE_CHUNK`` at a time.

    A chunk that fails to parse as a whole, or parses to a different
    number of records than it has lines, is parsed again line by line,
    which raises the first bad line's own error, in line order.

    The events share one str per distinct app, op and tenant name, as
    generated events do: a fresh copy of each per event would be about
    two fifths of a loaded trace's memory.
    """
    names: dict[str, str] = {}
    share = names.setdefault
    events: list[TraceEvent] = []
    for start in range(0, len(lines), _PARSE_CHUNK):
        chunk = lines[start : start + _PARSE_CHUNK]
        try:
            records = json.loads("[" + ",".join(chunk) + "]")
        except ValueError:
            records = ()
        if len(records) != len(chunk):
            records = map(json.loads, chunk)
        for record in records:
            if type(record) is dict:
                for name in _NAME_FIELDS:
                    text = record.get(name)
                    if type(text) is str:
                        record[name] = share(text, text)
            events.append(TraceEvent.from_record(record))
    return tuple(events)
