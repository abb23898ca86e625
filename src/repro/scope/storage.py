"""Persistent storage for scan results (paper §IV-B).

The paper's H2Scope stores every request/response "into a database for
further study"; this module provides that layer: a SQLite-backed store
for :class:`~repro.scope.report.SiteReport` objects with enough
structure to re-run the Section-V analyses offline.

Reports serialize to a JSON document plus indexed columns for the
fields every analysis groups by (server family, h2 support, HEADERS
receipt).  A document leaves out each probe result the scan did not
fill in: a result equal to its empty default is not stored, and loading
fills every absent field with that default, so a short-probe campaign
does not store the empty flow-control, priority, push and HPACK objects
of every site.  The store is append-friendly: scanning campaigns at
different times into one database reproduces the paper's two-experiment
longitudinal design.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from functools import cache
from pathlib import Path

from repro.scope.report import (
    ErrorClass,
    ErrorReaction,
    FlowControlResult,
    HpackResult,
    NegotiationResult,
    PingResult,
    PriorityResult,
    PushResult,
    ScanError,
    SettingsResult,
    SiteReport,
    TinyWindowResult,
)
from repro.scope.trace import (
    decode_timeline,
    decode_trace,
    encode_timeline,
    encode_trace,
)

#: The on-disk schema version, the only one this tool opens.  Version 1
#: was the unstamped reports-only layout; 2 added the campaign journal
#: tables, 3 per-probe frame traces, 4 the ``label`` column on traces
#: (attack corpora).  A database stamped with any other version, or not
#: stamped at all, is refused: a newer one has invariants this tool does
#: not know, and no program writes an older one.
SCHEMA_VERSION = 4

_SCHEMA = """
CREATE TABLE IF NOT EXISTS reports (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign TEXT NOT NULL,
    domain TEXT NOT NULL,
    server_header TEXT,
    speaks_h2 INTEGER NOT NULL,
    headers_received INTEGER NOT NULL,
    hpack_ratio REAL,
    document TEXT NOT NULL,
    UNIQUE (campaign, domain)
);
CREATE INDEX IF NOT EXISTS idx_reports_campaign ON reports (campaign);
CREATE INDEX IF NOT EXISTS idx_reports_server ON reports (server_header);
CREATE TABLE IF NOT EXISTS schema_version (
    version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign TEXT PRIMARY KEY,
    manifest TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_sites (
    campaign TEXT NOT NULL,
    site_index INTEGER NOT NULL,
    domain TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    virtual_time REAL NOT NULL DEFAULT 0.0,
    last_error TEXT,
    PRIMARY KEY (campaign, site_index)
);
CREATE INDEX IF NOT EXISTS idx_campaign_sites_status
    ON campaign_sites (campaign, status);
CREATE TABLE IF NOT EXISTS traces (
    campaign TEXT NOT NULL,
    domain TEXT NOT NULL,
    probe TEXT NOT NULL,
    document TEXT NOT NULL,
    label TEXT,
    PRIMARY KEY (campaign, domain, probe)
);
CREATE INDEX IF NOT EXISTS idx_traces_label ON traces (campaign, label);
"""


class SchemaVersionError(RuntimeError):
    """The database was written by another schema version, or by none."""


@cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """A dataclass type's field names (None for any other type)."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _encode(value):
    """JSON-encode dataclasses/enums/bytes recursively."""
    cls = type(value)
    if cls is str or cls is int or cls is float or cls is bool or value is None:
        return value
    names = _field_names(cls)
    if names is not None:
        return {name: _encode(getattr(value, name)) for name in names}
    if isinstance(value, (ErrorClass, ErrorReaction, TinyWindowResult)):
        return {"__enum__": type(value).__name__, "value": value.name}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


_ENUMS = {
    "ErrorClass": ErrorClass,
    "ErrorReaction": ErrorReaction,
    "TinyWindowResult": TinyWindowResult,
}


def _decode(value):
    if isinstance(value, dict):
        if "__enum__" in value:
            return _ENUMS[value["__enum__"]][value["value"]]
        if "__bytes__" in value:
            return bytes.fromhex(value["__bytes__"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _rebuild(cls, data: dict):
    """Reconstruct a (possibly nested) report dataclass."""
    kwargs = {}
    for field in fields(cls):
        if field.name not in data:
            continue
        raw = _decode(data[field.name])
        nested = _NESTED.get((cls, field.name))
        if nested is not None and raw is not None:
            raw = _rebuild(nested, data[field.name])
        nested_list = _NESTED_LISTS.get((cls, field.name))
        if nested_list is not None and raw is not None:
            raw = [_rebuild(nested_list, item) for item in data[field.name]]
        kwargs[field.name] = raw
    instance = cls(**kwargs)
    if isinstance(instance, SettingsResult):
        # JSON stringifies integer keys; restore the wire identifiers.
        instance.announced = {int(k): v for k, v in instance.announced.items()}
    return instance


_NESTED = {
    (SiteReport, "negotiation"): NegotiationResult,
    (SiteReport, "settings"): SettingsResult,
    (SiteReport, "flow_control"): FlowControlResult,
    (SiteReport, "priority"): PriorityResult,
    (SiteReport, "push"): PushResult,
    (SiteReport, "hpack"): HpackResult,
    (SiteReport, "ping"): PingResult,
}

_NESTED_LISTS = {
    (SiteReport, "errors"): ScanError,
}

#: Each probe result's encoding when no probe filled it in.
_EMPTY = {name: _encode(cls()) for (_, name), cls in _NESTED.items()}


def _document(report: SiteReport) -> dict:
    """``_encode(report)`` without the probe results equal to their empty
    default; ``_rebuild`` restores them."""
    document = _encode(report)
    for name, empty in _EMPTY.items():
        if document[name] == empty:
            del document[name]
    return document


class ReportStore:
    """A SQLite database of scan reports, grouped into campaigns.

    Hardened for multi-day campaigns: WAL journaling (readers never
    block the writer), a busy timeout instead of immediate
    ``database is locked`` failures, a schema-version stamp that refuses
    any other version, and single-transaction batch writes so a crash
    can never leave a half-flushed checkpoint behind.
    """

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        self._db = sqlite3.connect(self.path)
        self._db.execute("PRAGMA busy_timeout = 5000")
        # WAL needs a real file; on :memory: the pragma is a no-op.
        self._db.execute("PRAGMA journal_mode = WAL")
        self._init_schema()

    def _init_schema(self) -> None:
        tables = {
            row[0]
            for row in self._db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "schema_version" in tables:
            row = self._db.execute(
                "SELECT MAX(version) FROM schema_version"
            ).fetchone()
            version = row[0] if row[0] is not None else SCHEMA_VERSION
        elif "reports" in tables:
            version = 1  # the unstamped layout
        else:
            version = SCHEMA_VERSION  # fresh file
        if version != SCHEMA_VERSION:
            age = "newer" if version > SCHEMA_VERSION else "older"
            raise SchemaVersionError(
                f"{self.path}: schema version {version} is {age} than this "
                f"tool supports ({SCHEMA_VERSION}); refusing to open"
            )
        self._db.executescript(_SCHEMA)
        with self._db:
            self._db.execute("DELETE FROM schema_version")
            self._db.execute(
                "INSERT INTO schema_version (version) VALUES (?)",
                (SCHEMA_VERSION,),
            )

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (for the campaign journal)."""
        return self._db

    @contextmanager
    def transaction(self):
        """One atomic unit of work: commit on exit, roll back on error."""
        with self._db:
            yield self._db

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ReportStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing ----------------------------------------------------------

    def stage(self, campaign: str, report: SiteReport) -> None:
        """Insert or replace one report WITHOUT committing.

        The caller owns the transaction; the campaign journal uses this
        to write a checkpoint's reports and status rows atomically.
        """
        document = json.dumps(_document(report))
        self._db.execute(
            "INSERT OR REPLACE INTO reports "
            "(campaign, domain, server_header, speaks_h2, headers_received, "
            " hpack_ratio, document) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                campaign,
                report.domain,
                report.negotiation.server_header,
                int(report.speaks_h2),
                int(report.negotiation.headers_received),
                report.hpack.ratio,
                document,
            ),
        )

    def save(self, campaign: str, report: SiteReport) -> None:
        """Insert or replace one report."""
        with self._db:
            self.stage(campaign, report)

    # -- traces -----------------------------------------------------------

    def stage_trace(
        self,
        campaign: str,
        domain: str,
        probe: str,
        timed_frames,
    ) -> None:
        """Insert or replace one probe's frame timeline WITHOUT committing."""
        document = json.dumps(encode_trace(timed_frames))
        self._db.execute(
            "INSERT OR REPLACE INTO traces "
            "(campaign, domain, probe, document) VALUES (?, ?, ?, ?)",
            (campaign, domain, probe, document),
        )

    def save_traces(
        self, campaign: str, domain: str, traces: dict[str, list]
    ) -> None:
        """Write every probe's timeline for one site in ONE transaction.

        ``traces`` is :attr:`~repro.scope.trace.TraceRecorder.traces`
        (probe name -> list of traced frames); empty timelines are
        stored too, so "probe ran, nothing arrived" stays auditable.
        """
        with self._db:
            for probe, timeline in traces.items():
                self.stage_trace(campaign, domain, probe, timeline)

    def load_trace(self, campaign: str, domain: str, probe: str):
        """One probe's stored timeline as TracedFrame objects, or None."""
        row = self._db.execute(
            "SELECT document FROM traces "
            "WHERE campaign = ? AND domain = ? AND probe = ?",
            (campaign, domain, probe),
        ).fetchone()
        if row is None:
            return None
        return decode_trace(json.loads(row[0]))

    def trace_probes(self, campaign: str, domain: str) -> list[str]:
        """Names of probes with stored traces for one site."""
        rows = self._db.execute(
            "SELECT probe FROM traces WHERE campaign = ? AND domain = ? "
            "ORDER BY probe",
            (campaign, domain),
        ).fetchall()
        return [row[0] for row in rows]

    # -- connection timelines (labelled corpora) ---------------------------

    def save_timelines(self, campaign: str, domain: str, timelines) -> None:
        """Store labelled :class:`~repro.scope.trace.ConnectionTimeline`
        objects for one site in ONE transaction.

        Timelines share the traces table (keyed ``connection-N``) but
        carry the full lifetime document and the label column, so
        detector corpora and probe traces live in one database.
        """
        with self._db:
            for index, timeline in enumerate(timelines):
                document = json.dumps(encode_timeline(timeline))
                self._db.execute(
                    "INSERT OR REPLACE INTO traces "
                    "(campaign, domain, probe, document, label) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        campaign,
                        domain,
                        f"connection-{index}",
                        document,
                        timeline.label,
                    ),
                )

    def load_timelines(self, campaign: str):
        """Stored connection timelines (probe traces are skipped)."""
        out = []
        for (document,) in self._db.execute(
            "SELECT document FROM traces WHERE campaign = ? ORDER BY domain, probe",
            (campaign,),
        ):
            parsed = json.loads(document)
            if isinstance(parsed, dict) and "frames" in parsed:
                out.append(decode_timeline(parsed))
        return out

    # -- reading -------------------------------------------------------------

    def load(self, campaign: str, domain: str) -> SiteReport | None:
        row = self._db.execute(
            "SELECT document FROM reports WHERE campaign = ? AND domain = ?",
            (campaign, domain),
        ).fetchone()
        if row is None:
            return None
        return _rebuild(SiteReport, json.loads(row[0]))

    def load_campaign(self, campaign: str) -> list[SiteReport]:
        rows = self._db.execute(
            "SELECT document FROM reports WHERE campaign = ? ORDER BY domain",
            (campaign,),
        ).fetchall()
        return [_rebuild(SiteReport, json.loads(row[0])) for row in rows]

    def campaigns(self) -> list[str]:
        rows = self._db.execute(
            "SELECT DISTINCT campaign FROM reports ORDER BY campaign"
        ).fetchall()
        return [row[0] for row in rows]

    # -- aggregate queries (the §V groupings) ----------------------------------

    def count(self, campaign: str, headers_only: bool = False) -> int:
        query = "SELECT COUNT(*) FROM reports WHERE campaign = ?"
        if headers_only:
            query += " AND headers_received = 1"
        return self._db.execute(query, (campaign,)).fetchone()[0]

    def server_header_counts(self, campaign: str) -> dict[str, int]:
        """Table IV's grouping, straight from the index columns."""
        rows = self._db.execute(
            "SELECT server_header, COUNT(*) FROM reports "
            "WHERE campaign = ? AND headers_received = 1 "
            "GROUP BY server_header ORDER BY COUNT(*) DESC",
            (campaign,),
        ).fetchall()
        return {header or "(none)": count for header, count in rows}

    def hpack_ratios(self, campaign: str) -> list[float]:
        rows = self._db.execute(
            "SELECT hpack_ratio FROM reports "
            "WHERE campaign = ? AND hpack_ratio IS NOT NULL",
            (campaign,),
        ).fetchall()
        return [row[0] for row in rows]

    # -- integrity -----------------------------------------------------------

    def verify(self) -> list[str]:
        """Integrity-check the open database; return a problem list.

        Empty list = healthy.  Checks the SQLite page structure, that
        every stored report document parses, and that the campaign
        journal's ``done`` rows all have a report behind them.
        """
        return _verify_connection(self._db)


def _verify_connection(db: sqlite3.Connection) -> list[str]:
    problems: list[str] = []
    try:
        for (line,) in db.execute("PRAGMA integrity_check"):
            if line != "ok":
                problems.append(f"integrity_check: {line}")
        if problems:
            return problems
        tables = {
            row[0]
            for row in db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "reports" not in tables:
            return problems
        for domain, document in db.execute(
            "SELECT domain, document FROM reports"
        ):
            try:
                json.loads(document)
            except ValueError:
                problems.append(f"unparseable report document for {domain!r}")
        if "campaign_sites" not in tables:
            return problems
        for campaign, domain in db.execute(
            "SELECT campaign, domain FROM campaign_sites WHERE status = 'done'"
        ):
            hit = db.execute(
                "SELECT 1 FROM reports WHERE campaign = ? AND domain = ?",
                (campaign, domain),
            ).fetchone()
            if hit is None:
                problems.append(
                    f"journal marks {campaign}/{domain} done but no report stored"
                )
    except sqlite3.DatabaseError as exc:
        problems.append(f"corrupt database: {exc}")
    return problems


def verify_database(path: str | Path) -> list[str]:
    """Integrity-check a database file without needing it to open cleanly.

    Never raises: a truncated or overwritten file comes back as a
    problem list, which is what a resume decision needs.
    """
    try:
        db = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        return [f"cannot open {path}: {exc}"]
    try:
        return _verify_connection(db)
    finally:
        db.close()
