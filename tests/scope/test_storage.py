"""Report persistence (§IV-B's database)."""

import json
from dataclasses import fields, is_dataclass

import pytest

from repro.h2.constants import FrameFlag
from repro.h2.frames import DataFrame
from repro.net.faults import FaultPlan
from repro.scope.report import (
    ErrorClass,
    ErrorReaction,
    ErrorTaxonomy,
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
from repro.scope.scanner import TESTBED_PLAN, scan_site
from repro.scope.storage import ReportStore, _encode
from repro.scope.trace import ConnectionTimeline, TracedFrame
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site
from repro.servers.website import testbed_website


@pytest.fixture
def scanned_report():
    site = Site(domain="store.test", profile=ServerProfile(), website=testbed_website())
    return scan_site(site, plan=TESTBED_PLAN)


def stored_document(store, campaign, domain):
    (text,) = store.connection.execute(
        "SELECT document FROM reports WHERE campaign = ? AND domain = ?",
        (campaign, domain),
    ).fetchone()
    return json.loads(text)


class TestRoundTrip:
    def test_full_report_roundtrips(self, scanned_report):
        with ReportStore() as store:
            store.save("exp1", scanned_report)
            loaded = store.load("exp1", "store.test")
            document = stored_document(store, "exp1", "store.test")
        assert set(document) == set(_encode(scanned_report))
        assert loaded == scanned_report
        assert loaded is not None
        assert loaded.domain == scanned_report.domain
        assert loaded.negotiation == scanned_report.negotiation
        assert loaded.settings == scanned_report.settings
        assert loaded.flow_control == scanned_report.flow_control
        assert loaded.priority == scanned_report.priority
        assert loaded.hpack == scanned_report.hpack
        assert loaded.push == scanned_report.push

    def test_enums_survive(self, scanned_report):
        with ReportStore() as store:
            store.save("exp1", scanned_report)
            loaded = store.load("exp1", "store.test")
        assert isinstance(loaded.flow_control.tiny_window, TinyWindowResult)
        assert isinstance(loaded.flow_control.zero_update_stream, ErrorReaction)

    def test_bytes_survive(self):
        report = SiteReport(domain="b.test")
        report.flow_control.zero_update_debug_data = b"\x00\xffdebug"
        with ReportStore() as store:
            store.save("exp1", report)
            loaded = store.load("exp1", "b.test")
        assert loaded.flow_control.zero_update_debug_data == b"\x00\xffdebug"

    def test_missing_report_is_none(self):
        with ReportStore() as store:
            assert store.load("exp1", "ghost.test") is None

    def test_save_is_idempotent_per_campaign(self, scanned_report):
        with ReportStore() as store:
            store.save("exp1", scanned_report)
            store.save("exp1", scanned_report)
            assert store.count("exp1") == 1

    def test_document_with_a_retired_key_still_loads(self, scanned_report, tmp_path):
        # Databases written while negotiation probed h2c carry
        # ``negotiation.h2c_upgrade``, those written while reports had a
        # ``multiplexing`` field carry ``"multiplexing": null``, and
        # those written while the rule checks, Eq. 1's ratio and the
        # request count were stored carry them; loading ignores keys it
        # does not know, and the properties recompute the verdicts.
        import sqlite3

        path = tmp_path / "old.sqlite"
        with ReportStore(path) as store:
            store.save("exp1", scanned_report)
        db = sqlite3.connect(path)
        document = json.loads(db.execute("SELECT document FROM reports").fetchone()[0])
        document["negotiation"]["h2c_upgrade"] = False
        document["multiplexing"] = None
        priority = scanned_report.priority
        stale = not priority.passes_algorithm1
        document.setdefault("priority", {}).update(
            follows_rules_by_last=stale,
            follows_rules_by_first=stale,
            follows_rules_by_both=stale,
            passes_algorithm1=stale,
        )
        document.setdefault("hpack", {}).update(requests=3, ratio=0.5)
        with db:
            db.execute("UPDATE reports SET document = ?", (json.dumps(document),))
        db.close()
        with ReportStore(path) as store:
            loaded = store.load("exp1", "store.test")
        assert loaded.negotiation == scanned_report.negotiation
        assert not hasattr(loaded.negotiation, "h2c_upgrade")
        assert loaded == scanned_report
        assert loaded.priority.passes_algorithm1 is priority.passes_algorithm1
        assert loaded.hpack.ratio == scanned_report.hpack.ratio != 0.5

    def test_on_disk_persistence(self, scanned_report, tmp_path):
        path = tmp_path / "scan.sqlite"
        with ReportStore(path) as store:
            store.save("exp1", scanned_report)
        with ReportStore(path) as store:
            assert store.count("exp1") == 1
            assert store.load("exp1", "store.test") is not None


class TestEmptyResultsAreNotStored:
    """A probe result the scan did not fill in is left out of the stored
    document; loading restores it as its default."""

    def test_unreachable_site_stores_no_probe_results(self):
        site = Site(domain="gone.test", profile=ServerProfile(), website=testbed_website())
        report = scan_site(site, fault_plan=FaultPlan.parse("refuse:1", seed=1))
        assert not report.negotiation.tcp_connected
        with ReportStore() as store:
            store.save("exp1", report)
            document = stored_document(store, "exp1", "gone.test")
            assert store.load("exp1", "gone.test") == report
        assert not {"flow_control", "priority", "push", "hpack"} & set(document)

    def test_negotiation_only_report_roundtrips(self):
        site = Site(domain="short.test", profile=ServerProfile(), website=testbed_website())
        report = scan_site(site, include={"negotiation"})
        assert report.negotiation.headers_received
        with ReportStore() as store:
            store.save("exp1", report)
            document = stored_document(store, "exp1", "short.test")
            assert store.load("exp1", "short.test") == report
            assert store.load_campaign("exp1") == [report]
        assert "negotiation" in document
        assert "settings" not in document and "ping" not in document

    def test_document_with_every_key_present_still_loads(self, tmp_path):
        # Databases written before empty results were left out carry
        # every probe result, filled in or not.
        import sqlite3

        report = SiteReport(domain="old.test")
        report.negotiation.tcp_connected = True
        path = tmp_path / "old.sqlite"
        with ReportStore(path) as store:
            store.save("exp1", report)
        db = sqlite3.connect(path)
        with db:
            db.execute("UPDATE reports SET document = ?", (json.dumps(_encode(report)),))
        db.close()
        with ReportStore(path) as store:
            assert set(stored_document(store, "exp1", "old.test")) >= {"flow_control", "hpack"}
            assert store.load("exp1", "old.test") == report


class TestCampaigns:
    def make_report(self, domain, server="nginx/1.9.15", headers=True):
        return SiteReport(
            domain=domain,
            negotiation=NegotiationResult(
                tcp_connected=True,
                alpn_h2=True,
                headers_received=headers,
                server_header=server,
            ),
        )

    def test_two_campaigns_isolated(self):
        with ReportStore() as store:
            store.save("exp1", self.make_report("a.test"))
            store.save("exp2", self.make_report("a.test"))
            store.save("exp2", self.make_report("b.test"))
            assert store.count("exp1") == 1
            assert store.count("exp2") == 2
            assert store.campaigns() == ["exp1", "exp2"]

    def test_server_header_counts(self):
        with ReportStore() as store:
            for i in range(3):
                store.save("exp1", self.make_report(f"n{i}.test", "nginx/1.9.15"))
            store.save("exp1", self.make_report("l.test", "LiteSpeed"))
            store.save("exp1", self.make_report("mute.test", headers=False))
            counts = store.server_header_counts("exp1")
        assert counts["nginx/1.9.15"] == 3
        assert counts["LiteSpeed"] == 1
        assert "mute" not in str(counts)

    def test_headers_only_count(self):
        with ReportStore() as store:
            store.save("exp1", self.make_report("a.test", headers=True))
            store.save("exp1", self.make_report("b.test", headers=False))
            assert store.count("exp1") == 2
            assert store.count("exp1", headers_only=True) == 1

    def test_hpack_ratio_query(self):
        with ReportStore() as store:
            report = self.make_report("a.test")
            # Eq. 1 over eight blocks: 200 / (100 * 8).
            report.hpack.header_sizes = [100, 15, 15, 15, 15, 15, 15, 10]
            store.save("exp1", report)
            store.save("exp1", self.make_report("b.test"))
            assert store.hpack_ratios("exp1") == [0.25]

    def test_load_campaign_ordered(self):
        with ReportStore() as store:
            for name in ("c.test", "a.test", "b.test"):
                store.save("exp1", self.make_report(name))
            loaded = store.load_campaign("exp1")
        assert [r.domain for r in loaded] == ["a.test", "b.test", "c.test"]


class TestStorageHardening:
    """WAL, schema versioning, atomic batches, integrity checks."""

    def make_report(self, domain):
        return SiteReport(
            domain=domain,
            negotiation=NegotiationResult(
                tcp_connected=True,
                alpn_h2=True,
                headers_received=True,
                server_header="nginx/1.9.15",
            ),
        )

    def test_wal_mode_on_disk(self, tmp_path):
        with ReportStore(tmp_path / "wal.db") as store:
            mode = store.connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_newer_schema_version_refused(self, tmp_path):
        from repro.scope.storage import SCHEMA_VERSION, SchemaVersionError

        path = tmp_path / "future.db"
        ReportStore(path).close()
        import sqlite3

        db = sqlite3.connect(path)
        with db:
            db.execute("UPDATE schema_version SET version = ?", (SCHEMA_VERSION + 1,))
        db.close()
        with pytest.raises(SchemaVersionError, match="newer than this tool"):
            ReportStore(path)

    def test_unstamped_v1_database_refused(self, tmp_path):
        # The unstamped, reports-only layout (version 1): no program
        # writes it, so opening it is refused, not migrated.
        import sqlite3

        from repro.scope.storage import SchemaVersionError

        path = tmp_path / "v1.db"
        db = sqlite3.connect(path)
        with db:
            db.execute(
                "CREATE TABLE reports (id INTEGER PRIMARY KEY AUTOINCREMENT, "
                "campaign TEXT NOT NULL, domain TEXT NOT NULL, "
                "server_header TEXT, speaks_h2 INTEGER NOT NULL, "
                "headers_received INTEGER NOT NULL, hpack_ratio REAL, "
                "document TEXT NOT NULL, UNIQUE (campaign, domain))"
            )
        db.close()
        with pytest.raises(SchemaVersionError, match="schema version 1 is older"):
            ReportStore(path)
        db = sqlite3.connect(path)
        tables = {row[0] for row in db.execute("SELECT name FROM sqlite_master")}
        db.close()
        assert "schema_version" not in tables  # refused before any write

    def test_transaction_is_atomic(self, tmp_path):
        # A poisoned batch must roll back wholesale: no partial flush.
        good = [self.make_report(f"s{i}.test") for i in range(3)]
        with ReportStore(tmp_path / "atomic.db") as store:
            with pytest.raises(Exception):
                with store.transaction():
                    for report in good + [object()]:
                        store.stage("exp1", report)
            assert store.count("exp1") == 0
            with store.transaction():
                for report in good:
                    store.stage("exp1", report)
            assert store.count("exp1") == 3

    def test_verify_clean_database(self, tmp_path):
        path = tmp_path / "clean.db"
        with ReportStore(path) as store:
            store.save("exp1", self.make_report("a.test"))
            assert store.verify() == []
        from repro.scope.storage import verify_database

        assert verify_database(path) == []

    def test_verify_truncated_file_reports_corruption(self, tmp_path):
        from repro.scope.storage import verify_database

        path = tmp_path / "trunc.db"
        with ReportStore(path) as store:
            with store.transaction():
                for i in range(80):
                    store.stage("exp1", self.make_report(f"s{i}.test"))
            # Fold the WAL back into the main file so truncating the
            # database file is guaranteed to destroy committed pages.
            store.connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        problems = verify_database(path)
        assert problems  # never raises, always explains

    def test_verify_flags_done_site_without_report(self, tmp_path):
        import sqlite3

        path = tmp_path / "orphan.db"
        ReportStore(path).close()
        db = sqlite3.connect(path)
        with db:
            db.execute(
                "INSERT INTO campaign_sites "
                "(campaign, site_index, domain, status) "
                "VALUES ('camp', 0, 'ghost.test', 'done')"
            )
        db.close()
        with ReportStore(path) as store:
            problems = store.verify()
        assert any("ghost.test" in problem for problem in problems)


class TestQuarantineRoundTrip:
    def test_quarantined_site_survives_reopen(self, tmp_path):
        from repro.scope.campaign import (
            CampaignJournal,
            CampaignManifest,
            JournalEntry,
            SiteStatus,
        )

        report = SiteReport(domain="bad.test")
        report.errors.append("negotiation: refused forever")
        manifest = CampaignManifest(
            campaign="camp",
            seed=7,
            probes=("negotiation",),
            population_size=1,
            population_hash="feed",
        )
        path = tmp_path / "q.db"
        with ReportStore(path) as store:
            journal = CampaignJournal(store)
            journal.begin(manifest, ["bad.test"])
            journal.checkpoint(
                "camp",
                [
                    JournalEntry(
                        site_index=0,
                        domain="bad.test",
                        status=SiteStatus.QUARANTINED,
                        attempts=3,
                        report=report,
                        virtual_time=12.5,
                        error="negotiation: refused forever",
                    )
                ],
            )
        with ReportStore(path) as store:
            journal = CampaignJournal(store)
            assert journal.manifest("camp") == manifest
            status, attempts = journal.statuses("camp")["bad.test"]
            assert status is SiteStatus.QUARANTINED
            assert attempts == 3
            assert journal.counts("camp")["quarantined"] == 1
            assert journal.pending("camp", max_site_attempts=3) == []
            assert journal.virtual_seconds("camp") == 12.5
            # The quarantined site's last report stays queryable.
            loaded = store.load("camp", "bad.test")
            assert loaded is not None and loaded.failed


class TestScanErrorRoundTrip:
    def test_scan_errors_rebuild_as_dataclasses(self):
        from repro.scope.report import ErrorClass, ScanError

        report = SiteReport(domain="err.test")
        report.errors.append(
            ScanError(
                probe="negotiation",
                error_class=ErrorClass.TRANSIENT,
                exception="ConnectionRefusedFault",
                message="refused",
                attempts=3,
            )
        )
        report.probe_attempts = {"negotiation": 3, "settings": 1}
        with ReportStore() as store:
            store.save("exp1", report)
            loaded = store.load("exp1", "err.test")
        assert loaded.errors == report.errors
        assert isinstance(loaded.errors[0], ScanError)
        assert loaded.errors[0].error_class is ErrorClass.TRANSIENT
        assert loaded.probe_attempts == {"negotiation": 3, "settings": 1}


class TestOlderSchemaRefused:
    def test_v3_database_refused(self, tmp_path):
        # A v3 file has a traces table without the label column; no
        # program writes one, so opening it is refused, not altered.
        import sqlite3

        from repro.scope.storage import SchemaVersionError

        path = tmp_path / "v3.db"
        db = sqlite3.connect(path)
        with db:
            db.execute(
                "CREATE TABLE traces (campaign TEXT NOT NULL, "
                "domain TEXT NOT NULL, probe TEXT NOT NULL, "
                "document TEXT NOT NULL, PRIMARY KEY (campaign, domain, probe))"
            )
            db.execute("CREATE TABLE schema_version (version INTEGER NOT NULL)")
            db.execute("INSERT INTO schema_version (version) VALUES (3)")
        db.close()
        with pytest.raises(SchemaVersionError, match="schema version 3 is older"):
            ReportStore(path)
        db = sqlite3.connect(path)
        columns = [row[1] for row in db.execute("PRAGMA table_info(traces)")]
        db.close()
        assert "label" not in columns


# -- _encode's fast path against the recursion it replaced (ISSUE 16) ------


def reference_encode(value):
    """``storage._encode`` as it was: ``is_dataclass`` / ``fields`` asked of
    every value, scalars falling through the whole ``isinstance`` chain."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: reference_encode(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, (ErrorClass, ErrorReaction, TinyWindowResult)):
        return {"__enum__": type(value).__name__, "value": value.name}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, dict):
        return {str(k): reference_encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_encode(v) for v in value]
    return value


def populated_instances():
    """One instance of every dataclass in ``scope/report.py`` and
    ``scope/trace.py``, no field left at a default that hides a type."""
    error = ScanError(
        probe="ping",
        error_class=ErrorClass.TIMEOUT,
        exception="ProbeTimeout",
        message="no answer",
        attempts=2,
    )
    negotiation = NegotiationResult(
        tcp_connected=True,
        alpn_h2=True,
        npn_h2=False,
        headers_received=True,
        server_header="nginx/1.9",
        tcp_handshake_rtt=0.0312,
    )
    settings = SettingsResult(
        settings_frame_received=True, announced={3: 128, 4: 65_536, 0xBEEF: 1}
    )
    flow_control = FlowControlResult(
        tiny_window=TinyWindowResult.ZERO_LENGTH_DATA,
        first_data_size=0,
        headers_with_zero_window=True,
        zero_update_stream=ErrorReaction.RST_STREAM,
        zero_update_connection=ErrorReaction.GOAWAY,
        zero_update_debug_data=b"\x00\xffdebug",
        large_update_stream=ErrorReaction.IGNORE,
        large_update_connection=ErrorReaction.NO_RESPONSE,
    )
    priority = PriorityResult(
        first_frame_order=["a", "b"],
        last_frame_order=["b", "a"],
        interleaved=True,
        headers_while_blocked=None,
        self_dependency=ErrorReaction.RST_STREAM,
    )
    push = PushResult(push_received=True, promised_paths=["/style.css"])
    hpack = HpackResult(header_sizes=[120, 40, 38])
    ping = PingResult(
        h2_ping_rtt=0.05, tcp_rtt=0.049, icmp_rtt=None, http1_rtt=0.07,
        ping_supported=True,
    )
    report = SiteReport(
        domain="encode.test",
        negotiation=negotiation,
        settings=settings,
        flow_control=flow_control,
        priority=priority,
        push=push,
        hpack=hpack,
        ping=ping,
        errors=[error, "legacy bare string"],
        probe_attempts={"negotiation": 1, "ping": 2},
        scan_virtual_time=12.5,
    )
    taxonomy = ErrorTaxonomy(
        total_sites=4,
        failed_sites=1,
        retried_sites=1,
        total_errors=2,
        by_class={"timeout": 2},
        by_exception={"ProbeTimeout": 2},
        by_probe={"ping": 2},
    )
    traced = TracedFrame(
        at=0.25, frame=DataFrame(stream_id=1, flags=FrameFlag.END_STREAM, data=b"ab")
    )
    timeline = ConnectionTimeline(
        opened_at=0.0, closed_at=1.5, protocol="h2", frames=[traced], label="slow-read"
    )
    return [
        error, negotiation, settings, flow_control, priority,
        push, hpack, ping, report, taxonomy, traced, timeline,
    ]


class TestEncodeFastPath:
    def test_every_report_and_trace_dataclass_is_covered(self):
        import repro.scope.report as report_module
        import repro.scope.trace as trace_module

        declared = {
            cls
            for module in (report_module, trace_module)
            for cls in vars(module).values()
            if isinstance(cls, type)
            and is_dataclass(cls)
            and cls.__module__ == module.__name__
        }
        assert {type(instance) for instance in populated_instances()} == declared

    @pytest.mark.parametrize(
        "instance", populated_instances(), ids=lambda value: type(value).__name__
    )
    def test_agrees_with_the_per_value_recursion(self, instance):
        assert _encode(instance) == reference_encode(instance)
        # Key order is part of the stored bytes.
        assert json.dumps(_encode(instance)) == json.dumps(reference_encode(instance))

    def test_dataclass_types_are_left_alone(self):
        assert _encode(SiteReport) is SiteReport
        assert _encode([ScanError, 1]) == [ScanError, 1]

    @pytest.mark.parametrize("value", ["text", 7, 2.5, True, None, b"\x01", (1, "a")])
    def test_scalars_and_containers(self, value):
        assert _encode(value) == reference_encode(value)
