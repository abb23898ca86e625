"""Unit tests for the live campaign layer (repro.scope.live).

Politeness primitives run against fake clocks so the invariants are
asserted exactly; the campaign-level tests use resolver injection (no
sockets) to pin the DNS stage's quarantine semantics and the journal
integration.  The full proving ground — real sockets, faults, kill and
resume — lives in ``tests/scope/test_live_fleet.py``.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.scope.campaign import (
    CampaignError,
    CampaignJournal,
    ManifestMismatch,
    SiteStatus,
)
from repro.scope.live import (
    DnsStage,
    LiveConfig,
    LiveScanMetrics,
    SiteGate,
    TokenBucket,
    run_live_campaign,
    verdict_view,
)
from repro.scope.report import SiteReport
from repro.scope.resilience import DnsFault, ResilienceConfig
from repro.scope.storage import ReportStore
from tests.support.live import contact_tap, max_rate, min_host_gap


class FakeTime:
    """A controllable monotonic clock whose sleep advances it."""

    def __init__(self):
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, seconds)


class TestTokenBucket:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)

    def test_burst_is_granted_instantly_then_rate_limits(self):
        fake = FakeTime()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=fake.clock, sleep=fake.sleep)
        grants = [bucket.acquire() for _ in range(3)]
        assert grants == [0.0, 0.0, 0.0]  # the burst is free
        assert bucket.acquire() == pytest.approx(0.5)  # then 1/rate each
        assert bucket.acquire() == pytest.approx(1.0)

    def test_grants_in_any_window_bounded_by_burst_plus_rate(self):
        fake = FakeTime()
        bucket = TokenBucket(rate=5.0, burst=2.0, clock=fake.clock, sleep=fake.sleep)
        grants = [bucket.acquire() for _ in range(40)]
        window = 1.0
        for i, start in enumerate(grants):
            inside = [g for g in grants[i:] if g - start <= window]
            assert len(inside) <= 2.0 + 5.0 * window + 1  # +1: fencepost

    def test_idle_time_refills_up_to_burst_only(self):
        fake = FakeTime()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=fake.clock, sleep=fake.sleep)
        bucket.acquire()
        fake.sleep(100.0)  # a long lull must not bank 1000 tokens
        assert bucket.acquire() == 100.0
        assert bucket.acquire() == 100.0
        assert bucket.acquire() == pytest.approx(100.1)


def _reachable(*roots) -> int:
    """How many objects the roots keep alive (classes, modules and
    callables, which every instance shares, are not counted)."""
    shared = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


class TestHostPoliteness:
    """Each site's :class:`SiteGate` keeps the per-host gap."""

    def test_gap_enforced_between_contacts_to_one_host(self):
        fake = FakeTime()
        gate = SiteGate(1.5, clock=fake.clock, sleep=fake.sleep)
        times = []
        for _ in range(3):
            gate("a.example", 443)
            times.append(gate.last)
        assert times == [0.0, 1.5, 3.0]

    def test_distinct_hosts_do_not_wait_on_each_other(self):
        fake = FakeTime()
        first = SiteGate(10.0, clock=fake.clock, sleep=fake.sleep)
        second = SiteGate(10.0, clock=fake.clock, sleep=fake.sleep)
        first("a.example", 443)
        second("b.example", 443)
        assert (first.last, second.last) == (0.0, 0.0)

    def test_zero_gap_still_records_contacts(self):
        fake = FakeTime()
        fake.now = 4.0
        gate = SiteGate(0.0, clock=fake.clock, sleep=fake.sleep)
        gate("a.example", 443)
        assert gate.last == 4.0

    def test_contact_is_stamped_at_the_token_grant(self):
        fake = FakeTime()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=fake.clock, sleep=fake.sleep)
        gate = SiteGate(0.25, bucket, clock=fake.clock, sleep=fake.sleep)
        gate("a.example", 443)
        gate("a.example", 80)  # the gap is paid, then the token's wait
        assert gate.last == pytest.approx(1.0)

    def test_politeness_state_does_not_grow_with_sites_or_contacts(self):
        """A campaign keeps one instant per site in flight and one
        bucket: no per-contact record, no per-domain entry."""
        fake = FakeTime()
        bucket = TokenBucket(rate=50.0, burst=5.0, clock=fake.clock, sleep=fake.sleep)

        def campaign(sites: int, contacts: int) -> tuple[int, int]:
            gates = []
            for index in range(sites):
                gate = SiteGate(0.2, bucket, clock=fake.clock, sleep=fake.sleep)
                for port in (443, 80) * (contacts // 2):
                    gate(f"site{index}.example", port)
                gates.append(gate)
            return _reachable(bucket), max(_reachable(gate) for gate in gates)

        small = campaign(sites=2, contacts=2)
        large = campaign(sites=400, contacts=30)
        assert large == small


class TestLiveScanMetrics:
    def test_high_water_tracks_peak_in_flight(self):
        metrics = LiveScanMetrics()
        metrics.session_started()
        metrics.session_started()
        metrics.session_finished()
        metrics.session_started()
        assert metrics.concurrency_high_water == 2
        assert metrics.in_flight == 2

    def test_min_host_gap_and_max_rate_helpers(self):
        contacts = [("a", 0.0), ("b", 0.1), ("a", 2.0), ("a", 3.5)]
        assert min_host_gap(contacts) == pytest.approx(1.5)
        assert max_rate([0.0, 0.2, 0.4, 1.5, 1.6], window=1.0) == 3
        assert min_host_gap([]) is None


class TestDnsStage:
    def test_mapped_resolver_and_negative_cache(self):
        calls = []

        def resolver(domain, port):
            calls.append((domain, port))
            if domain == "alive.example":
                return ("127.0.0.1", 4443)
            return None

        dns = DnsStage(resolver=resolver)
        assert dns.resolve("alive.example") == ("127.0.0.1", 4443)
        assert dns.resolve("alive.example") == ("127.0.0.1", 4443)
        with pytest.raises(DnsFault):
            dns.resolve("dead.example")
        with pytest.raises(DnsFault):
            dns.resolve("dead.example")
        # One underlying lookup per (domain, port), both polarities.
        assert calls == [("alive.example", 443), ("dead.example", 443)]

    def test_resolve_all_flags_primary_port_failures_only(self):
        mapping = {
            ("full.example", 443): ("127.0.0.1", 1),
            ("full.example", 80): ("127.0.0.1", 2),
            ("tls-only.example", 443): ("127.0.0.1", 3),
        }
        dns = DnsStage(resolver=mapping)
        results = dns.resolve_all(
            ["full.example", "tls-only.example", "gone.example"]
        )
        assert results["full.example"] is None
        # A missing cleartext listener is not a DNS failure.
        assert results["tls-only.example"] is None
        assert isinstance(results["gone.example"], DnsFault)

    def test_resolve_all_makes_one_lookup_per_domain(self):
        calls = []

        def resolver(domain, port):
            calls.append((domain, port))
            return None if domain == "gone.example" else ("127.0.0.1", 1)

        dns = DnsStage(resolver=resolver)
        dns.resolve_all(["full.example", "gone.example", "full.example"])
        assert sorted(calls) == [("full.example", 443), ("gone.example", 443)]

    def test_system_resolver_negative(self):
        dns = DnsStage()  # .invalid is reserved: can never resolve
        with pytest.raises(DnsFault):
            dns.resolve("h2scope-test.invalid")


class TestVerdictView:
    def test_strips_wall_clock_fields_only(self):
        report = SiteReport(domain="x.example")
        report.negotiation.tcp_connected = True
        report.negotiation.tcp_handshake_rtt = 0.123
        report.ping.h2_ping_rtt = 0.02
        report.scan_virtual_time = 9.9
        report.probe_attempts["ping"] = 2
        view = verdict_view(report)
        assert view["negotiation"]["tcp_connected"] is True
        assert "tcp_handshake_rtt" not in view["negotiation"]
        assert "h2_ping_rtt" not in view["ping"]
        assert "scan_virtual_time" not in view
        assert "probe_attempts" not in view

    def test_same_behaviour_different_timing_compares_equal(self):
        fast, slow = SiteReport(domain="x"), SiteReport(domain="x")
        fast.negotiation.tcp_handshake_rtt = 0.001
        slow.negotiation.tcp_handshake_rtt = 0.9
        slow.scan_virtual_time = 60.0
        assert verdict_view(fast) == verdict_view(slow)


class TestLiveCampaignDnsQuarantine:
    """DNS failures quarantine without sockets, retries, or budget."""

    DOMAINS = ["a.dead.example", "b.dead.example", "c.dead.example"]

    def run(self, store, resume=False, metrics=None, progress=None):
        return run_live_campaign(
            self.DOMAINS,
            store,
            "dnsq",
            seed=4,
            resilience=ResilienceConfig(timeout=1.0, retries=1),
            config=LiveConfig(concurrency=4),
            resolver=lambda domain, port: None,  # nothing resolves
            resume=resume,
            metrics=metrics,
            progress=progress,
        )

    def test_unresolvable_sites_quarantined_without_connects(self, tmp_path):
        metrics = LiveScanMetrics()
        ticks = []
        with ReportStore(tmp_path / "dnsq.db") as store, contact_tap() as tap:
            result = self.run(store, metrics=metrics, progress=ticks.append)
            journal = CampaignJournal(store)
            statuses = journal.statuses("dnsq")
            assert all(
                status is SiteStatus.QUARANTINED
                for status, _ in statuses.values()
            )
            assert journal.dns_failures("dnsq") == len(self.DOMAINS)
            report = store.load("dnsq", "a.dead.example")
            assert report.errors[0].probe == "dns"
            assert report.errors[0].exception == "DnsFault"
        assert result.counts["quarantined"] == len(self.DOMAINS)
        assert result.scanned == len(self.DOMAINS)
        assert metrics.concurrency_high_water == 0  # not a single probe session ran
        assert tap.contacts == []  # and not a single TCP contact
        assert ticks[-1].dns_failures == len(self.DOMAINS)
        assert ticks[-1].done == len(self.DOMAINS)

    def test_resume_skips_quarantined_sites(self, tmp_path):
        with ReportStore(tmp_path / "dnsq.db") as store:
            self.run(store)
            result = self.run(store, resume=True)
            assert result.scanned == 0
            assert result.skipped == len(self.DOMAINS)

    def test_a_domain_listed_twice_is_refused_before_the_journal(
        self, tmp_path
    ):
        with ReportStore(tmp_path / "twice.db") as store:
            with pytest.raises(CampaignError, match="'b.dead.example' twice"):
                run_live_campaign(
                    self.DOMAINS + ["b.dead.example"], store, "twice",
                    resolver={},
                )
            assert CampaignJournal(store).campaigns() == []

    def test_resume_refuses_mismatched_manifest(self, tmp_path):
        with ReportStore(tmp_path / "dnsq.db") as store:
            self.run(store)
            with pytest.raises(ManifestMismatch):
                run_live_campaign(
                    self.DOMAINS,
                    store,
                    "dnsq",
                    seed=5,  # different seed: the journal must refuse
                    resilience=ResilienceConfig(timeout=1.0, retries=1),
                    resolver=lambda domain, port: None,
                    resume=True,
                )
