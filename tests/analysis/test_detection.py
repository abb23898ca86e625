"""Real-time slow-rate detection: rule units, replay, corpus scoring."""

import pytest

from repro.analysis.detection import (
    _LABELS,
    HEADER_DEADLINE,
    PREFACE_DEADLINE,
    ConnectionMonitor,
    analyze_timeline,
    score_corpus,
)
from repro.attacks import run_battery
from repro.attacks.corpus import benign_timelines
from repro.h2.abuse import AbuseRules
from repro.h2.constants import FrameFlag
from repro.h2.frames import (
    ContinuationFrame,
    HeadersFrame,
    PingFrame,
    PriorityFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from repro.scope.trace import ConnectionTimeline, TracedFrame
from repro.servers.profiles import AbuseGuards
from repro.servers.vendors import VENDOR_FACTORIES, vendor_guards

IWS = 4  # SETTINGS_INITIAL_WINDOW_SIZE


def headers(stream_id: int, *, end: bool = True) -> HeadersFrame:
    flags = FrameFlag.END_HEADERS | FrameFlag.END_STREAM if end else FrameFlag(0)
    return HeadersFrame(stream_id=stream_id, flags=flags, header_block=b"h")


def tiny_settings() -> SettingsFrame:
    return SettingsFrame(settings=[(IWS, 1)])


class TestPrefaceRule:
    def test_verdict_stamped_at_deadline_not_poll(self):
        monitor = ConnectionMonitor(opened_at=5.0)
        assert monitor.tick(7.9) is None
        verdict = monitor.tick(40.0)  # late poll
        assert verdict is not None and verdict.label == "slow_preface"
        assert verdict.at == 5.0 + PREFACE_DEADLINE

    def test_first_frame_proves_preface_done(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        monitor.observe(1.0, SettingsFrame(settings=[]))
        assert monitor.tick(100.0) is None

    def test_http1_connections_exempt(self):
        monitor = ConnectionMonitor(opened_at=0.0, protocol="http1")
        assert monitor.tick(100.0) is None


class TestHeaderRule:
    def test_open_assembly_flags_at_deadline(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        monitor.observe(1.0, headers(1, end=False))
        monitor.observe(2.0, ContinuationFrame(stream_id=1, header_block=b"x"))
        verdict = monitor.tick(10.0)
        assert verdict.label == "slow_headers"
        assert verdict.at == 1.0 + HEADER_DEADLINE

    def test_terminated_assembly_is_clean(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        monitor.observe(1.0, headers(1, end=False))
        monitor.observe(
            2.0,
            ContinuationFrame(
                stream_id=1, flags=FrameFlag.END_HEADERS, header_block=b"x"
            ),
        )
        assert monitor.tick(100.0) is None


class TestStallRule:
    def test_single_stream_probe_is_benign(self):
        # The probe suite's tiny-window measurement opens ONE stream
        # and idles past the window: must not flag.
        monitor = ConnectionMonitor(opened_at=0.0, stall_window=10.0)
        monitor.observe(0.1, tiny_settings())
        monitor.observe(0.2, headers(1))
        assert monitor.tick(30.0) is None

    def test_many_streams_tiny_window_flags(self):
        monitor = ConnectionMonitor(opened_at=0.0, stall_window=10.0)
        monitor.observe(0.1, tiny_settings())
        for i in range(4):
            monitor.observe(0.2 + i * 0.01, headers(1 + 2 * i))
        verdict = monitor.tick(30.0)
        assert verdict.label == "zero_window_stall"
        assert verdict.at == 10.0

    def test_cancelled_streams_are_not_held(self):
        # The probe suite's shared flow-control connection: each
        # sub-probe cancels its stream before the next opens one.
        monitor = ConnectionMonitor(opened_at=0.0, stall_window=10.0)
        monitor.observe(0.1, tiny_settings())
        monitor.observe(0.2, headers(1))
        monitor.observe(8.0, RstStreamFrame(stream_id=1, error_code=8))
        monitor.observe(8.1, headers(3))
        assert monitor.tick(30.0) is None

    def test_window_grant_suppresses(self):
        monitor = ConnectionMonitor(opened_at=0.0, stall_window=10.0)
        monitor.observe(0.1, tiny_settings())
        monitor.observe(0.2, headers(1))
        monitor.observe(0.3, headers(3))
        monitor.observe(5.0, WindowUpdateFrame(stream_id=1, window_increment=100))
        assert monitor.tick(30.0) is None


class TestRateRules:
    def test_ping_flood_over_limit(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        verdict = None
        for i in range(40):
            verdict = monitor.observe(0.1 + i * 0.01, PingFrame(payload=b"p" * 8))
            if verdict:
                break
        assert verdict is not None and verdict.label == "ping_flood"

    def test_slow_pings_stay_clean(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        for i in range(60):
            # 10/s: always under the limit inside any 1 s window.
            assert monitor.observe(0.1 + i * 0.1, PingFrame(payload=b"p" * 8)) is None

    def test_rst_churn_over_limit(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        verdict = None
        for i in range(60):
            verdict = monitor.observe(
                0.1 + i * 0.005, RstStreamFrame(stream_id=1 + 2 * i, error_code=8)
            )
            if verdict:
                break
        assert verdict is not None and verdict.label == "rst_churn"

    def test_settings_flood_over_limit(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        verdict = None
        for i in range(20):
            verdict = monitor.observe(0.1 + i * 0.01, SettingsFrame(settings=[]))
            if verdict:
                break
        assert verdict is not None and verdict.label == "settings_flood"

    def test_priority_churn_over_limit(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        verdicts = [
            monitor.observe(0.1 + i * 0.001, PriorityFrame(stream_id=1 + 2 * i))
            for i in range(41)
        ]
        assert verdicts[:40] == [None] * 40
        assert verdicts[40].label == "priority_churn"

    def test_a_page_load_of_priority_frames_stays_clean(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        for i in range(200):  # 20/s, forever
            frame = PriorityFrame(stream_id=1 + 2 * i)
            assert monitor.observe(0.1 + i * 0.05, frame) is None

    def test_announced_header_table_flags_only_when_huge(self):
        browser = ConnectionMonitor(opened_at=0.0)
        assert browser.observe(0.1, SettingsFrame(settings=[(1, 65_536)])) is None
        flood = ConnectionMonitor(opened_at=0.0)
        verdict = flood.observe(0.1, SettingsFrame(settings=[(1, 2**24)]))
        assert (verdict.label, verdict.at) == ("table_flood", 0.1)

    def test_first_verdict_sticks(self):
        monitor = ConnectionMonitor(opened_at=0.0)
        for i in range(80):
            monitor.observe(0.1 + i * 0.001, PingFrame(payload=b"p" * 8))
        first = monitor.verdict
        assert first is not None
        monitor.observe(0.5, headers(1, end=False))
        assert monitor.tick(100.0) is first


class TestReplay:
    def test_frameless_timeline_detected_at_end_tick(self):
        # slow_preface server-side: no frame ever parses, so detection
        # rides the end-of-timeline tick.
        timeline = ConnectionTimeline(opened_at=2.0, closed_at=20.0, protocol="h2")
        verdict = analyze_timeline(timeline)
        assert verdict is not None and verdict.label == "slow_preface"
        assert verdict.at == 2.0 + PREFACE_DEADLINE

    def test_benign_timeline_none(self):
        timeline = ConnectionTimeline(
            opened_at=0.0,
            closed_at=1.0,
            protocol="h2",
            frames=[
                TracedFrame(at=0.1, frame=SettingsFrame(settings=[])),
                TracedFrame(at=0.2, frame=headers(1)),
            ],
        )
        assert analyze_timeline(timeline) is None


def replay(timeline: ConnectionTimeline, guards: AbuseGuards):
    """Replay one timeline through the rule core with a vendor's guard
    thresholds, as the detector replays it with its own: time rules
    over the inter-frame gaps, then once more at the connection's end."""
    rules = AbuseRules(
        timeline.opened_at,
        preface=guards.preface_timeout,
        header=guards.header_timeout,
        window=guards.rate_window,
        ping=guards.ping_rate_limit,
        settings=guards.settings_rate_limit,
        rst=guards.rst_rate_limit,
    )
    for traced in timeline.frames:
        rules.tick(traced.at)
        if rules.observe(traced.at, traced.frame) is not None:
            return rules.verdict
    return rules.tick(timeline.end_at)


class TestGuardsAgreeWithDetector:
    """The engine's guards run the detector's rules: replaying a
    guards-on battery timeline through the rule core with that vendor's
    thresholds finds the engine's reason, under the detector's label,
    at the very instant the engine evicted."""

    #: The engine's guard reason for each profile both layers judge.
    SHARED = {
        "slow_preface": "preface-timeout",
        "slow_headers": "header-timeout",
        "ping_flood": "ping-flood",
        "settings_flood": "settings-flood",
        "rst_churn": "rst-flood",
    }

    @pytest.mark.parametrize("seed", [0, 7])
    def test_replay_evicts_where_the_engine_did(self, seed):
        matrix = run_battery(
            profiles=list(self.SHARED), guards="vendor", seed=seed, record_frames=True
        )
        assert len(matrix.results) == len(self.SHARED) * len(VENDOR_FACTORIES)
        for result in matrix.results:
            cell = (result.profile, result.vendor)
            assert result.guard_reasons == [self.SHARED[result.profile]], cell
            [timeline] = result.timelines
            verdict = replay(timeline, vendor_guards(result.vendor))
            assert verdict is not None, cell
            assert verdict.rule == self.SHARED[result.profile], cell
            assert _LABELS[verdict.rule] == result.profile, cell
            assert verdict.at == timeline.closed_at, cell


class TestCorpusScoring:
    def attack(self, label: str) -> ConnectionTimeline:
        return ConnectionTimeline(
            opened_at=0.0, closed_at=20.0, protocol="h2", label=label
        )

    def test_counts_and_metrics(self):
        benign_clean = ConnectionTimeline(
            opened_at=0.0,
            closed_at=1.0,
            protocol="h2",
            frames=[TracedFrame(at=0.1, frame=headers(1))],
        )
        benign_fp = ConnectionTimeline(opened_at=0.0, closed_at=20.0, protocol="h2")
        score = score_corpus(
            [benign_clean, benign_fp, self.attack("slow_preface")]
        )
        assert score.true_negatives == 1
        assert score.false_positives == 1
        assert score.true_positives == 1
        assert score.false_negatives == 0
        assert score.precision == 0.5
        assert score.recall == 1.0
        row = score.per_profile["slow_preface"]
        assert row.detected == row.of == 1
        assert row.mislabels == 0
        assert row.mean_time_to_detection == 3.0

    def test_mislabel_still_counts_detection(self):
        # A frameless timeline labelled as another profile: caught, but
        # under the wrong name.
        score = score_corpus([self.attack("zero_window_stall")])
        assert score.recall == 1.0
        assert score.per_profile["zero_window_stall"].mislabels == 1

    def test_empty_corpus_is_perfect(self):
        score = score_corpus([])
        assert score.precision == 1.0 and score.recall == 1.0


def nginx_attack_timelines(profiles, duration):
    """Battery traffic against nginx, guards off, labelled with each
    profile's name (``attack_timelines`` for some profiles)."""
    matrix = run_battery(
        ["nginx"], profiles, seed=3, duration=duration, record_frames=True
    )
    return [timeline for result in matrix.results for timeline in result.timelines]


class TestEndToEndFloors:
    """Small real corpora through the actual engines (the full
    six-vendor floor lives in benchmarks/bench_detection.py)."""

    def test_benign_probe_traffic_clean(self):
        timelines = benign_timelines(vendors=["nginx"], seed=3)
        assert timelines
        score = score_corpus(timelines)
        assert score.false_positives == 0, score.to_json()

    def test_litespeed_shared_flow_control_connection_clean(self):
        # LiteSpeed sends nothing at a one-octet window, so its shared
        # flow-control connection idles past ``stall_window`` with two
        # streams seen, one of them cancelled.
        timelines = benign_timelines(vendors=["litespeed"], seed=7)
        score = score_corpus(timelines)
        assert score.false_positives == 0, score.to_json()

    def test_fast_profiles_all_detected(self):
        profiles = ["slow_preface", "slow_headers", "ping_flood",
                    "settings_flood", "rst_churn", "table_flood",
                    "priority_churn"]
        timelines = nginx_attack_timelines(profiles, duration=8.0)
        score = score_corpus(timelines)
        assert score.recall == 1.0, score.to_json()
        for name in profiles:
            assert score.per_profile[name].mislabels == 0, name

    def test_zero_window_stall_detected_at_stall_window(self):
        timelines = nginx_attack_timelines(["zero_window_stall"], duration=13.0)
        score = score_corpus(timelines)
        row = score.per_profile["zero_window_stall"]
        assert row.detected == row.of == 1
        assert abs(row.mean_time_to_detection - 10.0) < 0.5
