"""The paper's §VI attack surfaces and their defences, through the one
runner: ``run_attack`` on the study's ``Site`` victims."""

from dataclasses import replace

from repro.attacks import BATTERY_PROFILES, run_attack
from repro.attacks.battery import attack_website
from repro.experiments.attacks_study import (
    priority_churn_victim,
    slow_read_victim,
    table_flood_victim,
)


def slow_read_site(streams, object_size, **defence):
    """The study's slow-read victim serving ``streams`` objects of
    ``object_size`` octets (it accepts 128 streams either way)."""
    site = slow_read_victim(**defence)
    return replace(site, website=attack_website(streams, object_size))


def slow_read(streams, object_size, profile="slow_read", **defence):
    return run_attack(
        profile,
        slow_read_site(streams, object_size, **defence),
        duration=10.0,
        knobs={"streams": streams},
    )


class TestSlowRead:
    def test_attack_pins_server_memory(self):
        result = slow_read(16, 100_000)
        # Nearly the entire response set is buffered behind 1-octet windows.
        assert result.peak_pinned_bytes > 0.95 * 16 * 100_000
        assert result.survived and not result.goaway_observed

    def test_memory_stays_pinned_for_attack_duration(self):
        result = slow_read(8, 50_000)
        # The last sample is still pinned — the server cannot release it.
        at, metrics = result.samples[-1]
        assert at >= 9.5
        assert metrics["pinned_bytes"] > 0.9 * 8 * 50_000

    def test_window_lower_bound_defence(self):
        result = slow_read(16, 100_000, min_accepted_initial_window=1_024)
        assert result.evicted and result.goaway_observed
        assert result.peak_pinned_bytes == 0

    def test_legitimate_window_not_refused(self):
        polite = replace(
            BATTERY_PROFILES["slow_read"], client_settings={4: 65_536}
        )
        result = slow_read(
            4, 10_000, profile=polite, min_accepted_initial_window=1_024
        )
        assert result.survived and not result.goaway_observed

    def test_pinned_memory_scales_with_streams(self):
        small = slow_read(4, 100_000)
        large = slow_read(16, 100_000)
        assert large.peak_pinned_bytes > 3 * small.peak_pinned_bytes


def table_flood(requests, **defence):
    return run_attack(
        "table_flood",
        table_flood_victim(**defence),
        duration=4.0,
        knobs={"requests": requests},
    )


class TestTableFlood:
    def test_decoder_bounded_by_own_setting(self):
        # §V-C's explanation for why every server keeps the 4,096
        # default: the decoder table cannot exceed it no matter what
        # the attacker sends.
        result = table_flood(80)
        assert 0 < result.peak_hpack_decoder_bytes <= 4_096

    def test_encoder_grows_without_cap(self):
        assert table_flood(120).peak_hpack_encoder_bytes > 2 * 4_096

    def test_encoder_cap_defence(self):
        result = table_flood(120, max_peer_header_table_size=4_096)
        assert result.peak_hpack_encoder_bytes <= 4_096 + 128

    def test_growth_is_monotone_while_uncapped(self):
        result = table_flood(60)
        series = [metrics["hpack_encoder_bytes"] for _, metrics in result.samples]
        assert len(series) > 60 and series == sorted(series)
        assert series[-1] == result.peak_hpack_encoder_bytes


def priority_churn(frames, bound):
    return run_attack(
        "priority_churn",
        priority_churn_victim(bound),
        duration=4.0,
        knobs={"frames": frames},
    )


class TestPriorityChurn:
    def test_unbounded_tree_grows_with_attack(self):
        result = priority_churn(400, 100_000)
        assert result.peak_priority_nodes >= 190
        assert result.peak_priority_depth >= 100

    def test_bound_defence_caps_state(self):
        result = priority_churn(400, 64)
        assert result.peak_priority_nodes <= 65
        assert result.peak_priority_depth <= 65

    def test_operations_accounted(self):
        result = priority_churn(200, 1_000)
        # The PRIORITY frames plus the handshake's SETTINGS and ack.
        assert 200 <= result.frames_sent <= 203
        assert result.peak_priority_operations >= 200 * 0.9
