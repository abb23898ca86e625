"""The attack battery: survival with guards off, bounded eviction
with guards on, and seed determinism.

The full 9 x 6 guards-off grid takes tens of seconds of simulated
flooding, so tier-1 runs a representative slice; set
``H2SCOPE_BATTERY_FULL=1`` (the CI full-matrix job does) for the
complete matrix on both guard settings.
"""

import os

import pytest

import repro.attacks
from repro.attacks import BATTERY_PROFILES, run_attack, run_battery
from repro.h2.constants import ErrorCode
from repro.servers.vendors import VENDOR_FACTORIES, vendor_guards

VENDORS = list(VENDOR_FACTORIES)
PROFILES = list(BATTERY_PROFILES)

#: Wall/schedule slack on eviction deadlines, seconds.
SLACK = 1.0

FULL = os.environ.get("H2SCOPE_BATTERY_FULL") == "1"

#: Guard-breach reason each profile must trip, by guard_knob.
EXPECTED_REASON = {
    "preface": "preface-timeout",
    "header": "header-timeout",
    "stall": "stall-timeout",
    "ping": "ping-flood",
    "settings": "settings-flood",
    "rst": "rst-flood",
}


#: Profiles a guard knob covers, i.e. that a hardened engine evicts
#: before their work is done.
GUARDED = [name for name in PROFILES if BATTERY_PROFILES[name].guard_knob]


class TestContract:
    def test_battery_profiles_in_unified_registry(self):
        assert len(PROFILES) == 9
        assert PROFILES[:6] == [
            "slow_preface", "slow_headers", "zero_window_stall",
            "ping_flood", "settings_flood", "rst_churn",
        ]  # fmt: skip
        for name, profile in BATTERY_PROFILES.items():
            assert profile.name == name
            assert callable(profile.behaviour)
            assert profile.guard_knob in (None, *EXPECTED_REASON)
        assert set(PROFILES) - set(GUARDED) == {"table_flood", "priority_churn"}

    def test_discussion_profiles_share_the_registry_and_the_runner(self):
        # One registry, one runner: the package exports nothing else
        # that runs an attack, and the §VI three take every axis.
        runners = [
            name
            for name in repro.attacks.__all__
            if name.startswith("run_") or name.endswith("_PROFILES")
        ]
        assert sorted(runners) == ["BATTERY_PROFILES", "run_attack", "run_battery"]
        for name in ("slow_read", "table_flood", "priority_churn"):
            result = run_attack(name, "apache", guards="vendor", duration=2.0)
            assert (result.profile, result.vendor) == (name, "apache")
            assert result.connected and result.guards_enabled


class TestGuardsOffSurvival:
    """Guards off reproduce the 2016 exposure: every profile holds its
    connection for the whole attack window, unevicted."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_profile_survives_nginx(self, profile):
        result = run_attack(profile, "nginx", duration=6.0, seed=3)
        assert result.connected
        assert result.survived and not result.evicted
        assert result.held_seconds >= 6.0 - 0.5
        assert result.guard_reasons == []
        assert result.eviction_deadline is None

    @pytest.mark.parametrize(
        "profile", ["slow_preface", "zero_window_stall"]
    )
    @pytest.mark.parametrize(
        "vendor", VENDORS if FULL else ["apache", "h2o"]
    )
    def test_holding_profiles_hold_everywhere(self, profile, vendor):
        # The two squatting attacks are the acceptance bar: with no
        # guards they must hold on every vendor, not just nginx.
        result = run_attack(profile, vendor, duration=6.0, seed=3)
        assert result.survived and not result.evicted, (profile, vendor)

    def test_zero_window_stall_pins_response_memory(self):
        result = run_attack("zero_window_stall", "nginx", duration=6.0)
        # 16 stalled victims at 120 kB each, pinned behind zero windows.
        assert result.peak_pinned_bytes > 1_000_000
        # Still pinned at the end of the window: the server cannot free.
        assert result.samples[-1][1]["pinned_bytes"] == result.peak_pinned_bytes

    def test_slow_headers_grows_assembly_state(self):
        result = run_attack("slow_headers", "nginx", duration=6.0)
        assert result.peak_assembly_bytes > 0
        assert result.survived


class TestGuardsOnEviction:
    """Every cell of a profile a guard knob covers is evicted within its
    guard deadline and sees the terminal GOAWAY(ENHANCE_YOUR_CALM)."""

    @pytest.mark.parametrize("profile", GUARDED)
    @pytest.mark.parametrize(
        "vendor", VENDORS if FULL else ["nginx", "litespeed", "apache"]
    )
    def test_evicted_within_deadline_with_goaway(self, profile, vendor):
        result = run_attack(
            profile, vendor, guards="vendor", duration=16.0, seed=3
        )
        assert result.connected, (profile, vendor)
        assert result.evicted and not result.survived, (profile, vendor)
        assert result.eviction_deadline is not None
        assert result.eviction_at is not None
        assert result.eviction_at <= result.eviction_deadline + SLACK, (
            profile,
            vendor,
            result.eviction_at,
            result.eviction_deadline,
        )
        assert result.goaway_observed, (profile, vendor)
        assert result.goaway_error == int(ErrorCode.ENHANCE_YOUR_CALM)
        knob = BATTERY_PROFILES[profile].guard_knob
        assert result.guard_reasons == [EXPECTED_REASON[knob]], (
            profile,
            vendor,
            result.guard_reasons,
        )
        assert result.goaway_debug == EXPECTED_REASON[knob].encode()


class TestMatrixDeterminism:
    def test_same_seed_same_matrix(self):
        kwargs = dict(
            vendors=["nginx", "apache"],
            profiles=["slow_headers", "rst_churn"],
            guards="vendor",
            seed=11,
            duration=8.0,
        )
        first = run_battery(**kwargs)
        second = run_battery(**kwargs)
        assert first.to_json() == second.to_json()

    def test_matrix_addresses_every_cell(self):
        matrix = run_battery(
            vendors=["nginx"], profiles=["ping_flood"], duration=4.0
        )
        cell = matrix.cell("ping_flood", "nginx")
        assert cell is not None and cell.connected
        assert matrix.cell("ping_flood", "nothere") is None
        rendered = matrix.render()
        assert "ping_flood" in rendered and "nginx" in rendered


class TestLoopbackBackend:
    """The same battery over real TCP via the PR 6 loopback bridge.

    Wall-clock seconds per deadline, so tier-1 runs the two cheapest
    cells with scaled guards; the full loopback sweep rides the CI
    full-matrix job via H2SCOPE_BATTERY_FULL.
    """

    def test_ping_flood_evicted_over_loopback(self):
        result = run_attack(
            "ping_flood",
            "nginx",
            backend="loopback",
            guards=vendor_guards("nginx").scaled(0.5),
            duration=6.0,
        )
        assert result.connected
        assert result.evicted
        assert result.guard_reasons == ["ping-flood"]
        assert result.eviction_at is not None
        assert result.eviction_at <= result.eviction_deadline + 2.0

    def test_slow_preface_evicted_over_loopback(self):
        guards = vendor_guards("nginx").scaled(0.5)
        result = run_attack(
            "slow_preface",
            "nginx",
            backend="loopback",
            guards=guards,
            duration=6.0,
        )
        assert result.connected
        assert result.evicted
        assert result.guard_reasons == ["preface-timeout"]
        assert result.eviction_at <= guards.preface_timeout + 2.0

    @pytest.mark.skipif(not FULL, reason="H2SCOPE_BATTERY_FULL not set")
    def test_full_profile_sweep_over_loopback(self):
        matrix = run_battery(
            vendors=["nginx"],
            profiles=GUARDED,
            backend="loopback",
            guards="vendor",
            guard_scale=0.5,
            duration=8.0,
        )
        for result in matrix.results:
            assert result.evicted, (result.profile, result.guard_reasons)
