"""Vendor profiles transcribe Table III faithfully."""

import pytest

from repro.h2.connection import Reaction
from repro.h2.constants import SettingCode
from repro.servers.profiles import TinyWindowBehavior
from repro.servers.vendors import (
    POPULATION_FACTORIES,
    VENDOR_FACTORIES,
    apache,
    gse,
    litespeed,
    nginx,
    tengine,
)


class TestTableIIIRows:
    def test_all_six_vendors_present(self):
        assert set(VENDOR_FACTORIES) == {
            "nginx",
            "litespeed",
            "h2o",
            "nghttpd",
            "tengine",
            "apache",
        }

    def test_only_apache_lacks_npn(self):
        for name, factory in VENDOR_FACTORIES.items():
            assert factory().supports_npn == (name != "apache"), name

    def test_everyone_supports_alpn(self):
        for factory in VENDOR_FACTORIES.values():
            assert factory().supports_alpn

    def test_only_litespeed_flow_controls_headers(self):
        for name, factory in VENDOR_FACTORIES.items():
            assert factory().flow_control_on_headers == (name == "litespeed"), name

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("nginx", Reaction.IGNORE),
            ("litespeed", Reaction.RST_STREAM),
            ("h2o", Reaction.RST_STREAM),
            ("nghttpd", Reaction.GOAWAY),
            ("tengine", Reaction.IGNORE),
            ("apache", Reaction.GOAWAY),
        ],
    )
    def test_zero_window_update_stream_row(self, name, expected):
        assert VENDOR_FACTORIES[name]().on_zero_window_update_stream is expected

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("nginx", Reaction.IGNORE),
            ("litespeed", Reaction.GOAWAY),
            ("h2o", Reaction.GOAWAY),
            ("nghttpd", Reaction.GOAWAY),
            ("tengine", Reaction.IGNORE),
            ("apache", Reaction.GOAWAY),
        ],
    )
    def test_zero_window_update_connection_row(self, name, expected):
        assert VENDOR_FACTORIES[name]().on_zero_window_update_connection is expected

    def test_large_window_update_rows_uniform(self):
        for factory in VENDOR_FACTORIES.values():
            profile = factory()
            assert profile.on_window_overflow_stream is Reaction.RST_STREAM
            assert profile.on_window_overflow_connection is Reaction.GOAWAY

    def test_push_row(self):
        pushers = {n for n, f in VENDOR_FACTORIES.items() if f().supports_push}
        assert pushers == {"h2o", "nghttpd", "apache"}

    def test_priority_row(self):
        strict = {
            n for n, f in VENDOR_FACTORIES.items() if f().scheduler_mode == "strict"
        }
        assert strict == {"h2o", "nghttpd", "apache"}

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("nginx", Reaction.RST_STREAM),
            ("litespeed", Reaction.IGNORE),
            ("h2o", Reaction.GOAWAY),
            ("nghttpd", Reaction.GOAWAY),
            ("tengine", Reaction.RST_STREAM),
            ("apache", Reaction.GOAWAY),
        ],
    )
    def test_self_dependency_row(self, name, expected):
        assert VENDOR_FACTORIES[name]().on_self_dependency is expected

    def test_header_compression_partial_for_nginx_lineage(self):
        indexers = {
            n for n, f in VENDOR_FACTORIES.items() if f().hpack_index_responses
        }
        assert indexers == {"litespeed", "h2o", "nghttpd", "apache"}


class TestQuirkDetails:
    def test_nginx_announces_zero_window_then_updates(self):
        profile = nginx()
        assert profile.settings[int(SettingCode.INITIAL_WINDOW_SIZE)] == 0
        assert profile.announce_zero_then_window_update

    def test_tengine_is_nginx_fork(self):
        n, t = nginx(), tengine()
        assert t.server_header.startswith("Tengine")
        assert t.announce_zero_then_window_update == n.announce_zero_then_window_update
        assert t.scheduler_mode == n.scheduler_mode
        assert t.hpack_index_responses == n.hpack_index_responses

    def test_litespeed_goes_silent_on_tiny_windows(self):
        profile = litespeed()
        assert profile.tiny_window_behavior is TinyWindowBehavior.SILENT
        assert profile.headers_hold_threshold > 1

    def test_nginx_max_concurrent_enforced(self):
        profile = nginx()
        assert profile.settings[int(SettingCode.MAX_CONCURRENT_STREAMS)] == 128

    def test_clone_does_not_mutate_original(self):
        base = apache()
        clone = base.clone(name="apache-custom", supports_push=False)
        assert base.supports_push
        assert not clone.supports_push
        assert base.name == "apache"

    def test_population_families_superset(self):
        assert set(VENDOR_FACTORIES) < set(POPULATION_FACTORIES)
        assert "gse" in POPULATION_FACTORIES

    def test_gse_large_windows(self):
        profile = gse()
        assert profile.settings[int(SettingCode.INITIAL_WINDOW_SIZE)] == 1_048_576
        assert profile.settings[int(SettingCode.MAX_FRAME_SIZE)] == 16_777_215
