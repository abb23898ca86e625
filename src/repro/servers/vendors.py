"""The six server implementations of Table III, as behaviour profiles.

Each factory transcribes one column of Table III plus the Section V-A
observations (window quirks, HPACK indexing).
Population-only server families seen in Table IV (GSE, cloudflare-nginx,
IdeaWebServer) are modelled here too so the Alexa-scale experiments can
mix them in.
"""

from __future__ import annotations

from repro.h2.connection import Reaction
from repro.h2.constants import SettingCode
from repro.servers.profiles import AbuseGuards, ServerProfile, TinyWindowBehavior

MCS = int(SettingCode.MAX_CONCURRENT_STREAMS)
IWS = int(SettingCode.INITIAL_WINDOW_SIZE)
MFS = int(SettingCode.MAX_FRAME_SIZE)
MHLS = int(SettingCode.MAX_HEADER_LIST_SIZE)


def nginx() -> ServerProfile:
    """Nginx v1.9.15 (Table III column 1)."""
    return ServerProfile(
        name="nginx",
        server_header="nginx/1.9.15",
        supports_alpn=True,
        supports_npn=True,
        # §V-C: Nginx announces INITIAL_WINDOW_SIZE 0 and immediately
        # re-opens windows with WINDOW_UPDATE frames.
        settings={MCS: 128, IWS: 0, MFS: 16_384},
        announce_zero_then_window_update=True,
        flow_control_on_headers=False,
        on_zero_window_update_stream=Reaction.IGNORE,
        on_zero_window_update_connection=Reaction.IGNORE,
        on_window_overflow_stream=Reaction.RST_STREAM,
        on_window_overflow_connection=Reaction.GOAWAY,
        scheduler_mode="fcfs",
        on_self_dependency=Reaction.RST_STREAM,
        supports_push=False,
        # §V-G: Nginx only indexes request headers; responses never
        # shrink, so its compression ratio is ~1.
        hpack_index_responses=False,
    )


def litespeed() -> ServerProfile:
    """LiteSpeed v5.0.11 (Table III column 2)."""
    return ServerProfile(
        name="litespeed",
        server_header="LiteSpeed",
        supports_alpn=True,
        supports_npn=True,
        settings={MCS: 100, IWS: 65_536, MFS: 16_384, MHLS: 16_384},
        # Table III: LiteSpeed applies flow control to HEADERS frames;
        # §V-D1: with a 1-octet window it sends no response at all.
        flow_control_on_headers=True,
        headers_hold_threshold=16,
        tiny_window_behavior=TinyWindowBehavior.SILENT,
        on_zero_window_update_stream=Reaction.RST_STREAM,
        on_zero_window_update_connection=Reaction.GOAWAY,
        scheduler_mode="fcfs",
        on_self_dependency=Reaction.IGNORE,
        supports_push=False,
        hpack_index_responses=True,
    )


def h2o() -> ServerProfile:
    """H2O v1.6.2 (Table III column 3)."""
    return ServerProfile(
        name="h2o",
        server_header="h2o/1.6.2",
        supports_alpn=True,
        supports_npn=True,
        settings={MCS: 100, IWS: 16_777_216, MFS: 16_384},
        on_zero_window_update_stream=Reaction.RST_STREAM,
        on_zero_window_update_connection=Reaction.GOAWAY,
        scheduler_mode="strict",
        on_self_dependency=Reaction.GOAWAY,
        supports_push=True,
        hpack_index_responses=True,
    )


def nghttpd() -> ServerProfile:
    """nghttpd v1.12.0 (Table III column 4)."""
    return ServerProfile(
        name="nghttpd",
        server_header="nghttpd nghttp2/1.12.0",
        supports_alpn=True,
        supports_npn=True,
        settings={MCS: 100, IWS: 65_535, MFS: 16_384},
        # Table III: nghttpd answers zero window updates with GOAWAY
        # even when the frame targets a stream.
        on_zero_window_update_stream=Reaction.GOAWAY,
        on_zero_window_update_connection=Reaction.GOAWAY,
        scheduler_mode="strict",
        on_self_dependency=Reaction.GOAWAY,
        supports_push=True,
        hpack_index_responses=True,
    )


def tengine() -> ServerProfile:
    """Tengine v2.1.2 (Table III column 5) — an Nginx fork."""
    profile = nginx()
    return profile.clone(name="tengine", server_header="Tengine/2.1.2")


def apache() -> ServerProfile:
    """Apache httpd v2.4.23 with mod_http2 (Table III column 6)."""
    return ServerProfile(
        name="apache",
        server_header="Apache/2.4.23",
        supports_alpn=True,
        # Table III: Apache does not support NPN over TLS.
        supports_npn=False,
        settings={MCS: 100, IWS: 65_535, MFS: 16_384, MHLS: 16_384},
        on_zero_window_update_stream=Reaction.GOAWAY,
        on_zero_window_update_connection=Reaction.GOAWAY,
        scheduler_mode="strict",
        on_self_dependency=Reaction.GOAWAY,
        supports_push=True,
        hpack_index_responses=True,
    )


# -- population-only server families (Table IV) --------------------------


def gse() -> ServerProfile:
    """GSE — Google's proprietary web server (population only).

    §V-G: GSE achieves the best HPACK ratios (all below 0.3), and GSE
    sites announce large initial windows and frame sizes.
    """
    return ServerProfile(
        name="gse",
        server_header="GSE",
        supports_alpn=True,
        supports_npn=True,
        settings={MCS: 100, IWS: 1_048_576, MFS: 16_777_215},
        scheduler_mode="strict",
        supports_push=False,
        hpack_index_responses=True,
    )


def cloudflare_nginx() -> ServerProfile:
    """cloudflare-nginx — an Nginx derivative at the edge."""
    profile = nginx()
    return profile.clone(
        name="cloudflare-nginx",
        server_header="cloudflare-nginx",
        settings={MCS: 128, IWS: 2_147_483_647, MFS: 16_384},
        announce_zero_then_window_update=False,
    )


def ideaweb() -> ServerProfile:
    """IdeaWebServer/v0.80 (home.pl's server; poor HPACK per §V-G)."""
    return ServerProfile(
        name="ideaweb",
        server_header="IdeaWebServer/v0.80",
        supports_alpn=True,
        supports_npn=True,
        settings={MCS: 100, IWS: 65_536, MFS: 16_384},
        scheduler_mode="fcfs",
        supports_push=False,
        hpack_index_responses=False,
    )


def tengine_aserver() -> ServerProfile:
    """Tengine/Aserver — tmall.com's rebranded Tengine (2nd experiment)."""
    profile = tengine()
    return profile.clone(name="tengine-aserver", server_header="Tengine/Aserver")


#: Per-vendor hardened abuse-guard defaults (ISSUE 7).  None of the
#: 2016 builds in Table III shipped these, so they are NOT part of the
#: vendor factories above — the battery (and any caller that wants a
#: hardened engine) applies them explicitly via :func:`vendor_guards`.  The
#: knobs loosely mirror the defences the vendors later grew (nginx's
#: client_header_timeout lineage, Apache's mod_reqtimeout, nghttp2's
#: rapid-reset mitigation), scaled to testbed seconds and deliberately
#: differentiated so the survival matrix separates strict from lenient
#: configurations.
DEFAULT_GUARDS: dict[str, AbuseGuards] = {
    "nginx": AbuseGuards(
        preface_timeout=3.0,
        header_timeout=3.0,
        idle_timeout=8.0,
        stall_timeout=6.0,
        ping_rate_limit=60,
        settings_rate_limit=20,
        rst_rate_limit=100,
    ),
    "litespeed": AbuseGuards(
        preface_timeout=2.0,
        header_timeout=2.0,
        idle_timeout=6.0,
        stall_timeout=4.0,
        ping_rate_limit=40,
        settings_rate_limit=10,
        rst_rate_limit=50,
    ),
    "h2o": AbuseGuards(
        preface_timeout=4.0,
        header_timeout=4.0,
        idle_timeout=10.0,
        stall_timeout=8.0,
        ping_rate_limit=80,
        settings_rate_limit=30,
        rst_rate_limit=150,
    ),
    "nghttpd": AbuseGuards(
        preface_timeout=5.0,
        header_timeout=5.0,
        idle_timeout=12.0,
        stall_timeout=10.0,
        ping_rate_limit=100,
        settings_rate_limit=40,
        rst_rate_limit=200,
    ),
    "tengine": AbuseGuards(
        preface_timeout=3.0,
        header_timeout=3.0,
        idle_timeout=8.0,
        stall_timeout=6.0,
        ping_rate_limit=50,
        settings_rate_limit=15,
        rst_rate_limit=80,
    ),
    "apache": AbuseGuards(
        preface_timeout=4.0,
        header_timeout=4.0,
        idle_timeout=9.0,
        stall_timeout=7.0,
        ping_rate_limit=70,
        settings_rate_limit=25,
        rst_rate_limit=120,
    ),
}

#: Fallback guard set for profiles without a vendor-specific entry: the
#: h2o set, mid-range on every knob.
GENERIC_GUARDS = DEFAULT_GUARDS["h2o"]


def vendor_guards(name: str) -> AbuseGuards:
    """The hardened default guard set for a vendor (generic fallback)."""
    return DEFAULT_GUARDS.get(name, GENERIC_GUARDS)


#: The six testbed servers, keyed by profile name (Table III order).
VENDOR_FACTORIES = {
    "nginx": nginx,
    "litespeed": litespeed,
    "h2o": h2o,
    "nghttpd": nghttpd,
    "tengine": tengine,
    "apache": apache,
}

#: Server families appearing in the population experiments (Table IV).
POPULATION_FACTORIES = {
    **VENDOR_FACTORIES,
    "gse": gse,
    "cloudflare-nginx": cloudflare_nginx,
    "ideaweb": ideaweb,
    "tengine-aserver": tengine_aserver,
}
