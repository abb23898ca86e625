"""The paper's published population aggregates, transcribed as data.

Every number below is copied from the paper: Section V-B (adoption),
Table IV (server families), Tables V-VII (SETTINGS values), Fig. 2
(MAX_CONCURRENT_STREAMS, approximated as a discrete mixture consistent
with the described CDF), and Sections V-D/E/F/G (behaviour counts).

The generator samples sites from these marginals; the analysis layer
compares what H2Scope recovers against the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentData:
    """One measurement campaign's published aggregates."""

    label: str
    date: str

    # -- §V-B adoption ------------------------------------------------------
    total_scanned: int  # the Alexa top 1M
    npn_sites: int
    alpn_sites: int
    headers_sites: int  # sites that returned HEADERS frames

    # -- Table IV: server families with > 1,000 sites ------------------------
    server_counts: dict[str, int]
    #: Distinct server kinds observed (223 in exp 1, 345 in exp 2).
    server_kinds: int

    # -- Table V: SETTINGS_INITIAL_WINDOW_SIZE (None key == NULL) -----------
    iws_counts: dict[int | None, int]
    # -- Table VI: SETTINGS_MAX_FRAME_SIZE -----------------------------------
    mfs_counts: dict[int | None, int]
    # -- Table VII: SETTINGS_MAX_HEADER_LIST_SIZE ("unlimited" == absent) ----
    mhls_counts: dict[int | str | None, int]
    # -- Fig. 2: MAX_CONCURRENT_STREAMS mixture (value -> weight) ------------
    mcs_mixture: dict[int, float]

    # -- §V-D1: Sframe = 1 -----------------------------------------------------
    tiny_window_sized: int
    tiny_zero_length: int
    tiny_no_response: int
    tiny_no_response_litespeed: int

    # -- §V-D2: zero initial window, HEADERS-only compliant -------------------
    zero_window_headers_ok: int

    # -- §V-D3: zero WINDOW_UPDATE on a stream ---------------------------------
    zero_wu_rst: int
    zero_wu_not_error: int  # includes the GOAWAY sites below
    zero_wu_goaway: int
    zero_wu_goaway_debug: int

    # -- §V-D4: overflowing WINDOW_UPDATE ----------------------------------------
    large_wu_conn_goaway: int
    large_wu_stream_rst: int
    large_wu_stream_no_rst: int

    # -- §V-E1: Algorithm 1 ----------------------------------------------------
    priority_pass_last: int
    priority_pass_first: int
    priority_pass_both: int

    # -- §V-E2: self dependency ---------------------------------------------------
    selfdep_rst: int

    # -- §V-F: server push ----------------------------------------------------------
    push_sites: int

    # -- §V-G: HPACK-measurable sites per family (Figs. 4-5 populations) ----------
    hpack_sites: dict[str, int]

    def h2_site_estimate(self) -> int:
        """Sites speaking HTTP/2 by either mechanism.

        The paper reports NPN and ALPN counts but not the union.  Apache
        (no NPN) implies some ALPN-only sites; the >100 NPN-only server
        kinds imply NPN-only sites.  We take union ≈ max + 60% of the
        smaller count's non-overlap, a round heuristic documented in
        DESIGN.md.
        """
        overlap_shortfall = min(self.npn_sites, self.alpn_sites) // 20
        return max(self.npn_sites, self.alpn_sites) + overlap_shortfall


EXPERIMENT_1 = ExperimentData(
    label="experiment-1",
    date="2016-07",
    total_scanned=1_000_000,
    npn_sites=49_334,
    alpn_sites=47_966,
    headers_sites=44_390,
    server_counts={
        "litespeed": 12_637,
        "nginx": 11_293,
        "gse": 9_928,
        "tengine": 2_535,
        "cloudflare-nginx": 1_197,
        "ideaweb": 1_128,
        "tengine-aserver": 0,
    },
    server_kinds=223,
    iws_counts={
        None: 1_050,
        0: 3_072,
        32_768: 3,
        65_535: 49,
        65_536: 20_477,
        131_072: 1,
        262_144: 1,
        1_048_576: 10_799,
        16_777_216: 11,
        20_000_000: 1,
        2_147_483_647: 8_926,
    },
    mfs_counts={
        None: 1_050,
        16_384: 24_781,
        1_048_576: 27,
        16_777_215: 18_532,
    },
    mhls_counts={
        None: 1_050,
        "unlimited": 32_568,
        16_384: 10_717,
        32_768: 3,
        81_920: 2,
        131_072: 24,
        1_048_896: 26,
    },
    mcs_mixture={
        100: 0.52,
        128: 0.33,
        256: 0.05,
        1_000: 0.03,
        32: 0.02,
        10: 0.01,
        1: 0.005,
        2_000: 0.015,
        10_000: 0.015,
        100_000: 0.005,
    },
    tiny_window_sized=37_525,
    tiny_zero_length=2_433,
    tiny_no_response=4_432,
    tiny_no_response_litespeed=3_900,  # not broken out in exp 1; scaled
    zero_window_headers_ok=17_191,
    zero_wu_rst=23_673,
    zero_wu_not_error=20_717,
    zero_wu_goaway=31,
    zero_wu_goaway_debug=26,
    large_wu_conn_goaway=40_567,
    large_wu_stream_rst=36_619,
    large_wu_stream_no_rst=7_771,
    priority_pass_last=1_147,
    priority_pass_first=46,
    priority_pass_both=38,
    selfdep_rst=18_237,
    push_sites=6,
    hpack_sites={
        "tengine": 2_449,
        "nginx": 12_764,
        "gse": 9_929,
        "ideaweb": 873,
        "litespeed": 11_834,
    },
)


EXPERIMENT_2 = ExperimentData(
    label="experiment-2",
    date="2017-01",
    total_scanned=1_000_000,
    npn_sites=78_714,
    alpn_sites=70_859,
    headers_sites=64_299,
    server_counts={
        "litespeed": 13_626,
        "nginx": 27_394,
        "gse": 9_929,
        "tengine": 674,
        "cloudflare-nginx": 1_766,
        "ideaweb": 1_261,
        "tengine-aserver": 2_620,
    },
    server_kinds=345,
    iws_counts={
        None: 1_015,
        0: 7_499,
        32_768: 59,
        65_535: 106,
        65_536: 40_612,
        131_072: 1,
        262_144: 1,
        1_048_576: 10_929,
        16_777_216: 15,
        2_147_483_647: 4_062,
    },
    mfs_counts={
        None: 1_015,
        16_384: 25_987,
        1_048_576: 81,
        16_777_215: 37_216,
    },
    mhls_counts={
        None: 1_015,
        "unlimited": 52_311,
        16_384: 10_806,
        32_768: 59,
        81_920: 3,
        131_072: 25,
        1_048_896: 80,
    },
    mcs_mixture={
        100: 0.55,
        128: 0.31,
        256: 0.04,
        1_000: 0.03,
        32: 0.02,
        10: 0.008,
        1: 0.002,
        2_000: 0.015,
        10_000: 0.015,
        100_000: 0.01,
    },
    tiny_window_sized=44_204,
    tiny_zero_length=8_056,
    tiny_no_response=12_039,
    tiny_no_response_litespeed=10_472,
    zero_window_headers_ok=23_834,
    zero_wu_rst=26_156,
    zero_wu_not_error=38_143,
    zero_wu_goaway=162,
    zero_wu_goaway_debug=42,
    large_wu_conn_goaway=62_668,
    large_wu_stream_rst=44_057,
    large_wu_stream_no_rst=20_242,
    priority_pass_last=2_187,
    priority_pass_first=117,
    priority_pass_both=111,
    selfdep_rst=53_379,
    push_sites=15,
    hpack_sites={
        "tengine": 619,
        "nginx": 22_548,
        "gse": 9_925,
        "ideaweb": 1_000,
        "litespeed": 12_856,
    },
)


def experiment_data(experiment: int) -> ExperimentData:
    """Lookup by the paper's experiment number (1 or 2)."""
    if experiment == 1:
        return EXPERIMENT_1
    if experiment == 2:
        return EXPERIMENT_2
    raise ValueError(f"experiment must be 1 or 2, got {experiment}")
