"""§VI — DoS exposure study and defence validation.

Not a table or figure of the paper, but a direct implementation of its
Discussion section: quantify the three documented attack surfaces
(slow-read flow control, HPACK table flooding, priority-tree churn)
against the simulated servers, with and without the defences the paper
proposes.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.attacks import AttackResult, run_attack
from repro.attacks.battery import attack_website
from repro.experiments.common import ExperimentResult
from repro.net.transport import LinkProfile
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site
from repro.servers.website import Resource, Website

STREAMS, OBJECT_SIZE = 32, 200_000


def _victim(domain: str, website: Website, link: LinkProfile, **profile) -> Site:
    return Site(domain, ServerProfile(processing_jitter=0.0, **profile), website, link)


def slow_read_victim(**defence) -> Site:
    """:data:`STREAMS` large objects behind a server that accepts that
    many concurrent streams; ``defence`` sets the window lower bound."""
    return _victim(
        "victim.test",
        attack_website(STREAMS, OBJECT_SIZE),
        LinkProfile(rtt=0.03, bandwidth=50e6),
        settings={3: max(128, STREAMS + 8), 4: 65_536, 5: 16_384},
        processing_delay=0.002,
        **defence,
    )


def table_flood_victim(**defence) -> Site:
    """A server that varies its responses (a unique x-request-id each
    time, which unlike set-cookie *is* entered into the dynamic table):
    the worst case for encoder-table growth.  ``defence`` sets the
    encoder cap."""
    return _victim(
        "flood.test",
        Website([Resource("/", 500, "text/html")]),
        LinkProfile(rtt=0.01, bandwidth=100e6),
        settings={1: 4_096, 3: 256, 4: 65_536, 5: 16_384},
        response_header_noise=1.0,
        processing_delay=0.001,
        **defence,
    )


def priority_churn_victim(max_tracked_priority_streams: int) -> Site:
    return _victim(
        "churn.test",
        Website([Resource("/", 100, "text/html")]),
        LinkProfile(rtt=0.005, bandwidth=100e6),
        max_tracked_priority_streams=max_tracked_priority_streams,
        processing_delay=0.001,
    )


def run(seed: int = 0) -> ExperimentResult:
    rows = []

    def attack(name: str, victim: Site, duration: float, **knobs) -> AttackResult:
        return run_attack(name, victim, seed=seed, duration=duration, knobs=knobs)

    # -- slow read (§V-D1 / §VI point 2) ---------------------------------
    exposed = attack("slow_read", slow_read_victim(), 10.0, streams=STREAMS)
    defended = attack(
        "slow_read",
        slow_read_victim(min_accepted_initial_window=1_024),
        10.0,
        streams=STREAMS,
    )
    theoretical_max = STREAMS * OBJECT_SIZE
    rows.append(
        [
            "slow-read: pinned response bytes",
            f"{exposed.peak_pinned_bytes:,} / {theoretical_max:,}",
            f"{defended.peak_pinned_bytes:,} (GOAWAY: {defended.goaway_observed})",
        ]
    )

    # -- HPACK table flooding (§VI point 5) -------------------------------
    flood_victim = table_flood_victim()
    flood = attack("table_flood", flood_victim, 5.0, requests=200)
    flood_defended = attack(
        "table_flood",
        table_flood_victim(max_peer_header_table_size=4_096),
        5.0,
        requests=200,
    )
    rows.append(
        [
            "table flood: encoder table bytes",
            f"{flood.peak_hpack_encoder_bytes:,}",
            f"{flood_defended.peak_hpack_encoder_bytes:,} (capped)",
        ]
    )
    rows.append(
        [
            "table flood: decoder table bytes",
            f"{flood.peak_hpack_decoder_bytes:,} (<= own 4,096 limit)",
            f"{flood_defended.peak_hpack_decoder_bytes:,}",
        ]
    )

    # -- priority churn (§VI point 3) ----------------------------------------
    churn = attack("priority_churn", priority_churn_victim(100_000), 5.0)
    churn_defended = attack("priority_churn", priority_churn_victim(100), 5.0)
    rows.append(
        [
            "priority churn: tracked streams",
            f"{churn.peak_priority_nodes:,} (depth {churn.peak_priority_depth})",
            f"{churn_defended.peak_priority_nodes:,} "
            f"(depth {churn_defended.peak_priority_depth})",
        ]
    )

    text = format_table(
        ["attack surface (§VI)", "exposed server", "defended server"],
        rows,
        title="DoS exposure of HTTP/2 features, and the paper's proposed defences",
    )
    text += (
        "\nslow-read defence: lower bound on SETTINGS_INITIAL_WINDOW_SIZE "
        "(the paper's §VI proposal).\n"
        "table-flood defence: cap the encoder table size adopted from the "
        "peer (RFC 7541 permits any size below the announcement); the "
        "decoder side is inherently bounded by the server's own "
        "SETTINGS_HEADER_TABLE_SIZE — which is why §V-C finds every "
        "server keeps the 4,096 default.\n"
        "priority-churn defence: bound tracked priority state and evict "
        "deepest leaves.\n"
    )
    return ExperimentResult(
        name="attacks_study",
        text=text,
        data={
            "slow_read": {
                "exposed_peak": exposed.peak_pinned_bytes,
                "theoretical_max": theoretical_max,
                "defended_peak": defended.peak_pinned_bytes,
                "defence_fired": defended.goaway_observed,
            },
            "table_flood": {
                "exposed_encoder": flood.peak_hpack_encoder_bytes,
                "defended_encoder": flood_defended.peak_hpack_encoder_bytes,
                "decoder": flood.peak_hpack_decoder_bytes,
                "decoder_limit": flood_victim.profile.settings[1],
            },
            "priority_churn": {
                "exposed_tracked": churn.peak_priority_nodes,
                "defended_tracked": churn_defended.peak_priority_nodes,
                "exposed_depth": churn.peak_priority_depth,
            },
        },
    )
