"""Build a synthetic site population from the paper's aggregates.

The generator samples one :class:`~repro.servers.site.Site` at a time:

* server family from Table IV (plus an "other" bucket sized to the
  remainder of the HEADERS-returning population, with synthetic server
  names approximating the paper's 223/345 distinct kinds);
* announced SETTINGS from the Table V/VI/VII marginals and the Fig. 2
  mixture (the ~1,000 NULL sites send no SETTINGS frame at all);
* behavioural quirks from the Section V-D/E/F counts (zero-window
  HEADERS handling, tiny-window behaviour, zero/large WINDOW_UPDATE
  reactions, scheduler flavour, self-dependency reaction, push);
* HPACK indexing policy per family, reproducing the Figs. 4-5 ratio
  populations (Nginx/Tengine/IdeaWebServer ratio ~1, GSE < 0.3,
  LiteSpeed 80/20 split).

Marginals are sampled independently unless the paper ties a behaviour
to a family (LiteSpeed's silent tiny-window mode, Apache's missing NPN,
family HPACK policies).  Every planted choice is recorded in
``site.truth`` so tests can assert H2Scope recovers it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.h2.connection import Reaction
from repro.h2.constants import SettingCode
from repro.net.transport import LinkProfile
from repro.population.distributions import ExperimentData, experiment_data
from repro.servers.profiles import ServerProfile, TinyWindowBehavior
from repro.servers.site import Site
from repro.servers.vendors import POPULATION_FACTORIES
from repro.servers.website import (
    PRIORITY_DEPLETION_PATHS,
    PRIORITY_TEST_PATHS,
    Resource,
    Website,
    random_website,
)

MCS = int(SettingCode.MAX_CONCURRENT_STREAMS)
IWS = int(SettingCode.INITIAL_WINDOW_SIZE)
MFS = int(SettingCode.MAX_FRAME_SIZE)
MHLS = int(SettingCode.MAX_HEADER_LIST_SIZE)

#: The objects Algorithm 1 needs: six labelled test objects plus window-
#: depletion objects (§III-C's testbed preparation, available on every
#: site here because we control the origin).  They are identical on
#: every site, so every site's website adds these same records.
PRIORITY_RESOURCES = tuple(
    Resource(path, 40_000, "application/octet-stream") for path in PRIORITY_TEST_PATHS
) + tuple(
    Resource(path, 30_000, "application/octet-stream")
    for path in PRIORITY_DEPLETION_PATHS
)
#: The one page every negotiation-only (mute) site holds.
MUTE_FRONT_PAGE = Resource("/", 1_000)

#: Families whose nginx lineage means responses are not HPACK-indexed.
NGINX_LINEAGE = {"nginx", "tengine", "tengine-aserver", "cloudflare-nginx"}
#: §V-G: the fraction of Nginx sites whose ratio is exactly 1 (93.5 %),
#: and of LiteSpeed sites with ratio < 0.3 (80 %).
NGINX_RATIO_ONE_FRACTION = 0.935
LITESPEED_GOOD_FRACTION = 0.80


@dataclass
class PopulationConfig:
    """Scale and composition of one generated population."""

    experiment: int = 1
    #: Number of HEADERS-returning HTTP/2 sites to generate; the paper's
    #: population is 44,390 (exp 1) / 64,299 (exp 2).
    n_sites: int = 400
    seed: int = 7
    #: Also generate sites that negotiate h2 but never answer requests
    #: (the §V-B negotiation-vs-HEADERS gap), pro rata.
    include_unresponsive: bool = True

    @property
    def data(self) -> ExperimentData:
        return experiment_data(self.experiment)

    @property
    def scale(self) -> float:
        """Generated sites per paper site (for extrapolating counts)."""
        return self.n_sites / self.data.headers_sites


def make_population(config: PopulationConfig) -> list[Site]:
    """Generate the site list for one experiment at the given scale."""
    rng = random.Random(config.seed)
    data = config.data
    sites = [
        _make_site(rng, data, config, index)
        for index in range(config.n_sites)
    ]
    _apply_rare_quotas(rng, data, sites)
    if config.include_unresponsive:
        union = data.h2_site_estimate()
        extra = round(config.n_sites * (union - data.headers_sites) / data.headers_sites)
        for index in range(extra):
            sites.append(_make_unresponsive_site(rng, data, config, index))
    return sites


def _stochastic_round(rng: random.Random, value: float) -> int:
    """Round so the expectation equals ``value`` even below 1."""
    base = int(value)
    return base + (1 if rng.random() < value - base else 0)


def _apply_rare_quotas(
    rng: random.Random, data: ExperimentData, sites: list[Site]
) -> None:
    """Plant rare behaviours by quota instead of per-site coin flips.

    Traits rarer than ~1% of the population (priority-respecting
    schedulers, zero-WU GOAWAY responders, pushing sites) would be lost
    in Bernoulli noise at small scales; planting exact (stochastically
    rounded) quotas keeps the scaled counts close to the paper's.
    """
    n = len(sites)
    total = data.headers_sites
    order = list(range(n))
    rng.shuffle(order)
    cursor = 0

    def take(count: int) -> list[Site]:
        nonlocal cursor
        picked = [sites[i] for i in order[cursor : cursor + count]]
        cursor += count
        return picked

    # Scheduler flavours (§V-E1): both-rule passers are strict, last-
    # rule-only passers are soft WFQ, everyone else stays FCFS.
    for site in sites:
        site.profile.scheduler_mode = "fcfs"
        site.truth["scheduler_mode"] = "fcfs"
    n_strict = _stochastic_round(rng, n * data.priority_pass_both / total)
    n_wfq = _stochastic_round(
        rng, n * (data.priority_pass_last - data.priority_pass_both) / total
    )
    for site in take(n_strict):
        site.profile.scheduler_mode = "strict"
        site.truth["scheduler_mode"] = "strict"
    for site in take(n_wfq):
        site.profile.scheduler_mode = "wfq"
        site.truth["scheduler_mode"] = "wfq"

    # Zero-WU GOAWAY responders and their debug-data subset (§V-D3).
    n_goaway = _stochastic_round(rng, n * data.zero_wu_goaway / total)
    n_debug = _stochastic_round(rng, n * data.zero_wu_goaway_debug / total)
    goaway_sites = take(n_goaway)
    for index, site in enumerate(goaway_sites):
        site.profile.on_zero_window_update_stream = Reaction.GOAWAY
        site.truth["zero_wu_stream"] = Reaction.GOAWAY.value
        if index < n_debug:
            site.profile.zero_window_update_debug = (
                b"window update increment must not be zero"
            )

    # Pushing sites (§V-F).
    n_push = _stochastic_round(rng, n * data.push_sites / total)
    for site in sites:
        site.profile.supports_push = False
        site.truth["supports_push"] = False
    for site in take(n_push):
        site.profile.supports_push = True
        site.truth["supports_push"] = True
        _add_push_manifest(site)


def _add_push_manifest(site: Site) -> None:
    front = site.website.get("/")
    if front is not None and not front.push:
        site.website.add(replace(front, push=front.links[:3]))


# ----------------------------------------------------------------------
# Site assembly
# ----------------------------------------------------------------------


def _make_site(
    rng: random.Random, data: ExperimentData, config: PopulationConfig, index: int
) -> Site:
    family = _draw_family(rng, data)
    profile = _base_profile(rng, family, data)
    truth: dict = {"family": family, "responsive": True}

    _sample_negotiation(rng, data, profile, family, truth)
    _sample_settings(rng, data, profile, truth)
    _sample_flow_control(rng, data, profile, family, truth)
    _sample_priority(rng, data, profile, truth)
    _sample_hpack(rng, profile, family, truth)

    cookie_prob = {"gse": 0.0, "litespeed": 0.05}.get(family, 0.25)
    website = _make_website(rng, cookie_prob=cookie_prob)
    return Site(
        domain=f"site{index:06d}.{data.label}.alexa",
        profile=profile,
        website=website,
        link=_sample_link(rng),
        truth=truth,
    )


def _make_unresponsive_site(
    rng: random.Random, data: ExperimentData, config: PopulationConfig, index: int
) -> Site:
    family = _draw_family(rng, data)
    profile = _base_profile(rng, family, data)
    profile = profile.clone(h2_unresponsive=True)
    truth = {"family": family, "responsive": False}
    _sample_negotiation(rng, data, profile, family, truth)
    return Site(
        domain=f"mute{index:06d}.{data.label}.alexa",
        profile=profile,
        website=Website([MUTE_FRONT_PAGE]),
        link=_sample_link(rng),
        truth=truth,
    )


def _draw_family(rng: random.Random, data: ExperimentData) -> str:
    families = list(data.server_counts)
    weights = [data.server_counts[f] for f in families]
    other = data.headers_sites - sum(weights)
    families.append("other")
    weights.append(other)
    return rng.choices(families, weights=weights)[0]


def _base_profile(
    rng: random.Random, family: str, data: ExperimentData
) -> ServerProfile:
    if family in POPULATION_FACTORIES:
        return POPULATION_FACTORIES[family]()
    # "Other": a synthetic long-tail server; the kind index approximates
    # the paper's 223/345 distinct names with a Zipf-ish draw.
    kind = min(
        data.server_kinds - 8,
        int(rng.paretovariate(1.2)),
    )
    return ServerProfile(
        name="other",
        server_header=f"WebServer-{kind:03d}",
        scheduler_mode="fcfs",
    )


# ----------------------------------------------------------------------
# Attribute samplers (one per paper section)
# ----------------------------------------------------------------------


def _sample_negotiation(
    rng: random.Random,
    data: ExperimentData,
    profile: ServerProfile,
    family: str,
    truth: dict,
) -> None:
    union = data.h2_site_estimate()
    p_no_alpn = (union - data.alpn_sites) / union  # NPN-only sites
    p_no_npn = (union - data.npn_sites) / union  # ALPN-only sites
    if family == "apache":
        profile.supports_npn = False  # Table III: Apache has no NPN
    else:
        draw = rng.random()
        if draw < p_no_alpn:
            profile.supports_alpn = False
        elif draw < p_no_alpn + p_no_npn:
            profile.supports_npn = False
    truth["supports_alpn"] = profile.supports_alpn
    truth["supports_npn"] = profile.supports_npn


def _sample_settings(
    rng: random.Random, data: ExperimentData, profile: ServerProfile, truth: dict
) -> None:
    p_null = data.iws_counts[None] / data.headers_sites
    if rng.random() < p_null:
        profile.send_settings_frame = False
        profile.announce_zero_then_window_update = False
        truth["settings"] = None
        return

    settings: dict[int, int] = {}
    iws = _weighted(rng, {k: v for k, v in data.iws_counts.items() if k is not None})
    settings[IWS] = iws
    profile.announce_zero_then_window_update = iws == 0

    settings[MFS] = _weighted(
        rng, {k: v for k, v in data.mfs_counts.items() if k is not None}
    )
    mhls = _weighted(
        rng, {k: v for k, v in data.mhls_counts.items() if k is not None}
    )
    if mhls != "unlimited":
        settings[MHLS] = int(mhls)
    settings[MCS] = _weighted(rng, data.mcs_mixture)
    profile.settings = settings
    truth["settings"] = dict(settings)


def _sample_flow_control(
    rng: random.Random,
    data: ExperimentData,
    profile: ServerProfile,
    family: str,
    truth: dict,
) -> None:
    total = data.headers_sites

    # §V-D2: sites that (incorrectly) flow-control HEADERS.
    compliant = rng.random() < data.zero_window_headers_ok / total
    profile.flow_control_on_headers = not compliant
    profile.headers_hold_threshold = 1

    # §V-D1: tiny-window behaviour; LiteSpeed dominates the silent set.
    litespeed_count = data.server_counts.get("litespeed", 1)
    if family == "litespeed" and rng.random() < (
        data.tiny_no_response_litespeed / litespeed_count
    ):
        profile.tiny_window_behavior = TinyWindowBehavior.SILENT
        profile.flow_control_on_headers = True
        profile.headers_hold_threshold = 16
    else:
        other_silent = data.tiny_no_response - data.tiny_no_response_litespeed
        remaining = total - litespeed_count
        draw = rng.random()
        if draw < other_silent / remaining:
            profile.tiny_window_behavior = TinyWindowBehavior.SILENT
            profile.flow_control_on_headers = True
            profile.headers_hold_threshold = 16
        elif draw < (other_silent + data.tiny_zero_length) / remaining:
            profile.tiny_window_behavior = TinyWindowBehavior.SEND_EMPTY
        else:
            profile.tiny_window_behavior = TinyWindowBehavior.SEND_WINDOW_SIZED

    # §V-D3: zero WINDOW_UPDATE on a stream.  (The rare GOAWAY
    # responders are planted by quota in ``_apply_rare_quotas``.)
    if rng.random() < data.zero_wu_rst / total:
        profile.on_zero_window_update_stream = Reaction.RST_STREAM
    else:
        profile.on_zero_window_update_stream = Reaction.IGNORE
    # §V-D3: "nearly all the websites return connection error".
    profile.on_zero_window_update_connection = (
        Reaction.GOAWAY if rng.random() < 0.95 else Reaction.IGNORE
    )

    # §V-D4: overflowing WINDOW_UPDATE.
    profile.on_window_overflow_stream = (
        Reaction.RST_STREAM
        if rng.random() < data.large_wu_stream_rst / total
        else Reaction.IGNORE
    )
    profile.on_window_overflow_connection = (
        Reaction.GOAWAY
        if rng.random() < data.large_wu_conn_goaway / total
        else Reaction.IGNORE
    )

    truth["flow_control_on_headers"] = profile.flow_control_on_headers
    truth["tiny_window_behavior"] = profile.tiny_window_behavior.value
    truth["zero_wu_stream"] = profile.on_zero_window_update_stream.value
    truth["zero_wu_connection"] = profile.on_zero_window_update_connection.value
    truth["overflow_stream"] = profile.on_window_overflow_stream.value
    truth["overflow_connection"] = profile.on_window_overflow_connection.value


def _sample_priority(
    rng: random.Random, data: ExperimentData, profile: ServerProfile, truth: dict
) -> None:
    # Scheduler flavour is planted by quota in ``_apply_rare_quotas``;
    # only the self-dependency reaction is a per-site draw (§V-E2).
    total = data.headers_sites
    if rng.random() < data.selfdep_rst / total:
        profile.on_self_dependency = Reaction.RST_STREAM
    else:
        profile.on_self_dependency = (
            Reaction.GOAWAY if rng.random() < 0.5 else Reaction.IGNORE
        )
    truth["scheduler_mode"] = profile.scheduler_mode
    truth["self_dependency"] = profile.on_self_dependency.value


def _sample_hpack(
    rng: random.Random, profile: ServerProfile, family: str, truth: dict
) -> None:
    if family in NGINX_LINEAGE or family == "ideaweb":
        profile.hpack_index_responses = rng.random() >= NGINX_RATIO_ONE_FRACTION
        profile.response_header_noise = (
            rng.uniform(0.0, 0.4) if profile.hpack_index_responses else 0.0
        )
    elif family == "gse":
        profile.hpack_index_responses = True
        profile.response_header_noise = 0.0
    elif family == "litespeed":
        profile.hpack_index_responses = True
        if rng.random() < LITESPEED_GOOD_FRACTION:
            profile.response_header_noise = rng.uniform(0.0, 0.1)
        else:
            profile.response_header_noise = rng.uniform(0.3, 1.0)
    else:
        profile.hpack_index_responses = rng.random() < 0.7
        # Noise only matters for indexing servers: a non-indexing
        # server's blocks are constant-size (ratio 1) regardless.
        profile.response_header_noise = (
            rng.uniform(0.0, 0.5) if profile.hpack_index_responses else 0.0
        )
    profile.new_cookie_each_response = rng.random() < 0.02
    truth["hpack_index_responses"] = profile.hpack_index_responses


def _make_website(rng: random.Random, cookie_prob: float = 0.25) -> Website:
    website = random_website(rng, cookie_prob=cookie_prob)
    for resource in PRIORITY_RESOURCES:
        website.add(resource)
    return website


def _sample_link(rng: random.Random) -> LinkProfile:
    rtt = min(0.4, max(0.005, rng.lognormvariate(-3.0, 0.6)))
    bandwidth = rng.choice([2e6, 5e6, 10e6, 20e6, 50e6])
    loss = rng.choice([0.0] * 8 + [0.005, 0.02])
    return LinkProfile(rtt=rtt, bandwidth=bandwidth, loss_rate=loss)


def _weighted(rng: random.Random, counts: dict) -> object:
    keys = list(counts)
    weights = [counts[k] for k in keys]
    return rng.choices(keys, weights=weights)[0]
