"""Population generator: planted marginals and structural guarantees."""

import collections
import dataclasses
import enum
import hashlib
import json

import pytest

from repro.h2.constants import SettingCode
from repro.population import PopulationConfig, make_population
from repro.population.generator import (
    PRIORITY_DEPLETION_PATHS,
    PRIORITY_TEST_PATHS,
)
from repro.servers.profiles import TinyWindowBehavior
from repro.servers.website import Website

IWS = int(SettingCode.INITIAL_WINDOW_SIZE)

#: sha256 of ``_canonical(make_population(PopulationConfig(n_sites=300,
#: seed=7)))``: every field of every record the generator emits.  It last
#: moved when ``LinkProfile`` lost its ``jitter`` field (always 0): the
#: previous rendering (b4082197...) with its 350 ``,["jitter",0.0]``
#: pairs removed hashes to this value.
POPULATION_SHA256 = "3bd55c5082443c6fc079b80b5dab882b9053cc9b3985817e3b8d4fc528f0f269"


def _canonical(value):
    """A JSON-ready rendering that sees values only: lists and tuples
    both render as lists, dicts as ordered pairs, enums by value, bytes
    as hex, a website as its records in path order."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            [f.name, _canonical(getattr(value, f.name))]
            for f in dataclasses.fields(value)
        ]
    if isinstance(value, Website):
        return [[path, _canonical(value.get(path))] for path in value.paths()]
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    return value


def test_population_values_are_pinned():
    sites = make_population(PopulationConfig(n_sites=300, seed=7))
    rendering = json.dumps(_canonical(sites), separators=(",", ":"))
    assert hashlib.sha256(rendering.encode()).hexdigest() == POPULATION_SHA256


@pytest.fixture(scope="module")
def population():
    config = PopulationConfig(experiment=1, n_sites=400, seed=99)
    return config, make_population(config)


class TestStructure:
    def test_site_count(self, population):
        config, sites = population
        responsive = [s for s in sites if s.truth["responsive"]]
        assert len(responsive) == 400
        # Plus the negotiation-only (mute) sites, pro rata.
        assert len(sites) > 400

    def test_domains_unique(self, population):
        _, sites = population
        domains = [s.domain for s in sites]
        assert len(domains) == len(set(domains))

    def test_every_site_has_priority_objects(self, population):
        _, sites = population
        for site in sites:
            if not site.truth["responsive"]:
                continue
            for path in PRIORITY_TEST_PATHS + PRIORITY_DEPLETION_PATHS:
                assert path in site.website, site.domain

    def test_deterministic_generation(self):
        config = PopulationConfig(experiment=1, n_sites=50, seed=123)
        a = make_population(config)
        b = make_population(config)
        assert [s.domain for s in a] == [s.domain for s in b]
        assert [s.profile.settings for s in a] == [s.profile.settings for s in b]
        assert [s.truth for s in a] == [s.truth for s in b]

    def test_different_seeds_differ(self):
        a = make_population(PopulationConfig(n_sites=50, seed=1))
        b = make_population(PopulationConfig(n_sites=50, seed=2))
        assert [s.truth for s in a] != [s.truth for s in b]


class TestPlantedMarginals:
    def test_family_mix_tracks_table4(self, population):
        config, sites = population
        data = config.data
        counts = collections.Counter(
            s.truth["family"] for s in sites if s.truth["responsive"]
        )
        for family in ("litespeed", "nginx", "gse"):
            expected = data.server_counts[family] / data.headers_sites * 400
            assert counts[family] == pytest.approx(expected, abs=4 * expected**0.5 + 5)

    def test_null_settings_fraction(self, population):
        config, sites = population
        data = config.data
        nulls = sum(
            1
            for s in sites
            if s.truth["responsive"] and s.truth["settings"] is None
        )
        expected = data.iws_counts[None] / data.headers_sites * 400
        assert nulls == pytest.approx(expected, abs=4 * expected**0.5 + 4)

    def test_iws_zero_sites_have_window_update_quirk(self, population):
        _, sites = population
        for site in sites:
            settings = site.truth.get("settings")
            if settings and settings.get(IWS) == 0:
                assert site.profile.announce_zero_then_window_update

    def test_scheduler_quota_small(self, population):
        config, sites = population
        data = config.data
        non_fcfs = [
            s for s in sites if s.truth.get("scheduler_mode", "fcfs") != "fcfs"
        ]
        expected = data.priority_pass_last / data.headers_sites * 400
        assert len(non_fcfs) <= expected + 4

    def test_litespeed_dominates_silent_sites(self, population):
        _, sites = population
        silent = [
            s
            for s in sites
            if s.truth["responsive"]
            and s.truth.get("tiny_window_behavior") == TinyWindowBehavior.SILENT.value
        ]
        litespeed_silent = [s for s in silent if s.truth["family"] == "litespeed"]
        assert len(litespeed_silent) > len(silent) / 2

    def test_push_sites_rare(self, population):
        _, sites = population
        pushing = [s for s in sites if s.truth.get("supports_push")]
        assert len(pushing) <= 2  # 6/44,390 at n=400 is ~0.05 expected

    def test_push_sites_have_manifest(self):
        # At large n the quota plants at least one pushing site.
        sites = make_population(PopulationConfig(experiment=2, n_sites=400, seed=5))
        pushing = [s for s in sites if s.truth.get("supports_push")]
        for site in pushing:
            assert site.website.get("/").push

    def test_apache_family_never_npn(self, population):
        _, sites = population
        for site in sites:
            if site.truth["family"] == "apache":
                assert not site.profile.supports_npn

    def test_gse_sites_index_responses(self, population):
        _, sites = population
        for site in sites:
            if site.truth["family"] == "gse" and site.truth["responsive"]:
                assert site.profile.hpack_index_responses
                assert site.profile.response_header_noise == 0.0

    def test_unresponsive_sites_flagged(self, population):
        _, sites = population
        mutes = [s for s in sites if not s.truth["responsive"]]
        assert mutes
        for site in mutes:
            assert site.profile.h2_unresponsive
