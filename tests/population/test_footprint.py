"""A population is values: its records are compact, immutable and shared.

A scan holds its whole population in memory, so bytes a site are what a
1M-site scan spends before its first probe (DESIGN §8).
"""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.population import PopulationConfig, make_population

#: Ceiling on the traced bytes a generated site holds; the population
#: reads ~3 500 with frozen, slotted and shared records and ~10 750
#: with a mutable record and three lists per resource.
MAX_BYTES_PER_SITE = 5_000


@pytest.fixture(scope="module")
def sites():
    return make_population(PopulationConfig(n_sites=300, seed=7))


def test_population_bytes_per_site():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        population = make_population(PopulationConfig(n_sites=2000, seed=7))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(population) <= MAX_BYTES_PER_SITE


def test_resources_are_frozen(sites):
    front = sites[0].website.get("/")
    with pytest.raises(dataclasses.FrozenInstanceError):
        front.size = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        front.push = ()


def test_priority_objects_are_one_record_on_every_site(sites):
    responsive = [site for site in sites if site.truth["responsive"]]
    records = {id(site.website.get("/prio/a.bin")) for site in responsive}
    assert len(responsive) > 1 and len(records) == 1


def test_mute_sites_share_one_front_page(sites):
    mutes = [site for site in sites if not site.truth["responsive"]]
    records = {id(site.website.get("/")) for site in mutes}
    assert len(mutes) > 1 and len(records) == 1
