"""Website content model."""

import random

import pytest

from repro.servers.website import (
    Resource,
    Website,
    default_website,
    random_website,
    testbed_website,
)


class TestResource:
    def test_body_has_declared_size(self):
        resource = Resource("/x", 1234)
        assert len(resource.body()) == 1234

    def test_body_is_deterministic(self):
        resource = Resource("/x", 500)
        assert resource.body() == resource.body()

    def test_bodies_differ_by_path(self):
        assert Resource("/a", 100).body() != Resource("/b", 100).body()

    def test_zero_size_body(self):
        assert Resource("/empty", 0).body() == b""


def whole_body(resource: Resource) -> bytes:
    """``Resource.body`` as it read before ``body_slice`` defined it
    (PR 19's parent, verbatim): the reference every slice is held to."""
    if resource.size <= 0:
        return b""
    pattern = f"<{resource.path}>".encode()
    repeats = resource.size // len(pattern) + 1
    return (pattern * repeats)[: resource.size]


class TestBodySlice:
    @pytest.mark.parametrize("path", ["/x", "/big.bin", "/página/ü.bin"])
    def test_slice_is_the_body(self, path):
        period = len(f"<{path}>".encode())  # octets, not characters
        sizes = (-5, 0, 1, period - 1, period + 1, 16_383, 16_384, 65_535, 1_000_000)
        for size in sizes:
            resource = Resource(path, size)
            body = whole_body(resource)
            assert resource.body() == body
            offsets = {0, 1, period // 2, 3 * period + period // 2, size - 1, size, size + 7}
            for offset in sorted(o for o in offsets if o >= 0):
                for length in (0, 1, 16_384, size + 100):
                    assert (
                        resource.body_slice(offset, length)
                        == body[offset : offset + length]
                    ), (size, offset, length)

    def test_consecutive_slices_join_to_the_body(self):
        resource = Resource("/seam.bin", 100_003)
        for step in (1_000, 16_383, 16_384):
            parts = [
                resource.body_slice(offset, step)
                for offset in range(0, resource.size, step)
            ]
            assert b"".join(parts) == whole_body(resource)
            assert len(parts[-1]) == resource.size % step

    def test_body_unchanged_for_every_site_we_build(self):
        sites = [default_website(), testbed_website()]
        sites += [
            random_website(random.Random(seed))
            for seed in range(50)
        ]
        for site in sites:
            for path in site.paths():
                resource = site.get(path)
                assert resource.body() == whole_body(resource), path


class TestWebsite:
    def test_add_and_get(self):
        site = Website()
        site.add(Resource("/a", 10))
        assert site.get("/a").size == 10
        assert site.get("/missing") is None
        assert "/a" in site
        assert len(site) == 1

    def test_paths_sorted(self):
        site = Website([Resource("/b", 1), Resource("/a", 1)])
        assert site.paths() == ["/a", "/b"]


class TestFactories:
    def test_default_website_front_page_links_exist(self):
        site = default_website()
        front = site.get("/")
        assert front is not None
        for link in front.links:
            assert link in site

    def test_default_website_push_manifest_valid(self):
        site = default_website()
        for path in site.get("/").push:
            assert path in site

    def test_testbed_website_has_large_objects(self):
        # §III-A1: the multiplexing probe needs large objects.
        site = testbed_website()
        for i in range(8):
            assert site.get(f"/large/{i}.bin").size == 400_000

    def test_testbed_website_has_depletion_objects(self):
        site = testbed_website()
        mediums = [p for p in site.paths() if p.startswith("/medium/")]
        # Window depletion needs > 65,535 octets of material.
        assert sum(site.get(p).size for p in mediums) > 65_535

    def test_random_website_links_resolve(self):
        site = random_website(random.Random(3))
        for path in site.paths():
            for link in site.get(path).links:
                assert link in site

    def test_random_website_deterministic_per_seed(self):
        a = random_website(random.Random(5))
        b = random_website(random.Random(5))
        assert a.paths() == b.paths()

    def test_cookie_probability_zero_means_no_cookies(self):
        for seed in range(10):
            site = random_website(random.Random(seed), cookie_prob=0.0)
            assert site.get("/").extra_headers == ()

