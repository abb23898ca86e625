"""Website content model.

A :class:`Website` is what one simulated origin serves: a set of
resources with sizes, content types, sub-resource links (what an HTML
page references, driving the page-load model of Fig. 3) and an optional
push manifest (the paper notes real servers only support *statically*
configured push lists — Section VI).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

#: Algorithm 1's objects on a generated site: six labelled test objects
#: and the objects that drain the connection window.  The population
#: generator plants them and the scanner requests them; if the two ever
#: disagreed, every site would silently skip Algorithm 1.
PRIORITY_TEST_PATHS = tuple(f"/prio/{label}.bin" for label in "abcdef")
PRIORITY_DEPLETION_PATHS = tuple(f"/prio/deplete{i}.bin" for i in range(4))


@dataclass(frozen=True, slots=True)
class Resource:
    """One addressable object on a site: an immutable value, so one
    record may sit on any number of sites (DESIGN §8)."""

    path: str
    size: int
    content_type: str = "text/html"
    #: Paths of sub-resources referenced by this document (HTML only).
    links: tuple[str, ...] = ()
    #: Paths the server pushes when this resource is requested
    #: (used only when the server profile supports push).
    push: tuple[str, ...] = ()
    #: Extra response headers, e.g. cookies (affects HPACK ratios).
    extra_headers: tuple[tuple[str, str], ...] = ()

    def body(self) -> bytes:
        """Deterministic pseudo-content of the declared size, whole: for
        a wire that carries every octet at once (HTTP/1.1) and for tests."""
        return self.body_slice(0, self.size)

    def body_slice(self, offset: int, length: int) -> bytes:
        """``body()[offset : offset + length]`` (``offset >= 0``) built
        from the repeating pattern alone: a DATA frame's octets are made
        when the wire takes them, and nothing of the body is kept."""
        length = min(length, self.size - offset)
        if length <= 0:
            return b""
        pattern = f"<{self.path}>".encode()
        start = offset % len(pattern)
        repeats = (start + length) // len(pattern) + 1
        return (pattern * repeats)[start : start + length]


class Website:
    """A site's resource tree."""

    __slots__ = ("_resources",)

    def __init__(self, resources: list[Resource] | None = None):
        self._resources: dict[str, Resource] = {}
        for resource in resources or []:
            self.add(resource)

    def add(self, resource: Resource) -> None:
        self._resources[resource.path] = resource

    def get(self, path: str) -> Resource | None:
        return self._resources.get(path)

    def paths(self) -> list[str]:
        return sorted(self._resources)

    def __len__(self) -> int:
        return len(self._resources)

    def __contains__(self, path: str) -> bool:
        return path in self._resources


def default_website() -> Website:
    """A small but realistic site: front page, assets, a large object."""
    site = Website()
    assets = [
        Resource("/style.css", 18_000, "text/css"),
        Resource("/app.js", 65_000, "application/javascript"),
        Resource("/logo.png", 12_000, "image/png"),
        Resource("/hero.jpg", 140_000, "image/jpeg"),
    ]
    for asset in assets:
        site.add(asset)
    site.add(
        Resource(
            "/",
            30_000,
            "text/html",
            links=tuple(a.path for a in assets),
            push=("/style.css", "/app.js"),
        )
    )
    site.add(Resource("/about.html", 22_000, "text/html", links=("/style.css",)))
    site.add(Resource("/big.bin", 1_000_000, "application/octet-stream"))
    return site


#: The testbed's large objects: how many, and octets each.
TESTBED_OBJECTS, TESTBED_OBJECT_SIZE = 8, 400_000


def testbed_website() -> Website:
    """The paper's testbed content: several *large* objects.

    §III-A1: interleaving shows only in responses large enough that
    they cannot complete in one scheduler turn, so the authors place
    large files on their testbed server.  Algorithm 1 requests six of
    them, and its DATA frames read Table III's Request Multiplexing row.
    """
    site = Website()
    paths = [f"/large/{i}.bin" for i in range(TESTBED_OBJECTS)]
    for path in paths:
        site.add(Resource(path, TESTBED_OBJECT_SIZE, "application/octet-stream"))
    # Medium objects used by the priority probe's window-depletion step.
    for i in range(16):
        site.add(Resource(f"/medium/{i}.bin", 60_000, "application/octet-stream"))
    site.add(Resource("/style.css", 15_000, "text/css"))
    site.add(Resource("/app.js", 40_000, "application/javascript"))
    site.add(
        Resource(
            "/",
            8_000,
            "text/html",
            links=("/style.css", "/app.js", *paths),
            push=("/style.css", "/app.js"),
        )
    )
    site.add(Resource("/push.html", 10_000, "text/html", push=("/large/0.bin",)))
    return site


def random_website(
    rng: random.Random,
    cookie_prob: float = 0.2,
) -> Website:
    """A randomly sized site for population experiments.

    ``cookie_prob`` controls how often the front page carries a (static)
    set-cookie header — never-indexed on the wire per RFC 7541 §7.1.3
    advice, so it keeps repeated response header blocks large and pushes
    the site's HPACK ratio up (§V-G's mid-range CDF mass).
    """
    site = Website()
    n_assets = rng.randint(3, 20)
    assets = []
    for i in range(n_assets):
        kind = rng.choice(
            [
                ("css", "text/css", (2_000, 60_000)),
                ("js", "application/javascript", (5_000, 200_000)),
                ("png", "image/png", (1_000, 150_000)),
                ("jpg", "image/jpeg", (10_000, 400_000)),
            ]
        )
        ext, ctype, (lo, hi) = kind
        # Interned: every site names its assets from the same few dozen paths.
        path = sys.intern(f"/asset{i}.{ext}")
        assets.append(Resource(path, rng.randint(lo, hi), ctype))
    for asset in assets:
        site.add(asset)
    links = tuple(asset.path for asset in assets)
    extra = ()
    if rng.random() < cookie_prob:
        extra = (("set-cookie", f"session={rng.getrandbits(64):x}; Path=/"),)
    site.add(
        Resource(
            "/",
            rng.randint(5_000, 120_000),
            "text/html",
            links=links,
            extra_headers=extra,
        )
    )
    site.add(Resource("/big.bin", rng.randint(200_000, 2_000_000), "application/octet-stream"))
    return site
