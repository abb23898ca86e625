"""§VI point 4 — static vs learned push manifests.

The paper: "existing HTTP/2 servers only allow users to statically list
which resources will be pushed.  To further improve the performance,
new algorithms and the support from HTTP/2 servers are desired to
dynamically determine which resources should be pushed."

This experiment implements that extension and measures its learning
curve: a site whose hand-written (static) manifest covers only part of
the page is visited repeatedly under three server policies — no push,
the static manifest, and the learned policy that records which
resources clients actually request after each page.  The learned server
starts cold (first visit behaves like no-push) and converges to pushing
the full dependency set.
"""

from __future__ import annotations

from repro.analysis.pageload import visit_page
from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult
from repro.net.transport import LinkProfile
from repro.servers.profiles import ServerProfile
from repro.servers.site import Site, serve_site
from repro.servers.website import Resource, Website


def _site(policy: str, supports_push: bool) -> Site:
    website = Website()
    images = [Resource(f"/asset{i}.png", 40_000, "image/png") for i in range(4)]
    for image in images:
        website.add(image)
    # A second dependency wave: the stylesheet imports three fonts that
    # the browser only discovers after fetching it.
    fonts = [Resource(f"/font{i}.woff", 25_000, "font/woff2") for i in range(3)]
    for font in fonts:
        website.add(font)
    bundle = Resource(
        "/bundle.css", 15_000, "text/css", links=[f.path for f in fonts]
    )
    website.add(bundle)
    # The hand-written manifest pushes the stylesheet but predates the
    # fonts — typical of manifests that go stale as pages evolve.  It
    # removes part of wave 2's head start but not the font round trip.
    website.add(
        Resource(
            "/",
            25_000,
            "text/html",
            links=[a.path for a in images] + [bundle.path],
            push=[bundle.path],
        )
    )
    profile = ServerProfile(
        supports_push=supports_push,
        push_policy=policy,
        scheduler_mode="strict",
        processing_delay=0.04,
        processing_jitter=0.0,
    )
    return Site(
        domain=f"{policy}-{supports_push}.dynpush",
        profile=profile,
        website=website,
        link=LinkProfile(rtt=0.15, bandwidth=5e6),
    )


def _visit_series(site: Site, visits: int, seed: int) -> list[float]:
    """Sequential visits against ONE persistent server (it must learn)."""
    with serve_site(site, seed) as (backend, _):
        return [
            visit_page(backend, site, enable_push=site.profile.supports_push).plt
            for _ in range(visits)
        ]


def run(visits: int = 6, seed: int = 2) -> ExperimentResult:
    series = {
        "no push": _visit_series(_site("static", supports_push=False), visits, seed),
        "static manifest": _visit_series(
            _site("static", supports_push=True), visits, seed
        ),
        "learned manifest": _visit_series(
            _site("learned", supports_push=True), visits, seed
        ),
    }
    rows = [
        [name] + [f"{plt:.3f}" for plt in plts] for name, plts in series.items()
    ]
    text = format_table(
        ["push policy"] + [f"visit {i + 1} (s)" for i in range(visits)],
        rows,
        title="§VI — dynamic push manifests: PLT per visit (learning curve)",
    )
    learned = series["learned manifest"]
    static = series["static manifest"]
    none = series["no push"]
    text += (
        f"\nlearned policy: cold first visit {learned[0]:.3f}s (≈ no-push "
        f"{none[0]:.3f}s), converged {learned[-1]:.3f}s — "
        f"{'beating' if learned[-1] < static[-1] else 'matching'} the "
        f"stale static manifest ({static[-1]:.3f}s) once the follower "
        "statistics cover the page's real dependency set.\n"
    )
    return ExperimentResult(
        name="dynamic_push",
        text=text,
        data={"series": series},
    )
