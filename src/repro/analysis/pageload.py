"""Page-load-time model with and without server push (Fig. 3).

The paper visits 15 push-capable sites 30 times each with Firefox,
toggling push via configuration, and compares page load times.  The
model here reproduces the mechanism that makes push help: a browser
must *receive and parse* the HTML before it can request sub-resources,
spending one extra round trip; a pushing server streams those resources
immediately after the HTML, so the discovery round trip (and the
request upload) disappears.

The "browser" below replays the site's resource graph over the
simulated network: navigate, fetch ``/``, discover links when the HTML
finishes, fetch what was not pushed.  PLT is the instant the last
sub-resource completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.h2 import events as ev
from repro.net.backend import TransportBackend
from repro.scope.client import ScopeClient
from repro.servers.site import Site, serve_site

#: Simulated HTML parse delay before sub-resource requests go out.
PARSE_DELAY = 0.004


@dataclass
class VisitResult:
    """One page visit."""

    plt: float
    pushed_paths: list[str] = field(default_factory=list)
    requested_paths: list[str] = field(default_factory=list)
    #: Per-resource (start, end) times relative to navigation start —
    #: the devtools-style waterfall.  Pushed resources start at their
    #: PUSH_PROMISE; requested ones at the request.
    timeline: dict[str, tuple[float, float]] = field(default_factory=dict)


#: Columns of a waterfall's bar area.
WATERFALL_WIDTH = 56
#: Budget (virtual seconds) for a visit's handshake, and again for its
#: downloads.
VISIT_TIMEOUT = 120.0


def render_waterfall(result: VisitResult) -> str:
    """ASCII waterfall of one visit (one bar per resource)."""
    width = WATERFALL_WIDTH
    if not result.timeline:
        return "(empty timeline)\n"
    total = max(end for _, end in result.timeline.values()) or 1.0
    lines = []
    for path, (start, end) in sorted(
        result.timeline.items(), key=lambda item: item[1]
    ):
        lead = int(start / total * width)
        bar = max(1, int((end - start) / total * width))
        marker = "=" if path in result.pushed_paths else "#"
        lines.append(
            f"{path:<22.22s} |{' ' * lead}{marker * bar:<{width - lead}s}| "
            f"{start:6.3f}-{end:6.3f}s"
        )
    lines.append(
        f"{'':<22s}  ('#' requested, '=' pushed; total {total:.3f}s)"
    )
    return "\n".join(lines) + "\n"


@dataclass
class PageLoadStats:
    """Fig. 3's per-site box: 30 visits with push on and off."""

    domain: str
    with_push: list[float] = field(default_factory=list)
    without_push: list[float] = field(default_factory=list)

    @staticmethod
    def _mid(values: list[float]) -> float:
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    @property
    def median_with_push(self) -> float:
        return self._mid(self.with_push)

    @property
    def median_without_push(self) -> float:
        return self._mid(self.without_push)

    @property
    def push_speedup(self) -> float:
        """Median PLT ratio (no-push / push); > 1 means push helps."""
        return self.median_without_push / self.median_with_push


def visit_page(
    backend: TransportBackend,
    site: Site,
    enable_push: bool,
) -> VisitResult:
    """One navigation of the front page ``/``; returns the page-load time.

    Resources are discovered in *waves*: the HTML must arrive and be
    parsed before its sub-resources can be requested, and container
    resources (stylesheets importing fonts, scripts fetching data) open
    further waves.  Server push collapses waves: promised resources
    stream without a discovery round trip, a request upload, or
    server-side request processing.
    """
    start = backend.now
    client = ScopeClient(
        backend,
        site.domain,
        # Browsers announce large stream windows and immediately grow
        # the connection window (Chrome uses ~15 MB), so downloads are
        # bandwidth-limited rather than flow-control-limited.
        settings={4: 8 * 1024 * 1024},
        auto_window_update=True,
        enable_push=enable_push,
    )
    if not client.establish_h2(timeout=VISIT_TIMEOUT):
        client.close()
        raise RuntimeError(f"{site.domain}: could not establish HTTP/2")
    assert client.conn is not None
    client.send_window_update(0, 8 * 1024 * 1024)

    stream_to_path: dict[int, str] = {client.request("/"): "/"}
    start_times: dict[str, float] = {"/": backend.now - start}
    discovered: set[str] = {"/"}
    parsed_streams: set[int] = set()
    requested_paths: list[str] = []

    def finished_streams() -> set[int]:
        return {
            te.event.stream_id
            for te in client.events
            if isinstance(te.event, (ev.StreamEnded, ev.StreamReset))
        }

    def promised_paths() -> dict[str, int]:
        promises: dict[str, int] = {}
        for te in client.events_of(ev.PushPromiseReceived):
            for name, value in te.event.headers:
                if name == b":path":
                    promised_path = value.decode("latin-1")
                    promises[promised_path] = te.event.promised_stream_id
                    start_times.setdefault(promised_path, te.at - start)
        return promises

    deadline = backend.now + VISIT_TIMEOUT
    while backend.now < deadline:
        # Parse eagerly: as soon as ANY tracked stream finishes, its
        # links fan out — browsers do not wait for a whole "wave".
        client.wait_for(
            lambda: (finished_streams() & set(stream_to_path)) - parsed_streams
            or set(stream_to_path) <= finished_streams(),
            timeout=max(0.0, deadline - backend.now),
        )
        promises = promised_paths()
        for promised_path, promised_stream in promises.items():
            if promised_path not in discovered:
                discovered.add(promised_path)
                stream_to_path[promised_stream] = promised_path

        # Parse every newly finished document and fan out its links.
        new_links: list[str] = []
        for stream_id in finished_streams() & set(stream_to_path):
            if stream_id in parsed_streams:
                continue
            parsed_streams.add(stream_id)
            resource = site.website.get(stream_to_path[stream_id])
            if resource is None:
                continue
            for link in resource.links:
                if link not in discovered:
                    discovered.add(link)
                    new_links.append(link)
        if not new_links:
            if set(stream_to_path) <= finished_streams():
                break
            continue
        backend.sleep(PARSE_DELAY)
        for link in new_links:
            if link in promises:
                stream_to_path.setdefault(promises[link], link)
            else:
                stream_to_path[client.request(link)] = link
                start_times.setdefault(link, backend.now - start)
                requested_paths.append(link)

    plt = backend.now - start
    end_times: dict[int, float] = {}
    for te in client.events:
        if isinstance(te.event, (ev.StreamEnded, ev.StreamReset)):
            end_times.setdefault(te.event.stream_id, te.at - start)
    timeline = {
        resource_path: (
            start_times.get(resource_path, 0.0),
            end_times.get(stream_id, plt),
        )
        for stream_id, resource_path in stream_to_path.items()
    }
    client.close()
    return VisitResult(
        plt=plt,
        pushed_paths=sorted(promised_paths()),
        requested_paths=requested_paths,
        timeline=timeline,
    )


#: Each visit scales the path RTT by a factor drawn from 1 ± this.
RTT_JITTER = 0.15


def measure_site(site: Site, visits: int = 30, seed: int = 0) -> PageLoadStats:
    """Fig. 3's per-site experiment: ``visits`` loads, push on and off.

    Each visit perturbs the path RTT slightly (±:data:`RTT_JITTER`) the
    way repeated real-world visits see varying conditions.
    """
    rng = random.Random((seed, site.domain).__str__())
    stats = PageLoadStats(domain=site.domain)
    base_rtt = site.link.rtt
    for mode_push in (True, False):
        samples = stats.with_push if mode_push else stats.without_push
        for visit_index in range(visits):
            perturbed = site.link
            factor = 1.0 + rng.uniform(-RTT_JITTER, RTT_JITTER)
            site_variant = Site(
                domain=site.domain,
                profile=site.profile,
                website=site.website,
                link=type(perturbed)(
                    rtt=base_rtt * factor,
                    bandwidth=perturbed.bandwidth,
                    loss_rate=perturbed.loss_rate,
                ),
                truth=site.truth,
            )
            universe = serve_site(site_variant, seed * 1000 + visit_index)
            with universe as (backend, _):
                samples.append(visit_page(backend, site_variant, mode_push).plt)
    return stats
