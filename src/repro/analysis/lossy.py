"""Single-connection HTTP/2 vs parallel HTTP/1.1 under packet loss.

The paper's Discussion (§VI, first point) warns that HTTP/2's single
TCP connection is a liability on lossy paths: every retransmission
stalls *all* multiplexed streams (transport-level head-of-line
blocking), while HTTP/1.1 browsers open ~6 parallel connections whose
losses are independent.  "Using more than one TCP connection could
mitigate such problem."

This module measures exactly that trade-off over the simulated
network: page load time for one HTTP/2 connection versus ``k`` parallel
HTTP/1.1 connections, swept over loss rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pageload import visit_page
from repro.net.transport import Endpoint, Network
from repro.net.tls import HTTP11, decode_server_hello, encode_client_hello
from repro.servers.site import TLS_PORT, Site, serve_site


@dataclass
class LossSweepPoint:
    loss_rate: float
    h2_plt: float
    h1_plt: float

    @property
    def h2_advantage(self) -> float:
        """PLT ratio h1/h2; > 1 means HTTP/2 wins at this loss rate."""
        return self.h1_plt / self.h2_plt


class _Http1Fetcher:
    """One persistent HTTP/1.1 connection working through a path queue."""

    def __init__(self, network: Network, domain: str):
        self.network = network
        self.sim = network.sim
        self.domain = domain
        self.endpoint: Endpoint | None = None
        self.queue: list[str] = []
        self.fetched: dict[str, bytes] = {}
        self._buffer = bytearray()
        self._current: str | None = None
        self._ready = False

    def start(self) -> None:
        attempt = self.network.connect(self.domain, TLS_PORT)

        def on_tcp(endpoint: Endpoint) -> None:
            self.endpoint = endpoint
            endpoint.on_data = self._on_data
            endpoint.send(encode_client_hello([HTTP11], npn_offered=False))

        attempt.on_connect = on_tcp

    def enqueue(self, path: str) -> None:
        self.queue.append(path)
        if self._ready and self._current is None:
            self._next()

    @property
    def idle(self) -> bool:
        return self._current is None and not self.queue

    def _next(self) -> None:
        if not self.queue or self.endpoint is None:
            return
        self._current = self.queue.pop(0)
        self.endpoint.send(
            f"GET {self._current} HTTP/1.1\r\nHost: {self.domain}\r\n\r\n".encode()
        )

    def _on_data(self, data: bytes) -> None:
        self._buffer.extend(data)
        if not self._ready:
            if b"\n" not in self._buffer:
                return
            line, _, rest = bytes(self._buffer).partition(b"\n")
            decode_server_hello(line)  # negotiation outcome is http/1.1
            self._buffer = bytearray(rest)
            self._ready = True
            self._next()
        self._consume_responses()

    def _consume_responses(self) -> None:
        while self._current is not None:
            raw = bytes(self._buffer)
            if b"\r\n\r\n" not in raw:
                return
            head, _, body = raw.partition(b"\r\n\r\n")
            content_length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    content_length = int(line.split(b":")[1])
            if len(body) < content_length:
                return
            self.fetched[self._current] = body[:content_length]
            self._buffer = bytearray(body[content_length:])
            self._current = None
            self._next()


#: Budget (virtual seconds) for a whole HTTP/1.1 page load.
H1_VISIT_TIMEOUT = 240.0


def h1_parallel_visit(
    network: Network,
    site: Site,
    connections: int = 6,
) -> float:
    """Load the front page ``/`` over ``connections`` parallel HTTP/1.1
    connections, within :data:`H1_VISIT_TIMEOUT` virtual seconds.

    Models browser behaviour: the HTML comes first on one connection,
    discovered sub-resources are distributed round-robin across the
    pool (no pipelining), and further waves follow as container
    resources arrive.
    """
    sim = network.sim
    start = sim.now
    fetchers = [_Http1Fetcher(network, site.domain) for _ in range(connections)]
    for fetcher in fetchers:
        fetcher.start()

    fetchers[0].enqueue("/")
    discovered = {"/"}
    parsed: set[str] = set()
    rr = 0

    deadline = start + H1_VISIT_TIMEOUT
    while sim.now < deadline:
        sim.run_until(
            lambda: all(f.idle for f in fetchers) or sim.now >= deadline,
            timeout=max(0.0, deadline - sim.now),
        )
        new_links: list[str] = []
        for fetcher in fetchers:
            for got in list(fetcher.fetched):
                if got in parsed:
                    continue
                parsed.add(got)
                resource = site.website.get(got)
                if resource is None:
                    continue
                for link in resource.links:
                    if link not in discovered:
                        discovered.add(link)
                        new_links.append(link)
        if not new_links:
            if all(f.idle for f in fetchers):
                break
            continue
        for link in new_links:
            fetchers[rr % connections].enqueue(link)
            rr += 1

    plt = sim.now - start
    for fetcher in fetchers:
        if fetcher.endpoint is not None:
            fetcher.endpoint.close()
    return plt


def sweep_loss_rates(
    site_factory,
    loss_rates: list[float],
    h1_connections: int = 6,
    seed: int = 0,
    repeats: int = 3,
) -> list[LossSweepPoint]:
    """Measure h2-single-connection vs h1-parallel PLT per loss rate.

    ``site_factory(loss_rate)`` must return a fresh :class:`Site` whose
    link has the given loss rate; ``repeats`` visits are averaged per
    point (loss is stochastic).
    """
    points = []
    for loss in loss_rates:
        h2_samples, h1_samples = [], []
        for repeat in range(repeats):
            site = site_factory(loss)
            with serve_site(site, seed * 1000 + repeat) as (backend, _):
                h2_samples.append(visit_page(backend, site, enable_push=False).plt)

            site = site_factory(loss)
            with serve_site(site, seed * 1000 + repeat) as (backend, _):
                h1_samples.append(
                    h1_parallel_visit(
                        backend.network, site, connections=h1_connections
                    )
                )
        points.append(
            LossSweepPoint(
                loss_rate=loss,
                h2_plt=sum(h2_samples) / len(h2_samples),
                h1_plt=sum(h1_samples) / len(h1_samples),
            )
        )
    return points
