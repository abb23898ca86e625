"""Pinned-hash regression: the backend refactor changed zero bytes.

The transport-backend abstraction (`repro.net.backend`) routes every
clock read, wait and connection attempt of the probe suite through an
indirection layer.  The contract is that on the simulated backend this
indirection is *invisible*: a chaos campaign produces byte-identical
report documents before and after the refactor.

The hash below was computed on the pre-refactor tree and re-verified on
the refactored one.  If it ever changes, some code path altered probe
behaviour (an extra RNG draw, a reordered wait, a changed timeout) —
that is a real behavioural regression, not a hash to re-pin casually.

Re-pinned once, in ISSUE 17, for the only kind of change that justifies
it: the fault draw's *key* changed.  ``FaultSession.draw`` now hashes
``(plan seed, domain, port, connection index)`` once per connection and
rule *i* reads word *i* of that digest, where it used to hash ``(plan
seed, rule index, domain, port, connection index)`` and seed a generator
per rule — so which connections fault is another realisation of the same
plan, and every chaos-mode report byte moved with it.  No probe, wait,
timeout or payload stream changed (tests/net/test_faults.py pins the
payload bytes against the parent's; tests/net/
test_fault_draw_distribution.py pins the rates).  The value before
ISSUE 17 was
``cadaf71a0fd8179e0e5a6e04bdcc399d89f8838feaa9467f28b920f5f7a74e7c``.

Re-pinned once more, in ISSUE 22: ``auto_window_update`` returns credit
the way nghttp2 does — one WINDOW_UPDATE once half a window is used, not
two per DATA frame — so the server hears of the negotiation fetch's
credit at other virtual instants.  Diffed report by report against the
parent: of this campaign's 47 reports 12 differ, in ``scan_virtual_time``
(12) and in the 16th significant digit of one ``ping.h2_ping_rtt`` (the
probe starts at another instant; relative difference 6e-16), and in no
other key.  The same PR's one verdict-level change — ``probe_hpack``
now honours an announced MAX_CONCURRENT_STREAMS, which fills in the
``hpack`` entry of one full-probe site in 186 (EXPERIMENTS "PR 22") —
is not in this digest: the campaign runs no HPACK probe.  The value
before ISSUE 22 was
``64b0a5829a8474e2fe3b2fdd84b79ed25d642b4ff1ed5f1b3112ea5f412bd2b5``.

Re-pinned a third time when the negotiation probe went from four
connections to two: the HEADERS fetch runs on the handshake that chose
h2, and the port-80 h2c step is gone with ``NegotiationResult``'s
``h2c_upgrade`` key.  Every later connection of a site has an index two
(or one) lower, and the fault draw, the link's loss stream and the
engine's per-connection stream are keyed by that index, so the campaign
is another realisation of the same plan.  Diffed report by report
against the parent, all 47 reports differ: ``negotiation.h2c_upgrade``
is gone from 47; ``scan_virtual_time`` moved in 34; ``errors`` in 25
(33 errors on 32 sites -> 30 on 30); ``ping`` fields in 25
(``http1_rtt`` 25, ``h2_ping_rtt`` 21, ``icmp_rtt`` 20, ``tcp_rtt`` 17,
``ping_supported`` 11); ``probe_attempts`` in 15 (``ping``),
13 (``settings``) and 7 (``negotiation``); ``settings`` in 14; the
``negotiation`` verdicts in 9 (HEADERS sites 24 -> 31) and its
``tcp_handshake_rtt`` in 10 (6 newly connected, 4 in the last digit).  Connections opened fell
286 -> 205; no probe attempt was added (129 both).  The value before
was ``d6440240f8f893758e94243de48b5c498ec43368f2c8d1ea6980f57cd1b9a1ef``.

Re-pinned a fourth time when ``SiteReport.multiplexing`` left the
report: no scan path ever filled it, so every document carried
``"multiplexing": null``.  The check: the parent tree's 47 documents of
this campaign, each with its ``multiplexing`` key deleted and hashed as
:func:`campaign_digest` hashes them, give the new value; as they are,
they give the old one.  No other byte moved.  The value before was
``08bd7e20be9cb198b3c3a80929831cd4b4359afd37d982eacb42a173e1c3b85e``.

Re-pinned a fifth time when the negotiation fetch stopped at HEADERS:
both negotiation clients announce ``HEADERS_ONLY_WINDOW`` and return no
credit, and the wait for the page's END_STREAM is gone.  A site that
negotiates h2 and never answers (``h2_unresponsive``) used to spend the
10 s per-attempt deadline on the SETTINGS and HEADERS waits, so the body
wait raised ``DeadlineExceeded`` and the failed attempt left an empty
negotiation result; now the HEADERS wait ends at the deadline and the
handshakes' verdicts stand.  Diffed report by report against the
parent, 37 of the 47 reports differ.  ``scan_virtual_time`` moved in
all 37, the 31 HEADERS sites among them, whose front page is no longer
downloaded.  The other changes are on the 5 ``mute…`` sites: ``negotiation`` now reads
``tcp_connected`` and ``alpn_h2`` on 5 and ``npn_h2`` on 4 (ALPN h2
sites 23 -> 28), with their ``tcp_handshake_rtt``; the
``negotiation`` ``DeadlineExceeded`` error is gone from all 5, which
now go on to ``settings`` (equal results; one took 2 attempts) and
``ping`` (4 ``DeadlineExceeded``, 1 ``ProbeTimeout``), so
``probe_attempts`` gains both keys and the error total stays 30.
``ping`` fields moved on 11 other sites, by at most 1.9e-15 relative
(the probe reads its clock at other instants).  No other key moved.
The value before was
``00c69cb9b4d9439a491aabcb9cab7965f7ae6c6a04ae7dcea435c11e06d05626``.

Re-pinned a sixth time when the engine stopped keying its random stream
by the connection's accept index: each response's processing delay,
cookie token and header noise now come from a stream keyed by the site
and the request path (``H2Server.path_rng``).  Diffed report by report
against the parent, 32 of the 47 reports differ: ``ping.http1_rtt``
moved in 22 (by up to 17 % relative: the three HTTP/1.1 requests draw
other processing delays) and ``scan_virtual_time`` in all 32.  The
other ``ping`` fields moved in the last digits only (``h2_ping_rtt`` 3,
``tcp_rtt`` 3, ``icmp_rtt`` 2, at most 6e-15 relative: the probe reads
its clock at other instants).  No verdict, error or attempt count
moved.  The value before was
``7e72b814211813949e6c90de133bf3142b8d90d50f4dcf1f5ae8e89e61d6310c``.

Re-pinned a seventh time when the settings probe stopped opening a
connection: it reads the SETTINGS the negotiation fetch received, inside
the ``negotiation`` attempt, so ``settings`` has no attempt or error of
its own.  Every later connection of a site has an index one lower, and
the fault draw and the link's loss stream are keyed by that index, so
``ping`` sees another realisation of the same plan.  Diffed report by
report against the parent, 37 of the 47 reports differ:
``probe_attempts.settings`` is gone from all 37 and ``scan_virtual_time``
moved in all 37; ``settings`` now reads a SETTINGS frame on 5 sites
whose own settings connection a fault had hit (27 -> 32 sites), and
equals the parent's on every site that had one; the 5 ``settings``
errors are gone and ``errors`` moved in 14 (30 errors -> 26: ping 15 ->
16, negotiation 10 on both); the ``ping`` fields moved in 22
(``http1_rtt`` 22, ``h2_ping_rtt`` 19, ``icmp_rtt`` 17, ``tcp_rtt`` 17,
``ping_supported`` 11, 22 -> 21 sites) and ``probe_attempts.ping`` in 7.
No ``negotiation`` key moved.  Connections opened fell 216 -> 174 and
probe attempts 140 -> 100.  The value before was
``153c9cef7e5565a75d22e12fb23fd338f6a33c17c30c5ac05c64146179b163fa``.

Re-pinned an eighth time when a turn's control frames started to leave
in one write: the engine sends its server hello and its first SETTINGS
together, and the client its preface, its SETTINGS and the ACK of the
server's.  The server's SETTINGS now arrive with the hello, so
``speak_h2`` returns at once and ``ping``'s PING leaves at the same
instant as the preface, queued behind it on the link.  Diffed report by
report against the parent, 37 of the 47 reports differ:
``scan_virtual_time`` in all 37 (at most 4.4e-5 relative) and
``ping.h2_ping_rtt`` in 21 (about 0.9 µs longer, at most 2.4e-4
relative); ``http1_rtt`` (2), ``icmp_rtt`` (1) and ``tcp_rtt`` (1) in
the last digits only.  No verdict, error or attempt count moved.  The
value before was
``1cc12260597ab25c9168c94b6e50a01f11fe687ee81a3edb2604af313a44b3ad``.

Re-pinned a ninth time when Algorithm 1 started to record whether its
streams' DATA interleaved: ``PriorityResult`` gained ``interleaved``, so
every report's (empty) ``priority`` encodes ``"interleaved": false``.
The check: this campaign's 47 documents, each with
``priority.interleaved`` deleted and hashed as here, give the value
before, ``d1e1ccad9daa6bd515b6ec0869ec396ac92601e1ec9765336c191a24d6b4fa7b``.

Re-pinned a tenth time when the verdicts that are pure functions of
stored measurements became properties: ``priority`` no longer stores
``follows_rules_by_first``, ``follows_rules_by_last``,
``follows_rules_by_both`` or ``passes_algorithm1``, and ``hpack`` no
longer stores ``ratio`` or ``requests``.  The check: this campaign's 47
documents, each with those keys put back at their empty values (false,
null and 0) and hashed as here, give the value before,
``0f7f72d7e424b0f5d82a7979d154505b990aea2768fda7f719a98982ead6848d``.

Re-pinned an eleventh time when ping's PINGs started to take their turn
on the negotiation fetch's connection instead of a connection of their
own.  Ping opens one connection fewer, so every later connection of a
site has an index one lower and draws another fault and loss stream,
and a fault on the fetch's connection now reaches the PINGs.  Diffed
report by report against the parent, 33 of the 47 reports differ:
``scan_virtual_time`` in all 33; ``ping_supported`` in 6 (4 gained, 2
lost: 21 -> 23 sites); ``errors`` in 8 (ping 16 -> 14, negotiation 10
on both) and ``probe_attempts.ping`` in 4 (100 -> 98 attempts), with
ping's four RTTs gained or lost on the 6 sites whose attempt changed
outcome; ``h2_ping_rtt`` moved beyond the last digits on 19 more and
``http1_rtt`` on 1.  No ``negotiation`` or ``settings`` key moved.  The
value before was
``837a03799e48e35a4c26c26faca26f32daf67f14568f649031ff58da9c83d54a``.

Re-pinned a twelfth time when a site that sent no HEADERS started to
end its scan at negotiation.  Diffed report by report against the
parent, 6 of the 47 reports differ, all sites that negotiated h2 and
sent no HEADERS: ping no longer runs there, so ``errors`` lost its ping
error, ``probe_attempts`` its ``ping`` key and ``scan_virtual_time``
fell.  No other key moved.  The value before was
``3fe45ff65161ca73ebc1a1eafcc109c7cdde5fa99ff7e3b1b99b368984d038cb``.

Re-pinned a thirteenth time when every attempt of negotiation and ping
started to fill a fresh section of the report in place, so a raised
attempt keeps what it read.  Diffed report by report against the
parent, 15 of the 47 reports differ, each only by values gained:
``negotiation.tcp_connected`` on 8, ``alpn_h2`` and
``tcp_handshake_rtt`` on 4, ``ping.tcp_rtt`` on 7, and ``h2_ping_rtt``,
``icmp_rtt`` and ``ping_supported`` on 6.  No value was lost, and no
error, attempt count or ``scan_virtual_time`` moved.  The value before
was ``8570a645b874e8b3b607c040a2eaf9bacb58b6ef740f80aa839fce338522301d``.
"""

import hashlib
import json

from repro.net.faults import FaultPlan
from repro.population.generator import PopulationConfig, make_population
from repro.scope.resilience import ResilienceConfig
from repro.scope.scanner import scan_population
from repro.scope.storage import _encode

#: 40 requested sites (the generator appends its unresponsive tail, so
#: the campaign actually scans a few more).  Same probe set, fault plan
#: and resilience policy as the full 350-site differential in
#: ISSUE 5's acceptance run — shrunk so this stays in the default suite.
PINNED_SHA256 = "532cc9d2a49753eb1d80e1b972b68821094f5f84c2f157aa66ac70a89745b8a3"

CHAOS_SPEC = (
    "refuse:0.1x6,reset:0.06x4,stall(30):0.05,blackhole:0.04,"
    "truncate(400):0.05,garbage(96):0.05"
)


def campaign_digest(n_sites):
    sites = make_population(PopulationConfig(n_sites=n_sites, seed=11))
    reports = scan_population(
        sites,
        include={"negotiation", "settings", "ping"},
        seed=3,
        fault_plan=FaultPlan.parse(CHAOS_SPEC, seed=5),
        resilience=ResilienceConfig(timeout=10.0, retries=1),
    )
    documents = [json.dumps(_encode(r), sort_keys=True) for r in reports]
    return hashlib.sha256("\n".join(documents).encode()).hexdigest()


def test_simulated_campaign_hash_is_pinned():
    assert campaign_digest(40) == PINNED_SHA256
