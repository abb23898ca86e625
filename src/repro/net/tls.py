"""TLS handshake with ALPN and NPN negotiation (simulated).

Section IV-A of the paper: since HTTPS, SPDY and HTTP/2 all listen on
port 443, H2Scope discovers HTTP/2 support by negotiating the
application protocol during the TLS handshake, using *both* mechanisms:

* **ALPN** (RFC 7301) — the client lists its protocols in ClientHello
  and the *server* selects one in ServerHello;
* **NPN** (the older draft, used by SPDY) — the *server* advertises its
  protocol list and the client selects.

Real servers differ in which extension they support (Apache has no NPN
— Table III), and the paper found >100 server types that "just speak
NPN" because ALPN needs OpenSSL ≥ 1.0.2.  The negotiation logic below
reproduces those semantics; the cryptography itself is irrelevant to
the measurements and is modelled as a one-RTT exchange.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

#: Canonical protocol identifiers.
H2 = "h2"
HTTP11 = "http/1.1"

#: The order H2Scope picks from a server's NPN advertisement.
NPN_PREFERENCES = (H2, HTTP11)


@dataclass
class TlsServerConfig:
    """A server's TLS protocol-negotiation capabilities."""

    #: Protocols selectable via ALPN, in server preference order;
    #: ``None`` means the ALPN extension is not supported at all.
    alpn_protocols: list[str] | None = field(default_factory=lambda: [H2, HTTP11])
    #: Protocols advertised via NPN; ``None`` means no NPN support.
    npn_protocols: list[str] | None = field(default_factory=lambda: [H2, HTTP11])

    @property
    def supports_alpn(self) -> bool:
        return self.alpn_protocols is not None

    @property
    def supports_npn(self) -> bool:
        return self.npn_protocols is not None


def negotiate_alpn(
    client_protocols: Sequence[str], server: TlsServerConfig
) -> str | None:
    """RFC 7301 §3.2: the server picks from the client's list.

    The server selects the first of *its* preferences that the client
    offered; no overlap (or no server ALPN support) yields None.
    """
    if server.alpn_protocols is None:
        return None
    for candidate in server.alpn_protocols:
        if candidate in client_protocols:
            return candidate
    return None


def negotiate_npn(
    preferences: Sequence[str], advertised: Sequence[str] | None
) -> str | None:
    """NPN: the server advertises, the *client* picks.

    The client selects the first of its ``preferences`` present in the
    server's ``advertised`` list; no advertisement (a server without
    NPN) or no overlap yields None.  This is the one NPN rule: the
    client picks with it, and the engine runs it with the same
    preferences to anticipate that pick (DESIGN §9).
    """
    if advertised is None:
        return None
    for candidate in preferences:
        if candidate in advertised:
            return candidate
    return None


# -- wire format ---------------------------------------------------------
#
# The handshake is carried on the simulated byte stream as two
# newline-terminated text records, so negotiation is observable in
# traces and costs the one RTT a (resumed) TLS handshake costs:
#
#   C -> S:  CLIENTHELLO alpn=h2,http/1.1 npn=1\n
#   S -> C:  SERVERHELLO alpn=h2 npn=h2,http/1.1\n
#
# ``-`` denotes an absent extension.  Encryption itself is not modelled
# (it does not affect any measured quantity).
#
# Every connection decodes one hello a side, from a handful of distinct
# lines, so the decoders are memoised like the HPACK string memos: a
# decode is a pure function of its line, its answer is made of tuples
# that no caller can mutate, a line that fails to decode raises before
# it is stored, and a memo is cleared when full.

#: Decoded hello records, one memo a side: line -> answer.
_CLIENT_HELLOS: dict[bytes, tuple[tuple[str, ...], bool]] = {}
_SERVER_HELLOS: dict[bytes, tuple[str | None, tuple[str, ...] | None]] = {}
_HELLO_CACHE_MAX = 64


def encode_client_hello(
    alpn: list[str] | None, npn_offered: bool
) -> bytes:
    alpn_part = ",".join(alpn) if alpn else "-"
    return f"CLIENTHELLO alpn={alpn_part} npn={int(npn_offered)}\n".encode()


def _hello_fields(line: bytes, side: str) -> dict[str, str]:
    """The ``key=value`` parts of one side's hello record (ValueError
    if it is not that record or a part has no ``=``)."""
    text = line.decode().strip()
    if not text.startswith(f"{side.upper()}HELLO "):
        raise ValueError(f"not a {side} hello: {text[:40]!r}")
    fields = {}
    for part in text.split()[1:]:
        key, value = part.split("=", 1)
        fields[key] = value
    return fields


def decode_client_hello(line: bytes) -> tuple[tuple[str, ...], bool]:
    """Returns (client_alpn_protocols, npn_offered)."""
    decoded = _CLIENT_HELLOS.get(line)
    if decoded is None:
        fields = _hello_fields(line, "client")
        alpn = fields.get("alpn", "-")
        decoded = (
            () if alpn == "-" else tuple(alpn.split(",")),
            fields.get("npn", "0") == "1",
        )
        if len(_CLIENT_HELLOS) >= _HELLO_CACHE_MAX:
            _CLIENT_HELLOS.clear()
        _CLIENT_HELLOS[line] = decoded
    return decoded


def encode_server_hello(
    alpn_choice: str | None, npn_advertised: list[str] | None
) -> bytes:
    alpn_part = alpn_choice if alpn_choice else "-"
    npn_part = ",".join(npn_advertised) if npn_advertised else "-"
    return f"SERVERHELLO alpn={alpn_part} npn={npn_part}\n".encode()


def decode_server_hello(
    line: bytes,
) -> tuple[str | None, tuple[str, ...] | None]:
    """Returns (alpn_choice, npn_advertised_protocols)."""
    decoded = _SERVER_HELLOS.get(line)
    if decoded is None:
        fields = _hello_fields(line, "server")
        alpn = fields.get("alpn", "-")
        npn = fields.get("npn", "-")
        decoded = (
            None if alpn == "-" else alpn,
            None if npn == "-" else tuple(npn.split(",")),
        )
        if len(_SERVER_HELLOS) >= _HELLO_CACHE_MAX:
            _SERVER_HELLOS.clear()
        _SERVER_HELLOS[line] = decoded
    return decoded
