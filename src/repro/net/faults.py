"""Deterministic fault injection for the simulated network.

The paper's H2Scope scanned the Alexa top-1M twice; at that scale the
client sees everything a hostile internet can produce — refused
connections, mid-handshake resets, corrupted hellos, servers that go
silent (Tripathi's "slow HTTP/2" hazard class), truncated responses and
outright garbage bytes.  This module is the stand-in for that
hostility: a :class:`FaultPlan` describes *which* connections misbehave
and *how*, and the transport layer consults it when wiring each
connection up.

Design constraints:

* **Deterministic.**  A connection's draws are one keyed BLAKE2b digest
  of ``(plan seed, domain, port, connection index)``: rule *i* reads its
  own eight octets of it as a uniform, so rules stay independent of each
  other and the same plan over the same probe sequence injects the same
  faults — across processes, not just within one (no reliance on
  ``hash()``).  A payload fault's bytes come from a separate stream,
  keyed ``(plan seed, "payload", rule index, domain, port, connection
  index)``.
* **Declarative.**  A plan is a list of :class:`FaultRule` objects; the
  first matching rule wins.  Rules can be scoped to a domain glob,
  fired probabilistically, and capped (``max_triggers``) so that a
  site's first N connections fail and retries then succeed — the shape
  the resilience layer's transient/retry machinery is tested against.
* **Session-scoped state.**  A plan itself is immutable; each
  simulation universe gets its own :class:`FaultSession` (with its own
  trigger counters) via :meth:`FaultPlan.session`, so population scans
  can share one plan across per-site universes without cross-talk.
"""

from __future__ import annotations

import enum
import fnmatch
import hashlib
import json
import os
import random
import re
import struct
from dataclasses import dataclass
from functools import cached_property


def stable_seed(*parts: object) -> int:
    """A process-independent hash of ``parts``, usable as an RNG seed."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _draw_words(
    seed: int, domain: str, port: int, conn_index: int, block: int
) -> tuple[int, ...]:
    """One connection's draw material for rules ``8 * block`` to
    ``8 * block + 7``: a 64-octet keyed digest as eight big-endian words."""
    key = repr((seed, domain, port, conn_index, block)).encode()
    return struct.unpack(">8Q", hashlib.blake2b(key, digest_size=64).digest())


class FaultKind(enum.Enum):
    """The fault classes an internet-scale scan must survive."""

    #: SYN answered with RST: ``connect`` resolves refused.
    REFUSE = "refuse"
    #: TCP completes but the first client bytes (the TLS hello) are
    #: answered with an abrupt RST instead of a server hello.
    RESET = "reset"
    #: The server hello arrives with garbled bytes.
    HELLO_CORRUPT = "hello-corrupt"
    #: The server goes silent for ``duration`` virtual seconds after
    #: sending ``after_bytes`` bytes, then resumes.
    STALL = "stall"
    #: The server goes silent forever after ``after_bytes`` bytes.
    BLACKHOLE = "blackhole"
    #: The connection is torn down after ``after_bytes`` response bytes.
    TRUNCATE = "truncate"
    #: Response bytes beyond ``after_bytes`` are replaced with random
    #: garbage (frame-level corruption above an intact byte stream).
    GARBAGE = "garbage"


#: Spec-string aliases accepted by :meth:`FaultPlan.parse`.
_KIND_ALIASES = {kind.value: kind for kind in FaultKind}


@dataclass(frozen=True)
class FaultRule:
    """One declarative injection rule."""

    kind: FaultKind
    #: ``fnmatch`` pattern for the target domain; ``None`` matches all.
    domain: str | None = None
    #: Per-connection probability that the rule fires when it matches.
    probability: float = 1.0
    #: Stop firing after this many triggers per session (None = never).
    max_triggers: int | None = None
    #: Byte offset into the server's outbound stream at which STALL /
    #: BLACKHOLE / TRUNCATE / GARBAGE trip.
    after_bytes: int = 0
    #: STALL silence length, virtual seconds.
    duration: float = 30.0

    def matches(self, domain: str) -> bool:
        return self.domain is None or fnmatch.fnmatch(domain, self.domain)


class FaultState:
    """One connection's active fault, applied to the byte streams.

    Attached to the *server-side* endpoint by the transport layer:
    ``on_send`` filters the server's outbound bytes and
    ``intercept_receive`` models an RST in place of processing inbound
    bytes.
    """

    def __init__(self, rule: FaultRule, payload_key: tuple):
        self.rule = rule
        self.kind = rule.kind
        self._payload_key = payload_key
        self.bytes_out = 0
        self.tripped = False
        self.silent_until: float | None = None

    @cached_property
    def rng(self) -> random.Random:
        """The payload stream, built on first use: only GARBAGE and
        HELLO_CORRUPT ever draw from it."""
        return random.Random(stable_seed(*self._payload_key))

    def intercept_receive(self) -> bool:
        """True if inbound delivery should become a connection reset."""
        return self.kind is FaultKind.RESET

    def on_send(self, now: float, data: bytes) -> tuple[bytes | None, float, bool]:
        """Filter one outbound chunk.

        Returns ``(data, extra_delay, close_peer)``: the (possibly
        corrupted or truncated) bytes to deliver (None = swallowed), an
        extra delivery delay, and whether the peer should observe a
        connection close after this chunk.
        """
        rule = self.rule
        if self.kind is FaultKind.HELLO_CORRUPT:
            if self.tripped:
                return data, 0.0, False
            self.tripped = True
            return self._corrupt(data), 0.0, False

        budget = max(0, rule.after_bytes - self.bytes_out)
        self.bytes_out += len(data)

        if self.kind is FaultKind.TRUNCATE:
            if self.tripped:
                return None, 0.0, False
            if len(data) <= budget:
                return data, 0.0, False
            self.tripped = True
            return (data[:budget] or None), 0.0, True

        if self.kind is FaultKind.GARBAGE:
            if len(data) <= budget:
                return data, 0.0, False
            self.tripped = True
            tail = self.rng.randbytes(len(data) - budget)
            return data[:budget] + tail, 0.0, False

        if self.kind is FaultKind.BLACKHOLE:
            if not self.tripped and len(data) <= budget:
                return data, 0.0, False
            self.tripped = True
            return None, 0.0, False

        if self.kind is FaultKind.STALL:
            if not self.tripped and len(data) > budget:
                self.tripped = True
                self.silent_until = now + rule.duration
            if self.silent_until is not None and now < self.silent_until:
                return data, self.silent_until - now, False
            return data, 0.0, False

        return data, 0.0, False

    def _corrupt(self, data: bytes) -> bytes:
        """Garble ~1/8 of the bytes (always at least the first)."""
        out = bytearray(data)
        out[0] ^= 0xFF
        for index in range(1, len(out)):
            if self.rng.random() < 0.125:
                out[index] ^= self.rng.randrange(1, 256)
        return bytes(out)


class FaultSession:
    """Per-universe injection state for one plan."""

    def __init__(self, plan: "FaultPlan"):
        self.plan = plan
        self._triggers = [0] * len(plan.rules)

    def draw(self, domain: str, port: int, conn_index: int) -> FaultState | None:
        """Decide the fault (if any) for one new connection."""
        plan = self.plan
        block, words = -1, ()
        for index, rule in enumerate(plan.rules):
            if not rule.matches(domain):
                continue
            if (
                rule.max_triggers is not None
                and self._triggers[index] >= rule.max_triggers
            ):
                continue
            if rule.probability < 1.0:
                # Hashed when a rule first needs a uniform, once per
                # eight rules: the key names the connection, the rule
                # index only picks the word.
                if index // 8 != block:
                    block = index // 8
                    words = _draw_words(plan.seed, domain, port, conn_index, block)
                # The 53 high bits as a float in [0, 1), as random() does.
                if (words[index % 8] >> 11) * 2.0**-53 >= rule.probability:
                    continue
            self._triggers[index] += 1
            return FaultState(
                rule, (plan.seed, "payload", index, domain, port, conn_index)
            )
        return None


#: ``kind[(param)][@domainglob][:probability[xMAX]]`` — e.g.
#: ``refuse:0.1x2``, ``stall(30)@*.test:0.05``, ``truncate(400)``.
_SPEC_ENTRY = re.compile(
    r"^(?P<kind>[a-z-]+)"
    r"(?:\((?P<param>[0-9.]+)\))?"
    r"(?:@(?P<domain>[^:]+))?"
    r"(?::(?P<prob>[0-9.]+)(?:x(?P<max>\d+))?)?$"
)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-driven set of fault rules."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    #: The spec string this plan was parsed from, if any (used as a
    #: stable cache key by the experiment layer).
    spec: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def session(self) -> FaultSession:
        return FaultSession(self)

    @property
    def cache_key(self) -> tuple:
        return (self.seed, self.rules)

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse a compact spec string: comma-separated rule entries.

        Grammar per entry: ``kind[(param)][@domain][:prob[xN]]`` where
        ``param`` is the stall duration (seconds) for ``stall`` and the
        byte offset for ``truncate``/``garbage``/``blackhole``, ``prob``
        is the per-connection trigger probability and ``N`` caps the
        triggers per scan universe.
        """
        rules = []
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            match = _SPEC_ENTRY.match(entry)
            if match is None:
                raise ValueError(f"bad fault spec entry: {entry!r}")
            kind = _KIND_ALIASES.get(match["kind"])
            if kind is None:
                raise ValueError(
                    f"unknown fault kind {match['kind']!r}; choose from "
                    f"{', '.join(sorted(_KIND_ALIASES))}"
                )
            kwargs: dict = {
                "kind": kind,
                "domain": match["domain"],
                "probability": float(match["prob"]) if match["prob"] else 1.0,
                "max_triggers": int(match["max"]) if match["max"] else None,
            }
            kwargs.update(_param_defaults(kind))
            if match["param"]:
                if kind is FaultKind.STALL:
                    kwargs["duration"] = float(match["param"])
                else:
                    kwargs["after_bytes"] = int(float(match["param"]))
            rules.append(FaultRule(**kwargs))
        return cls(rules=tuple(rules), seed=seed, spec=text)

    @classmethod
    def from_json(cls, document: dict, seed: int = 0) -> "FaultPlan":
        rules = []
        for raw in document.get("rules", []):
            kind = _KIND_ALIASES.get(raw["kind"])
            if kind is None:
                raise ValueError(f"unknown fault kind {raw['kind']!r}")
            rules.append(
                FaultRule(
                    kind=kind,
                    domain=raw.get("domain"),
                    probability=float(raw.get("probability", 1.0)),
                    max_triggers=raw.get("max_triggers"),
                    after_bytes=int(
                        raw.get("after_bytes", _param_defaults(kind)["after_bytes"])
                    ),
                    duration=float(raw.get("duration", 30.0)),
                )
            )
        return cls(
            rules=tuple(rules),
            seed=int(document.get("seed", seed)),
            spec=json.dumps(document, sort_keys=True),
        )

    @classmethod
    def load(cls, source: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a spec string or a JSON file path."""
        if os.path.exists(source):
            with open(source, encoding="utf-8") as handle:
                return cls.from_json(json.load(handle), seed=seed)
        return cls.parse(source, seed=seed)


def _param_defaults(kind: FaultKind) -> dict:
    """Per-kind default trip offsets: past the TLS hello for the byte
    faults, immediate for the silence faults."""
    if kind is FaultKind.TRUNCATE:
        return {"after_bytes": 400}
    if kind is FaultKind.GARBAGE:
        return {"after_bytes": 96}
    return {"after_bytes": 0}
