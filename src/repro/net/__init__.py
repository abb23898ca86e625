"""Simulated internet substrate.

The paper measures real servers across real WAN paths; this package
provides the stand-in: a deterministic discrete-event simulation with

* a virtual clock and scheduler (:mod:`repro.net.clock`),
* hosts, listeners and TCP-like reliable byte-stream connections with
  per-site RTT, bandwidth and loss models (:mod:`repro.net.transport`),
* a TLS handshake layer implementing both ALPN and NPN negotiation
  (:mod:`repro.net.tls`) — the two mechanisms Section IV-A of the paper
  uses to discover HTTP/2 support,
* ICMP echo (:mod:`repro.net.icmp`) for the Fig. 6 RTT comparison, and
* deterministic fault injection (:mod:`repro.net.faults`) — refusals,
  mid-handshake resets, hello corruption, stalls/blackholes, truncated
  closes and garbage frames, for chaos-testing the scanner.

Determinism: all randomness flows from seeds; running the same
experiment twice produces byte-identical traces.
"""
