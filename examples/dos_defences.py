#!/usr/bin/env python
"""Run the paper's §VI DoS attacks with and without defences.

The Discussion section of the paper warns that three HTTP/2 features
are exploitable: flow control (slow-read memory pinning), header
compression (dynamic-table flooding) and stream priority (dependency-
tree complexity attacks).  Each is a battery profile; this example runs
it with ``run_attack`` against the study's exposed and defended ``Site``
victims, reports the resource it pins, and then runs one of them
against a vendor engine with its abuse guards on.

Run with::

    python examples/dos_defences.py
"""

from repro.attacks import run_attack
from repro.experiments import attacks_study
from repro.experiments.attacks_study import (
    priority_churn_victim,
    slow_read_victim,
    table_flood_victim,
)


def narrate_slow_read() -> None:
    print("== slow-read (flow-control) attack ==")
    knobs = {"streams": 32}
    exposed = run_attack("slow_read", slow_read_victim(), duration=10.0, knobs=knobs)
    print(
        f"  attacker: 32 streams, SETTINGS_INITIAL_WINDOW_SIZE=1\n"
        f"  server memory pinned: {exposed.peak_pinned_bytes:,} bytes "
        f"of a possible {32 * 200_000:,}"
    )
    for at, metrics in exposed.samples[::10]:
        print(f"    t={at:5.1f}s  pinned={metrics['pinned_bytes']:,}")
    defended = run_attack(
        "slow_read",
        slow_read_victim(min_accepted_initial_window=1024),
        duration=10.0,
        knobs=knobs,
    )
    print(
        f"  with a window lower bound: pinned={defended.peak_pinned_bytes:,}, "
        f"connection refused={defended.goaway_observed}\n"
    )


def narrate_table_flood() -> None:
    print("== HPACK table-flooding attack ==")
    knobs = {"requests": 200}
    exposed = run_attack("table_flood", table_flood_victim(), duration=5.0, knobs=knobs)
    print(
        f"  decoder table peak: {exposed.peak_hpack_decoder_bytes:,} bytes "
        "(bounded by the server's own 4,096 SETTINGS_HEADER_TABLE_SIZE "
        "- which is why §V-C finds every server keeps the default)"
    )
    print(
        f"  encoder table peak: {exposed.peak_hpack_encoder_bytes:,} bytes "
        "and growing"
    )
    defended = run_attack(
        "table_flood",
        table_flood_victim(max_peer_header_table_size=4096),
        duration=5.0,
        knobs=knobs,
    )
    print(f"  with an encoder cap: {defended.peak_hpack_encoder_bytes:,} bytes\n")


def narrate_priority_churn() -> None:
    print("== priority-tree churn attack ==")
    exposed = run_attack("priority_churn", priority_churn_victim(100_000), duration=5.0)
    print(
        f"  unbounded server: {exposed.peak_priority_nodes:,} tracked streams, "
        f"tree depth {exposed.peak_priority_depth}"
    )
    defended = run_attack("priority_churn", priority_churn_victim(100), duration=5.0)
    print(
        f"  bounded server:   {defended.peak_priority_nodes:,} tracked streams, "
        f"tree depth {defended.peak_priority_depth}\n"
    )


def narrate_vendor_guards() -> None:
    print("== the same slow read against apache, abuse guards on ==")
    result = run_attack("slow_read", "apache", guards="vendor")
    print(
        f"  pinned {result.peak_pinned_bytes:,} bytes until "
        f"{result.guard_reasons[0]} evicted it at {result.eviction_at:.2f}s\n"
    )


if __name__ == "__main__":
    narrate_slow_read()
    narrate_table_flood()
    narrate_priority_churn()
    narrate_vendor_guards()
    print(attacks_study.run().text)
