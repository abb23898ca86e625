#!/usr/bin/env python
"""Enforce the single-loop concurrency speedup floors (ISSUE 8/9).

CI runs the parallel-scan benchmark (which regenerates
``benchmarks/results/BENCH_parallel_scan.json``) and then calls::

    python tools/concurrency_check.py benchmarks/results/BENCH_parallel_scan.json

The check fails (exit 1) when either of these floors is broken:

* the *modeled* campaign throughput — sites per virtual second of
  makespan — at ``--concurrency`` (default 64) is less than ``--floor``
  (default 5.0) times the serial row's;
* in the wide sweep (width-scaled populations), modeled throughput at
  ``--wide`` (default 4096) is below the widest narrower row's — i.e.
  pushing the admission window wider must never model *slower*.

Pass ``--wide 0`` to skip the wide gate (e.g. against a JSON produced
before ISSUE 9).  Rows marked ``"pool": "off"`` in older JSON measured
the deleted thread-per-lane layout and are skipped.

Modeled, not wall: simulated scans burn CPU rather than wall time, so
on one core the wall column can only show scheduler overhead.  Virtual
makespan is the quantity interleaving exists to shrink — on a live
network, virtual waiting is real waiting — and it is deterministic, so
this floor is immune to runner noise.  The wall columns stay in the
JSON as the honest record of the overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path)
    parser.add_argument(
        "--concurrency",
        type=int,
        default=64,
        help="sweep level the floor applies to (default 64)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=5.0,
        help="min modeled speedup vs the serial row (default 5.0)",
    )
    parser.add_argument(
        "--wide",
        type=int,
        default=4096,
        help="wide-sweep width to gate (default 4096; 0 skips it)",
    )
    args = parser.parse_args(argv)

    data = json.loads(args.results.read_text())
    rows = {
        row["concurrency"]: row for row in data.get("concurrency_results", [])
    }
    serial = rows.get(1)
    gated = rows.get(args.concurrency)
    if serial is None or gated is None:
        print(
            f"FAIL: {args.results} has no concurrency sweep rows for "
            f"1 and {args.concurrency} (rerun bench_parallel_scan)"
        )
        return 1

    speedup = (
        gated["modeled_sites_per_sec"] / serial["modeled_sites_per_sec"]
    )
    print(
        f"{'concurrency':>12} {'virtual_makespan':>17} "
        f"{'modeled_sites_per_sec':>22} {'wall_sites_per_sec':>19}"
    )
    for level in sorted(rows):
        row = rows[level]
        print(
            f"{level:>12} {row['virtual_makespan']:>17} "
            f"{row['modeled_sites_per_sec']:>22} {row['sites_per_sec']:>19}"
        )
    failed = speedup < args.floor
    verdict = "REGRESSION" if failed else "ok"
    print(
        f"\nmodeled speedup at concurrency={args.concurrency}: "
        f"{speedup:.2f}x (floor {args.floor:.1f}x) ... {verdict}"
    )

    if args.wide:
        failed |= check_wide(data.get("wide_results", []), args.wide)
    return 1 if failed else 0


def check_wide(wide_rows: list[dict], wide: int) -> bool:
    """The ISSUE 9 gate over the wide sweep; returns True on failure."""
    wide_rows = [row for row in wide_rows if row.get("pool") != "off"]
    if not wide_rows:
        print(
            f"FAIL: no wide_results in the JSON but --wide={wide} "
            f"(rerun bench_parallel_scan, or pass --wide 0)"
        )
        return True
    failed = False
    print(
        f"\n{'width':>7} {'sites':>7} {'seconds':>8} "
        f"{'modeled/s':>10} {'peak_rss_kb':>12} {'scan_delta_kb':>14}"
    )
    for row in wide_rows:
        print(
            f"{row['concurrency']:>7} {row['n_sites']:>7} "
            f"{row['seconds']:>8} {row['modeled_sites_per_sec']:>10} "
            f"{row['peak_rss_kb']:>12} {row['scan_rss_delta_kb']:>14}"
        )
    by_width = {
        row["concurrency"]: row for row in wide_rows if row["concurrency"] > 1
    }
    gated = by_width.get(wide)
    if gated is None:
        print(f"FAIL: wide_results has no width-{wide} row")
        return True
    anchors = [level for level in by_width if level < wide]
    if anchors:
        anchor = by_width[max(anchors)]
        ratio = (
            gated["modeled_sites_per_sec"] / anchor["modeled_sites_per_sec"]
        )
        ok = ratio >= 1.0
        failed |= not ok
        print(
            f"\nmodeled width-{wide} vs width-{anchor['concurrency']}: "
            f"{ratio:.2f}x (floor 1.0x) ... "
            f"{'ok' if ok else 'REGRESSION'}"
        )
    return failed


if __name__ == "__main__":
    sys.exit(main())
