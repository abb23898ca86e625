#!/usr/bin/env python
"""cProfile driver for the scan hot path.

Runs a serial chaos scan (the workload ISSUE 4 optimizes) under
cProfile and prints top-N hotspot tables by self time and by cumulative
time — the before/after instrument for hot-path work::

    PYTHONPATH=src python tools/profile_scan.py --sites 60 --top 25
    PYTHONPATH=src python tools/profile_scan.py --json profile.json

With ``--json`` the top rows are also written as JSON so two runs can
be diffed mechanically.  The workload is fully deterministic (seeded
population, seeded faults), so two profiles of the same tree differ
only by machine noise.

This profiles the serial loop only.  For the interleaved scheduler —
park / ``run_until`` / ``sleep_until`` seconds and handoffs per site,
timed from outside without cProfile's distortion — use the end-to-end
benchmark's traced pass::

    python3 benchmarks/e2e/run.py --workload sim_chaos_c64 --trace 1
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.net.faults import FaultPlan  # noqa: E402
from repro.population import PopulationConfig, make_population  # noqa: E402
from repro.scope.resilience import ResilienceConfig  # noqa: E402
from repro.scope.scanner import scan_population  # noqa: E402

DEFAULT_CHAOS = "refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05"


def run_workload(n_sites: int, seed: int, chaos: str | None) -> int:
    sites = make_population(PopulationConfig(n_sites=n_sites, seed=seed))
    reports = scan_population(
        sites,
        include={"negotiation", "settings", "ping"},
        seed=seed,
        workers=1,
        fault_plan=FaultPlan.parse(chaos, seed=5) if chaos else None,
        resilience=ResilienceConfig(timeout=10.0, retries=1),
    )
    return len(reports)


def top_rows(stats: pstats.Stats, sort: str, top: int) -> list[dict]:
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _ = stats.stats[func]  # type: ignore[attr-defined]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{Path(filename).name}:{lineno}({name})",
                "ncalls": nc,
                "tottime": round(tt, 4),
                "cumtime": round(ct, 4),
            }
        )
    return rows


def print_table(title: str, rows: list[dict]) -> None:
    print(f"\n== {title} ==")
    print(f"{'ncalls':>10}  {'tottime':>8}  {'cumtime':>8}  function")
    for row in rows:
        print(
            f"{row['ncalls']:>10}  {row['tottime']:>8.4f}  "
            f"{row['cumtime']:>8.4f}  {row['function']}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, default=60, metavar="N")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--chaos",
        default=DEFAULT_CHAOS,
        help="fault-plan spec, or '' for a clean scan",
    )
    parser.add_argument("--top", type=int, default=25, metavar="N")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the hotspot rows as JSON",
    )
    args = parser.parse_args(argv)

    profile = cProfile.Profile()
    wall_start = time.perf_counter()
    profile.enable()
    n_reports = run_workload(args.sites, args.seed, args.chaos or None)
    profile.disable()
    wall = time.perf_counter() - wall_start

    stats = pstats.Stats(profile, stream=io.StringIO())
    total_calls = stats.total_calls  # type: ignore[attr-defined]
    total_time = stats.total_tt  # type: ignore[attr-defined]
    print(
        f"scanned {n_reports} sites in {wall:.3f}s wall "
        f"({n_reports / wall:.1f} sites/sec) — "
        f"{total_calls} calls, {total_time:.3f}s profiled"
    )

    by_self = top_rows(stats, "tottime", args.top)
    by_cum = top_rows(stats, "cumulative", args.top)
    print_table(f"top {args.top} by self time", by_self)
    print_table(f"top {args.top} by cumulative time", by_cum)

    if args.json is not None:
        document = {
            "sites": args.sites,
            "seed": args.seed,
            "chaos": args.chaos,
            "wall_seconds": round(wall, 4),
            "sites_per_sec": round(n_reports / wall, 2),
            "total_calls": total_calls,
            "by_self_time": by_self,
            "by_cumulative_time": by_cum,
        }
        args.json.write_text(json.dumps(document, indent=1) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
