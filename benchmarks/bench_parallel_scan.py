"""Sharded-scan throughput: ``--workers`` 1, 2, 4, … up to the CPU count.

Emits ``benchmarks/results/BENCH_parallel_scan.json`` so the perf
trajectory of the parallel runner is recorded run over run.  The
speedup a machine can show is bounded by its core count (the per-site
universes are CPU-bound), so the sweep stops at ``os.cpu_count()`` and
``cpu_count`` is stored next to the numbers.

The benchmark also re-checks the determinism contract on the way: every
worker count must produce byte-identical reports.
"""

import json
import os
import time

from benchmarks.conftest import BENCH_SEED, RESULTS_DIR
from repro.net.faults import FaultPlan
from repro.population import PopulationConfig, make_population
from repro.scope.resilience import ResilienceConfig
from repro.scope.scanner import scan_population
from repro.scope.storage import _encode

N_SITES = 300
CHAOS_SPEC = "refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05"


def worker_counts(cpus: int) -> list[int]:
    """1, 2, 4, … while the count fits on ``cpus`` cores."""
    counts = [1]
    while counts[-1] * 2 <= cpus:
        counts.append(counts[-1] * 2)
    return counts


def bench_parallel_scan(benchmark):
    sites = make_population(PopulationConfig(n_sites=N_SITES, seed=BENCH_SEED))
    kwargs = dict(
        include={"negotiation", "settings", "ping"},
        seed=BENCH_SEED,
        fault_plan=FaultPlan.parse(CHAOS_SPEC, seed=5),
        resilience=ResilienceConfig(timeout=10.0, retries=1),
    )

    def scan_at(workers):
        start = time.perf_counter()
        reports = scan_population(sites, workers=workers, **kwargs)
        elapsed = time.perf_counter() - start
        return reports, elapsed

    cpus = os.cpu_count() or 1
    counts = worker_counts(cpus)
    rows = {}
    serialized = {}
    for workers in counts:
        reports, elapsed = scan_at(workers)
        rows[workers] = {
            "workers": workers,
            "seconds": round(elapsed, 4),
            "sites_per_sec": round(len(sites) / elapsed, 2),
        }
        serialized[workers] = [
            json.dumps(_encode(report), sort_keys=True) for report in reports
        ]

    for workers in counts[1:]:
        assert serialized[workers] == serialized[1], (
            f"workers={workers} broke the determinism contract"
        )
        rows[workers]["speedup_vs_serial"] = round(
            rows[workers]["sites_per_sec"] / rows[1]["sites_per_sec"], 2
        )

    # benchmark the serial leg so pytest-benchmark has a stable anchor.
    benchmark.pedantic(scan_at, args=(1,), rounds=1, iterations=1)

    document = {
        "n_sites": len(sites),
        "cpu_count": cpus,
        "chaos_spec": CHAOS_SPEC,
        "results": [rows[workers] for workers in counts],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_parallel_scan.json"
    out.write_text(json.dumps(document, indent=2) + "\n")
    print()
    print(json.dumps(document, indent=2))
    for workers in counts:
        benchmark.extra_info[f"sites_per_sec_w{workers}"] = rows[workers][
            "sites_per_sec"
        ]
