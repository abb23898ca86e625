"""Sharded-scan throughput: workers ∈ {1, 2, 4, 8} and, since ISSUE 8,
single-loop concurrency — now swept to 16384 lanes (ISSUE 9).

Emits ``benchmarks/results/BENCH_parallel_scan.json`` so the perf
trajectory of the parallel runner is recorded run over run.  The
speedup a given machine can show is bounded by its core count (the
per-site universes are CPU-bound), so ``cpu_count`` is stored next to
the numbers: on a single-core runner the workers>1 rows measure pure
process overhead, not the architecture.

The concurrency sweep records two throughputs per level:

* ``sites_per_sec`` — honest wall-clock rate.  Simulated scans burn
  CPU, not wall time, so interleaving them on one core can only *add*
  scheduler overhead here; this column keeps us honest about it.
* ``modeled_sites_per_sec`` — sites per **virtual** second of campaign
  makespan (``ConcurrencyMetrics.virtual_makespan``).  This is the
  quantity concurrency exists to improve — on a live network, virtual
  waiting is real waiting — and the one ``tools/concurrency_check.py``
  gates (>= 5x serial at concurrency 64).

The ISSUE 9 wide sweep (``wide_results``) scales the *population* with
the width — ``width + width/8`` negotiation-only sites, so the
admission window is actually full at width 4096 — and runs every point
in its own subprocess so ``ru_maxrss`` is a per-point peak rather than
a process-lifetime monotone.  Each row records wall + modeled
throughput, peak RSS and ``scan_rss_delta_kb`` (peak minus pre-scan
RSS).  Width 16384 rides behind ``H2SCOPE_BENCH_WIDE=1`` (weekly CI):
its serial leg alone is ~25s.

The benchmark also re-checks the determinism contract on the way: all
worker counts, all concurrency levels, and every wide-sweep subprocess
must produce byte-identical reports.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.conftest import BENCH_SEED, RESULTS_DIR
from repro.net.faults import FaultPlan
from repro.population import PopulationConfig, make_population
from repro.scope.concurrent import ConcurrencyMetrics, scan_interleaved
from repro.scope.parallel import ScanOptions, SiteTask
from repro.scope.resilience import ResilienceConfig
from repro.scope.scanner import scan_population
from repro.scope.storage import _encode

WORKER_COUNTS = [1, 2, 4, 8]
CONCURRENCY_LEVELS = [1, 8, 64, 256, 1024, 4096, 16384]
N_SITES = int(os.environ.get("REPRO_BENCH_PARALLEL_SITES", "300"))
CHAOS_SPEC = "refuse:0.1x6,reset:0.06x4,stall(30):0.05,truncate(400):0.05"

#: Wide-sweep widths; 16384 only when H2SCOPE_BENCH_WIDE=1 (weekly).
WIDE_WIDTHS = [1024, 4096]

#: Subprocess probe for one wide-sweep point: scans ``width + width/8``
#: negotiation-only sites at ``width``, reporting timings, scheduler
#: metrics, peak RSS, and a digest of the position-ordered reports so
#: the parent can assert byte-identity across widths and serial.
_WIDE_PROBE = r"""
import hashlib, json, resource, sys, time
from repro.population import PopulationConfig, make_population
from repro.scope.concurrent import ConcurrencyMetrics, scan_interleaved
from repro.scope.parallel import ScanOptions, SiteTask
from repro.scope.storage import _encode

width, n_sites, seed = (int(arg) for arg in sys.argv[1:])
sites = make_population(PopulationConfig(n_sites=n_sites, seed=seed))
options = ScanOptions(include=("negotiation",), seed=seed)
tasks = [
    SiteTask(position=index, site_index=index, domain=site.domain)
    for index, site in enumerate(sites)
]
with open("/proc/self/status") as fh:
    pre = next(
        int(line.split()[1]) for line in fh if line.startswith("VmRSS:")
    )
metrics = ConcurrencyMetrics()
serialized = {}
start = time.perf_counter()
for result in scan_interleaved(
    sites, tasks, options, concurrency=width, metrics=metrics
):
    serialized[result.task.position] = json.dumps(
        _encode(result.report), sort_keys=True
    )
elapsed = time.perf_counter() - start
digest = hashlib.sha256()
for position in sorted(serialized):
    digest.update(serialized[position].encode())
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "n_sites": len(sites),
    "seconds": round(elapsed, 4),
    "virtual_makespan": round(metrics.virtual_makespan, 4),
    "high_water": metrics.high_water,
    "resident_high_water": metrics.resident_high_water,
    "threads_spawned": metrics.threads_spawned,
    "handoffs": metrics.handoffs,
    "peak_rss_kb": peak,
    "pre_scan_rss_kb": pre,
    "scan_rss_delta_kb": peak - pre,
    "digest": digest.hexdigest(),
}))
"""


def _run_wide_point(width: int, n_sites: int) -> dict:
    """One wide-sweep point in a fresh subprocess (its own ru_maxrss)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + pythonpath if pythonpath else "")
    proc = subprocess.run(
        [sys.executable, "-c", _WIDE_PROBE,
         str(width), str(n_sites), str(BENCH_SEED)],
        env=env, capture_output=True, text=True, timeout=1800,
    )
    assert proc.returncode == 0, (
        f"wide probe width={width} failed:\n{proc.stderr[-2000:]}"
    )
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    row.update(
        concurrency=width,
        population=n_sites,
        sites_per_sec=round(row["n_sites"] / row["seconds"], 2),
        modeled_sites_per_sec=round(
            row["n_sites"] / row["virtual_makespan"], 2
        ),
    )
    return row


def _wide_sweep() -> list[dict]:
    """Width-scaled populations, one subprocess per point.

    The default set proves the acceptance pin on a ~5k-site
    negotiation population: modeled throughput at 4096 >= at 1024.
    ``H2SCOPE_BENCH_WIDE=1`` adds the 16384-lane population (~21k
    sites).
    """
    max_width = max(WIDE_WIDTHS)
    rows = []
    plans: list[tuple[int, int]] = [(1, max_width)]
    plans += [(width, max_width) for width in WIDE_WIDTHS]
    if os.environ.get("H2SCOPE_BENCH_WIDE") == "1":
        plans += [(1, 16384), (16384, 16384)]
    for width, population in plans:
        n_sites = population + population // 8
        rows.append(_run_wide_point(width, n_sites))
    by_population: dict[int, list[dict]] = {}
    for row in rows:
        by_population.setdefault(row["population"], []).append(row)
    for population, group in by_population.items():
        digests = {row["digest"] for row in group}
        assert len(digests) == 1, (
            f"wide sweep population {population} broke byte-identity "
            f"across widths"
        )
    return rows


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

    rows = {}
    serialized = {}
    for workers in WORKER_COUNTS:
        reports, elapsed = scan_at(workers)
        rows[workers] = {
            "workers": workers,
            "seconds": round(elapsed, 4),
            "sites_per_sec": round(len(sites) / elapsed, 2),
        }
        serialized[workers] = [
            json.dumps(_encode(report), sort_keys=True) for report in reports
        ]

    for workers in WORKER_COUNTS[1:]:
        assert serialized[workers] == serialized[1], (
            f"workers={workers} broke the determinism contract"
        )
        rows[workers]["speedup_vs_serial"] = round(
            rows[workers]["sites_per_sec"] / rows[1]["sites_per_sec"], 2
        )

    # -- single-loop concurrency sweep (ISSUE 8) ------------------------
    options = ScanOptions(
        include=tuple(sorted(kwargs["include"])),
        seed=kwargs["seed"],
        fault_plan=kwargs["fault_plan"],
        resilience=kwargs["resilience"],
    )
    tasks = [
        SiteTask(position=index, site_index=index, domain=site.domain)
        for index, site in enumerate(sites)
    ]

    def interleave_at(concurrency):
        metrics = ConcurrencyMetrics()
        start = time.perf_counter()
        results = list(
            scan_interleaved(
                sites, tasks, options, concurrency=concurrency,
                metrics=metrics,
            )
        )
        elapsed = time.perf_counter() - start
        reports = [r.report for r in sorted(results, key=lambda r: r.task.position)]
        return reports, elapsed, metrics

    conc_rows = {}
    conc_serialized = {}
    for concurrency in CONCURRENCY_LEVELS:
        reports, elapsed, metrics = interleave_at(concurrency)
        makespan = metrics.virtual_makespan
        conc_rows[concurrency] = {
            "concurrency": concurrency,
            "seconds": round(elapsed, 4),
            "sites_per_sec": round(len(sites) / elapsed, 2),
            "virtual_makespan": round(makespan, 4),
            "modeled_sites_per_sec": round(len(sites) / makespan, 2),
            "high_water": metrics.high_water,
            "handoffs": metrics.handoffs,
        }
        conc_serialized[concurrency] = [
            json.dumps(_encode(report), sort_keys=True) for report in reports
        ]

    for concurrency in CONCURRENCY_LEVELS[1:]:
        assert conc_serialized[concurrency] == conc_serialized[1], (
            f"concurrency={concurrency} broke the determinism contract"
        )
        conc_rows[concurrency]["modeled_speedup_vs_serial"] = round(
            conc_rows[concurrency]["modeled_sites_per_sec"]
            / conc_rows[1]["modeled_sites_per_sec"],
            2,
        )
    assert conc_serialized[1] == serialized[1], (
        "scan_interleaved serial leg diverged from scan_population"
    )

    # -- wide sweep: width-scaled populations, per-point RSS (ISSUE 9) --
    wide_rows = _wide_sweep()

    # benchmark the serial leg so pytest-benchmark has a stable anchor.
    benchmark.pedantic(scan_at, args=(1,), rounds=1, iterations=1)

    document = {
        "n_sites": len(sites),
        "cpu_count": os.cpu_count(),
        "chaos_spec": CHAOS_SPEC,
        "results": [rows[workers] for workers in WORKER_COUNTS],
        "concurrency_results": [
            conc_rows[concurrency] for concurrency in CONCURRENCY_LEVELS
        ],
        "wide_results": wide_rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_parallel_scan.json"
    out.write_text(json.dumps(document, indent=2) + "\n")
    print()
    print(json.dumps(document, indent=2))
    for workers in WORKER_COUNTS:
        benchmark.extra_info[f"sites_per_sec_w{workers}"] = rows[workers][
            "sites_per_sec"
        ]
