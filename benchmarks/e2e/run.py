"""The end-to-end campaign benchmark: one pass, or all of them.

``run.py --workload NAME --seed N --seconds S --trace 0|1`` is one pass in
this process: build the inputs from the seed, warm up, then call the public
campaign entry point on the whole population, each call into a fresh
on-disk SQLite file, until ``S`` seconds have been timed; check what was
stored; print the metrics as one JSON object on the last line.  Every
time metric is the median over the pass's campaign calls of a plain
quotient (sites ÷ seconds of that call, and so on).  On the simulated
workloads the pass runs on one CPU and the seconds are reference seconds:
the call's wall and CPU seconds times the speed at which that CPU ran a
fixed loop meanwhile (``HostSpeed``), because each CPU of the host runs at
two speeds and the raw quotient does not repeat (README.md, "What
repeats").

Without ``--workload`` it runs every workload, ``--passes`` fresh
processes each, one at a time in round-robin order, and prints every
end-to-end metric as the median of its passes with the per-pass values
beside it (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
if __package__ in (None, ""):  # run as a script: make both packages importable
    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"{REPO}/src/repro is missing: nothing to measure")
    sys.path[:0] = [str(REPO), str(REPO / "src")]

from repro.scope.live import verdict_view
from repro.scope.parallel import SiteResult, SiteTask
from repro.scope.scanner import scan_site
from repro.scope.storage import ReportStore

from benchmarks.e2e import verify
from benchmarks.e2e.spans import Tracer, layer_metrics
from benchmarks.e2e.workloads import LIVE_SESSIONS, WORKLOADS

OUT = HERE / "out"
#: ``setup_s`` is the median of this many set-ups, each in a fresh interpreter
#: on the CPU of the pass, in reference seconds.
SETUP_REPEATS = 9
#: ISSUE 12's end-to-end metrics and bounds: what a pass prints and what
#: ``run.py`` over all workloads and ``compare.py`` judge by.  BENCHMARK.json
#: lists the ones the benchmark driver gates on, with the bounds the host's
#: noise allows it (README.md, "What repeats"); ``failed_share``, the sixth,
#: has an absolute bound of 0 and is handled beside these.
END_TO_END = (
    {"name": "sites_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "cpu_s_per_site", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10},
    {"name": "db_bytes_per_site", "unit": "B", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15},
)
#: ``db_bytes_per_site`` on the simulated workloads (the 5 % is for live).
SIM_DB_BOUND = 0.02
READY = "set-up done"
#: The host's speed is read from a fixed pure-Python loop, about every
#: ``SAMPLE_EVERY_S`` of a simulated call; one second of the reference host
#: is the time in which it runs the loop a thousand times.
REFERENCE_LOOP_S = 0.001
SAMPLE_EVERY_S = 0.03
#: Reference loops before and after each set-up.
SETUP_LOOPS = 20


def load_spec() -> dict:
    """BENCHMARK.json: the one list of metric names, units and bounds."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _file_bytes(path: Path) -> int:
    return sum(
        candidate.stat().st_size
        for candidate in (path, path.with_name(path.name + "-wal"))
        if candidate.exists()
    )


def _reference_loop() -> float:
    """Seconds this CPU takes for a fixed piece of interpreter work."""
    start = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i & 7
    return time.perf_counter() - start


def _host_speed(loops) -> float:
    """Share of the reference host's speed at which ``loops`` ran."""
    return REFERENCE_LOOP_S / statistics.mean(loops)


def _pin() -> set[int]:
    """Keep this process and its children on one CPU; returns the CPUs it had.

    The two CPUs of the reference host change speed independently of each
    other, so the reference loop says how fast the work ran only if both
    ran on the same one."""
    if not hasattr(os, "sched_setaffinity"):
        return set()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


class HostSpeed:
    """Progress callback of a timed call: the reference loop, run on the
    calling thread once for every ``SAMPLE_EVERY_S`` since it last ran (the
    interleaved scheduler reports its sites in bursts), and the seconds that
    took out of the call."""

    def __init__(self):
        self.spent = 0.0
        self.loops = [_reference_loop()]
        self._last = time.perf_counter()

    def __call__(self, _progress=None) -> None:
        start = time.perf_counter()
        due = min(8, int((start - self._last) / SAMPLE_EVERY_S))
        if due:
            self.loops += [_reference_loop() for _ in range(due)]
            self._last = time.perf_counter()
            self.spent += self._last - start


def _timed_call(inputs, store, campaign: str, sites, call=None, progress=None) -> dict:
    """One call of the campaign entry point: what it scanned and what it cost,
    in seconds of the clock and (``progress`` a ``HostSpeed``) of the
    reference host."""
    gc.collect()
    wall, cpu = time.perf_counter(), _cpu_s()
    if call is None:
        inputs.scan(store, campaign, sites, progress=progress)
    else:
        call(inputs.scan, store, campaign, sites, progress=progress)
    wall, cpu = time.perf_counter() - wall, _cpu_s() - cpu
    speed, spent = 1.0, 0.0
    if isinstance(progress, HostSpeed):
        progress.loops.append(_reference_loop())
        speed, spent = _host_speed(progress.loops), progress.spent
    return {
        "campaign": campaign,
        "sites": len(sites),
        "wall_s": wall,
        "cpu_s": cpu,
        "host_speed": speed,
        "ref_wall_s": (wall - spent) * speed,
        "ref_cpu_s": (cpu - spent) * speed,
    }


# -- set-up, as a user pays it: in a fresh interpreter ------------------------


def _setup_times(args) -> list[dict]:
    """Seconds from starting an interpreter to the end of its set-up, each of
    ``SETUP_REPEATS`` times: imports, inputs built, store open.  The
    reference loop runs before and after each, on the same CPU."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", str(args.scale), "--setup-only",
    ]
    times = []
    loops = [_reference_loop() for _ in range(SETUP_LOOPS)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=REPO, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != READY:
            sys.exit(f"set-up of {args.workload} failed ({child.returncode}): {line!r}")
        before, loops = loops, [_reference_loop() for _ in range(SETUP_LOOPS)]
        speed = _host_speed(before + loops)
        times.append({"wall_s": wall, "host_speed": speed, "ref_wall_s": wall * speed})
    return times


def setup_only(args) -> int:
    """What a pass does before its warm-up, and no more (the imports are done)."""
    work = OUT / f"setup-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = WORKLOADS[args.workload].build(args.seed, args.scale)
        store = ReportStore(work / "campaign.sqlite")
        print(READY, flush=True)
        store.close()
        inputs.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


# -- checking what the calls stored (see verify.py) ---------------------------


class Checker:
    """Problems and failed sites of every campaign call of one pass."""

    def __init__(self, workload):
        self.workload = workload
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        #: Domain -> the report text its first scan stored (simulated only:
        #: every later scan of the site must store the same bytes).
        self.reference: dict[str, str] = {}

    def call(self, store, campaign: str, sites) -> None:
        failed, wrong = verify.check_call(store, campaign, sites, not self.workload.chaos)
        self.attempted += len(sites)
        self.failures += failed
        self.problems += wrong
        if self.workload.backend == "sim":
            documents = verify.documents(store, campaign)
            self.problems += verify.differing(self.reference, documents, campaign)
            self.reference = {**documents, **self.reference}

    def stored(self, path: Path, campaigns) -> None:
        """Check a closed store file: reopened as a user's ``report`` would."""
        with ReportStore(path) as store:
            self.problems += list(store.verify())
            for campaign, sites in campaigns:
                self.call(store, campaign, sites)


# -- one pass ----------------------------------------------------------------


def _end_to_end(args, inputs, work: Path, checker: Checker):
    """Timed campaign calls over the whole population, untraced."""
    calls = []
    timed = 0.0
    # Two calls or more, and as near to --seconds as whole calls come.
    while len(calls) < 2 or timed + calls[-1]["wall_s"] / 2 < args.seconds:
        path = work / f"timed-{len(calls)}.sqlite"
        # The live sessions run beside the progress callback and would share
        # the interpreter with the loop; their wall is mostly waiting anyway.
        speed = HostSpeed() if inputs.workload.backend == "sim" else None
        with ReportStore(path) as store:
            call = _timed_call(inputs, store, "timed", inputs.sites, progress=speed)
        # Closed: the WAL is checkpointed and the file is what a user keeps.
        calls.append({**call, "db_bytes": _file_bytes(path)})
        timed += call["wall_s"]
        if len(calls) == 2:
            # After a fixed number of calls, because the in-process servers of
            # the live fleet keep 16 MB more with every campaign, and before
            # verification loads whole campaigns into memory.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for index in range(len(calls)):
        checker.stored(work / f"timed-{index}.sqlite", [("timed", inputs.sites)])
    metrics = {
        "sites_per_s": statistics.median(c["sites"] / c["ref_wall_s"] for c in calls),
        "cpu_s_per_site": statistics.median(c["ref_cpu_s"] / c["sites"] for c in calls),
        "peak_rss_mb": peak_rss_mb,
        "db_bytes_per_site": statistics.median(c["db_bytes"] / c["sites"] for c in calls),
    }
    return metrics, {"calls": calls}


class _ThreadSampler:
    """Progress callback: the most threads alive at any tick."""

    def __init__(self):
        self.high_water = 0

    def __call__(self, _progress) -> None:
        self.high_water = max(self.high_water, threading.active_count())


def _per_layer(args, inputs, work: Path, checker: Checker):
    """Campaign calls over the first quarter of the sites, by turns untraced
    and traced, so that traced seconds can be set against real ones."""
    workload = inputs.workload
    sites = inputs.sites[: max(4, len(inputs.sites) // 4)]
    tracer, sampler = Tracer(), _ThreadSampler()
    plain, traced = [], []
    path = work / "traced.sqlite"
    with ReportStore(path) as store:
        while sum(call["wall_s"] for call in plain + traced) < args.seconds:
            plain.append(_timed_call(inputs, store, f"plain-{len(plain)}", sites))
            tracer.install()
            try:
                traced.append(
                    _timed_call(
                        inputs, store, f"traced-{len(traced)}", sites,
                        call=tracer.root, progress=sampler,
                    )
                )
            finally:
                tracer.uninstall()
        reports = [
            report for call in traced for report in store.load_campaign(call["campaign"])
        ]
        live = workload.backend == "live"
        lanes = LIVE_SESSIONS if live else 1
        scans, wall_s = (sum(call[key] for call in traced) for key in ("sites", "wall_s"))
        plain_wall_s, plain_cpu_s = (
            sum(call[key] for call in plain) for key in ("wall_s", "cpu_s")
        )
        metrics = layer_metrics(tracer, scans, wall_s, lanes)
        ipc_bytes, ipc_s = _ipc_cost(reports)
        metrics.update(
            {
                "population.make_s": 0.0 if live else inputs.make_s,
                "servers.loopback.build_s": inputs.make_s if live else 0.0,
                "scope.resilience.retried_site_share": sum(
                    any(count > 1 for count in report.probe_attempts.values())
                    for report in reports
                ) / len(reports),
                "scope.concurrent.threads_high_water": float(sampler.high_water),
                "scope.parallel.ipc_bytes_per_site": ipc_bytes,
                "scope.parallel.ipc_s_per_site": ipc_s,
                "scope.storage.readback_sites_per_s": _readback_sites_per_s(
                    store, "traced-0"
                ),
                "scope.live.idle_share": (
                    max(0.0, 1 - plain_cpu_s / (plain_wall_s * lanes)) if live else 0.0
                ),
                "scope.live.high_water": (
                    float(inputs.metrics.concurrency_high_water) if live else 0.0
                ),
                "scope.live.verdict_mismatches": (
                    float(_verdict_mismatches(inputs, store, "traced-0", sites))
                    if live else 0.0
                ),
                # The clock's own seconds, nothing pinned: what a user of this
                # host pays, and on this host it does not repeat.
                "process.cpu_s_per_site": plain_cpu_s / sum(c["sites"] for c in plain),
                "process.sites_per_s": sum(c["sites"] for c in plain) / plain_wall_s,
                # Traced seconds are not real ones: this is by how much.
                "trace.overhead_ratio": wall_s / plain_wall_s,
            }
        )
    checker.stored(path, [(call["campaign"], sites) for call in plain + traced])
    trace_file = OUT / f"trace-{workload.name}.json"
    tracer.write(
        trace_file,
        {"workload": workload.name, "seed": args.seed, "sites": scans, "wall_s": wall_s},
    )
    info = {
        "plain_calls": plain,
        "traced_calls": traced,
        "trace_file": str(trace_file),
        "missing_boundaries": tracer.missing,
    }
    return metrics, info


def _readback_sites_per_s(store, campaign: str) -> float:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reports = store.load_campaign(campaign)
        times.append(time.perf_counter() - start)
    return len(reports) / statistics.median(times)


def _ipc_cost(reports) -> tuple[float, float]:
    """Bytes and seconds per site to pickle each result as a worker would."""
    results = [
        SiteResult(SiteTask(position=i, site_index=i, domain=report.domain), report)
        for i, report in enumerate(reports)
    ]
    start = time.perf_counter()
    size = 0
    for result in results:
        blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        size += len(blob)
        pickle.loads(blob)
    return size / len(results), (time.perf_counter() - start) / len(results)


def _verdict_mismatches(inputs, store, campaign: str, sites) -> int:
    """Live verdicts against a simulated scan of the same seeded sites."""
    mismatches = 0
    for site in sites:
        live = store.load(campaign, site.domain)
        simulated = scan_site(site, seed=inputs.seed, include=inputs.workload.include)
        mismatches += live is None or verdict_view(live) != verdict_view(simulated)
    return mismatches


def measure(args) -> dict:
    """One pass; returns the result object plus an ``info`` side channel."""
    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(shutil.rmtree, work, ignore_errors=True)
        setup_times = []
        if not args.trace:
            # The traced pass runs as a user runs the program: on any CPU, and
            # its ``process.*`` metrics are the clock's own seconds.
            allowed = _pin()
            setup_times = _setup_times(args)
            if allowed and workload.backend == "live":
                # Sessions, loop thread and servers run beside each other.
                os.sched_setaffinity(0, allowed)
        inputs = workload.build(args.seed, args.scale)
        cleanup.callback(inputs.close)

        checker = Checker(workload)
        warmup = inputs.sites[: max(2, len(inputs.sites) // 20)]
        warm_path = work / "warmup.sqlite"
        with ReportStore(warm_path) as warm:
            inputs.scan(warm, "warmup", warmup)

        if args.trace:
            metrics, info = _per_layer(args, inputs, work, checker)
        else:
            metrics, info = _end_to_end(args, inputs, work, checker)
            metrics["setup_s"] = statistics.median(t["ref_wall_s"] for t in setup_times)
            info["setup_s"] = setup_times

        # The warm-up's reports, and on the interleaved workload a serial
        # scan's, must be the bytes the measured calls stored.
        campaigns = [("warmup", warmup)]
        if workload.concurrency > 1:
            with ReportStore(warm_path) as warm:
                inputs.scan(warm, "serial", warmup, serial=True)
            campaigns.append(("serial", warmup))
        checker.stored(warm_path, campaigns)

    for line in checker.problems + checker.failures[:20]:
        print(f"verify: {line}", file=sys.stderr)
    return {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
        "info": info,
    }


def run_one(args, spec) -> int:
    workload = WORKLOADS[args.workload]
    result = measure(args)
    metrics, info = result["metrics"], result.pop("info")
    if args.trace:
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        odd = sorted(set(units) ^ set(metrics))
    else:
        units = {metric["name"]: metric["unit"] for metric in END_TO_END}
        odd = sorted({metric["name"] for metric in spec["end_to_end"]} - set(metrics))
    if odd:
        sys.exit(f"BENCHMARK.json and the runner disagree on metrics: {odd}")
    backend = (
        "real TCP over the host's loopback interface, servers in this process"
        if workload.backend == "live"
        else "simulated network, no sockets"
    )
    print(f"workload {workload.name} seed {args.seed}: {backend}")
    print(f"info: {json.dumps({**info, 'values': metrics})}")
    print(f"  {'failed_share':45s} {result['failed'] / result['attempted']:14.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    # The last line is the benchmark driver's: the metrics BENCHMARK.json lists.
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {
        metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
        for metric in listed
    }
    print(json.dumps(result))
    return 0


# -- every workload, several fresh processes each ---------------------------


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "network": "live_loopback crosses the host's loopback interface; "
        "the sim_* workloads open no socket",
    }


def run_pass(workload: str, args, trace: int) -> dict:
    """One pass in a fresh interpreter; returns its result plus ``info``."""
    load = os.getloadavg()[0]
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--scale", str(args.scale),
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} pass failed ({done.returncode}):\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = next(
        json.loads(line[len("info: "):]) for line in lines if line.startswith("info: ")
    )
    result["loadavg_1m_before"] = load
    result["values"] = result["info"].pop("values")
    del result["metrics"]
    return result


def summarize(workload: str, passes: list[dict]) -> dict:
    """Median, per-pass values and ``(max - min) / median`` per metric."""
    summary = {}
    for metric in END_TO_END:
        values = [one["values"][metric["name"]] for one in passes]
        median = statistics.median(values)
        spread = (max(values) - min(values)) / median
        bound = metric["bound"]
        if metric["name"] == "db_bytes_per_site" and WORKLOADS[workload].backend == "sim":
            bound = SIM_DB_BOUND
        summary[metric["name"]] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": bound,
            "median": median,
            "values": values,
            "spread": spread,
            "unresolved": spread > bound,
        }
    return summary


def run_all(args, spec) -> int:
    names = [workload["name"] for workload in spec["workloads"]]
    document = {
        "environment": environment(),
        "config": {
            "seed": args.seed, "passes": args.passes, "seconds": args.seconds,
            "scale": args.scale, "order": "round-robin, one fresh process at a time",
        },
        "workloads": {name: {"passes": []} for name in names},
    }
    for index in range(args.passes):
        for name in names:
            print(f"pass {index + 1}/{args.passes} of {name} ...", flush=True)
            document["workloads"][name]["passes"].append(run_pass(name, args, 0))
    if args.trace:
        for name in names:
            print(f"traced pass of {name} ...", flush=True)
            document["workloads"][name]["traced"] = run_pass(name, args, 1)

    failed = False
    for name in names:
        entry = document["workloads"][name]
        passes = entry["passes"]
        entry["end_to_end"] = summarize(name, passes)
        entry["attempted"] = sum(one["attempted"] for one in passes)
        entry["failed"] = sum(one["failed"] for one in passes)
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        entry["correct"] = all(one["correct"] for one in passes)
        failed |= not entry["correct"] or entry["failed"] > 0
        print(f"\n{name}: {entry['attempted']} sites attempted, {entry['failed']} failed, "
              f"outputs {'correct' if entry['correct'] else 'WRONG'}")
        print(f"  {'failed_share':20s} {entry['failed_share']:12.6g} ratio (bound 0, absolute)")
        for metric, row in entry["end_to_end"].items():
            values = " ".join(f"{value:.6g}" for value in row["values"])
            flag = "  unresolved" if row["unresolved"] else ""
            print(f"  {metric:20s} {row['median']:12.6g} {row['unit']:5s} [{values}] "
                  f"spread {row['spread']:.1%} bound {row['bound']:.0%}{flag}")
        if "traced" in entry:
            units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
            for metric, value in entry["traced"]["values"].items():
                print(f"    {metric:45s} {value:14.6g} {units[metric]}")
    out = Path(args.out) if args.out else OUT / f"result-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 1 if failed else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="timed seconds per pass (the benchmark driver sets it)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="one pass: 1 prints the per-layer metrics instead; "
                        "all passes: adds a traced pass per workload")
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the populations (self-check only)")
    parser.add_argument("--out", help="result file of a run over all workloads")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
