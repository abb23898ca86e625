"""``h2scope`` command-line interface.

Mirrors how the paper's tool was used: characterize the testbed
servers, scan a (synthetic) population, or reproduce a specific
table/figure.

Examples::

    h2scope testbed                       # Table III feature matrix
    h2scope scan --experiment 1 -n 300    # population scan summaries
    h2scope experiment fig6               # any single table/figure
    h2scope experiment all -n 200         # everything (slow)
"""

from __future__ import annotations

import argparse
import shlex
import sys
from contextlib import ExitStack


def _cmd_testbed(args: argparse.Namespace) -> int:
    from repro.experiments import table3

    result = table3.run(seed=args.seed, backend=args.backend)
    print(result.text)
    return 0 if not result.data["mismatches"] else 1


def _parse_host_port(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _render_probe_report(report) -> str:
    """Compact human summary of one SiteReport."""
    lines = [f"{report.domain}:"]
    neg = report.negotiation
    lines.append(
        f"  negotiation: tcp={neg.tcp_connected} alpn_h2={neg.alpn_h2} "
        f"npn_h2={neg.npn_h2} h2c={neg.h2c_upgrade} "
        f"server={neg.server_header!r}"
    )
    if report.settings.settings_frame_received:
        pairs = ", ".join(
            f"{k}={v}" for k, v in sorted(report.settings.announced.items())
        )
        lines.append(f"  settings: {pairs or '(empty frame)'}")
    fc = report.flow_control
    if fc.tiny_window is not None:
        lines.append(
            f"  flow control: tiny_window={fc.tiny_window.name} "
            f"first_data={fc.first_data_size} "
            f"headers_with_zero_window={fc.headers_with_zero_window}"
        )
        def _name(reaction):
            return reaction.name if reaction is not None else "no-response"
        lines.append(
            f"    zero update: stream={_name(fc.zero_update_stream)} "
            f"connection={_name(fc.zero_update_connection)}; "
            f"large update: stream={_name(fc.large_update_stream)} "
            f"connection={_name(fc.large_update_connection)}"
        )
    if report.push.push_received or report.push.promised_paths:
        lines.append(f"  push: promised={report.push.promised_paths}")
    if report.hpack.ratio is not None:
        lines.append(
            f"  hpack: ratio={report.hpack.ratio:.3f} "
            f"over {report.hpack.requests} requests"
        )
    ping = report.ping
    if ping.ping_supported or ping.h2_ping_rtt is not None:
        lines.append(
            f"  ping: supported={ping.ping_supported} "
            f"h2_rtt={ping.h2_ping_rtt} tcp_rtt={ping.tcp_rtt}"
        )
    for error in report.errors:
        lines.append(f"  error: {error.probe}: {error.message}")
    return "\n".join(lines)


def _open_store(path: str):
    """Open the report database at ``path``, or say why not and return
    None (the caller exits 2): a corrupt or newer-schema file is a usage
    error, never a traceback."""
    import sqlite3

    from repro.scope.storage import ReportStore, SchemaVersionError

    try:
        return ReportStore(path)
    except (SchemaVersionError, sqlite3.DatabaseError) as exc:
        print(f"cannot open {path}: {exc}", file=sys.stderr)
        return None


#: Probes `h2scope probe` runs by default: everything except priority,
#: whose Algorithm-1 objects (/prio/*.bin) only exist on generated
#: population sites.
DEFAULT_PROBE_INCLUDE = "negotiation,settings,flow_control,push,hpack,ping"


def _cmd_probe(args: argparse.Namespace) -> int:
    """Probe one target over a chosen transport backend.

    ``--backend sim`` deploys a vendor engine in a fresh simulation;
    ``--backend socket`` opens real TCP connections — to ``--target``
    (and ``--clear-target`` for the h2c path), or straight to the
    domain's real address when no target mapping is given.
    """
    from repro.scope.scanner import ALL_PROBES, probe_target
    from repro.scope.session import ProbeSession
    from repro.scope.trace import TraceRecorder

    include = {p.strip() for p in args.include.split(",") if p.strip()}
    unknown = include - ALL_PROBES
    if unknown:
        print(
            f"unknown probes: {', '.join(sorted(unknown))} "
            f"(choose from {', '.join(sorted(ALL_PROBES))})",
            file=sys.stderr,
        )
        return 2

    trace = TraceRecorder()
    with ExitStack() as stack:
        if args.backend == "sim":
            from repro.servers.site import deploy_testbed
            from repro.servers.vendors import VENDOR_FACTORIES

            if args.vendor is None:
                print("--backend sim requires --vendor", file=sys.stderr)
                return 2
            if args.vendor not in VENDOR_FACTORIES:
                print(f"unknown vendor {args.vendor!r}", file=sys.stderr)
                return 2
            backend, _ = stack.enter_context(
                deploy_testbed(args.vendor, args.seed, args.domain)
            )
        else:
            from repro.net.socket_backend import SocketBackend

            resolver = None
            if args.target is not None:
                try:
                    mapping = {(args.domain, 443): _parse_host_port(args.target)}
                    if args.clear_target is not None:
                        mapping[(args.domain, 80)] = _parse_host_port(
                            args.clear_target
                        )
                except ValueError as exc:
                    print(str(exc), file=sys.stderr)
                    return 2
                resolver = mapping
            backend = stack.enter_context(
                SocketBackend(resolver=resolver, timeout_scale=args.timeout_scale)
            )
        report = probe_target(
            ProbeSession(backend, trace=trace), args.domain, include=include
        )

    print(_render_probe_report(report))
    if args.db is not None:
        from repro.scope.storage import ReportStore

        with ReportStore(args.db) as store:
            store.save(args.campaign, report)
            store.save_traces(args.campaign, args.domain, trace.traces)
        frames = sum(len(t) for t in trace.traces.values())
        print(
            f"stored report + {len(trace.traces)} probe traces "
            f"({frames} frames) under campaign {args.campaign!r} in {args.db}"
        )
    return 0 if not report.failed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render stored per-frame timelines for one scanned site."""
    from repro.scope.trace import render_trace

    store = _open_store(args.db)
    if store is None:
        return 2
    with store:
        campaign = args.campaign
        if campaign is None:
            campaigns = store.campaigns()
            if len(campaigns) == 1:
                campaign = campaigns[0]
            else:
                print(
                    f"--campaign required ({args.db} holds "
                    f"{', '.join(campaigns) or 'no campaigns'})",
                    file=sys.stderr,
                )
                return 2
        probes = store.trace_probes(campaign, args.domain)
        if not probes:
            print(
                f"no traces stored for {args.domain!r} in campaign "
                f"{campaign!r}",
                file=sys.stderr,
            )
            return 1
        if args.probe is not None:
            if args.probe not in probes:
                print(
                    f"no {args.probe!r} trace for {args.domain!r} "
                    f"(stored: {', '.join(probes)})",
                    file=sys.stderr,
                )
                return 1
            probes = [args.probe]
        for probe in probes:
            timeline = store.load_trace(campaign, args.domain, probe)
            print(f"== {args.domain} :: {probe} ({len(timeline)} frames)")
            output = render_trace(timeline)
            if output:
                print(output, end="")
            else:
                print("(no frames received)")
    return 0


def _resume_command(args: argparse.Namespace) -> str:
    """The exact command line that resumes this campaign."""
    live = args.backend == "socket"
    parts = ["h2scope", "--seed", args.seed, "scan"]

    def option(flag: str, value, default=None) -> None:
        if value != default:
            parts.extend([flag, value])

    # Workers, in-flight sessions and the politeness knobs are not part
    # of the manifest: a campaign may be resumed with different values
    # (simulated bytes stay identical; a live scan gets gentler or more
    # aggressive than it started).
    if live:
        parts += ["--backend", "socket", "--targets", args.targets]
        parts += ["--db", args.db, "--campaign", args.campaign]
        option("--per-host-gap", args.per_host_gap, 0.0)
        option("--rate", args.rate)
        option("--burst", args.burst)
        option("--timeout-scale", args.timeout_scale, 1.0)
    else:
        parts += ["--experiment", args.experiment, "-n", args.n_sites]
        parts += ["--db", args.db]
        option("--fault-plan", args.fault_plan)
        option("--workers", args.workers, 1)
    option("--timeout", args.timeout)
    option("--retries", args.retries)
    option("--checkpoint-every", args.checkpoint_every, 25)
    option("--concurrency", args.concurrency)  # socket only; None on sim
    parts.append("--resume")
    return shlex.join(str(part) for part in parts)


def _run_stored_campaign(
    args: argparse.Namespace, campaign: str, run, seconds: str
) -> int:
    """Run a journaled, checkpointed campaign into ``args.db``.

    ``run(store)`` is the campaign entry point with everything but the
    store bound; ``seconds`` names what the backend's scan time is
    measured in.  SIGINT (Ctrl-C) flushes the journal and prints the
    exact resume command; resuming against a mismatched configuration
    or a corrupt database is a usage error, never a traceback.
    """
    import signal

    from repro.scope.campaign import (
        CampaignError,
        CampaignInterrupted,
        CampaignJournal,
        ManifestMismatch,
    )

    store = _open_store(args.db)
    if store is None:
        return 2
    try:  # make sure Ctrl-C raises KeyboardInterrupt even if inherited odd
        previous_handler = signal.signal(
            signal.SIGINT, signal.default_int_handler
        )
    except ValueError:  # not the main thread (tests, embedding)
        previous_handler = None
    try:
        with store:
            try:
                result = run(store)
            except CampaignInterrupted as interrupt:
                print(
                    f"\ninterrupted: journal flushed "
                    f"({interrupt.flushed} sites scanned this run, "
                    f"{interrupt.remaining} remaining)"
                )
                print(f"resume with: {_resume_command(args)}")
                return 130
            except ManifestMismatch as exc:
                print(f"cannot resume {campaign!r}: {exc}", file=sys.stderr)
                return 2
            except CampaignError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            counts = result.counts
            dns_failures = CampaignJournal(store).dns_failures(campaign)
            print(
                f"stored {store.count(campaign)} reports for {campaign} "
                f"in {args.db}"
            )
            print(
                f"campaign {campaign}: {counts['done']} done, "
                f"{counts['failed']} failed, "
                f"{counts['quarantined']} quarantined"
                + (f" ({dns_failures} dns)" if dns_failures else "")
                + f", {counts['pending']} pending "
                f"({result.scanned} scanned this run, "
                f"{result.skipped} already journaled; "
                f"{result.virtual_seconds:.1f} {seconds})"
            )
            if counts["failed"] or counts["pending"]:
                print(f"finish with: {_resume_command(args)}")
        return 0
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)


def _cmd_scan_live(args: argparse.Namespace) -> int:
    """Live-mode scan: real TCP to the domains in ``--targets``.

    Runs the hardened pipeline from :mod:`repro.scope.live`: DNS
    pre-stage (unresolvable sites quarantined without a connect), a
    bounded pool of ``--concurrency`` socket probe sessions, per-host
    politeness (``--per-host-gap``) and a global contact-rate budget
    (``--rate``/``--burst``) — journaled and resumable exactly like a
    simulated campaign.
    """
    from repro.scope.live import LiveConfig, run_live_campaign
    from repro.scope.resilience import ResilienceConfig

    if not args.db:
        print("--backend socket requires --db (the journal)", file=sys.stderr)
        return 2
    if args.targets is None:
        print(
            "--backend socket requires --targets FILE (one domain per line)",
            file=sys.stderr,
        )
        return 2
    try:
        with open(args.targets) as handle:
            domains = [
                line.strip()
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            ]
    except OSError as exc:
        print(f"cannot read --targets: {exc}", file=sys.stderr)
        return 2
    if not domains:
        print(f"{args.targets}: no domains", file=sys.stderr)
        return 2

    resilience = ResilienceConfig(
        timeout=20.0 if args.timeout is None else args.timeout,
        retries=2 if args.retries is None else args.retries,
    )
    config = LiveConfig(
        concurrency=(
            LiveConfig.concurrency if args.concurrency is None else args.concurrency
        ),
        per_host_gap=args.per_host_gap,
        rate=args.rate,
        burst=args.burst,
        timeout_scale=args.timeout_scale,
    )
    return _run_stored_campaign(
        args,
        args.campaign,
        lambda store: run_live_campaign(
            domains,
            store,
            args.campaign,
            seed=args.seed,
            resilience=resilience,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            config=config,
        ),
        "wall seconds of scan time",
    )


def _cmd_scan(args: argparse.Namespace) -> int:
    """Scan the generated population once, then print its summaries.

    Any of ``--fault-plan`` / ``--timeout`` / ``--retries`` selects
    chaos mode: fault injection plus deadline/retry execution, with the
    fault study as the summary; without ``--fault-plan`` that is the
    control condition (clean network, resilient execution).  With
    ``--db`` the scan is a journaled campaign and the summaries are
    computed from the database it leaves, so ``--resume`` prints the
    tables of the finished campaign and an interrupted or refused one
    prints none.
    """
    if args.resume and not args.db:
        print("--resume requires --db (the journaled database)", file=sys.stderr)
        return 2
    if args.backend == "socket":
        return _cmd_scan_live(args)
    for flag in ("targets", "concurrency"):
        if getattr(args, flag) is not None:
            print(f"--{flag} requires --backend socket", file=sys.stderr)
            return 2

    from repro.experiments import SCAN_SUMMARIES, fault_study, load
    from repro.population import PopulationConfig, make_population
    from repro.scope.scanner import ALL_PROBES, run_campaign, scan_population

    plan = resilience = None
    chaos = not (
        args.fault_plan is None and args.timeout is None and args.retries is None
    )
    if chaos:
        from repro.net.faults import FaultPlan
        from repro.scope.resilience import ResilienceConfig

        if args.fault_plan is not None:
            try:  # surface spec/JSON mistakes as a usage error, not a traceback
                plan = FaultPlan.load(args.fault_plan, seed=args.seed)
            except ValueError as exc:
                print(f"bad --fault-plan: {exc}", file=sys.stderr)
                return 2
        resilience = ResilienceConfig(
            timeout=12.0 if args.timeout is None else args.timeout,
            retries=2 if args.retries is None else args.retries,
        )
        campaign = f"experiment-{args.experiment}-faults"
        include = fault_study.PROBES
    else:
        summaries = [load(name) for name in SCAN_SUMMARIES]
        campaign = f"experiment-{args.experiment}"
        # The stored campaign keeps every probe "for further study"
        # (§IV-B); a print-only scan runs just what the tables read.
        include = (
            ALL_PROBES
            if args.db
            else frozenset().union(*(module.PROBES for module in summaries))
        )

    config = PopulationConfig(
        experiment=args.experiment, n_sites=args.n_sites, seed=args.seed
    )
    sites = make_population(config)

    def print_summaries(reports) -> None:
        if chaos:
            result = fault_study.summarize(
                reports, len(sites), args.experiment, args.seed, plan, resilience
            )
            print(result.text)
            return
        for module in summaries:
            print(module.summarize(reports, args.experiment, config.scale).text)
            print("=" * 72)

    scan = dict(
        include=include,
        seed=args.seed,
        fault_plan=plan,
        resilience=resilience,
        workers=args.workers,
    )
    if not args.db:
        print_summaries(scan_population(sites, **scan))
        return 0

    def run(store):
        result = run_campaign(
            sites,
            store,
            campaign,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            **scan,
        )
        print_summaries(store.load_campaign(campaign))
        return result

    return _run_stored_campaign(args, campaign, run, "virtual seconds")


def _cmd_report(args: argparse.Namespace) -> int:
    """Summarize a stored scan database (the paper's 'further study')."""
    from repro.analysis.tables import format_table
    from repro.scope.storage import ReportStore

    with ReportStore(args.db) as store:
        campaigns = store.campaigns()
        if not campaigns:
            print(f"{args.db}: no campaigns stored")
            return 1
        for campaign in campaigns:
            total = store.count(campaign)
            responsive = store.count(campaign, headers_only=True)
            print(
                f"campaign {campaign}: {total} sites scanned, "
                f"{responsive} returned HEADERS"
            )
            counts = store.server_header_counts(campaign)
            rows = [[header, n] for header, n in list(counts.items())[:10]]
            print(format_table(["server", "sites"], rows))
            ratios = store.hpack_ratios(campaign)
            if ratios:
                below = sum(1 for r in ratios if r <= 0.3) / len(ratios)
                print(
                    f"HPACK ratios: {len(ratios)} measured, "
                    f"{below:.0%} at or below 0.3\n"
                )
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    """Summarize a journaled campaign database: manifest + status counts."""
    from repro.scope.campaign import CampaignJournal

    store = _open_store(args.db)
    if store is None:
        return 2
    with store:
        if args.verify:
            problems = store.verify()
            if problems:
                for problem in problems:
                    print(f"INTEGRITY: {problem}", file=sys.stderr)
                return 1
            print(f"{args.db}: integrity ok")
        journal = CampaignJournal(store)
        names = journal.campaigns()
        if args.campaign is not None:
            if args.campaign not in names:
                print(
                    f"no journaled campaign {args.campaign!r} in {args.db}",
                    file=sys.stderr,
                )
                return 2
            names = [args.campaign]
        if not names:
            print(f"{args.db}: no journaled campaigns")
            return 1
        for name in names:
            manifest = journal.manifest(name)
            counts = journal.counts(name)
            total = sum(counts.values())
            virtual = journal.virtual_seconds(name)
            dns_failures = journal.dns_failures(name)
            print(f"campaign {name}: {total} sites")
            print(
                f"  done {counts['done']}  failed {counts['failed']}  "
                f"quarantined {counts['quarantined']}  "
                f"pending {counts['pending']}"
            )
            if dns_failures:
                print(
                    f"  dns failures: {dns_failures} "
                    f"(unresolvable, quarantined without retries)"
                )
            print(
                f"  manifest: seed {manifest.seed}, "
                f"probes {','.join(manifest.probes)}, "
                f"population {manifest.population_size} sites "
                f"(hash {manifest.population_hash})"
            )
            if manifest.fault_spec is not None:
                print(f"  fault plan: {manifest.fault_spec}")
            if manifest.timeout is not None or manifest.retries is not None:
                print(
                    f"  resilience: timeout={manifest.timeout} "
                    f"retries={manifest.retries}"
                )
            print(f"  virtual time spent: {virtual:.1f}s")
            if counts["pending"] or counts["failed"]:
                print(
                    "  incomplete: rerun the original scan command with "
                    "--resume to finish"
                )
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.scope.conformance import run_conformance
    from repro.scope.session import ProbeSession
    from repro.servers.site import deploy_testbed
    from repro.servers.vendors import VENDOR_FACTORIES

    names = list(VENDOR_FACTORIES) if args.vendor == "all" else [args.vendor]
    unknown = [n for n in names if n not in VENDOR_FACTORIES]
    if unknown:
        print(f"unknown vendor(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        with deploy_testbed(name, args.seed) as (backend, site):
            report = run_conformance(
                ProbeSession(backend),
                site.domain,
                large_path="/large/0.bin",
                multiplex_paths=[f"/large/{i}.bin" for i in range(3)],
            )
        print(report.summary())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment

    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        if name not in EXPERIMENTS:
            print(
                f"unknown experiment {name!r}; choose from "
                f"{', '.join(EXPERIMENTS)} or 'all'",
                file=sys.stderr,
            )
            return 2
        result = run_experiment(
            name,
            experiment=args.experiment,
            n_sites=args.n_sites,
            seed=args.seed,
            visits=args.visits,
        )
        print(result.text)
        print("=" * 72)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    """Run the attack battery and print the survival matrix."""
    import json as _json

    from repro.attacks import BATTERY_PROFILES, run_battery
    from repro.servers.vendors import VENDOR_FACTORIES

    if args.profile != "all" and args.profile not in BATTERY_PROFILES:
        print(
            f"unknown attack profile {args.profile!r}; choose from "
            f"{', '.join(sorted(BATTERY_PROFILES))} or 'all'",
            file=sys.stderr,
        )
        return 2
    if args.vendor != "all" and args.vendor not in VENDOR_FACTORIES:
        print(
            f"unknown vendor {args.vendor!r}; choose from "
            f"{', '.join(VENDOR_FACTORIES)} or 'all'",
            file=sys.stderr,
        )
        return 2

    profiles = list(BATTERY_PROFILES) if args.profile == "all" else [args.profile]
    vendors = list(VENDOR_FACTORIES) if args.vendor == "all" else [args.vendor]
    matrix = run_battery(
        vendors=vendors,
        profiles=profiles,
        backend=args.backend,
        guards=args.guards,
        seed=args.seed,
        duration=args.duration,
        guard_scale=args.guard_scale,
        record_frames=args.db is not None,
    )
    if args.json:
        print(_json.dumps(matrix.to_json(), indent=2))
    else:
        print(matrix.render())
    if args.db is not None:
        from repro.scope.storage import ReportStore

        with ReportStore(args.db) as store:
            for result in matrix.results:
                store.save_timelines(
                    args.campaign,
                    f"{result.vendor}.{result.profile}",
                    result.timelines,
                )
        print(f"stored labelled timelines in {args.db} ({args.campaign})")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    """Score the real-time detector, or sweep stored timelines."""
    import json as _json

    from repro.analysis.detection import DetectorConfig, score_corpus

    config = DetectorConfig(stall_window=args.stall_window)
    if args.db is not None:
        from repro.scope.storage import ReportStore

        with ReportStore(args.db) as store:
            timelines = store.load_timelines(args.campaign)
        if not timelines:
            print(
                f"no stored connection timelines for campaign "
                f"{args.campaign!r} in {args.db}",
                file=sys.stderr,
            )
            return 2
    else:
        from repro.attacks.corpus import build_corpus

        vendors = None if args.vendor == "all" else [args.vendor]
        timelines = build_corpus(
            vendors=vendors, seed=args.seed, duration=args.duration
        )
    score = score_corpus(timelines, config)
    document = {"timelines": len(timelines), **score.to_json()}
    print(_json.dumps(document, indent=2))
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(_json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if score.precision < args.min_precision or score.recall < args.min_recall:
        print(
            f"detector below floor: precision {score.precision:.3f} "
            f"(floor {args.min_precision}) recall {score.recall:.3f} "
            f"(floor {args.min_recall})",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="h2scope",
        description="H2Scope reproduction: probe simulated HTTP/2 servers "
        "and regenerate the paper's tables and figures.",
    )
    parser.add_argument("--seed", type=int, default=7, help="deterministic seed")
    sub = parser.add_subparsers(dest="command", required=True)

    testbed = sub.add_parser("testbed", help="Table III: six-vendor feature matrix")
    testbed.add_argument(
        "--backend",
        choices=("sim", "socket"),
        default="sim",
        help="probe inside the simulator (default) or over real loopback "
        "TCP sockets served by the bridge; cells must match either way",
    )
    testbed.set_defaults(func=_cmd_testbed)

    probe = sub.add_parser(
        "probe",
        help="probe one target over a chosen transport backend",
    )
    probe.add_argument("domain", help="domain to probe (SNI / Host header)")
    probe.add_argument(
        "--backend",
        choices=("sim", "socket"),
        default="sim",
        help="sim: deploy --vendor in a fresh simulation; socket: real "
        "TCP to --target (or the domain's real address)",
    )
    probe.add_argument(
        "--vendor",
        default=None,
        help="vendor profile for --backend sim "
        "(nginx, litespeed, h2o, nghttpd, tengine, apache)",
    )
    probe.add_argument(
        "--target",
        default=None,
        metavar="HOST:PORT",
        help="socket backend: address serving the TLS-side listener "
        "(defaults to the domain itself on port 443)",
    )
    probe.add_argument(
        "--clear-target",
        default=None,
        metavar="HOST:PORT",
        help="socket backend: cleartext listener for the h2c upgrade path",
    )
    probe.add_argument(
        "--include",
        default=DEFAULT_PROBE_INCLUDE,
        help=f"comma-separated probe list (default {DEFAULT_PROBE_INCLUDE})",
    )
    probe.add_argument(
        "--timeout-scale",
        type=float,
        default=0.15,
        help="socket backend: multiplier shrinking the simulation-tuned "
        "probe timeouts to wall-clock waits (default 0.15)",
    )
    probe.add_argument(
        "--db",
        default=None,
        help="store the report plus per-probe frame traces here "
        "(render them later with 'h2scope trace')",
    )
    probe.add_argument(
        "--campaign",
        default="probe",
        help="campaign name for --db rows (default 'probe')",
    )
    probe.set_defaults(func=_cmd_probe)

    trace = sub.add_parser(
        "trace",
        help="render stored per-frame timelines for one scanned site",
    )
    trace.add_argument("db", help="SQLite database written with traces")
    trace.add_argument("domain", help="site whose traces to render")
    trace.add_argument(
        "--campaign",
        default=None,
        help="campaign name (optional when the database holds exactly one)",
    )
    trace.add_argument(
        "--probe", default=None, help="render only this probe's timeline"
    )
    trace.set_defaults(func=_cmd_trace)

    scan = sub.add_parser("scan", help="population scan summaries (§V-B..F)")
    scan.add_argument("--experiment", type=int, choices=(1, 2), default=1)
    scan.add_argument("-n", "--n-sites", type=int, default=300)
    scan.add_argument(
        "--backend",
        choices=("sim", "socket"),
        default="sim",
        help="sim: generated population in per-site simulations "
        "(default); socket: live scan of --targets over real TCP with "
        "the bounded pool + politeness + DNS pipeline",
    )
    scan.add_argument(
        "--targets",
        default=None,
        metavar="FILE",
        help="socket backend: file of target domains, one per line "
        "('#' comments allowed)",
    )
    scan.add_argument(
        "--campaign",
        default="live",
        help="socket backend: campaign name for the journal "
        "(default 'live')",
    )
    scan.add_argument(
        "--concurrency",
        type=int,
        default=None,
        metavar="N",
        help="socket backend: max in-flight probe sessions, the live pool "
        "size (default 8, floor 1); simulated scans use --workers",
    )
    scan.add_argument(
        "--per-host-gap",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="socket backend: minimum gap between TCP connects to the "
        "same host (contacts to one host never overlap either)",
    )
    scan.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="PER_SECOND",
        help="socket backend: global contact-rate budget (token bucket)",
    )
    scan.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="N",
        help="socket backend: token-bucket burst (default max(1, rate))",
    )
    scan.add_argument(
        "--timeout-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="socket backend: multiplier shrinking simulation-tuned "
        "probe timeouts to wall-clock waits (default 1.0)",
    )
    scan.add_argument(
        "--db",
        default=None,
        help="also store full per-site reports into this SQLite database",
    )
    scan.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC|FILE",
        help="chaos mode: inject faults from a spec string "
        "(e.g. 'refuse:0.1x2,stall(30):0.05,truncate(400)') or a JSON "
        "file; probes then run with deadlines + retry/backoff",
    )
    scan.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-probe virtual-time budget (implies resilient mode)",
    )
    scan.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry budget for transient failures (implies resilient mode)",
    )
    scan.add_argument(
        "--resume",
        action="store_true",
        help="resume the journaled campaign in --db: skip completed sites, "
        "retry failed ones (refused if the configuration mismatches)",
    )
    scan.add_argument(
        "--checkpoint-every",
        type=int,
        default=25,
        metavar="N",
        help="flush reports + journal to --db every N sites (default 25)",
    )
    scan.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard the scan across N worker processes (results are "
        "byte-identical for any N; a campaign may be resumed with a "
        "different N)",
    )
    scan.set_defaults(func=_cmd_scan)

    report = sub.add_parser("report", help="summarize a stored scan database")
    report.add_argument("db", help="SQLite database written by 'scan --db'")
    report.set_defaults(func=_cmd_report)

    status = sub.add_parser(
        "campaign-status",
        aliases=["campaign_status"],
        help="journal summary for a campaign database: done/failed/"
        "quarantined/pending counts plus the recorded manifest",
    )
    status.add_argument("db", help="SQLite database written by 'scan --db'")
    status.add_argument(
        "--campaign", default=None, help="limit to one campaign by name"
    )
    status.add_argument(
        "--verify",
        action="store_true",
        help="also run the storage integrity check before summarizing",
    )
    status.set_defaults(func=_cmd_campaign_status)

    conformance = sub.add_parser(
        "conformance",
        help="h2spec-style RFC 7540 conformance report for one testbed vendor",
    )
    conformance.add_argument(
        "vendor",
        help="nginx, litespeed, h2o, nghttpd, tengine, apache, or 'all'",
    )
    conformance.set_defaults(func=_cmd_conformance)

    attack = sub.add_parser(
        "attack",
        help="run the DoS attack battery against the vendor engines",
    )
    attack.add_argument(
        "--profile",
        default="all",
        help="battery profile (slow_preface, slow_headers, zero_window_stall, "
        "ping_flood, settings_flood, rst_churn, slow_read, table_flood, "
        "priority_churn) or 'all'",
    )
    attack.add_argument(
        "--vendor",
        default="all",
        help="victim engine (nginx, litespeed, h2o, nghttpd, tengine, "
        "apache) or 'all'",
    )
    attack.add_argument(
        "--backend",
        choices=("sim", "loopback"),
        default="sim",
        help="sim: discrete-event engines, deterministic in --seed "
        "(default); loopback: the same engines behind real TCP sockets",
    )
    attack.add_argument(
        "--guards",
        choices=("off", "vendor"),
        default="off",
        help="abuse guards: off reproduces the exposed 2016 behaviour; "
        "vendor enables each engine's hardened defaults",
    )
    attack.add_argument(
        "--duration",
        type=float,
        default=16.0,
        help="attack window in backend seconds (default 16)",
    )
    attack.add_argument(
        "--guard-scale",
        type=float,
        default=1.0,
        help="scale factor on the vendor guard deadlines (loopback runs "
        "pay wall-clock seconds; 0.5 halves every deadline)",
    )
    attack.add_argument(
        "--json", action="store_true", help="emit the matrix as JSON"
    )
    attack.add_argument(
        "--db",
        default=None,
        help="record server-side frame timelines (labelled with the "
        "attack profile) into this database",
    )
    attack.add_argument(
        "--campaign",
        default="attack",
        help="campaign name for --db rows (default 'attack')",
    )
    attack.set_defaults(func=_cmd_attack)

    detect = sub.add_parser(
        "detect",
        help="score the real-time slow-rate detector on labelled traffic",
    )
    detect.add_argument(
        "--db",
        default=None,
        help="score stored labelled timelines from this database instead "
        "of generating a fresh corpus",
    )
    detect.add_argument(
        "--campaign",
        default="attack",
        help="campaign holding the stored timelines (default 'attack')",
    )
    detect.add_argument(
        "--vendor",
        default="all",
        help="corpus mode: limit to one vendor (default all six)",
    )
    detect.add_argument(
        "--duration",
        type=float,
        default=16.0,
        help="corpus mode: attack window per battery run (default 16)",
    )
    detect.add_argument(
        "--stall-window",
        type=float,
        default=10.0,
        help="detector rule: seconds a tiny-window connection may idle "
        "(must exceed the benign probe budget; default 10)",
    )
    detect.add_argument(
        "--out", default=None, help="also write the score document here"
    )
    detect.add_argument(
        "--min-precision",
        type=float,
        default=0.0,
        help="exit 1 if precision falls below this floor",
    )
    detect.add_argument(
        "--min-recall",
        type=float,
        default=0.0,
        help="exit 1 if recall falls below this floor",
    )
    detect.set_defaults(func=_cmd_detect)

    experiment = sub.add_parser("experiment", help="run one table/figure by name")
    experiment.add_argument("name", help=f"{', '.join(EXPERIMENTS)}, or 'all'")
    experiment.add_argument("--experiment", type=int, choices=(1, 2), default=1)
    experiment.add_argument("-n", "--n-sites", type=int, default=300)
    experiment.add_argument("--visits", type=int, default=10)
    experiment.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "workers", None) is not None:
        from repro.scope.parallel import effective_workers

        capped = effective_workers(args.workers)
        if capped < args.workers:
            print(
                f"warning: --workers {args.workers} exceeds the available "
                f"CPU count; using {capped} (oversubscribing a CPU-bound "
                f"scan only slows it down)",
                file=sys.stderr,
            )
        args.workers = capped
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
