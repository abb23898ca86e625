"""``h2scope`` command-line interface.

Mirrors how the paper's tool was used: characterize the testbed
servers, scan a (synthetic) population, or reproduce a specific
table/figure.  Each command is one declaration beside its handler
(:func:`command`); :func:`build_parser` reads them all, :func:`main`
refuses a flag of the other backend on any command, and ``scan``'s
resume command reads its flags.

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

from repro.experiments import EXPERIMENTS


class Flag:
    """One flag of a command: argparse's ``add_argument`` names and
    keywords, and for a flag that one backend reads that backend (None:
    both or neither), which prefixes its help.  Setting a tagged flag
    away from its default on the other ``--backend`` is refused."""

    def __init__(self, *names: str, backend: str | None = None, **spec):
        self.names, self.backend, self.spec = names, backend, spec
        self.dest = names[-1].lstrip("-").replace("-", "_")
        self.default = spec.get("default")


#: Every command in ``h2scope --help`` order: (name, help, aliases,
#: flags, handler), one :func:`command` declaration each.
COMMANDS: list[tuple] = []


def command(name: str, help: str, *flags: Flag, aliases: tuple[str, ...] = ()):
    """Declare the command ``name``, its help, flags and aliases; the
    decorated function handles it."""

    def declare(handler):
        COMMANDS.append((name, help, aliases, flags, handler))
        return handler

    return declare


@command(
    "testbed", "Table III: six-vendor feature matrix",
    Flag("--backend", choices=("sim", "socket"), default="sim",
         help="probe inside the simulator (default) or over real loopback "
         "TCP sockets served by the bridge; cells must match either way"),
)
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
        f"npn_h2={neg.npn_h2} server={neg.server_header!r}"
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
            f"over {len(report.hpack.header_sizes)} requests"
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
    None (the caller exits 2): a corrupt file, or one of another schema
    version, is a usage error, never a traceback."""
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


def _pick(what: str, name: str, known, *, allow_all: bool = True) -> list[str] | None:
    """``[name]``, or every known name for ``'all'``; None after printing
    the refusal, for the caller to exit 2 on."""
    known = list(known)
    if allow_all and name == "all":
        return known
    if name in known:
        return [name]
    also = " or 'all'" if allow_all else ""
    print(
        f"unknown {what} {name!r}; choose from {', '.join(known)}{also}",
        file=sys.stderr,
    )
    return None


@command(
    "probe", "probe one target over a chosen transport backend",
    Flag("domain", help="domain to probe (SNI / Host header)"),
    Flag("--backend", choices=("sim", "socket"), default="sim",
         help="sim: deploy --vendor in a fresh simulation; socket: real "
         "TCP to --target (or the domain's real address)"),
    Flag("--vendor", backend="sim", help="vendor profile "
         "(nginx, litespeed, h2o, nghttpd, tengine, apache)"),
    Flag("--target", metavar="HOST:PORT", backend="socket",
         help="address serving the TLS-side listener "
         "(defaults to the domain itself on port 443)"),
    Flag("--include", default=DEFAULT_PROBE_INCLUDE,
         help=f"comma-separated probe list (default {DEFAULT_PROBE_INCLUDE})"),
    Flag("--timeout-scale", type=float, default=0.15, backend="socket",
         help="multiplier shrinking the simulation-tuned "
         "probe timeouts to wall-clock waits (default 0.15)"),
    Flag("--db", help="store the report plus per-probe frame traces here "
         "(render them later with 'h2scope trace')"),
    Flag("--campaign", default="probe",
         help="campaign name for --db rows (default 'probe')"),
)
def _cmd_probe(args: argparse.Namespace) -> int:
    """Probe one target over a chosen transport backend.

    ``--backend sim`` deploys a vendor engine in a fresh simulation;
    ``--backend socket`` opens real TCP connections — to ``--target``,
    or straight to the domain's real address when none is given.
    """
    from repro.scope.scanner import _validate_include, probe_target
    from repro.scope.session import ProbeSession
    from repro.scope.trace import TraceRecorder

    include = {p.strip() for p in args.include.split(",") if p.strip()}
    try:  # an unknown name or a missing dependency is a usage error
        _validate_include(include)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    trace = TraceRecorder()
    with ExitStack() as stack:
        store = None
        if args.db is not None:  # a bad file fails before any probe
            store = _open_store(args.db)
            if store is None:
                return 2
            stack.enter_context(store)
        if args.backend == "sim":
            from repro.servers.site import deploy_testbed
            from repro.servers.vendors import VENDOR_FACTORIES

            if args.vendor is None:
                print("--backend sim requires --vendor", file=sys.stderr)
                return 2
            if _pick("vendor", args.vendor, VENDOR_FACTORIES, allow_all=False) is None:
                return 2
            backend, _ = stack.enter_context(
                deploy_testbed(args.vendor, args.seed, args.domain)
            )
        else:
            from repro.net.socket_backend import SocketBackend

            resolver = None
            if args.target is not None:
                try:
                    resolver = {(args.domain, 443): _parse_host_port(args.target)}
                except ValueError as exc:
                    print(str(exc), file=sys.stderr)
                    return 2
            backend = stack.enter_context(
                SocketBackend(resolver=resolver, timeout_scale=args.timeout_scale)
            )
        report = probe_target(
            ProbeSession(backend, trace=trace), args.domain, include=include
        )
        print(_render_probe_report(report))
        if store is not None:
            store.save(args.campaign, report)
            store.save_traces(args.campaign, args.domain, trace.traces)
            frames = sum(len(t) for t in trace.traces.values())
            print(
                f"stored report + {len(trace.traces)} probe traces "
                f"({frames} frames) under campaign {args.campaign!r} in {args.db}"
            )
    return 0 if not report.failed else 1


@command(
    "trace", "render stored per-frame timelines for one scanned site",
    Flag("db", help="SQLite database written with traces"),
    Flag("domain", help="site whose traces to render"),
    Flag("--campaign",
         help="campaign name (optional when the database holds exactly one)"),
    Flag("--probe", help="render only this probe's timeline"),
)
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


#: ``scan``'s flags, tagged as :class:`Flag` says.
SCAN_FLAGS = (
    Flag("--experiment", type=int, choices=(1, 2), default=1, backend="sim"),
    Flag("-n", "--n-sites", type=int, default=300, backend="sim"),
    Flag("--backend", choices=("sim", "socket"), default="sim",
         help="sim: generated population in per-site simulations "
         "(default); socket: live scan of --targets over real TCP with "
         "the bounded pool + politeness + DNS pipeline"),
    Flag("--targets", metavar="FILE", backend="socket",
         help="file of target domains, one per line ('#' comments allowed)"),
    Flag("--campaign", default="live", backend="socket",
         help="campaign name for the journal (default 'live')"),
    Flag("--concurrency", type=int, metavar="N", backend="socket",
         help="max in-flight probe sessions, the live pool size (default 8, "
         "floor 1); simulated scans use --workers"),
    Flag("--per-host-gap", type=float, default=0.0, metavar="SECONDS",
         backend="socket", help="minimum gap between TCP connects to the "
         "same host (contacts to one host never overlap either)"),
    Flag("--rate", type=float, metavar="PER_SECOND", backend="socket",
         help="global contact-rate budget (token bucket)"),
    Flag("--burst", type=float, metavar="N", backend="socket",
         help="token-bucket burst (default max(1, rate))"),
    Flag("--timeout-scale", type=float, default=1.0, metavar="X",
         backend="socket", help="multiplier shrinking simulation-tuned "
         "probe timeouts to wall-clock waits (default 1.0)"),
    Flag("--db",
         help="also store full per-site reports into this SQLite database"),
    Flag("--fault-plan", metavar="SPEC|FILE", backend="sim",
         help="chaos mode: inject faults from a spec string "
         "(e.g. 'refuse:0.1x2,stall(30):0.05,truncate(400)') or a JSON "
         "file; probes then run with deadlines + retry/backoff"),
    Flag("--timeout", type=float, metavar="SECONDS",
         help="per-probe virtual-time budget (implies resilient mode)"),
    Flag("--retries", type=int, metavar="N",
         help="retry budget for transient failures (implies resilient mode)"),
    Flag("--resume", action="store_true",
         help="resume the journaled campaign in --db: skip completed sites, "
         "retry failed ones (refused if the configuration mismatches)"),
    Flag("--checkpoint-every", type=int, default=25, metavar="N",
         help="flush reports + journal to --db every N sites (default 25)"),
    Flag("--workers", type=int, default=1, metavar="N", backend="sim",
         help="shard the scan across N worker processes (results are "
         "byte-identical for any N; a campaign may be resumed with a "
         "different N)"),
)


def _resume_command(args: argparse.Namespace) -> str:
    """The exact command line that resumes this campaign: the seed, every
    scan flag set away from its default, and ``--resume``.  Workers,
    in-flight sessions and the politeness knobs are not part of the
    manifest, so a campaign may be resumed with other values of them."""
    parts = ["h2scope", "--seed", args.seed, "scan"]
    for flag in SCAN_FLAGS:
        value = getattr(args, flag.dest)
        if flag.dest != "resume" and value != flag.default:
            parts += [flag.names[0], value]
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


@command("scan", "population scan summaries (§V-B..F)", *SCAN_FLAGS)
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

    from repro.experiments import SCAN_SUMMARIES, fault_study, load
    from repro.population import PopulationConfig, make_population
    from repro.scope.parallel import effective_workers
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
        default = fault_study.RESILIENCE
        resilience = ResilienceConfig(
            timeout=default.timeout if args.timeout is None else args.timeout,
            retries=default.retries if args.retries is None else args.retries,
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

    workers = effective_workers(args.workers)
    if workers < args.workers:
        print(
            f"warning: --workers {args.workers} exceeds the available "
            f"CPU count; using {workers} (oversubscribing a CPU-bound "
            f"scan only slows it down)",
            file=sys.stderr,
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
        workers=workers,
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


@command(
    "report", "summarize a stored scan database",
    Flag("db", help="SQLite database written by 'scan --db'"),
)
def _cmd_report(args: argparse.Namespace) -> int:
    """Summarize a stored scan database (the paper's 'further study')."""
    from repro.analysis.tables import format_table

    store = _open_store(args.db)
    if store is None:
        return 2
    with store:
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


@command(
    "campaign-status",
    "journal summary for a campaign database: done/failed/"
    "quarantined/pending counts plus the recorded manifest",
    Flag("db", help="SQLite database written by 'scan --db'"),
    Flag("--campaign", help="limit to one campaign by name"),
    Flag("--verify", action="store_true",
         help="also run the storage integrity check before summarizing"),
    aliases=("campaign_status",),
)
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


@command(
    "conformance",
    "h2spec-style RFC 7540 conformance report for one testbed vendor",
    Flag("vendor", help="nginx, litespeed, h2o, nghttpd, tengine, apache, or 'all'"),
)
def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.scope.conformance import run_conformance
    from repro.scope.session import ProbeSession
    from repro.servers.site import deploy_testbed
    from repro.servers.vendors import VENDOR_FACTORIES

    names = _pick("vendor", args.vendor, VENDOR_FACTORIES)
    if names is None:
        return 2
    for name in names:
        with deploy_testbed(name, args.seed) as (backend, site):
            report = run_conformance(ProbeSession(backend), site.domain)
        print(report.summary())
    return 0


@command(
    "attack", "run the DoS attack battery against the vendor engines",
    Flag("--profile", default="all",
         help="battery profile (slow_preface, slow_headers, zero_window_stall, "
         "ping_flood, settings_flood, rst_churn, slow_read, table_flood, "
         "priority_churn) or 'all'"),
    Flag("--vendor", default="all", help="victim engine (nginx, litespeed, "
         "h2o, nghttpd, tengine, apache) or 'all'"),
    Flag("--backend", choices=("sim", "loopback"), default="sim",
         help="sim: discrete-event engines, deterministic in --seed "
         "(default); loopback: the same engines behind real TCP sockets"),
    Flag("--guards", choices=("off", "vendor"), default="off",
         help="abuse guards: off reproduces the exposed 2016 behaviour; "
         "vendor enables each engine's hardened defaults"),
    Flag("--duration", type=float, default=16.0,
         help="attack window in backend seconds (default 16)"),
    Flag("--guard-scale", type=float, default=1.0,
         help="scale factor on the vendor guard deadlines (loopback runs "
         "pay wall-clock seconds; 0.5 halves every deadline)"),
    Flag("--json", action="store_true", help="emit the matrix as JSON"),
    Flag("--db", help="record server-side frame timelines (labelled with "
         "the attack profile) into this database"),
    Flag("--campaign", default="attack",
         help="campaign name for --db rows (default 'attack')"),
)
def _cmd_attack(args: argparse.Namespace) -> int:
    """Run the attack battery and print the survival matrix."""
    import json as _json

    from repro.attacks import BATTERY_PROFILES, run_battery
    from repro.servers.vendors import VENDOR_FACTORIES

    profiles = _pick("attack profile", args.profile, BATTERY_PROFILES)
    vendors = _pick("vendor", args.vendor, VENDOR_FACTORIES)
    if profiles is None or vendors is None:
        return 2
    with ExitStack() as stack:
        store = None
        if args.db is not None:  # a bad file fails before any attack
            store = _open_store(args.db)
            if store is None:
                return 2
            stack.enter_context(store)
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
        if store is not None:
            for result in matrix.results:
                store.save_timelines(
                    args.campaign,
                    f"{result.vendor}.{result.profile}",
                    result.timelines,
                )
            print(f"stored labelled timelines in {args.db} ({args.campaign})")
    return 0


@command(
    "detect", "score the real-time slow-rate detector on labelled traffic",
    Flag("--db", help="score stored labelled timelines from this database "
         "instead of generating a fresh corpus"),
    Flag("--campaign", default="attack",
         help="campaign holding the stored timelines (default 'attack')"),
    Flag("--vendor", default="all",
         help="corpus mode: limit to one vendor (default all six)"),
    Flag("--duration", type=float, default=16.0,
         help="corpus mode: attack window per battery run (default 16)"),
    Flag("--stall-window", type=float, default=10.0,
         help="detector rule: seconds a tiny-window connection may idle "
         "(must exceed the benign probe budget; default 10)"),
    Flag("--out", help="also write the score document here"),
    Flag("--min-precision", type=float, default=0.0,
         help="exit 1 if precision falls below this floor"),
    Flag("--min-recall", type=float, default=0.0,
         help="exit 1 if recall falls below this floor"),
)
def _cmd_detect(args: argparse.Namespace) -> int:
    """Score the real-time detector, or sweep stored timelines."""
    import json as _json

    from repro.analysis.detection import score_corpus

    if args.db is not None:
        store = _open_store(args.db)
        if store is None:
            return 2
        with store:
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
        from repro.servers.vendors import VENDOR_FACTORIES

        vendors = _pick("vendor", args.vendor, VENDOR_FACTORIES)
        if vendors is None:
            return 2
        timelines = build_corpus(
            vendors=vendors, seed=args.seed, duration=args.duration
        )
    score = score_corpus(timelines, args.stall_window)
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


@command(
    "experiment", "run one table/figure by name",
    Flag("name", help=f"{', '.join(EXPERIMENTS)}, or 'all'"),
    Flag("--experiment", type=int, choices=(1, 2), default=1),
    Flag("-n", "--n-sites", type=int, default=300),
    Flag("--visits", type=int, default=10),
)
def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment

    names = _pick("experiment", args.name, EXPERIMENTS)
    if names is None:
        return 2
    for name in names:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2scope",
        description="H2Scope reproduction: probe simulated HTTP/2 servers "
        "and regenerate the paper's tables and figures.",
    )
    parser.add_argument("--seed", type=int, default=7, help="deterministic seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, aliases, flags, handler in COMMANDS:
        command_parser = sub.add_parser(name, help=help, aliases=aliases)
        for flag in flags:
            spec = flag.spec
            if flag.backend is not None:
                tagged = [f"{flag.backend} backend", spec.get("help")]
                spec = {**spec, "help": ": ".join(filter(None, tagged))}
            command_parser.add_argument(*flag.names, **spec)
        command_parser.set_defaults(func=handler, flags=flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The one backend check, before any handler reads a flag.
    for flag in args.flags:
        if flag.backend is not None and flag.backend != args.backend and (
            getattr(args, flag.dest) != flag.default
        ):
            print(
                f"{'/'.join(flag.names)} requires --backend {flag.backend}",
                file=sys.stderr,
            )
            return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
