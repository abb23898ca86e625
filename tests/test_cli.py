"""h2scope CLI."""

import pytest

from repro.scope.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_experiment_fig6(capsys):
    rc = main(["experiment", "fig6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fig. 6" in out


def test_experiment_unknown_name(capsys):
    rc = main(["experiment", "nonsense"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_index_is_what_help_lists_and_run_accepts(capsys):
    """One table: every name is in `experiment --help`, names a module
    that imports and whose run() takes the listed parameters (nothing
    is run), and that module has its row in DESIGN §3."""
    import inspect
    from pathlib import Path

    from repro.experiments import EXPERIMENTS, SCAN_SUMMARIES, load

    with pytest.raises(SystemExit):
        main(["experiment", "--help"])
    # argparse wraps the help at commas and hyphens; undo that.
    listed = "".join(capsys.readouterr().out.split())
    assert ",".join(EXPERIMENTS) + ",or'all'" in listed

    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    index = design.split("## 3. Per-experiment index")[1].split("\n## ")[0]
    for name, (module, parameters, _) in EXPERIMENTS.items():
        accepted = inspect.signature(load(name).run).parameters
        assert set(parameters) <= set(accepted), name
        assert f"`experiments.{module}`" in index, name
    for name in (*SCAN_SUMMARIES, "faults"):
        assert callable(load(name).summarize), name


def test_testbed_matches_paper(capsys):
    rc = main(["testbed"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "All cells match" in out


def test_experiment_adoption_small(capsys):
    rc = main(["experiment", "adoption", "-n", "60"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Adoption" in out


def test_scan_with_db_then_report(tmp_path, capsys):
    db = tmp_path / "scan.sqlite"
    rc = main(["scan", "-n", "25", "--db", str(db)])
    assert rc == 0
    assert db.exists()
    capsys.readouterr()
    rc = main(["report", str(db)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "campaign experiment-1" in out
    assert "HPACK ratios" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "-n", "25"],
        ["scan", "-n", "25", "--db", "{db}"],
        ["scan", "-n", "30", "--fault-plan", "refuse:0.3x6", "--db", "{db}"],
    ],
    ids=["plain", "db", "chaos-db"],
)
def test_scan_scans_each_site_exactly_once(argv, tmp_path, capsys, monkeypatch):
    from repro.experiments.common import clear_scan_cache
    from repro.population import PopulationConfig, make_population
    from repro.scope import scanner

    clear_scan_cache()  # a warm summary cache must not hide a second scan
    scanned = []
    scan_site = scanner.scan_site

    def counting(site, *args, **kwargs):
        scanned.append(site.domain)
        return scan_site(site, *args, **kwargs)

    monkeypatch.setattr(scanner, "scan_site", counting)
    assert main([arg.format(db=tmp_path / "scan.db") for arg in argv]) == 0
    sites = make_population(
        PopulationConfig(experiment=1, n_sites=int(argv[2]), seed=7)
    )
    assert sorted(scanned) == sorted(site.domain for site in sites)


def test_scan_prints_what_each_summary_module_computes_alone(capsys):
    """The six tables come from one scan over the union of their probe
    sets; each module's own run() scans just its own.  Equal text pins
    that a report section does not depend on which other probes ran."""
    from repro.experiments import SCAN_SUMMARIES, load

    assert main(["scan", "-n", "25"]) == 0
    out = capsys.readouterr().out
    assert out == "".join(
        load(name).run(experiment=1, n_sites=25, seed=7).text
        + "\n" + "=" * 72 + "\n"
        for name in SCAN_SUMMARIES
    )


def test_report_on_empty_db(tmp_path, capsys):
    db = tmp_path / "empty.sqlite"
    from repro.scope.storage import ReportStore

    ReportStore(db).close()
    rc = main(["report", str(db)])
    assert rc == 1


def test_scan_with_fault_plan(capsys):
    rc = main(
        ["scan", "-n", "40", "--fault-plan", "refuse:0.2x4,stall(30):0.1",
         "--timeout", "8", "--retries", "2"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fault study" in out
    assert "Scan resilience summary" in out
    assert "refuse:0.2x4" in out


def test_scan_resilient_control_condition(capsys):
    # --retries alone triggers resilient mode with a clean network.
    rc = main(["scan", "-n", "25", "--retries", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault plan: (none)" in out


def test_scan_fault_plan_with_db(tmp_path, capsys):
    db = tmp_path / "chaos.sqlite"
    rc = main(["scan", "-n", "30", "--fault-plan", "refuse:0.3x6", "--db", str(db)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "experiment-1-faults" in out

    from repro.scope.storage import ReportStore

    with ReportStore(db) as store:
        assert store.campaigns() == ["experiment-1-faults"]
        assert store.count("experiment-1-faults") > 0


def test_scan_fault_plan_from_json_file(tmp_path, capsys):
    import json

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(
        json.dumps({"rules": [{"kind": "refuse", "probability": 0.2}]})
    )
    rc = main(["scan", "-n", "25", "--fault-plan", str(plan_file)])
    assert rc == 0
    assert "Fault study" in capsys.readouterr().out


def test_experiment_faults(capsys):
    rc = main(["experiment", "faults", "-n", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fault study" in out
    assert "reports produced" in out


def test_scan_bad_fault_plan_is_usage_error(capsys):
    rc = main(["scan", "-n", "10", "--fault-plan", "explode"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad --fault-plan" in err
    assert "explode" in err


@pytest.mark.parametrize(
    "flag, value", [("--targets", "targets.txt"), ("--concurrency", "4")]
)
def test_socket_only_flags_are_refused_on_sim(flag, value, capsys):
    """Simulated scans widen with --workers; the live pool's width and
    its target list are usage errors there, refused before any scan."""
    rc = main(["scan", "-n", "20", flag, value])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"{flag} requires --backend socket" in captured.err
    assert captured.out == ""


def half_finished_journal(db):
    """A campaign interrupted mid-flight: done + failed + pending rows."""
    import pytest

    from repro.net.faults import FaultPlan
    from repro.population import PopulationConfig, make_population
    from repro.scope.campaign import CampaignInterrupted
    from repro.scope.resilience import ResilienceConfig
    from repro.scope.scanner import run_campaign
    from repro.scope.storage import ReportStore

    def kill_at_12(progress):
        if progress.done >= 12:
            raise KeyboardInterrupt

    # Exactly the configuration `h2scope --seed 7 scan -n 30
    # --fault-plan refuse:0.2x4 --timeout 8 --retries 0 --db ...` builds,
    # so the CLI can resume this journal.
    from repro.experiments import fault_study

    sites = make_population(PopulationConfig(experiment=1, n_sites=30, seed=7))
    with ReportStore(db) as store:
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                sites,
                store,
                "experiment-1-faults",
                include=fault_study.PROBES,
                seed=7,
                fault_plan=FaultPlan.parse("refuse:0.2x4", seed=7),
                resilience=ResilienceConfig(timeout=8.0, retries=0),
                checkpoint_every=5,
                progress=kill_at_12,
            )
    return sites


def test_campaign_status_on_half_finished_journal(tmp_path, capsys):
    db = tmp_path / "half.sqlite"
    half_finished_journal(db)
    rc = main(["campaign-status", str(db)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "campaign experiment-1-faults" in out
    for label in ("done", "failed", "quarantined", "pending"):
        assert label in out
    assert "manifest: seed 7" in out
    assert "probes negotiation,ping,settings" in out
    assert "fault plan: refuse:0.2x4" in out
    assert "incomplete" in out  # pending sites remain → resume hint


def test_campaign_status_verify_ok(tmp_path, capsys):
    db = tmp_path / "half.sqlite"
    half_finished_journal(db)
    rc = main(["campaign-status", "--verify", str(db)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "integrity ok" in out


def test_campaign_status_unknown_campaign(tmp_path, capsys):
    db = tmp_path / "half.sqlite"
    half_finished_journal(db)
    rc = main(["campaign-status", "--campaign", "nope", str(db)])
    assert rc == 2
    assert "no journaled campaign" in capsys.readouterr().err


def test_campaign_status_empty_db(tmp_path, capsys):
    from repro.scope.storage import ReportStore

    db = tmp_path / "empty.sqlite"
    ReportStore(db).close()
    rc = main(["campaign-status", str(db)])
    assert rc == 1
    assert "no journaled campaigns" in capsys.readouterr().out


def test_resume_requires_db(capsys):
    rc = main(["scan", "-n", "10", "--resume"])
    assert rc == 2
    assert "--resume requires --db" in capsys.readouterr().err


def test_resume_mismatched_seed_is_usage_error_not_traceback(tmp_path, capsys):
    db = tmp_path / "half.sqlite"
    half_finished_journal(db)
    rc = main(
        ["--seed", "8", "scan", "-n", "30", "--db", str(db), "--resume",
         "--fault-plan", "refuse:0.2x4", "--timeout", "8", "--retries", "0"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "cannot resume" in captured.err
    assert "seed" in captured.err
    assert "Fault study" not in captured.out  # no tables of a refused run


def test_resume_completes_interrupted_campaign(tmp_path, capsys):
    db = tmp_path / "half.sqlite"
    half_finished_journal(db)
    rc = main(
        ["scan", "-n", "30", "--db", str(db), "--resume",
         "--fault-plan", "refuse:0.2x4", "--timeout", "8", "--retries", "0"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fault study" in out  # the tables of the finished database
    assert "0 pending" in out

    from repro.scope.campaign import CampaignJournal
    from repro.scope.storage import ReportStore

    with ReportStore(db) as store:
        counts = CampaignJournal(store).counts("experiment-1-faults")
        assert counts["pending"] == 0
        assert store.count("experiment-1-faults") == sum(counts.values())


@pytest.mark.parametrize(
    "entry_point, argv",
    [
        (
            "repro.scope.scanner.run_campaign",
            ["--seed", "7", "scan", "-n", "12", "--db", "{dir}/sim scan.db",
             "--fault-plan", "stall(30):0.05,refuse:0.1x2", "--timeout", "8",
             "--retries", "0", "--checkpoint-every", "5", "--workers", "2",
             "--resume"],
        ),
        (
            "repro.scope.live.run_live_campaign",
            ["--seed", "9", "scan", "--backend", "socket",
             "--targets", "{dir}/targets.txt", "--db", "{dir}/live scan.db",
             "--campaign", "top sites", "--timeout", "3", "--retries", "1",
             "--checkpoint-every", "10", "--concurrency", "4",
             "--per-host-gap", "0.5", "--rate", "5", "--burst", "1",
             "--timeout-scale", "0.5", "--resume"],
        ),
    ],
    ids=["sim", "socket"],
)
def test_printed_resume_command_round_trips(
    entry_point, argv, tmp_path, capsys, monkeypatch
):
    """The "resume with:" line must parse back to the very arguments the
    interrupted campaign ran with — quoting and every knob included."""
    import shlex

    from repro.scope.campaign import CampaignInterrupted

    directory = tmp_path / "with space"
    directory.mkdir()
    (directory / "targets.txt").write_text("example.com\n")
    argv = [arg.format(dir=directory) for arg in argv]

    def interrupted(*args, **kwargs):
        raise CampaignInterrupted("any", flushed=1, remaining=2)

    monkeypatch.setattr(entry_point, interrupted)
    assert main(argv) == 130
    out = capsys.readouterr().out
    printed = out.split("resume with: ", 1)[1].splitlines()[0]
    program, *resume_argv = shlex.split(printed)
    assert program == "h2scope"
    parser = build_parser()
    assert vars(parser.parse_args(resume_argv)) == vars(parser.parse_args(argv))


def test_attack_battery_matrix(capsys):
    rc = main(
        ["attack", "--profile", "ping_flood", "--vendor", "nginx",
         "--guards", "vendor", "--duration", "4"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "ping_flood" in out and "nginx" in out
    assert "evict@" in out and "ping-flood" in out


def test_attack_unknown_profile(capsys):
    rc = main(["attack", "--profile", "nonsense"])
    assert rc == 2
    assert "unknown attack profile" in capsys.readouterr().err


def test_attack_table_flood_renders_an_apache_cell(capsys):
    rc = main(
        ["attack", "--profile", "table_flood", "--vendor", "apache",
         "--duration", "4"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    header, row = [line.split() for line in out.splitlines()[3:5]]
    assert header == ["attack", "apache"]
    assert row == ["table_flood", "held", "4.0s"]


def test_attack_over_loopback_stores_its_timelines(tmp_path, capsys):
    """``--db`` records on either backend: the loopback run is the sim
    run's body behind another way of serving the victim."""
    from repro.scope.storage import ReportStore

    db = tmp_path / "loopback.sqlite"
    rc = main(
        ["attack", "--profile", "ping_flood", "--vendor", "nginx",
         "--backend", "loopback", "--duration", "1", "--db", str(db)]
    )
    assert rc == 0
    assert "stored labelled timelines" in capsys.readouterr().out
    with ReportStore(db) as store:
        timelines = store.load_timelines("attack")
    assert len(timelines) >= 1
    assert {timeline.label for timeline in timelines} == {"ping_flood"}


def test_attack_db_then_detect(tmp_path, capsys):
    db = tmp_path / "attack.sqlite"
    rc = main(
        ["attack", "--profile", "slow_headers", "--vendor", "nginx",
         "--guards", "vendor", "--duration", "6", "--db", str(db)]
    )
    assert rc == 0
    assert "stored labelled timelines" in capsys.readouterr().out
    rc = main(["detect", "--db", str(db), "--min-recall", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert '"precision"' in out and '"slow_headers"' in out
    # An unreachable precision floor must fail the gate.
    rc = main(["detect", "--db", str(db), "--min-precision", "1.1"])
    capsys.readouterr()
    assert rc == 1


def test_detect_empty_db(tmp_path, capsys):
    from repro.scope.storage import ReportStore

    db = tmp_path / "empty.sqlite"
    ReportStore(db).close()
    rc = main(["detect", "--db", str(db)])
    assert rc == 2
    assert "no stored connection timelines" in capsys.readouterr().err
