"""Self-check of the benchmark itself: ``pytest benchmarks/e2e -q``.

Not part of tier-1 (``testpaths`` stays ``tests``).  Runs every workload
once, untraced and traced, at 3 % of its size, and checks that what the
runner prints agrees with BENCHMARK.json and that tracing leaves nothing
patched behind.
"""

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e.run import END_TO_END, HERE, REPO, load_spec
from benchmarks.e2e.spans import Tracer, leftover_patches
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--seed", "11", "--scale", "0.03",
            "--passes", "1", "--seconds", "1", "--trace", "--out", str(out),
        ],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_spec_meets_the_contract(spec):
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    # ISSUE 12's bounds, which run.py and compare.py judge by: a pair that
    # does not repeat within them is reported unresolved, never given a
    # wider bound.
    issue = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in END_TO_END}
    assert issue == {
        "sites_per_s": ("1/s", "higher", 0.10),
        "cpu_s_per_site": ("s", "lower", 0.10),
        "peak_rss_mb": ("MB", "lower", 0.10),
        "db_bytes_per_site": ("B", "lower", 0.05),
        "setup_s": ("s", "lower", 0.15),
    }
    # What the driver gates on is a subset, at bounds no tighter than those
    # and no wider than its contract allows.
    for metric in spec["end_to_end"]:
        unit, better, bound = issue[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert bound <= metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_reports_every_metric(document, spec):
    assert list(document["workloads"]) == list(WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        for metric in END_TO_END:
            row = entry["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"] and row["bound"] <= metric["bound"]
            assert len(row["values"]) == 1 and row["median"] > 0, (name, metric)
        traced = entry["traced"]
        assert traced["correct"] and traced["failed"] == 0, name
        assert set(traced["values"]) == {m["name"] for m in spec["per_layer"]}
        assert traced["info"]["missing_boundaries"] == [], name
        assert 0.5 < traced["values"]["layers.covered_share"] <= 1.05, name
        assert traced["values"]["trace.overhead_ratio"] > 0.5, name


def test_result_file_records_the_environment(document):
    environment = document["environment"]
    for key in ("nproc", "cpu_count", "python", "git_commit", "network"):
        assert key in environment
    assert "loopback" in environment["network"]
    for entry in document["workloads"].values():
        assert all("loadavg_1m_before" in one for one in entry["passes"])


def test_tracing_is_fully_undone():
    assert leftover_patches() == []
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert "repro.scope.scanner.scan_site" in leftover_patches()
        assert "repro.net.clock.Simulation.run_until" in leftover_patches()
    finally:
        tracer.uninstall()
    assert leftover_patches() == []
