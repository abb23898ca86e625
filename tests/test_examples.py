"""The fast examples run to completion against the current API.

``push_pageload``, ``probe_real_server`` and ``alexa_scan`` take several
seconds each; CI's full-matrix job runs all eight.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
EXAMPLES = SRC.parent / "examples"


@pytest.mark.parametrize(
    "name",
    ["quickstart", "rfc_conformance", "conformance_testbed", "rtt_comparison",
     "dos_defences"],
)
def test_example_exits_zero(name):
    proc = run_example(name)
    assert proc.returncode == 0, proc.stderr


def test_rfc_conformance_rejects_an_unknown_vendor():
    # Like `h2scope conformance nope`: a message and exit 2, no traceback.
    proc = run_example("rfc_conformance", "nope")
    assert proc.returncode == 2
    assert proc.stderr == "unknown vendor(s): nope\n"
    assert proc.stdout == ""


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py"), *args],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
