"""The fast examples run to completion against the current API.

``push_pageload``, ``probe_real_server`` and ``alexa_scan`` take several
seconds each; CI's full-matrix job runs all eight.
"""

import socket
import subprocess
import sys
import threading
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


def test_probe_real_server_reports_a_reset_hello_and_exits_1():
    # A server that accepts and closes is reachable but never answers a
    # hello: the example says so instead of printing a defaulted column.
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.settimeout(0.1)
        done = threading.Event()

        def accept_and_close():
            while not done.is_set():
                try:
                    connection, _ = listener.accept()
                except TimeoutError:
                    continue
                connection.close()

        thread = threading.Thread(target=accept_and_close)
        thread.start()
        host, port = listener.getsockname()
        try:
            proc = run_example(
                "probe_real_server", f"{host}:{port}", "--domain", "reset.test"
            )
        finally:
            done.set()
            thread.join()
    assert proc.returncode == 1, proc.stderr
    assert "error: negotiation: " in proc.stdout
    assert "Table III" not in proc.stdout


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py"), *args],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
