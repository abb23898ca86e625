"""Layering rules: probes never touch the transport layer directly, and
no probe runs outside the sequence.

Probe modules take a :class:`~repro.scope.session.ProbeSession` and go
through its backend for every transport interaction — that is what
makes the same probe code run against the simulator and against real
sockets.  A probe importing :mod:`repro.net.transport` (or reaching
into a simulated ``Network``/``Simulation``) would silently re-couple
the suite to one backend; this test (and the matching CI grep) turns
that into a loud failure.
"""

import ast
from pathlib import Path

import repro
import repro.scope.probes as probes_package

PROBES_DIR = Path(probes_package.__file__).parent
SRC = Path(repro.__file__).parent
#: The probe sequence (DESIGN §8): the one module outside the probes
#: that may call them.
SEQUENCE = SRC / "scope" / "scanner.py"

#: Modules the probe layer must not import: concrete transports and
#: the simulator's clock.  ``repro.net.backend`` is *allowed* — that is
#: the abstraction — as are pure-data modules (frames, reports).  The
#: ALPN protocol-name constants ``H2``/``HTTP11`` are re-exported by
#: :mod:`repro.scope.client` so probes never import ``repro.net.tls``.
FORBIDDEN_PREFIXES = (
    "repro.net.transport",
    "repro.net.clock",
    "repro.net.tls",
    "repro.net.icmp",
)


def probe_modules():
    return sorted(PROBES_DIR.glob("*.py"))


def imported_names(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_probe_modules_exist():
    assert len(probe_modules()) >= 8  # the suite plus __init__


def test_no_probe_imports_transport_layer():
    violations = []
    for path in probe_modules():
        for name in imported_names(path):
            if name.startswith(FORBIDDEN_PREFIXES):
                violations.append(f"{path.name}: imports {name}")
    assert not violations, (
        "probe modules must go through ProbeSession, not the transport "
        "layer:\n" + "\n".join(violations)
    )


def test_no_probe_touches_simulation_attributes():
    # Attribute-level leaks: `client.sim` / `client.network` reach the
    # simulator even without an import.
    violations = []
    for path in probe_modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("sim", "network"):
                violations.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not violations, (
        "probe modules must not reach into the simulation:\n"
        + "\n".join(violations)
    )


def test_no_probe_runs_outside_the_sequence():
    """The scan, Table III and Fig. 6 read one probe sequence
    (``probe_target``): outside ``scope/probes/`` only ``scanner.py``
    calls a probe entry or ``probe_settings``."""
    entries = {name for name in probes_package.__all__ if name.startswith("probe_")}
    entries.add("probe_settings")
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SEQUENCE or PROBES_DIR in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in entries:
                    violations.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    assert violations == [], "a probe called outside the sequence"
