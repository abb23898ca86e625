"""Static guard: no accidental ``bytes(...)`` copies on the hot path.

The zero-copy contract of the framing/HPACK/transport hot path is easy to
break silently — one innocent ``bytes(view)`` reintroduces a per-frame
allocation and no functional test notices.  This test parses the hot
modules and fails if a ``bytes(...)`` call (or a ``memoryview`` →
``bytes`` round-trip via slicing helpers) appears inside the functions
on the per-frame path.  A deliberate copy (e.g. materializing a frame
*field*, which is the one copy a frame is allowed to cost) must carry a
``# copy ok`` comment on its line.

The CI workflow runs a grep twin of this check so the contract is
enforced even for changes that skip the test suite.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (module path, qualified function names on the per-frame hot path)
HOT_FUNCTIONS = {
    SRC / "h2" / "frames.py": {
        "serialize_frame_into",
        "parse_frames_view",
        "_strip_padding",
        "Frame.write_payload",
        "DataFrame.write_payload",
        "HeadersFrame.write_payload",
        "PriorityFrame.write_payload",
        "RstStreamFrame.write_payload",
        "SettingsFrame.write_payload",
        "PushPromiseFrame.write_payload",
        "PingFrame.write_payload",
        "GoAwayFrame.write_payload",
        "WindowUpdateFrame.write_payload",
        "ContinuationFrame.write_payload",
        "UnknownFrame.write_payload",
    },
    SRC / "h2" / "connection.py": {
        "H2Connection.receive_bytes",
        "H2Connection._send_frame",
    },
    SRC / "h2" / "hpack" / "decoder.py": {"Decoder.decode"},
    SRC / "h2" / "hpack" / "encoder.py": {"Encoder.encode"},
    SRC / "net" / "transport.py": {
        "Endpoint.send",
        "Endpoint._deliver_to_peer",
    },
}


def iter_functions(tree):
    """Yield (qualified_name, node) for all functions, class-aware."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def bytes_calls(func_node):
    for node in ast.walk(func_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "bytes"
        ):
            yield node


def test_hot_functions_do_not_copy_bytes():
    offences = []
    seen = {path: set() for path in HOT_FUNCTIONS}
    for path, wanted in HOT_FUNCTIONS.items():
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        for name, node in iter_functions(tree):
            if name not in wanted:
                continue
            seen[path].add(name)
            for call in bytes_calls(node):
                line = lines[call.lineno - 1]
                if "# copy ok" in line:
                    continue
                offences.append(
                    f"{path.name}:{call.lineno} in {name}: "
                    f"bytes(...) on the hot path — {line.strip()}"
                )
    assert not offences, "\n".join(offences)
    # The guard must not rot: every listed function must still exist
    # (a rename would otherwise silently stop guarding it).
    for path, wanted in HOT_FUNCTIONS.items():
        missing = wanted - seen[path]
        assert not missing, f"{path.name}: hot functions not found: {missing}"


def test_annotated_copies_are_rare():
    """`# copy ok` is an escape hatch, not a lifestyle."""
    total = sum(
        path.read_text().count("# copy ok") for path in HOT_FUNCTIONS
    )
    assert total <= 3, "too many annotated copies on the hot path"
