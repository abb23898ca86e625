"""A scan's Python calls, counted by layer and probe group (ROADMAP 29).

:class:`CallCounter` installs a ``sys.setprofile`` hook while it is
entered and removes it on exit.  It counts every Python ``call`` event
(a function starting or a generator resuming) by the layer of the code
that runs, and every ``c_call`` event (a builtin or C method) apart, as
``C``.  The layers are the program's packages:

* ``h2.hpack`` and the rest of ``h2``; ``net``; ``servers``;
* ``scope.client`` (``scope/client.py``), ``scope.probes``,
  ``storage`` (``scope/storage.py``) and the rest of ``scope``;
* any other ``repro`` package by its name (``population``, ...);
* ``stdlib``: code outside ``repro``, generated dataclass methods
  included.

Each call is also charged to the probe group whose entry function is
running, as ``tests/support/work.py`` charges its work (``-`` outside
every group).  Python 3.12 inlines list, dict and set comprehensions
(PEP 709), so their frames are left out on every version: a
comprehension's calls count for its caller's layer and group.

Calls into ``repro`` are exact and the same on every host and hash
seed; ``stdlib`` and ``C`` move with the interpreter, so they are
printed but not pinned.  A count reads the program's module-level
memos (HPACK strings, TLS hellos) in whatever state earlier work left
them, so a pinned count is taken in a fresh interpreter
(:func:`fresh_count`).  ``python -m tests.support.calls`` prints the
tables ``tests/test_work_budget.py`` pins, and the unpinned rows.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from collections import Counter

import repro
from tests.support.work import OUTSIDE, PROBES, scan_chaos, scan_clean_full

#: Frames left out, so that 3.10-3.11 and 3.12+ count alike.
FOLDED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
#: Layers whose counts move with the interpreter.
UNPINNED = ("stdlib", "C")

_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SCOPE_FILES = {"client.py": "scope.client", "storage.py": "storage"}


def layer_of(filename: str) -> str:
    """The layer a code object's file belongs to."""
    if not filename.startswith(_REPRO):
        return "stdlib"
    parts = filename[len(_REPRO):].split(os.sep)
    package = parts[0].removesuffix(".py")
    if package == "h2" and parts[1] == "hpack":
        return "h2.hpack"
    if package == "scope":
        if parts[1] == "probes":
            return "scope.probes"
        return _SCOPE_FILES.get(parts[1], "scope")
    return package


class CallCounter:
    """Counts calls by (group, layer) while entered; :attr:`calls` is
    the Counter."""

    def __init__(self):
        self.calls: Counter = Counter()
        #: Layer by code object; "" for a frame left out, the counter's
        #: own exit among them.
        self._layers: dict = {CallCounter.__exit__.__code__: ""}
        self._entries: dict = {}
        #: ``(frame, group)`` of the running group entries, innermost last.
        self._stack: list = [(None, OUTSIDE)]

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            layer = self._layers.get(code)
            if layer is None:
                layer = self._layers[code] = (
                    "" if code.co_name in FOLDED else layer_of(code.co_filename)
                )
            if not layer:
                return
            group = self._entries.get(code)
            if group is not None:
                self._stack.append((frame, group))
            self.calls[self._stack[-1][1], layer] += 1
        elif event == "return":
            if frame is self._stack[-1][0]:
                self._stack.pop()
        elif event == "c_call":
            self.calls[self._stack[-1][1], "C"] += 1

    def __enter__(self) -> CallCounter:
        for module_name, attr, group in PROBES:
            function = getattr(importlib.import_module(module_name), attr)
            self._entries[function.__code__] = group
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)

    # -- reading ----------------------------------------------------------

    def layers(self) -> dict[str, int]:
        """Calls by layer, ``repro`` layers first, then :data:`UNPINNED`."""
        totals = Counter()
        for (_, layer), count in self.calls.items():
            totals[layer] += count
        return _ordered(totals)

    def groups(self) -> dict[str, int]:
        """Calls into ``repro`` by probe group."""
        totals = Counter()
        for (group, layer), count in self.calls.items():
            if layer not in UNPINNED:
                totals[group] += count
        return dict(sorted(totals.items()))

    def group_layers(self) -> dict[str, dict[str, int]]:
        """Per probe group, its calls by layer."""
        rows: dict[str, Counter] = {}
        for (group, layer), count in self.calls.items():
            rows.setdefault(group, Counter())[layer] += count
        return {group: _ordered(rows[group]) for group in sorted(rows)}

    def table(self) -> dict:
        """What a fresh count reports: layers, groups and both together."""
        return {
            "layers": self.layers(),
            "groups": self.groups(),
            "group_layers": self.group_layers(),
        }


def _ordered(counts: Counter) -> dict[str, int]:
    pinned = sorted(key for key in counts if key not in UNPINNED)
    return {key: counts[key] for key in [*pinned, *UNPINNED] if counts[key]}


def pinned(table: dict) -> dict:
    """The part of a count that is pinned: ``repro`` layers and groups."""
    return {
        "layers": {
            layer: count
            for layer, count in table["layers"].items()
            if layer not in UNPINNED
        },
        "groups": table["groups"],
    }


#: The scans a fresh count can run, by the name the budget pins them as:
#: ``tests/support/work.py``'s.
SCANS = {"CLEAN_FULL": scan_clean_full, "CHAOS": scan_chaos}


def fresh_count(name: str) -> dict:
    """:data:`SCANS`'s ``name`` counted in a fresh interpreter: the
    :meth:`CallCounter.table`."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    done = subprocess.run(
        [sys.executable, "-m", "tests.support.calls", "--json", name],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def main(argv: list[str]) -> None:
    if argv[:1] == ["--json"]:
        counter = CallCounter()
        SCANS[argv[1]](counter)
        print(json.dumps(counter.table()))
        return
    for name in SCANS:
        table = fresh_count(name)
        print(f"CALLS_{name} = {json.dumps(pinned(table), indent=4)}")
        unpinned = {layer: table["layers"].get(layer, 0) for layer in UNPINNED}
        print(f"# {name} unpinned: {unpinned}")
        for group, row in table["group_layers"].items():
            print(f"#   {group}: {row}")


if __name__ == "__main__":
    main(sys.argv[1:])
