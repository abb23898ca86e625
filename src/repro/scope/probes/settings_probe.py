"""SETTINGS probe (§III-A2, results in §V-C / Tables V-VII / Fig. 2).

Records exactly which parameters the server's SETTINGS frame announced.
Sites that never send SETTINGS populate the paper's NULL rows; defined
parameters left unannounced fall into the "default"/"unlimited" rows.

The probe opens no connection of its own.  It reads the SETTINGS a
client has received, and the negotiation fetch calls it right after
``speak_h2`` has waited for them, on the connection the combined-hello
rule picks (DESIGN §8).
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.scope.client import ScopeClient
from repro.scope.report import SettingsResult


def probe_settings(client: ScopeClient, result: SettingsResult) -> None:
    """Fill ``result`` with the SETTINGS ``client`` has received."""
    frames = client.events_of(ev.SettingsReceived)
    if frames:
        result.settings_frame_received = True
        # Later frames may refine earlier announcements; last writer wins.
        for timed in frames:
            for identifier, value in timed.event.settings:
                result.announced[identifier] = value
