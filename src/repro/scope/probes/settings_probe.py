"""SETTINGS probe (§III-A2, results in §V-C / Tables V-VII / Fig. 2).

Records exactly which parameters the server's SETTINGS frame announced.
Sites that never send SETTINGS populate the paper's NULL rows; defined
parameters left unannounced fall into the "default"/"unlimited" rows.
"""

from __future__ import annotations

from repro.h2 import events as ev
from repro.scope.report import SettingsResult
from repro.scope.session import ProbeSession


def probe_settings(session: ProbeSession, domain: str) -> SettingsResult:
    result = SettingsResult()
    client = session.client(domain)
    if not client.establish_h2():
        client.close()
        return result

    frames = client.events_of(ev.SettingsReceived)
    if frames:
        result.settings_frame_received = True
        # Later frames may refine earlier announcements; last writer wins.
        for timed in frames:
            for identifier, value in timed.event.settings:
                result.announced[identifier] = value
    client.close()
    return result
