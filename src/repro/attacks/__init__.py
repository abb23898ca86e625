"""DoS attacks on HTTP/2's new features, as one battery.

The paper's Discussion flags flow control, priority and header
compression as exploitable (§V-D1, §VI points 2, 3, 5), and Tripathi's
slow-HTTP/2 family holds connections open at no cost.  Each is an
:class:`~repro.attacks.base.AttackProfile` in
:data:`~repro.attacks.battery.BATTERY_PROFILES`, run by
:func:`~repro.attacks.battery.run_attack` against every vendor engine
(or a prepared :class:`~repro.servers.site.Site`) over the simulated or
loopback backend, with or without the engines' abuse guards; see
:mod:`repro.attacks.battery` for the nine behaviours.
"""

from repro.attacks.base import AttackResult
from repro.attacks.battery import BATTERY_PROFILES, run_attack, run_battery

__all__ = ["AttackResult", "BATTERY_PROFILES", "run_attack", "run_battery"]
