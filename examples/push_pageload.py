#!/usr/bin/env python
"""Reproduce Fig. 3: page load time with server push on vs off.

Builds fifteen push-capable origins with two-wave dependency graphs
(HTML -> assets -> imports), replays 30 browser visits per site and
configuration over the simulated network, and reports median page load
times.  Push collapses discovery round trips, so most sites load
faster with it — the paper's observation.

Run with::

    python examples/push_pageload.py [visits]
"""

import sys

from repro.analysis.pageload import render_waterfall, visit_page
from repro.experiments import fig3
from repro.experiments.fig3 import _build_push_site
from repro.servers.site import serve_site


def show_waterfalls() -> None:
    """One example site's waterfall, push off vs on."""
    import random

    site = _build_push_site("waterfall.example", random.Random(1))
    for enable_push in (False, True):
        with serve_site(site, seed=1) as (backend, _):
            result = visit_page(backend, site, enable_push=enable_push)
        print(f"waterfall with push {'on' if enable_push else 'off'} "
              f"(PLT {result.plt:.3f}s):")
        print(render_waterfall(result))


def main() -> None:
    visits = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    show_waterfalls()
    result = fig3.run(visits=visits, seed=3)
    print(result.text)


if __name__ == "__main__":
    main()
