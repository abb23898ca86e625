#!/usr/bin/env python
"""Scan a synthetic Alexa population, as the paper's §V-B..F does.

Generates a population whose server mix, SETTINGS values and behaviour
quirks are sampled from the paper's published aggregates, scans every
site with H2Scope, and prints the adoption, server-family, SETTINGS,
flow-control, priority and push results side by side with the paper's
numbers.

Run with::

    python examples/alexa_scan.py [n_sites] [experiment]

``n_sites`` (default 300) is the number of HEADERS-returning sites to
generate; the output extrapolates counts back to the paper's population
(44,390 sites for experiment 1, 64,299 for experiment 2).
"""

import sys

from repro.experiments import SCAN_SUMMARIES, run_experiment


def main() -> None:
    n_sites = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    experiment = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    for name in SCAN_SUMMARIES:
        result = run_experiment(
            name, experiment=experiment, n_sites=n_sites, seed=7
        )
        print(result.text)
        print("=" * 72)


if __name__ == "__main__":
    main()
