"""Synthetic Alexa-top-1M population.

The paper scanned the Alexa top 1 million twice (July 2016, January
2017).  We cannot reach the 2016 internet, so this package builds a
synthetic population whose *joint behaviour* is sampled from the
paper's published aggregates — Table IV's server families, Tables V-VII
and Fig. 2's SETTINGS marginals, and the Section V-D/E/F behavioural
counts — at a configurable scale.

Because the generator plants ground truth from the paper's numbers,
re-scanning the population with H2Scope is a closed-loop validation:
the scanner must recover the planted distributions, and every bench
that reproduces a table is simultaneously a correctness check of the
measurement methodology.
"""

from repro.population.generator import PopulationConfig, make_population

__all__ = ["PopulationConfig", "make_population"]
