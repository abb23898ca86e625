"""Detector scoring benchmark: precision/recall/time-to-detection.

Builds the labelled corpus — benign probe-suite traffic (clean + chaos
scans) against every vendor engine, plus each battery attack profile
with guards off — scores the real-time detector on it, and writes
``benchmarks/results/BENCH_detection.json``.

That file is COMMITTED.  The run itself asserts the floors (precision
>= 0.95, recall >= 0.90) and that every profile is detected on every
vendor; CI regenerates the file on every push and fails the build if it
differs from the committed copy by a single byte.
"""

import json

from benchmarks.conftest import BENCH_SEED, RESULTS_DIR, run_once
from repro.analysis.detection import score_corpus
from repro.attacks.corpus import build_corpus

#: Acceptance floors (ISSUE 7).
MIN_PRECISION = 0.95
MIN_RECALL = 0.90

#: Attack window per battery cell, virtual seconds.  Long enough that
#: every slow-rate profile crosses the detector's slowest rule
#: (stall_window, 10 s) with margin.
ATTACK_DURATION = 16.0


def bench_detection_scoring(benchmark):
    corpus = run_once(
        benchmark, build_corpus, seed=BENCH_SEED, duration=ATTACK_DURATION
    )
    score = score_corpus(corpus)
    attack_count = sum(1 for t in corpus if t.label is not None)
    document = {
        "seed": BENCH_SEED,
        "duration": ATTACK_DURATION,
        "timelines": len(corpus),
        "benign": len(corpus) - attack_count,
        "attacks": attack_count,
        "floors": {"precision": MIN_PRECISION, "recall": MIN_RECALL},
        **score.to_json(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_detection.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print()
    print(json.dumps(document, indent=1))

    assert score.precision >= MIN_PRECISION, score.to_json()
    assert score.recall >= MIN_RECALL, score.to_json()
    # Every battery profile must be caught on every vendor.
    for name, profile in score.per_profile.items():
        assert profile.of > 0, name
        assert profile.detected == profile.of, (name, score.to_json())
    benchmark.extra_info["precision"] = score.precision
    benchmark.extra_info["recall"] = score.recall
