"""Compare two result files of ``run.py``, metric by metric.

``compare.py A.json B.json`` takes A as the base and prints, for every
workload, ``failed_share`` (bound 0, absolute: any rise is a regression)
and, for every end-to-end metric, both medians, the ratio B/A and a verdict:

* ``improved``   — every pass of B reads better than every pass of A and
  the medians differ by more than either side's pass spread;
* ``regressed``  — B's median is worse than A's by more than the bound, and
  the pass spreads are within the bound or every pass of B reads worse than
  every pass of A;
* ``unresolved`` — a side's pass spread is wider than the bound, so the
  medians cannot be told apart at that bound;
* ``same``       — none of the above: within the bound.

The host drifts by several percent within minutes, so ``improved`` means
something only when the passes of A and B alternated in one session; a
gain is claimed from ten such pairs, not from this table alone.

Exits 1 if any pair regressed or is unresolved, or if B's outputs are wrong.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def verdict(base: dict, other: dict) -> tuple[str, float]:
    """``(verdict, worse_by)``; ``worse_by`` is a share of the base median."""
    sign = 1.0 if base["better"] == "lower" else -1.0
    worse_by = sign * (other["median"] - base["median"]) / base["median"]
    base_values = [sign * value for value in base["values"]]
    other_values = [sign * value for value in other["values"]]
    noise = max(base["spread"], other["spread"])
    if max(other_values) < min(base_values) and -worse_by > noise:
        return "improved", worse_by
    bound = base["bound"]
    if worse_by > bound and (noise <= bound or min(other_values) > max(base_values)):
        return "regressed", worse_by
    if noise > bound:
        return "unresolved", worse_by
    return "same", worse_by


def compare(base: dict, other: dict) -> int:
    bad = 0
    for name, entry in base["workloads"].items():
        if name not in other["workloads"]:
            print(f"{name}: missing from the second file")
            bad += 1
            continue
        theirs = other["workloads"][name]
        print(f"{name}:")
        if not theirs["correct"]:
            print("  wrong outputs in the second file: no gain counts")
            bad += 1
        more_failed = theirs["failed_share"] > entry["failed_share"]
        bad += more_failed
        print(
            f"  {'failed_share':20s} {entry['failed_share']:12.6g} -> "
            f"{theirs['failed_share']:12.6g} ratio"
            f" ({entry['failed']}/{entry['attempted']} -> "
            f"{theirs['failed']}/{theirs['attempted']} sites, bound 0 absolute)"
            f"  {'regressed' if more_failed else 'same'}"
        )
        for metric, row in entry["end_to_end"].items():
            new = theirs["end_to_end"][metric]
            word, worse_by = verdict(row, new)
            bad += word in ("regressed", "unresolved")
            print(
                f"  {metric:20s} {row['median']:12.6g} -> {new['median']:12.6g} {row['unit']:5s}"
                f" x{new['median'] / row['median']:.4f} of base"
                f" (worse by {worse_by:+.1%}, bound {row['bound']:.0%},"
                f" spreads {row['spread']:.1%}/{new['spread']:.1%})  {word}"
            )
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    base, other = (json.loads(Path(path).read_text()) for path in argv)
    return compare(base, other)


if __name__ == "__main__":
    sys.exit(main())
