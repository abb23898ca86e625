#!/usr/bin/env python
"""Run the h2spec-style RFC 7540 conformance suite against all vendors.

Table III is, at heart, a conformance report; this example produces the
formalized version: per-RFC-section checks with MUST/SHOULD levels, one
report per server model, and the headline finding — *no implementation
is fully conformant* ("not all implementations strictly follow RFC
7540").

Run with::

    python examples/rfc_conformance.py [vendor]
"""

import sys

from repro.scope.conformance import Verdict, run_conformance
from repro.scope.session import ProbeSession
from repro.servers.site import deploy_testbed
from repro.servers.vendors import VENDOR_FACTORIES


def main() -> int:
    names = sys.argv[1:] or list(VENDOR_FACTORIES)
    unknown = [n for n in names if n not in VENDOR_FACTORIES]
    if unknown:
        print(f"unknown vendor(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    failures_by_vendor = {}
    for name in names:
        with deploy_testbed(name) as (backend, site):
            report = run_conformance(ProbeSession(backend), site.domain)
        print(report.summary())
        failures_by_vendor[name] = sum(
            1 for r in report.results if r.verdict is Verdict.FAIL
        )

    ranking = sorted(failures_by_vendor.items(), key=lambda kv: kv[1])
    print("conformance ranking (fewest failed checks first):")
    for name, failures in ranking:
        print(f"  {name:10s} {failures} failed check(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
