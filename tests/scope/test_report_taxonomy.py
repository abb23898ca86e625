"""Error-taxonomy aggregation over scan reports."""

from repro.scope.report import (
    ErrorClass,
    ScanError,
    SiteReport,
    format_error_taxonomy,
    summarize_errors,
)


def report_with(domain, errors=(), attempts=None):
    report = SiteReport(domain=domain)
    report.errors.extend(errors)
    if attempts:
        report.probe_attempts.update(attempts)
    return report


class TestSiteReportFlags:
    def test_failed_and_retried(self):
        clean = report_with("a.test")
        assert not clean.failed and not clean.retried

        rescued = report_with("b.test", attempts={"negotiation": 2})
        assert not rescued.failed and rescued.retried

        broken = report_with(
            "c.test", errors=[ScanError(probe="ping", attempts=1)]
        )
        assert broken.failed and not broken.retried


class TestSummarizeErrors:
    def test_counts_by_class_exception_probe(self):
        reports = [
            report_with("a.test"),
            report_with(
                "b.test",
                errors=[
                    ScanError(
                        probe="negotiation",
                        error_class=ErrorClass.TRANSIENT,
                        exception="ConnectionRefusedFault",
                        attempts=3,
                    )
                ],
                attempts={"negotiation": 3},
            ),
            report_with(
                "c.test",
                errors=[
                    ScanError(
                        probe="settings",
                        error_class=ErrorClass.TIMEOUT,
                        exception="ProbeTimeout",
                    ),
                    ScanError(
                        probe="ping",
                        error_class=ErrorClass.TIMEOUT,
                        exception="ProbeTimeout",
                    ),
                ],
            ),
        ]
        taxonomy = summarize_errors(reports)
        assert taxonomy.total_sites == 3
        assert taxonomy.failed_sites == 2
        assert taxonomy.retried_sites == 1
        assert taxonomy.total_errors == 3
        assert taxonomy.by_class == {"transient": 1, "timeout": 2}
        assert taxonomy.by_exception == {
            "ConnectionRefusedFault": 1,
            "ProbeTimeout": 2,
        }
        assert taxonomy.by_probe == {"negotiation": 1, "settings": 1, "ping": 1}
        assert taxonomy.failure_fraction == 2 / 3
        assert taxonomy.retry_fraction == 1 / 3

    def test_empty_scan(self):
        taxonomy = summarize_errors([])
        assert taxonomy.failure_fraction == 0.0
        assert taxonomy.retry_fraction == 0.0


class TestFormatting:
    def test_renders_counts_sorted_by_frequency(self):
        reports = [
            report_with(
                "a.test",
                errors=[
                    ScanError(
                        probe="settings",
                        error_class=ErrorClass.TIMEOUT,
                        exception="ProbeTimeout",
                    )
                ],
            ),
        ]
        text = format_error_taxonomy(summarize_errors(reports))
        assert "Scan resilience summary" in text
        assert "sites scanned           1" in text
        assert "timeout" in text
        assert "ProbeTimeout" in text
