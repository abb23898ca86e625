"""Resilience layer: deadlines, classification, deterministic backoff."""

import pytest

from repro.net.clock import Simulation
from repro.net.transport import Network
from repro.population.generator import PopulationConfig, make_population
from repro.scope.report import ErrorClass
from repro.scope.resilience import (
    ConnectionRefusedFault,
    ConnectionResetFault,
    Deadline,
    DeadlineExceeded,
    ProbeTimeout,
    ResilienceConfig,
    ScanFault,
    TlsFault,
    classify_exception,
    make_scan_error,
    run_resilient,
)
from repro.scope.scanner import scan_site
from tests.conftest import sim_session


class TestClassification:
    @pytest.mark.parametrize(
        ("exc", "expected"),
        [
            (ConnectionRefusedFault("x"), ErrorClass.TRANSIENT),
            (ConnectionResetFault("x"), ErrorClass.TRANSIENT),
            (ProbeTimeout("x"), ErrorClass.TIMEOUT),
            (DeadlineExceeded("x"), ErrorClass.TIMEOUT),
            (TlsFault("x"), ErrorClass.FATAL),
            (ScanFault("x"), ErrorClass.FATAL),
            (ConnectionResetError("os-level"), ErrorClass.TRANSIENT),
            (OSError("os-level"), ErrorClass.TRANSIENT),
            (TimeoutError("slow"), ErrorClass.TIMEOUT),
            (ValueError("bug"), ErrorClass.FATAL),
            (RuntimeError("bug"), ErrorClass.FATAL),
        ],
    )
    def test_mapping(self, exc, expected):
        assert classify_exception(exc) is expected

    def test_make_scan_error_records_everything(self):
        error = make_scan_error("settings", TlsFault("garbled hello"), attempts=3)
        assert error.probe == "settings"
        assert error.error_class is ErrorClass.FATAL
        assert error.exception == "TlsFault"
        assert error.message == "garbled hello"
        assert error.attempts == 3
        assert "attempts=3" in str(error)


class TestDeadline:
    def test_clamp_bounds_timeout_by_remaining(self):
        sim = Simulation()
        deadline = Deadline(sim, 10.0)
        assert deadline.clamp(30.0) == 10.0
        assert deadline.clamp(4.0) == 4.0

    def test_expires_as_virtual_time_advances(self):
        sim = Simulation()
        deadline = Deadline(sim, 5.0)
        assert deadline.remaining > 0
        sim.run(until=6.0)
        assert deadline.remaining <= 0
        with pytest.raises(DeadlineExceeded):
            deadline.clamp(1.0, "settle")

    def test_deadline_exceeded_is_a_timeout(self):
        sim = Simulation()
        sim.run(until=1.0)
        deadline = Deadline(sim, 0.0)
        try:
            deadline.clamp(1.0)
        except DeadlineExceeded as exc:
            assert classify_exception(exc) is ErrorClass.TIMEOUT


def backoff_delays(probe: str, seed: int, retries: int) -> list[float]:
    """The delays run_resilient sleeps between ``retries`` + 1 refused
    attempts of ``probe``."""
    backend = sim_session(Network(Simulation(), seed=1)).backend
    delays = []
    backend.sleep = delays.append

    def fn():
        raise ConnectionRefusedFault("refused")

    run_resilient(backend, probe, fn, ResilienceConfig(retries=retries), seed=seed)
    return delays


class TestBackoffPolicy:
    #: 0.5 s doubling, capped at 8 s, plus up to 10 % jitter drawn from
    #: ``stable_seed(13, "negotiation", "backoff")``, in this order.
    PINNED = [
        0.5269750602709635,
        1.0337426391531153,
        2.068437395065445,
        4.318198505494012,
        8.74131058167771,
        8.363982277094973,
    ]

    def test_delays_are_pinned_for_one_seed(self):
        assert backoff_delays("negotiation", 13, 6) == self.PINNED

    def test_schedule_deterministic_for_same_seed(self):
        assert backoff_delays("negotiation", 13, 6) == backoff_delays(
            "negotiation", 13, 6
        )

    def test_jitter_is_additive_and_bounded(self):
        for retry, delay in enumerate(self.PINNED):
            raw = min(8.0, 0.5 * 2.0**retry)
            assert raw <= delay < raw * 1.1

    def test_schedule_differs_across_seeds(self):
        assert backoff_delays("negotiation", 14, 6) != self.PINNED


class TestRunResilient:
    def setup_method(self):
        self.sim = Simulation()
        self.network = Network(self.sim, seed=1)
        self.backend = sim_session(self.network).backend

    def test_success_first_try(self):
        attempts, error = run_resilient(
            self.backend, "probe", lambda: None, ResilienceConfig()
        )
        assert (attempts, error) == (1, None)
        assert self.backend.deadline is None  # deadline cleared after run

    def test_policy_installed_during_attempts(self):
        seen = []

        def fn():
            seen.append(self.backend.deadline)

        run_resilient(self.backend, "probe", fn, ResilienceConfig(timeout=7.0))
        assert len(seen) == 1
        assert seen[0] is not None
        assert seen[0].remaining == 7.0

    def test_transient_failures_retried_until_success(self):
        calls = []

        def fn():
            calls.append(self.sim.now)
            if len(calls) < 3:
                raise ConnectionRefusedFault("refused")

        attempts, error = run_resilient(
            self.backend, "probe", fn, ResilienceConfig(retries=2)
        )
        assert attempts == 3
        assert error is None
        # Backoff elapsed on the virtual clock between attempts.
        assert calls[1] > calls[0] and calls[2] > calls[1]

    def test_retries_exhausted_reports_total_attempts(self):
        def fn():
            raise ConnectionResetFault("reset")

        attempts, error = run_resilient(
            self.backend, "settings", fn, ResilienceConfig(retries=2)
        )
        assert attempts == 3  # 1 initial + 2 retries
        assert error is not None
        assert error.probe == "settings"
        assert error.error_class is ErrorClass.TRANSIENT
        assert error.attempts == 3

    def test_timeout_not_retried(self):
        calls = []

        def fn():
            calls.append(1)
            raise ProbeTimeout("stalled")

        attempts, error = run_resilient(
            self.backend, "probe", fn, ResilienceConfig(retries=5)
        )
        assert attempts == 1 and len(calls) == 1
        assert error.error_class is ErrorClass.TIMEOUT

    def test_fatal_not_retried(self):
        def fn():
            raise TlsFault("corrupt hello")

        attempts, error = run_resilient(
            self.backend, "probe", fn, ResilienceConfig(retries=5)
        )
        assert attempts == 1
        assert error.error_class is ErrorClass.FATAL
        assert error.exception == "TlsFault"

    def test_each_attempt_gets_a_fresh_deadline(self):
        deadlines = []

        def fn():
            deadlines.append(self.backend.deadline.at)
            if len(deadlines) < 2:
                raise ConnectionRefusedFault("refused")

        run_resilient(
            self.backend, "probe", fn, ResilienceConfig(timeout=5.0, retries=1)
        )
        assert len(deadlines) == 2
        assert deadlines[1] > deadlines[0]  # re-anchored after backoff

    def test_backoff_schedule_deterministic_across_runs(self):
        def failing_times(sim, network, n):
            times = []

            def fn():
                times.append(sim.now)
                raise ConnectionRefusedFault("refused")

            run_resilient(
                sim_session(network).backend,
                "probe",
                fn,
                ResilienceConfig(retries=n),
                seed=5,
            )
            return times

        run_a = failing_times(self.sim, self.network, 3)
        sim_b = Simulation()
        run_b = failing_times(sim_b, Network(sim_b, seed=1), 3)
        assert run_a == run_b

    def test_backoff_seed_scoped_per_probe(self):
        def attempt_times(probe):
            sim = Simulation()
            network = Network(sim, seed=1)
            times = []

            def fn():
                times.append(sim.now)
                raise ConnectionRefusedFault("refused")

            run_resilient(
                sim_session(network).backend,
                probe,
                fn,
                ResilienceConfig(retries=2),
                seed=5,
            )
            return times

        assert attempt_times("negotiation") != attempt_times("settings")


@pytest.mark.xfail(
    strict=True,
    reason="known, recorded in ROADMAP item 27: flow control's own waits "
    "outlast one 10 s attempt on a fault-free site (17 of these 40 sites; "
    "260 of the 466), because the deadline covers the whole group, not a "
    "turn; a fix moves chaos reports, so it follows item 6(d)",
)
def test_flow_control_fits_its_attempt_deadline_on_a_fault_free_site():
    sites = make_population(PopulationConfig(n_sites=400, seed=7))[:40]
    failed = [
        site.domain
        for index, site in enumerate(sites)
        if any(
            error.probe == "flow_control"
            for error in scan_site(
                site,
                include={"negotiation", "flow_control"},
                seed=7 + index,
                resilience=ResilienceConfig(10.0, 1),
            ).errors
        )
    ]
    assert failed == []
