"""Determinism battery for single-loop interleaved scanning (ISSUE 8/9).

The contract this file enforces: ``run_campaign(concurrency=N)``, the
one entry point that still reaches the interleaved scheduler, writes
reports — and raw SQLite rows — byte-identical to the serial loop at
every width, and across SIGINT/SIGKILL + resume.  Per-site universe
isolation (seed + site_index) plus todo-order journaling make this
provable.

ISSUE 9 additions: the O(log n) heap grant policy is differentially
pinned against the retained linear reference (random lane sets via
hypothesis, plus whole campaigns decision-for-decision), the bounded
lane-runner pool is proved to cap resident threads without moving a
byte, and a lane thread that refuses to die is a diagnosed
:class:`LaneLeakError`, not a silent leak.
"""

import heapq
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.net.backend import SimulatedBackend, TransportBackend
from repro.net.clock import Simulation
from repro.net.transport import Network
from repro.scope.campaign import CampaignInterrupted
import repro.scope.concurrent as concurrent_module
from repro.scope.concurrent import (
    ConcurrencyMetrics,
    InterleavedBackend,
    InterleavedScheduler,
    LaneLeakError,
    _HeapPolicy,
    _Lane,
    _LinearPolicy,
    scan_interleaved,
)
from repro.scope.parallel import ScanOptions
from repro.scope.resilience import ResilienceConfig
from repro.scope.scanner import run_campaign
from repro.scope.storage import ReportStore
from tests.scope.test_campaign import KillAt, serialize_campaign
from tests.scope.test_parallel import (
    CHAOS_SPEC,
    chaos_kwargs,
    population,
    raw_rows,
    serialize_reports,
    tasks_for,
)


@pytest.fixture(scope="module")
def chaos_sites():
    # The ISSUE's differential population: 300 requested sites (the
    # generator adds its unresponsive tail on top, ~350 total).
    return population(300)


@pytest.fixture(scope="module")
def serial_baseline(chaos_sites, tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "serial.db"
    with ReportStore(path) as store:
        run_campaign(
            chaos_sites, store, "camp", checkpoint_every=16, **chaos_kwargs()
        )
        documents = serialize_reports(store.load_campaign("camp"))
    return documents, raw_rows(path)


def scan_options(**overrides):
    kwargs = chaos_kwargs()
    kwargs["include"] = tuple(sorted(kwargs["include"]))
    kwargs.update(overrides)
    return ScanOptions(**kwargs)


class TestConcurrencyDeterminism:
    """Keystone: any --concurrency produces the serial bytes."""

    # 512 already admits the whole ~350-site fixture at t=0 on the
    # 64-runner pool; any wider width runs the same grant sequence.
    @pytest.mark.parametrize("concurrency", [1, 8, 64, 512])
    def test_campaign_byte_identical_to_serial(
        self, concurrency, chaos_sites, serial_baseline, tmp_path
    ):
        path = tmp_path / f"c{concurrency}.db"
        with ReportStore(path) as store:
            run_campaign(
                chaos_sites, store, "camp", checkpoint_every=16,
                concurrency=concurrency, **chaos_kwargs(),
            )
            documents = serialize_reports(store.load_campaign("camp"))
        assert documents == serial_baseline[0]
        # Not just the decoded reports: every byte SQLite stores,
        # including autoincrement row ids (journal write order).
        assert raw_rows(path) == serial_baseline[1]

    def test_composed_workers_and_concurrency(
        self, chaos_sites, serial_baseline, tmp_path
    ):
        """--workers 2 --concurrency 64: worker processes scan one site
        per message whatever the lane width says, and the bytes still
        match the serial loop."""
        path = tmp_path / "w2c64.db"
        with ReportStore(path) as store:
            run_campaign(
                chaos_sites, store, "camp", checkpoint_every=16,
                workers=2, concurrency=64, **chaos_kwargs(),
            )
            documents = serialize_reports(store.load_campaign("camp"))
        assert documents == serial_baseline[0]
        assert raw_rows(path) == serial_baseline[1]

    def test_metrics_and_streaming_order(self, chaos_sites):
        """scan_interleaved yields every task exactly once, bounds the
        in-flight high water at N, and reports a virtual makespan no
        longer than the serial sum (that's the whole point)."""
        sites = chaos_sites[:40]
        tasks = tasks_for(sites)
        serial = {
            result.task.position: result.report
            for result in scan_interleaved(sites, tasks, scan_options())
        }
        serial_virtual = sum(r.scan_virtual_time for r in serial.values())
        metrics = ConcurrencyMetrics()
        seen = {}
        for result in scan_interleaved(
            sites, tasks, scan_options(), concurrency=8, metrics=metrics
        ):
            assert result.task.position not in seen, "duplicate completion"
            seen[result.task.position] = result.report
        assert sorted(seen) == sorted(serial)
        assert serialize_reports(
            [seen[p] for p in sorted(seen)]
        ) == serialize_reports([serial[p] for p in sorted(serial)])
        assert metrics.admitted == metrics.completed == len(tasks)
        assert 1 < metrics.high_water <= 8
        assert metrics.handoffs > 0
        assert 0.0 < metrics.virtual_makespan <= serial_virtual
        # 40 chaotic sites at width 8 should overlap substantially.
        assert metrics.virtual_makespan < serial_virtual / 2

    @pytest.mark.parametrize("width", [8, 64, 512])
    def test_makespan_is_list_scheduling_within_five_percent(
        self, width, chaos_sites, serial_baseline
    ):
        """ROADMAP item 2's evidence: ``virtual_makespan`` against greedy
        list scheduling of the serial per-site virtual times into
        ``width`` slots (a heap of slot-free times).  The scheduler can
        only admit later than that ideal — a lane runs up to the 0.5 s
        horizon quantum past its neighbours before a finish is seen —
        so the analytic figure is a lower bound, and a tight one."""
        serial = {  # the baseline is domain-ordered; admission is not
            document["domain"]: document["scan_virtual_time"]
            for document in map(json.loads, serial_baseline[0])
        }
        durations = [serial[site.domain] for site in chaos_sites]
        slots = [0.0] * min(width, len(durations))
        for duration in durations:
            heapq.heapreplace(slots, slots[0] + duration)
        analytic = max(slots)
        metrics = ConcurrencyMetrics()
        for _ in scan_interleaved(
            chaos_sites, tasks_for(chaos_sites), scan_options(),
            concurrency=width, metrics=metrics,
        ):
            pass
        assert analytic <= metrics.virtual_makespan <= 1.05 * analytic

    @pytest.mark.parametrize("grant_policy", ["heap", "linear"])
    def test_lane_whose_last_wait_bypassed_the_backend_ends_with_its_site(
        self, grant_policy
    ):
        """``icmp_ping`` runs the clock itself, so its RTTs never reach
        ``_Lane.advance``.  Here a 0.5 s probe deadline runs out during
        the ping probe's ICMP step; the HTTP/1.1 step that follows
        raises on the spent deadline without waiting, so the site's last
        wait is one the lane never saw.  The lane must still end where
        its site does (before ISSUE 17: 0.394 s against 0.630 s)."""
        sites = population(8)[:1]
        options = ScanOptions(
            include=("ping",),
            seed=3,
            resilience=ResilienceConfig(timeout=0.5, retries=0),
        )
        metrics = ConcurrencyMetrics()
        [result] = InterleavedScheduler(
            sites, tasks_for(sites), options, concurrency=2,
            metrics=metrics, grant_policy=grant_policy,
        ).run()
        [error] = result.report.errors
        assert error.message.endswith("tcp connect: deadline exceeded")
        assert result.report.scan_virtual_time > 0.5
        assert metrics.virtual_makespan == result.report.scan_virtual_time


class TestConcurrentKillResume:
    """Interrupt/crash a concurrency>1 campaign at deterministic and
    signal-timed cut points; resume must restore the serial bytes."""

    @pytest.mark.parametrize(
        ("cut", "resume_concurrency"), [(6, 64), (23, 1)]
    )
    def test_interrupted_concurrent_scan_resumes_byte_identical(
        self, cut, resume_concurrency, chaos_sites, serial_baseline, tmp_path
    ):
        path = tmp_path / f"conc{cut}.db"
        with ReportStore(path) as store:
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    chaos_sites, store, "camp", checkpoint_every=7,
                    concurrency=32, progress=KillAt(cut), **chaos_kwargs(),
                )
        with ReportStore(path) as store:
            assert store.count("camp") >= cut  # the interrupt flushed
            run_campaign(
                chaos_sites, store, "camp", resume=True, checkpoint_every=7,
                concurrency=resume_concurrency, **chaos_kwargs(),
            )
            documents = serialize_reports(store.load_campaign("camp"))
        assert documents == serial_baseline[0]

    @pytest.mark.parametrize(
        ("signame", "expected_rc", "cut"),
        [("SIGINT", 130, 9), ("SIGKILL", -9, 17)],
    )
    def test_signal_killed_concurrent_scan_resumes_byte_identical(
        self, signame, expected_rc, cut, tmp_path
    ):
        """PR 3's kill harness with ``concurrency=16`` beside
        ``workers=2``: the crash loss window stays within one
        checkpoint batch, and resume (with different workers and
        concurrency values) must restore the serial bytes."""
        sites = population(40)
        with ReportStore(tmp_path / "base.db") as store:
            run_campaign(
                sites, store, "camp", checkpoint_every=7, **chaos_kwargs()
            )
            baseline = serialize_campaign(store)
        src = str(Path(repro.__file__).resolve().parent.parent)
        db = tmp_path / f"{signame}{cut}.db"
        proc = subprocess.run(
            [sys.executable, "-c", CONCURRENT_KILL_SCRIPT, str(db),
             str(cut), signame],
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == expected_rc
        with ReportStore(db) as store:
            flushed = store.count("camp")
            assert 0 < flushed <= len(sites)
            if signame == "SIGINT":
                assert flushed >= cut
            run_campaign(
                sites, store, "camp", resume=True, checkpoint_every=7,
                workers=1, concurrency=8, **chaos_kwargs(),
            )
            assert serialize_campaign(store) == baseline


#: Mirrors PR 3's PARALLEL_KILL_SCRIPT with the concurrency knob: a
#: workers=2, concurrency=16 chaos campaign that signals itself at a
#: progress cut (SIGINT -> orchestrated interrupt, exit 130; SIGKILL ->
#: no-warning crash).  Population and kwargs mirror the test fixtures
#: so the parent can resume and diff against its baseline.
CONCURRENT_KILL_SCRIPT = f"""
import os, signal, sys
from repro.population.generator import PopulationConfig, make_population
from repro.net.faults import FaultPlan
from repro.scope.resilience import ResilienceConfig
from repro.scope.campaign import CampaignInterrupted
from repro.scope.scanner import run_campaign
from repro.scope.storage import ReportStore

db, cut, sig = sys.argv[1], int(sys.argv[2]), getattr(signal, sys.argv[3])
sites = make_population(PopulationConfig(n_sites=40, seed=11))

def kill(progress):
    if progress.done >= cut:
        os.kill(os.getpid(), sig)

with ReportStore(db) as store:
    try:
        run_campaign(
            sites, store, "camp", checkpoint_every=7, workers=2,
            concurrency=16, progress=kill,
            include={{"negotiation", "settings", "ping"}},
            seed=3, fault_plan=FaultPlan.parse({CHAOS_SPEC!r}, seed=5),
            resilience=ResilienceConfig(timeout=10.0, retries=1),
        )
    except CampaignInterrupted:
        sys.exit(130)
sys.exit(3)  # neither signal fired: the test harness is broken
"""


def _policy_lane(index, position):
    """A bare lane record at ``position``, for driving policies directly."""
    lane = _Lane(index, None, 0.0, threading.Event())
    lane.position = position
    return lane


_POSITIONS = st.one_of(
    st.floats(
        min_value=0.0, max_value=100.0,
        allow_nan=False, allow_infinity=False,
    ),
    # Deliberate ties and both infinities: the index tiebreak and the
    # "no other lane" horizon sentinel must match decision-for-decision.
    st.sampled_from([0.0, 1.0, 2.5, float("inf"), float("-inf")]),
)


class TestPolicyDifferential:
    """The ISSUE 9 keystone: `_HeapPolicy` == `_LinearPolicy`, proved
    decision-for-decision — on random lane sets via hypothesis, and on
    whole campaigns (same schedule, same bytes, same handoff count)."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "reposition"]),
                st.integers(min_value=0, max_value=63),
                _POSITIONS,
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_heap_matches_linear_on_random_lane_sets(self, ops):
        heap, linear = _HeapPolicy(), _LinearPolicy()
        lanes: list[_Lane] = []
        counter = 0
        for op, choice, position in ops:
            if op == "add" or not lanes:
                lane = _policy_lane(counter, position)
                counter += 1
                lanes.append(lane)
                heap.add(lane)
                linear.add(lane)
            elif op == "remove":
                lane = lanes.pop(choice % len(lanes))
                heap.remove(lane)
                linear.remove(lane)
            else:
                lane = lanes[choice % len(lanes)]
                lane.position = position
                heap.reposition(lane)
                linear.reposition(lane)
            # Identity, not equality: the policies must name the same
            # lane object, so position ties resolve identically.
            assert heap.peek() is linear.peek()
            for granted in lanes:
                assert heap.best_other(granted) == linear.best_other(granted)

    def test_whole_campaign_decision_identical(self, chaos_sites):
        """grant_policy="linear" vs "heap" over 40 chaos sites: the
        completion order, handoff count, makespan and every report byte
        must coincide — the schedules are the same function."""
        sites = chaos_sites[:40]
        tasks = tasks_for(sites)
        runs = {}
        for policy in ("heap", "linear"):
            metrics = ConcurrencyMetrics()
            results = list(
                scan_interleaved(
                    sites, tasks, scan_options(), concurrency=16,
                    grant_policy=policy, metrics=metrics,
                )
            )
            runs[policy] = (
                [result.task.position for result in results],
                serialize_reports([result.report for result in results]),
                metrics.handoffs,
                metrics.virtual_makespan,
            )
        assert runs["heap"] == runs["linear"]


class TestLanePool:
    """The recycling pool caps resident threads at O(pool) without
    moving a byte: reports match the serial loop exactly, while thread
    metrics prove the bound held."""

    def test_pool_bounds_threads_and_preserves_bytes(self, chaos_sites, monkeypatch):
        sites = chaos_sites[:40]
        tasks = tasks_for(sites)
        serial = serialize_reports(
            [r.report for r in scan_interleaved(sites, tasks, scan_options())]
        )
        monkeypatch.setattr(concurrent_module, "LANE_POOL_SIZE", 4)
        pooled = ConcurrencyMetrics()
        seen = {}
        for result in scan_interleaved(
            sites, tasks, scan_options(), concurrency=32, metrics=pooled
        ):
            seen[result.task.position] = result.report
        assert sorted(seen) == list(range(len(tasks)))
        assert serialize_reports([seen[p] for p in sorted(seen)]) == serial
        # The pool pays at most its size in threads, and never hosts
        # more lanes than that at once.
        assert pooled.threads_spawned <= 4
        assert 0 < pooled.resident_high_water <= 4
        # The admission window is still the full width: positions keep
        # overlapping even though only 4 lanes are ever mid-scan.
        assert pooled.high_water > pooled.resident_high_water

    def test_concurrency_ceiling_clamped_with_warning(self, chaos_sites):
        sites = chaos_sites[:4]
        tasks = tasks_for(sites)
        metrics = ConcurrencyMetrics()
        with pytest.warns(RuntimeWarning, match="16384"):
            scheduler = InterleavedScheduler(
                sites, tasks, scan_options(),
                concurrency=1 << 20, metrics=metrics,
            )
        assert scheduler.concurrency == 16384
        list(scheduler.run())
        assert metrics.completed == len(tasks)


class TestLaneLeakDiagnostics:
    """ISSUE 9 satellite: a lane that outlives the teardown deadline
    must surface as a LaneLeakError naming the culprit — PR 8's silent
    ``join(timeout=10.0)`` shrug is gone."""

    @staticmethod
    def _stubborn_scan_site(release, stubborn_domain):
        """A scan_site stand-in whose ``stubborn_domain`` lane swallows
        the abort and refuses to exit until ``release`` is set."""
        from repro.scope.report import SiteReport as _SiteReport

        def scan_site(site, *, include, seed, fault_plan, resilience,
                      backend_factory=None):
            backend = backend_factory(Network(Simulation(), seed=0))
            if site.domain == stubborn_domain:
                try:
                    backend.sleep_until(1000.0)  # parks behind lane 1
                except BaseException:
                    release.wait(timeout=30.0)  # the refusal to die
            return _SiteReport(domain=site.domain)

        return scan_site

    @pytest.mark.parametrize("pool_size", [2, None])
    def test_lane_that_refuses_to_die_is_diagnosed(
        self, chaos_sites, monkeypatch, pool_size
    ):
        import repro.scope.scanner as scanner_module

        sites = chaos_sites[:2]
        tasks = tasks_for(sites)
        release = threading.Event()
        monkeypatch.setattr(
            scanner_module, "scan_site",
            self._stubborn_scan_site(release, sites[0].domain),
        )
        monkeypatch.setattr(concurrent_module, "LANE_JOIN_TIMEOUT", 0.3)
        if pool_size is not None:  # None: the default pool
            monkeypatch.setattr(concurrent_module, "LANE_POOL_SIZE", pool_size)
        threads_before = threading.active_count()
        gen = scan_interleaved(sites, tasks, scan_options(), concurrency=2)
        try:
            # Lane 0 parks at virtual t=1000; lane 1 finishes first.
            first = next(gen)
            assert first.task.position == 1
            with pytest.raises(LaneLeakError, match=sites[0].domain):
                gen.close()
        finally:
            release.set()
        for _ in range(500):  # let the released thread actually exit
            if threading.active_count() <= threads_before:
                break
            time.sleep(0.01)
        assert threading.active_count() <= threads_before


def _free_lane():
    """A lane whose horizon never arrives: advance() updates position
    but never parks, so InterleavedBackend runs standalone."""
    return _Lane(0, None, 0.0, threading.Event())


def _universe(times):
    sim = Simulation()
    hits = []
    for when in times:
        sim.call_at(when, hits.append, when)
    return sim, hits


class TestInterleavedBackendParity:
    """InterleavedBackend must be observationally identical to
    SimulatedBackend — same clock, same callbacks, same predicate
    evaluation count — including the PR 4 pinned edges (timeout=0
    returns False without a predicate recheck when the clock did not
    move; sleep_until before now keeps Simulation.run's backward-clock
    oddity; events at exactly the deadline still run)."""

    @given(
        times=st.lists(
            st.floats(
                min_value=0.0, max_value=50.0,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=6,
        ),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("run_until"),
                    st.integers(min_value=0, max_value=6),
                    st.floats(
                        min_value=0.0, max_value=30.0,
                        allow_nan=False, allow_infinity=False,
                    ),
                ),
                st.tuples(
                    st.just("sleep_until"),
                    st.floats(
                        min_value=0.0, max_value=60.0,
                        allow_nan=False, allow_infinity=False,
                    ),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_wait_sequences_match_simulated_backend(self, times, ops):
        sim_a, hits_a = _universe(times)
        sim_b, hits_b = _universe(times)
        reference = SimulatedBackend(Network(sim_a, seed=0))
        subject = InterleavedBackend(Network(sim_b, seed=0), _free_lane())
        for op in ops:
            if op[0] == "run_until":
                _, want, timeout = op
                evals = [0, 0]

                def predicate(slot, goal=want, hits=None):
                    evals[slot] += 1
                    return len(hits) >= goal

                got_a = reference.run_until(
                    lambda: predicate(0, hits=hits_a), timeout
                )
                got_b = subject.run_until(
                    lambda: predicate(1, hits=hits_b), timeout
                )
                assert got_a == got_b
                assert evals[0] == evals[1], "predicate eval count diverged"
            else:
                # May land before now: the backward-clock oddity must
                # be preserved identically on both backends.
                reference.sleep_until(op[1])
                subject.sleep_until(op[1])
            assert sim_a.now == sim_b.now
            assert hits_a == hits_b
            assert sim_a.processed_events == sim_b.processed_events

    def test_zero_timeout_skips_predicate_recheck(self):
        """The pinned timeout=0 edge, asserted directly."""
        for make in (
            lambda net: SimulatedBackend(net),
            lambda net: InterleavedBackend(net, _free_lane()),
        ):
            backend = make(Network(Simulation(), seed=0))
            evals = []
            assert backend.run_until(lambda: evals.append(1), 0.0) is False
            assert len(evals) == 1  # the up-front check only


class _StubAttempt:
    def __init__(self, endpoint):
        self.established = True
        self.refused = False
        self.handshake_rtt = 0.001
        self.endpoint = endpoint


class _StubEndpoint:
    """Duck-typed Endpoint whose receive buffer is pre-loaded, modeling
    a server that spoke before on_data was attached."""

    def __init__(self, pending=b""):
        self.on_data = None
        self.on_close = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = len(pending)
        self.sent = []
        self._recv_buffer = bytearray(pending)

    def send(self, data):
        self.sent.append(bytes(data))
        self.bytes_sent += len(data)

    def drain(self):
        data = bytes(self._recv_buffer)
        self._recv_buffer.clear()
        return data

    def close(self):
        self.closed = True


class _StubBackend(TransportBackend):
    def __init__(self, endpoint):
        self._endpoint = endpoint
        self._now = 0.0

    def connect(self, domain, port):
        return _StubAttempt(self._endpoint)

    @property
    def now(self):
        return self._now

    def run_until(self, predicate, timeout):
        return bool(predicate())

    def sleep_until(self, when):
        self._now = max(self._now, when)


class TestSharedStateHazards:
    """Regression tests for the latent hazards the single-loop work
    surfaced: bytes arriving before the client attached its callbacks,
    and the module-wide encoder string cache under real threads."""

    def test_server_speaks_first_bytes_reach_limbo(self):
        """Bytes already buffered at connect() must be drained into the
        limbo path (they were silently dropped in "idle" mode before),
        then replayed into the hello parser by tls_handshake()."""
        from repro.scope.client import ScopeClient

        endpoint = _StubEndpoint(pending=b"!garbage before our hello\n")
        client = ScopeClient(_StubBackend(endpoint), "eager.test")
        assert client.connect() is True
        assert bytes(client._limbo_buffer) == b"!garbage before our hello\n"
        assert not endpoint._recv_buffer, "bytes stranded in the endpoint"
        outcome = client.tls_handshake()
        # The replayed pre-hello garbage is a malformed server hello.
        assert client._mode == "failed"
        assert outcome.connected is False

    def test_encoder_string_cache_is_value_pure_under_threads(self):
        """The module-wide hot-string cache is shared by every in-flight
        session.  Hammer it from real threads across the eviction
        boundary: every cached answer must equal a fresh single-threaded
        encoding (the cache is value-pure, so races can only waste
        work, never corrupt output)."""
        from repro.h2.hpack import encoder as encoder_module
        from repro.h2.hpack.encoder import Encoder

        original = dict(encoder_module._STRING_CACHE)
        encoder_module._STRING_CACHE.clear()
        try:
            per_thread = encoder_module._STRING_CACHE_MAX // 2
            results = [None] * 6
            barrier = threading.Barrier(len(results))

            def hammer(slot):
                enc = Encoder()
                got = []
                barrier.wait()
                for i in range(per_thread):
                    # Interleave shared hot strings with per-thread
                    # cold ones so eviction keeps firing.
                    data = (
                        b"text/html" if i % 7 == 0
                        else b"s%d-%d" % (slot, i)
                    )
                    got.append((data, enc._encode_string(data)))
                results[slot] = got

            threads = [
                threading.Thread(target=hammer, args=(slot,))
                for slot in range(len(results))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            reference = Encoder()
            for got in results:
                assert got is not None, "hammer thread died"
                for data, encoded in got:
                    assert encoded == reference._encode_string(data)
        finally:
            encoder_module._STRING_CACHE.clear()
            encoder_module._STRING_CACHE.update(original)
