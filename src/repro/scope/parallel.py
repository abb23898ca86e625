"""Sharded campaign execution: N scanning workers, one journal writer.

The paper's H2Scope reached the Alexa top-1M only by parallelizing the
prober (a poll() loop plus a thread pool); our per-site simulation
universes are CPU-bound Python, so the equivalent lever here is
multiprocessing.  PR 2 made every site's universe deterministic across
processes (stable blake2b seeds keyed on ``(seed, site_index)``), which
is exactly the property that makes sharding safe: a site's report is a
pure function of the manifest, no matter which process scans it.

Architecture (one campaign, ``workers`` > 1)::

    parent (writer)                      worker processes
    ---------------                      ----------------
    todo list ──► per-worker task pipes ──► scan_site in a fresh
    reorder buffer ◄── per-worker result pipes ◄── universe per site
    │
    └─► SQLite journal (checkpoints, WAL single writer)

* **Single writer.**  Only the parent touches SQLite; workers stream
  ``(task, report)`` pairs back over pipes.  WAL's single-writer
  assumption and the atomic ``checkpoint_every`` flushes from PR 2 are
  untouched.
* **Pipes, not queues.**  Every worker gets its own result pipe, and
  the parent multiplexes them with ``connection.wait``.  A shared
  ``multiprocessing.Queue`` would be simpler but is unsafe against
  dying writers: its feeder thread takes a cross-process writer lock,
  and a worker that crashes (or is SIGKILLed) between writing and
  releasing wedges every other worker forever.  A pipe has exactly one
  writer, so a worker death can only ever break its own channel — the
  parent sees EOF, salvages any fully-sent result, and respawns.
* **Ordered writes.**  The parent holds out-of-order completions in a
  reorder buffer and releases them in todo order, so every checkpoint
  batch — and therefore the database byte stream — is identical to a
  serial run's.  An interrupt flushes the in-order prefix; anything
  still in flight is simply rescanned on resume into byte-identical
  reports.
* **Exact crash accounting.**  A worker scans one site per message, so
  when it dies the parent knows precisely which site was in flight:
  that site's crash budget is charged, and it is retried or — after
  ``max_worker_crashes`` — given a synthetic ``WorkerCrashed`` error
  report.  No other site is touched.
* **SIGINT discipline.**  Workers ignore SIGINT; a Ctrl-C lands on the
  parent, which unwinds through the generator, terminates the workers
  and lets ``run_campaign`` flush the journal and raise
  :class:`~repro.scope.campaign.CampaignInterrupted` as usual.

``workers <= 1`` (or a single task) runs everything in-process with no
multiprocessing machinery at all: the plain serial loop that is both
the fast path for small populations and the serial baseline the
determinism tests diff against — or, only when ``run_campaign`` was
given ``concurrency > 1``, the interleaving scheduler
(:mod:`repro.scope.concurrent`).

The two knobs buy different things and do not nest: processes buy wall
clock, lanes buy *modeled* makespan (``ConcurrencyMetrics``), which only
the in-process path can hand back.  A worker process scans serially
whatever ``concurrency`` says: lanes inside a worker would cost wall
time for a makespan nothing can read.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

from repro.net.faults import FaultPlan
from repro.scope.report import ErrorClass, ScanError, SiteReport
from repro.scope.resilience import ResilienceConfig, make_scan_error
from repro.servers.site import Site

#: Seconds the parent waits on the result pipes before it checks for
#: dead workers.
POLL_INTERVAL = 0.2


def effective_workers(requested: int) -> int:
    """Clamp a requested worker count to the machine's CPU count.

    BENCH_parallel_scan.json shows oversubscription is not just useless
    but actively harmful for this CPU-bound workload (8 workers on one
    core collapse to ~0.3x serial throughput).  This is applied once,
    where the request arrives from outside (the CLI's ``--workers``);
    :class:`ParallelCampaignRunner` runs the count it is given.
    Results are unaffected either way — reports are byte-identical for
    any worker count.
    """
    return min(max(1, int(requested)), os.cpu_count() or 1)


@dataclass(frozen=True)
class SiteTask:
    """One unit of scan work: a position in the todo list.

    ``position`` is the index into the *todo* list (the write order the
    journal must reproduce); ``site_index`` is the index into the full
    population (the universe seed key, stable across resumes).
    """

    position: int
    site_index: int
    domain: str
    prior_attempts: int = 0


@dataclass
class SiteResult:
    """One scanned site coming back from a worker (or the serial path)."""

    task: SiteTask
    report: SiteReport
    #: How many workers died scanning this site before a report emerged.
    worker_crashes: int = 0


@dataclass(frozen=True)
class ScanOptions:
    """Everything a worker needs to scan any site deterministically."""

    include: tuple[str, ...] | None
    seed: int
    fault_plan: FaultPlan | None = None
    resilience: ResilienceConfig | None = None
    #: In-flight sessions on the in-process path
    #: (:mod:`repro.scope.concurrent`); 1 = plain serial loop.  Results
    #: are byte-identical either way.
    concurrency: int = 1


def _scan_one(
    site: Site, task: SiteTask, options: ScanOptions, backend_factory=None
) -> SiteReport:
    """Scan one site — serial loop, worker process or scheduler lane —
    with one rule: any exception becomes an error-bearing report, never
    a crash."""
    from repro.scope.scanner import scan_site

    try:
        return scan_site(
            site,
            include=options.include,
            seed=options.seed + task.site_index,
            fault_plan=options.fault_plan,
            resilience=options.resilience,
            backend_factory=backend_factory,
        )
    except Exception as exc:  # noqa: BLE001 - one site, one report
        report = SiteReport(domain=site.domain)
        report.errors.append(make_scan_error("scan", exc))
        return report


def _crash_report(task: SiteTask, crashes: int) -> SiteReport:
    """The report a site gets when it keeps killing its workers."""
    report = SiteReport(domain=task.domain)
    report.errors.append(
        ScanError(
            probe="worker",
            error_class=ErrorClass.FATAL,
            exception="WorkerCrashed",
            message=f"scan worker died {crashes} times on {task.domain}",
            attempts=crashes,
        )
    )
    return report


def _worker_main(
    parent_pid: int,
    task_conn,
    result_conn,
    sites: list[Site],
    options: ScanOptions,
) -> None:
    """Worker loop: pull one task, scan it, push its result.

    SIGINT is ignored so an interactive Ctrl-C (which the terminal
    delivers to the whole process group) is orchestrated by the parent:
    it flushes the journal and tears the workers down deliberately.
    Workers also watch for the parent dying (hard kill): once orphaned
    they ``os._exit`` on their own instead of leaking — bypassing the
    interpreter's exit machinery, which could block on inherited
    resources whose peer no longer exists.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    while True:
        if not task_conn.poll(0.5):
            if os.getppid() != parent_pid:  # orphaned by a hard kill
                os._exit(1)
            continue
        try:
            task = task_conn.recv()
        except (EOFError, OSError):  # parent closed the channel
            os._exit(1)
        if task is None:
            return
        report = _scan_one(sites[task.site_index], task, options)
        try:
            result_conn.send((task, report))
        except (BrokenPipeError, OSError):  # parent gone mid-send
            os._exit(1)


class _Worker:
    """Parent-side handle: process, both pipe ends, the in-flight task.

    ``task`` is the :class:`SiteTask` the worker is scanning (None when
    idle); on a crash it is exactly what was lost.
    """

    __slots__ = ("proc", "task_conn", "result_conn", "task")

    def __init__(self, proc, task_conn, result_conn):
        self.proc = proc
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.task: SiteTask | None = None


def _mp_context():
    """Prefer fork (cheap, inherits the population); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class ParallelCampaignRunner:
    """Shard site scans across worker processes, deterministically.

    The runner never touches storage: it turns a list of
    :class:`SiteTask` into a stream of :class:`SiteResult`, either in
    completion order (:meth:`iter_unordered`, for journal-free
    population scans) or in todo order (:meth:`iter_ordered`, for the
    campaign writer, via a reorder buffer).  Reports are byte-identical
    for any worker count because every site is scanned in its own
    universe seeded by ``(seed + site_index)``.
    """

    def __init__(
        self,
        sites: list[Site],
        *,
        workers: int = 1,
        include: Iterable[str] | None = None,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        max_worker_crashes: int = 3,
        concurrency: int = 1,
    ):
        self.sites = sites
        self.workers = max(1, int(workers))
        self.options = ScanOptions(
            include=tuple(sorted(include)) if include is not None else None,
            seed=seed,
            fault_plan=fault_plan,
            resilience=resilience,
            concurrency=concurrency,
        )
        self.max_worker_crashes = max(1, int(max_worker_crashes))

    # -- iteration ---------------------------------------------------------

    def iter_unordered(self, tasks: Iterable[SiteTask]) -> Iterator[SiteResult]:
        """Yield one :class:`SiteResult` per task, in completion order."""
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1:
            if self.options.concurrency > 1 and len(tasks) > 1:
                from repro.scope.concurrent import scan_interleaved

                yield from scan_interleaved(self.sites, tasks, self.options)
                return
            for task in tasks:
                yield SiteResult(
                    task, _scan_one(self.sites[task.site_index], task, self.options)
                )
            return
        yield from self._iter_multiprocess(tasks)

    def iter_ordered(self, tasks: Iterable[SiteTask]) -> Iterator[SiteResult]:
        """Yield results in todo (position) order via a reorder buffer.

        Positions must be the contiguous sequence ``0..len(tasks)-1``
        (they index the todo list).  Memory is bounded by the spread of
        in-flight completions: at most ``workers`` results across
        processes, at most ``concurrency`` on the in-process path.
        """
        tasks = list(tasks)
        buffered: dict[int, SiteResult] = {}
        expect = 0
        inner = self.iter_unordered(tasks)
        try:
            for result in inner:
                buffered[result.task.position] = result
                while expect in buffered:
                    yield buffered.pop(expect)
                    expect += 1
        finally:
            inner.close()

    # -- multiprocess engine ----------------------------------------------

    def _iter_multiprocess(self, tasks: list[SiteTask]) -> Iterator[SiteResult]:
        ctx = _mp_context()
        backlog: deque[SiteTask] = deque(tasks)
        crashes: dict[int, int] = {}
        workers: dict[int, _Worker] = {}
        try:
            for worker_id in range(min(self.workers, len(tasks))):
                workers[worker_id] = self._spawn(ctx, worker_id)
                self._dispatch(workers[worker_id], backlog)
            done = 0
            while done < len(tasks):
                by_conn = {
                    worker.result_conn: worker for worker in workers.values()
                }
                readable = _connection_wait(list(by_conn), timeout=POLL_INTERVAL)
                if not readable:
                    for result in self._reap(ctx, workers, backlog, crashes):
                        done += 1
                        yield result
                    continue
                worker = by_conn[readable[0]]
                try:
                    task, report = worker.result_conn.recv()
                except (EOFError, OSError):
                    # EOF: the worker died.  Its pipe stays readable, so
                    # reap it *now* rather than waiting for a quiet poll.
                    for result in self._reap(ctx, workers, backlog, crashes):
                        done += 1
                        yield result
                    continue
                worker.task = None
                self._dispatch(worker, backlog)
                done += 1
                yield SiteResult(task, report, crashes.get(task.position, 0))
        finally:
            self._shutdown(workers)

    def _spawn(self, ctx, worker_id: int) -> _Worker:
        task_r, task_w = ctx.Pipe(duplex=False)
        result_r, result_w = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(os.getpid(), task_r, result_w, self.sites, self.options),
            name=f"h2scope-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        # Drop the parent's copies of the child's ends immediately: the
        # child must be the *only* writer of its result pipe (so its
        # death reads as EOF) and later-forked siblings must not inherit
        # stale copies that would keep a dead worker's pipe open.
        task_r.close()
        result_w.close()
        return _Worker(proc, task_w, result_r)

    def _dispatch(self, worker: _Worker, backlog: deque[SiteTask]) -> None:
        """Send an idle worker the next site, if there is one."""
        if worker.task is None and backlog:
            self._send(worker, backlog.popleft())

    @staticmethod
    def _send(worker: _Worker, task: SiteTask) -> None:
        worker.task = task
        try:
            worker.task_conn.send(task)
        except (BrokenPipeError, OSError):
            pass  # worker already dead: _reap sees the task and charges it

    def _reap(self, ctx, workers, backlog, crashes) -> list[SiteResult]:
        """Respawn dead workers; emit reports for crash-budget-spent sites.

        A worker that dies mid-site triggers a retry of exactly that
        site (its universe is deterministic, so the eventual report is
        unchanged); a site that keeps killing workers is charged to the
        crash budget and surfaced as a ``WorkerCrashed`` failure instead
        of wedging the campaign.  A result the worker fully sent before
        dying is salvaged from its pipe first, so a completion is never
        double-counted as a crash.
        """
        results: list[SiteResult] = []
        for worker_id, worker in list(workers.items()):
            if worker.proc.is_alive():
                continue
            try:
                if worker.result_conn.poll(0):
                    task, report = worker.result_conn.recv()
                    worker.task = None
                    results.append(
                        SiteResult(task, report, crashes.get(task.position, 0))
                    )
            except (EOFError, OSError):
                pass  # partial message: the send died with the worker
            worker.result_conn.close()
            worker.task_conn.close()
            worker.proc.join()
            lost = worker.task
            workers[worker_id] = replacement = self._spawn(ctx, worker_id)
            if lost is not None:
                charged = crashes[lost.position] = crashes.get(lost.position, 0) + 1
                if charged < self.max_worker_crashes:
                    self._send(replacement, lost)
                    continue
                results.append(SiteResult(lost, _crash_report(lost, charged), charged))
            self._dispatch(replacement, backlog)
        return results

    def _shutdown(self, workers) -> None:
        for worker in workers.values():
            if worker.proc.is_alive():
                try:
                    worker.task_conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in workers.values():
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck in syscall
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
            try:
                worker.task_conn.close()
                worker.result_conn.close()
            except OSError:  # pragma: no cover - already closed by _reap
                pass
