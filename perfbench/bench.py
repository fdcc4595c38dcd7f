"""The repository benchmark: four serving workloads over one data set.

Every workload builds the same microcircuit (200k elements in a 30 µm
cube, the density of the SN serving benchmark), bulkloads FLAT,
snapshots and restores it — that set-up is timed ``SETUP_REPEATS``
times and its median is ``setup_s`` — and then drives the program only
through its public serving entry points: :meth:`QueryService.submit` /
:meth:`QueryService.apply_updates` and :meth:`ClusterRouter.run` /
:meth:`ClusterRouter.range_query` / :meth:`ClusterRouter.apply_updates`.
The workload seed generates every query box and update batch; the
program receives nothing else.

Every answer is checked after the timed window against a brute-force
oracle over the live element set (:mod:`perfbench.oracle`), and on the
two cold read-only workloads the demand page reads must equal the
``run_queries`` harness exactly.  A wrong answer fails the run.

Write metrics exist on every workload: the read-only workloads end,
after their timed read window, with a fixed write probe of update
batches through the same service configuration (absorbed commits and
generation-publishing merges), so ``commit_p50_ms``, ``merge_p50_ms``
and ``ingest_eps`` are defined everywhere without disturbing the
measured read regime.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import platform
import queue
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import FLATIndex, ShardedFLATIndex
from repro.data.microcircuit import build_microcircuit
from repro.query import (
    MODE_PROCESS,
    MODE_THREAD,
    BenchmarkSpec,
    ClusterRouter,
    QueryService,
    SCALED_LSS_FRACTION,
    SCALED_SN_FRACTION,
    trajectory_range_queries,
)
from repro.query.prefetch import PrefetchConfig
from repro.storage import PageStore

from perfbench import layers
from perfbench.oracle import Answer, LiveSet, harness_reads, wrong_answers
from perfbench.tracer import Tracer

# -- the data set -------------------------------------------------------------

#: Elements of the microcircuit every workload serves.
N_ELEMENTS = 200_000
#: Side of the tissue cube, µm.
VOLUME_SIDE = 30.0
#: The data set is fixed; ``--seed`` varies only queries and updates.
DATA_SEED = 11
#: Timed set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# -- update batches -----------------------------------------------------------

#: Inserted and deleted elements per update batch (deletes only ever
#: name elements of the initial data set, each at most once).
BATCH_INSERTS = 100
BATCH_DELETES = 100
#: Buffered delta (memtable rows + tombstones) that triggers a merge:
#: every 5th batch of the write probe merges.
PROBE_DELTA_THRESHOLD = 5 * (BATCH_INSERTS + BATCH_DELETES)
#: Timed write-probe batches of the read-only workloads (16 absorbed,
#: 4 merges: enough commits of each kind for steady medians).
PROBE_BATCHES = 20
#: Untimed batches ahead of them (one absorb-and-merge cycle): a
#: service's first commits pay one-time costs, so the first merge is
#: markedly slower than the ones after it.
PROBE_WARMUP = 5
#: Queries checked after every write-probe commit.
PROBE_CHECKS = 1
#: ``session_churn`` queues one insert+delete batch for its writer
#: thread after every CHURN_EVERY answered queries.  Pacing by queries
#: rather than by the clock keeps the share of queries that follow a
#: commit — each commit makes every worker process restore the new
#: version with empty caches — from growing as the machine slows.  Few
#: commits keep that slow share well below 5%, off query_p95_ms, and
#: absorbs far outnumber merges, so commit_p50_ms is an absorb.
CHURN_EVERY = 150
#: Buffered delta that triggers a merge of the churn writer's commits.
CHURN_DELTA_THRESHOLD = 5 * (BATCH_INSERTS + BATCH_DELETES)
#: Batches of one ``session_churn`` run: two absorb-and-merge cycles.
#: The count is fixed — batches the window did not reach are applied
#: after it — so every run publishes the same merges, ends on a merge,
#: and grows the store by the same bytes however fast the machine runs
#: (disk_bytes_per_element and ingest_eps would otherwise follow the
#: machine's speed).
CHURN_BATCHES = 2 * CHURN_DELTA_THRESHOLD // (BATCH_INSERTS + BATCH_DELETES)
#: Rolling updates of ``cluster_rolling``, evenly spaced in the window.
ROLLS = 4
#: Queries served (and checked) after every shard swap of a roll.
MID_ROLL_QUERIES = 2

# -- sessions and serving knobs -------------------------------------------------

#: Boxes per analysis session (trajectory sessions and cluster sessions).
SESSION_LENGTH = 40
#: Shards (one primary plus one replica server each) of cluster_rolling.
CLUSTER_SHARDS = 2
#: Query boxes generated per chunk of a client's stream.
CHUNK = 256

#: Working files of a run live under this directory of the checkout.
WORK_DIRNAME = ".perfbench_run"

#: The store's flush policy, stated in every result, so that a change
#: to durability shows up as a stated policy change.
FLUSH_POLICY = (
    "snapshot commits flush page data without fsync; merge publishes and "
    "replica ships fsync page data; manifests and sidecars are published "
    "by atomic rename, with no fsync of the file or its directory"
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    codec: str
    mode: str
    workers: int
    cold: bool
    box: str


#: Every workload is driven by one closed-loop client.  With two on a
#: 2-core machine both cores run queries, and any other load on the
#: machine lengthens every query's wait for a core: on lss_delta64 one
#: busy process raised the two-client query_p50_ms by 70%, and left the
#: one-client figure where it was.
WORKLOADS = {
    "sn_cold": Workload(
        "sn_cold",
        "Fig. 12/13 regime: ~70-id SN answers, cold caches, raw codec, 1 "
        "thread worker; seed descent and per-query overhead dominate, codec "
        "work is zero",
        codec="raw", mode=MODE_THREAD, workers=1, cold=True,
        box="SN",
    ),
    "lss_delta64": Workload(
        "lss_delta64",
        "Fig. 16/17 regime: ~2.5k-id LSS answers, cold caches, delta64 codec, "
        "2 process workers; codec inflate, record parse, crawl BFS and object "
        "decode dominate",
        codec="delta64", mode=MODE_PROCESS, workers=2, cold=True,
        box="LSS",
    ),
    "session_churn": Workload(
        "session_churn",
        "SCOUT trajectory sessions with prefetch and warm caches beside a "
        "paced insert+delete writer; delta overlay, absorb vs merge, "
        "publishing and store growth",
        codec="raw", mode=MODE_PROCESS, workers=2, cold=False,
        box="trajectory",
    ),
    "cluster_rolling": Workload(
        "cluster_rolling",
        "cold SN sessions through ClusterRouter over 2 shard servers with "
        "replicas and periodic rolling updates; the only router, wire, "
        "server-state and replica-shipping load",
        codec="raw", mode="cluster", workers=CLUSTER_SHARDS,
        cold=True, box="SN",
    ),
}

#: Every end-to-end metric: ``(name, unit)``.
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("query_qps", "1/s"),
    ("page_reads_per_query", "pages/query"),
    ("commit_p50_ms", "ms"),
    ("merge_p50_ms", "ms"),
    ("ingest_eps", "elements/s"),
    ("disk_bytes_per_element", "bytes/element"),
    ("rss_mb", "MB"),
)


# -- small helpers --------------------------------------------------------------


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _rss_mb(pid: int) -> float:
    """Resident set size of one process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _children_rss_mb() -> float:
    return sum(_rss_mb(child.pid) for child in multiprocessing.active_children())


def _disk_bytes(*directories) -> int:
    return sum(
        path.stat().st_size
        for directory in directories
        for path in Path(directory).rglob("*")
        if path.is_file()
    )


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class Commit:
    seconds: float
    merged: bool
    elements: int


@dataclass
class Phase:
    """Everything one measured phase of a workload produced."""

    latencies: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    window_seconds: float = 0.0
    #: ``perf_counter`` at the window's start and end (one clock for
    #: every process, so spans of workers can be placed in it).
    window_bounds: tuple = (0.0, 0.0)
    #: Window time the clients spent serving queries (the cluster
    #: client also runs the rolling updates inside its window).
    serving_seconds: float = 0.0
    queries: int = 0
    demand_reads: int = 0
    reads_by_category: dict = field(default_factory=dict)
    harness_queries: list = field(default_factory=list)
    commits: list = field(default_factory=list)
    lateness: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup_seconds: list = field(default_factory=list)
    setup_split: dict = field(default_factory=dict)
    disk_bytes: int = 0
    live_elements: int = 0
    rss_mb: float = 0.0
    worker_rss_mb: float = 0.0
    server_rss_mb: float = 0.0
    server_rss_growth_mb: float = 0.0
    shard_requests: int = 0
    dataset: dict = field(default_factory=dict)
    live: LiveSet | None = None
    flat: object = None
    trace: dict | None = None
    stage_seconds: dict = field(default_factory=dict)
    #: Guards attempted/failed: the client and writer threads both count.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self, count: int = 1) -> None:
        with self.lock:
            self.attempted += count

    def fail(self, count: int = 1) -> None:
        with self.lock:
            self.failed += count


class QueryStream:
    """A client's deterministic stream of ``(box, session id)`` pairs."""

    def __init__(self, kind: str, space_mbr, seed: int, client: int):
        self.kind = kind
        self.space = space_mbr
        self.seed = seed
        self.client = client
        self.chunk = 0
        self.session = 0
        self._boxes = np.empty((0, 6))
        self._pos = 0

    def _refill(self) -> None:
        seed = _derive_seed(self.seed, self.client, self.chunk)
        self.chunk += 1
        if self.kind == "trajectory":
            self._boxes = trajectory_range_queries(
                self.space, SCALED_SN_FRACTION, SESSION_LENGTH, seed=seed
            )
        else:
            fraction = SCALED_LSS_FRACTION if self.kind == "LSS" else SCALED_SN_FRACTION
            self._boxes = BenchmarkSpec(self.kind, fraction, CHUNK).queries(
                self.space, seed=seed
            )
        self._pos = 0

    def next(self) -> tuple:
        if self._pos >= len(self._boxes):
            self._refill()
        box = self._boxes[self._pos]
        index = self._pos
        self._pos += 1
        if index % SESSION_LENGTH == 0:
            self.session += 1
        return box, f"c{self.client}-s{self.session}"


class UpdateStream:
    """Deterministic insert+delete batches; deletes hit initial elements once."""

    def __init__(self, space_mbr, initial: int, seed: int):
        self.space = np.asarray(space_mbr, dtype=np.float64)
        self.rng = np.random.default_rng(_derive_seed(seed, 99))
        self.victims = self.rng.permutation(initial).astype(np.int64)
        self.used = 0

    def next(self) -> tuple:
        lo = self.rng.uniform(
            self.space[:3], self.space[3:] - 1.0, size=(BATCH_INSERTS, 3)
        )
        inserts = np.concatenate(
            [lo, lo + self.rng.uniform(0.01, 1.0, size=(BATCH_INSERTS, 3))], axis=1
        )
        deletes = np.sort(self.victims[self.used:self.used + BATCH_DELETES])
        self.used += BATCH_DELETES
        return inserts, deletes


# -- set-up ---------------------------------------------------------------------


def _build(shards: int):
    circuit = build_microcircuit(N_ELEMENTS, side=VOLUME_SIDE, seed=DATA_SEED)
    mbrs = circuit.mbrs()
    if shards:
        index = ShardedFLATIndex.build(mbrs, shards, space_mbr=circuit.space_mbr)
    else:
        index = FLATIndex.build(PageStore(), mbrs, space_mbr=circuit.space_mbr)
    return circuit, mbrs, index


def _timed_setups(workdir: Path, repeats: int, setup_once, teardown):
    """Run *setup_once* repeatedly in fresh directories; keep the last.

    Returns ``(state, total seconds per repeat, split of the last)``.
    """
    totals = []
    state = None
    for attempt in range(repeats):
        if state is not None:
            teardown(state)
        directory = workdir / f"setup{attempt}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        state, split = setup_once(directory)
        totals.append(sum(split.values()))
    # Release the discarded repeats now, not at some later collection,
    # so the memory workers inherit and rss_mb reads do not depend on
    # when the collector happens to run.
    gc.collect()
    return state, totals, split


def _service_setup(codec: str):
    def setup_once(directory: Path):
        t0 = time.perf_counter()
        circuit, mbrs, flat = _build(0)
        t1 = time.perf_counter()
        snapdir = directory / "snapshot"
        flat.snapshot(snapdir, codec=codec)
        t2 = time.perf_counter()
        restored = FLATIndex.restore(snapdir)
        t3 = time.perf_counter()
        state = {"circuit": circuit, "mbrs": mbrs, "flat": flat,
                 "index": restored, "dirs": [snapdir],
                 "pages": len(flat.store)}
        return state, {"build_s": t1 - t0, "snapshot_s": t2 - t1,
                       "restore_s": t3 - t2}

    def teardown(state):
        state["index"].store.close()

    return setup_once, teardown


def _cluster_setup():
    def setup_once(directory: Path):
        t0 = time.perf_counter()
        circuit, mbrs, sharded = _build(CLUSTER_SHARDS)
        t1 = time.perf_counter()
        root = directory / "root"
        sharded.snapshot(root)
        t2 = time.perf_counter()
        # AF_UNIX socket paths are length-limited: keep them relative.
        runtime = Path(os.path.relpath(directory / "sock"))
        runtime.mkdir()
        router = ClusterRouter.launch(
            root, replica_root=directory / "replicas", runtime_dir=runtime
        )
        t3 = time.perf_counter()
        shard_of = np.full(len(mbrs), -1, dtype=np.int64)
        for pos, shard in enumerate(sharded.shards):
            shard_of[shard.element_ids] = pos
        state = {"circuit": circuit, "mbrs": mbrs, "router": router,
                 "root": root, "shard_of": shard_of,
                 "dirs": [root, directory / "replicas"],
                 "pages": sum(len(shard.store) for shard in sharded.shards)}
        return state, {"build_s": t1 - t0, "snapshot_s": t2 - t1,
                       "restore_s": t3 - t2}

    def teardown(state):
        state["router"].close()

    return setup_once, teardown


def _dataset_info(state, codec: str) -> dict:
    return {
        "elements": int(len(state["mbrs"])),
        "space_mbr": [float(v) for v in state["circuit"].space_mbr],
        "data_seed": DATA_SEED,
        "codec": codec,
        "pages": state["pages"],
        "disk_bytes_at_start": _disk_bytes(*state["dirs"]),
    }


# -- the closed-loop client --------------------------------------------------------


def _serve_window(phase: Phase, service, stream: QueryStream, seconds: float,
                  session: bool, tracer, after_query=None) -> None:
    """One closed-loop client against a QueryService until the deadline.

    *after_query*, if given, is called with the count of answered
    queries after each answer.
    """
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        box, session_id = stream.next()
        phase.attempt()
        if tracer is not None:
            tracer.set_request(f"0:{phase.attempted}")
        try:
            low = service.current_version
            t0 = time.perf_counter()
            ids = service.submit(
                box, session_id=session_id if session else None
            ).result()
            phase.latencies.append(time.perf_counter() - t0)
            high = service.current_version
        except Exception:
            phase.fail()
            continue
        phase.answers.append(Answer(box, ids, low, high))
        if after_query is not None:
            after_query(len(phase.latencies))
    end = time.perf_counter()
    phase.window_seconds = phase.serving_seconds = end - start
    phase.window_bounds = (start, end)
    phase.queries = len(phase.latencies)


def _apply(phase: Phase, service, live: LiveSet, batch,
           timed: bool = True, tracer=None) -> int | None:
    """One commit through ``apply_updates``; returns its version.

    An untimed commit is checked like any other but kept out of the
    commit metrics, and out of the trace, whose per-merge metrics divide
    by the timed merges.
    """
    inserts, deletes = batch
    phase.attempt()
    untraced = (tracer.paused() if tracer is not None and not timed
                else contextlib.nullcontext())
    try:
        with untraced:
            t0 = time.perf_counter()
            report = service.apply_updates(inserts, deletes)
            seconds = time.perf_counter() - t0
    except Exception:
        phase.fail()
        return None
    live.insert(report.inserted_ids, inserts, report.version)
    live.delete(deletes, report.version)
    if timed:
        phase.commits.append(
            Commit(seconds, report.merged, len(inserts) + len(deletes))
        )
    return report.version


def _service_kwargs(workload: Workload, threshold: int) -> dict:
    return dict(
        workers=workload.workers,
        mode=workload.mode,
        clear_cache_per_query=workload.cold,
        delta_threshold=threshold,
        prefetch=workload.box == "trajectory",
    )


# -- the workloads ------------------------------------------------------------------


def _read_only(workload: Workload, seed: int, seconds: float,
               workdir: Path, repeats: int, tracer) -> Phase:
    """``sn_cold`` / ``lss_delta64``: cold read window, then the write probe."""
    phase = Phase()
    setup_once, teardown = _service_setup(workload.codec)
    state, phase.setup_seconds, phase.setup_split = _timed_setups(
        workdir, repeats, setup_once, teardown
    )
    phase.dataset = _dataset_info(state, workload.codec)
    space = state["circuit"].space_mbr
    live = phase.live = LiveSet(state["mbrs"])
    phase.flat = state["flat"]
    if tracer is not None:
        tracer.install(layers.install_targets)
    kwargs = _service_kwargs(workload, PROBE_DELTA_THRESHOLD)
    stream = QueryStream(workload.box, space, seed, 0)
    try:
        with QueryService(state["index"], **kwargs) as service:
            # One warm-up query per worker: pool start-up is set-up work.
            warm = [QueryStream(workload.box, space, seed, 1000 + w).next()[0]
                    for w in range(workload.workers)]
            for box in warm:
                phase.answers.append(Answer(box, service.submit(box).result(), 0, 0))
            phase.harness_queries.extend(warm)
            _serve_window(phase, service, stream, seconds, False, tracer)
            phase.rss_mb = _rss_mb(os.getpid()) + _children_rss_mb()
            phase.worker_rss_mb = _children_rss_mb()
        # Closing the pool has folded every worker's counters in.
        stats = service.aggregate_stats()
        phase.reads_by_category = dict(sorted(stats.reads.items()))
        phase.demand_reads = stats.total_reads
        phase.harness_queries.extend(a.query for a in phase.answers[len(warm):])

        updates = UpdateStream(space, len(state["mbrs"]), seed)
        checks = QueryStream(workload.box, space, seed, 2000)
        with QueryService(state["index"], **kwargs) as service:
            for number in range(PROBE_WARMUP + PROBE_BATCHES):
                version = _apply(phase, service, live, updates.next(),
                                 timed=number >= PROBE_WARMUP, tracer=tracer)
                if version is None:
                    continue
                for _ in range(PROBE_CHECKS):
                    box = checks.next()[0]
                    phase.attempt()
                    try:
                        ids = service.submit(box).result()
                    except Exception:
                        phase.fail()
                        continue
                    phase.answers.append(Answer(box, ids, version, version))
            final = service.current_version
    finally:
        if tracer is not None:
            phase.trace = tracer.collect()
            tracer.uninstall()
        state["index"].store.close()
    phase.disk_bytes = _disk_bytes(*state["dirs"])
    phase.live_elements = live.live_count(final)
    return phase


def _session_churn(workload: Workload, seed: int, seconds: float,
                   workdir: Path, repeats: int, tracer) -> Phase:
    """Trajectory sessions with prefetch beside a paced insert+delete writer."""
    phase = Phase()
    setup_once, teardown = _service_setup(workload.codec)
    state, phase.setup_seconds, phase.setup_split = _timed_setups(
        workdir, repeats, setup_once, teardown
    )
    phase.dataset = _dataset_info(state, workload.codec)
    space = state["circuit"].space_mbr
    live = phase.live = LiveSet(state["mbrs"])
    if tracer is not None:
        tracer.install(layers.install_targets)
    stream = QueryStream(workload.box, space, seed, 0)
    updates = UpdateStream(space, len(state["mbrs"]), seed)
    kwargs = _service_kwargs(workload, CHURN_DELTA_THRESHOLD)
    try:
        with QueryService(state["index"], **kwargs) as service:
            for w in range(workload.workers):
                box = QueryStream("SN", space, seed, 1000 + w).next()[0]
                phase.answers.append(Answer(box, service.submit(box).result(), 0, 0))

            due: queue.SimpleQueue = queue.SimpleQueue()

            def writer() -> None:
                while (item := due.get()) is not None:
                    queued_at, batch = item
                    phase.lateness.append(time.perf_counter() - queued_at)
                    _apply(phase, service, live, batch)

            queued = 0

            def queue_batch() -> None:
                nonlocal queued
                queued += 1
                due.put((time.perf_counter(), updates.next()))

            def after_query(answered: int) -> None:
                if answered % CHURN_EVERY == 0 and queued < CHURN_BATCHES:
                    queue_batch()

            thread = threading.Thread(target=writer, name="writer")
            thread.start()
            try:
                _serve_window(phase, service, stream, seconds, True, tracer,
                              after_query)
                while queued < CHURN_BATCHES:
                    queue_batch()
            finally:
                due.put(None)
                thread.join()
            phase.rss_mb = _rss_mb(os.getpid()) + _children_rss_mb()
            phase.worker_rss_mb = _children_rss_mb()
            final = service.current_version
        stats = service.aggregate_stats()
        phase.reads_by_category = dict(sorted(stats.reads.items()))
        phase.demand_reads = stats.total_reads
    finally:
        if tracer is not None:
            phase.trace = tracer.collect()
            tracer.uninstall()
        state["index"].store.close()
    phase.disk_bytes = _disk_bytes(*state["dirs"])
    phase.live_elements = live.live_count(final)
    return phase


def _cluster_rolling(workload: Workload, seed: int, seconds: float,
                     workdir: Path, repeats: int, tracer) -> Phase:
    """Cold SN sessions through the router, with evenly spaced rolling updates."""
    phase = Phase()
    setup_once, teardown = _cluster_setup()
    if tracer is not None:
        # Shard servers start at launch, so they must inherit the wrappers.
        tracer.install(layers.install_targets)
    state = None
    try:
        state, phase.setup_seconds, phase.setup_split = _timed_setups(
            workdir, repeats, setup_once, teardown
        )
        phase.dataset = _dataset_info(state, workload.codec)
        router = state["router"]
        space = state["circuit"].space_mbr
        live = phase.live = LiveSet(state["mbrs"], state["shard_of"])
        stream = QueryStream(workload.box, space, seed, 0)
        checks = QueryStream(workload.box, space, seed, 2000)
        updates = UpdateStream(space, len(state["mbrs"]), seed)
        batches = [updates.next() for _ in range(ROLLS)]
        router.range_query(QueryStream("SN", space, seed, 1000).next()[0])
        server_rss_start = _children_rss_mb()
        rolls_done = 0

        def roll(batch) -> bool:
            """One rolling update; False if it failed."""
            nonlocal rolls_done
            number = rolls_done + 1
            inserts, deletes = batch
            done: list = []
            side = [0.0]

            def on_shard(pos, _generation):
                t0 = time.perf_counter()
                done.append(int(pos))
                for _ in range(MID_ROLL_QUERIES):
                    box = checks.next()[0]
                    phase.attempt()
                    try:
                        ids = router.range_query(box)
                    except Exception:
                        phase.fail()
                        continue
                    phase.answers.append(
                        Answer(box, ids, number, number, mixed=(number, tuple(done)))
                    )
                side[0] += time.perf_counter() - t0

            phase.attempt()
            try:
                t0 = time.perf_counter()
                report = router.apply_updates(
                    insert_mbrs=inserts, delete_ids=deletes,
                    on_shard_updated=on_shard,
                )
                elapsed = time.perf_counter() - t0 - side[0]
            except Exception:
                phase.fail()
                return False
            rolls_done = number
            live.insert(report.inserted_ids, inserts, number)
            live.delete(deletes, number)
            phase.commits.append(
                Commit(elapsed, True, len(inserts) + len(deletes))
            )
            return True

        start = time.perf_counter()
        deadline = start + seconds
        schedule = [start + (i + 1) * seconds / (ROLLS + 1) for i in range(ROLLS)]
        rolling = 0.0
        # A failed roll may have swapped some shards, which the live set
        # does not know: it ends the window and no further roll runs.
        halted = False
        while True:
            now = time.perf_counter()
            if rolls_done < ROLLS and now >= schedule[rolls_done]:
                phase.lateness.append(now - schedule[rolls_done])
                halted = not roll(batches[rolls_done])
                rolling += time.perf_counter() - now
                if halted:
                    break
                continue
            if now >= deadline:
                break
            box, session_id = stream.next()
            phase.attempt()
            if tracer is not None:
                tracer.set_request(f"0:{phase.attempted}")
            try:
                t0 = time.perf_counter()
                results, report = router.run(box[None, :], session_id=session_id)
                phase.latencies.append(time.perf_counter() - t0)
            except Exception:
                phase.fail()
                continue
            phase.demand_reads += report.total_page_reads
            phase.shard_requests += report.shard_requests
            for category, n in report.reads_by_category.items():
                phase.reads_by_category[category] = (
                    phase.reads_by_category.get(category, 0) + n
                )
            phase.answers.append(Answer(box, results[0], rolls_done, rolls_done))
        end = time.perf_counter()
        phase.window_seconds = end - start
        phase.window_bounds = (start, end)
        phase.serving_seconds = phase.window_seconds - rolling
        phase.queries = len(phase.latencies)
        # Rolls the window could not fit still run: the workload is fixed.
        while rolls_done < ROLLS and not halted:
            phase.lateness.append(time.perf_counter() - schedule[rolls_done])
            halted = not roll(batches[rolls_done])
        phase.server_rss_mb = _children_rss_mb()
        phase.server_rss_growth_mb = (
            (phase.server_rss_mb - server_rss_start) / max(rolls_done, 1)
        )
        phase.rss_mb = _rss_mb(os.getpid()) + phase.server_rss_mb
        final = rolls_done
    finally:
        if state is not None:
            state["router"].close()
        if tracer is not None:
            phase.trace = tracer.collect()
            tracer.uninstall()
    # Inserted elements' shards, for the mid-roll oracle, from the
    # committed root (deletes only ever name initial elements).
    restored = ShardedFLATIndex.restore(state["root"])
    try:
        for pos, shard in enumerate(restored.shards):
            ids = np.asarray(shard.element_ids, dtype=np.int64)
            ids = ids[ids < len(live.shard_of)]
            fresh = ids[live.shard_of[ids] < 0]
            live.shard_of[fresh] = pos
    finally:
        restored.close()
    phase.disk_bytes = _disk_bytes(*state["dirs"])
    phase.live_elements = live.live_count(final)
    return phase


RUNNERS = {
    "sn_cold": _read_only,
    "lss_delta64": _read_only,
    "session_churn": _session_churn,
    "cluster_rolling": _cluster_rolling,
}


# -- checks and metrics ---------------------------------------------------------------


def verify(workload: Workload, phase: Phase) -> list:
    """Run the correctness gate; returns the list of problems found."""
    problems = []
    wrong = wrong_answers(phase.live, phase.answers)
    if wrong:
        first = phase.answers[wrong[0]]
        problems.append(
            f"{len(wrong)} of {len(phase.answers)} answers differ from the "
            f"oracle (first: box {first.query.tolist()}, versions "
            f"{first.low}..{first.high}, {len(first.ids)} ids)"
        )
    if workload.cold and workload.mode != "cluster":
        want = harness_reads(phase.flat, np.asarray(phase.harness_queries))
        if want != phase.reads_by_category:
            problems.append(
                f"demand page reads {phase.reads_by_category} differ from the "
                f"run_queries harness {want}"
            )
    return problems


def end_to_end(phase: Phase) -> dict:
    latencies_ms = np.asarray(phase.latencies) * 1000.0
    commits = [c.seconds for c in phase.commits]
    merges = [c.seconds for c in phase.commits if c.merged]
    applied = sum(c.elements for c in phase.commits)
    p50, p95 = (np.percentile(latencies_ms, [50, 95]) if len(latencies_ms)
                else (0.0, 0.0))
    return {
        "setup_s": _median(phase.setup_seconds),
        "query_p50_ms": float(p50),
        "query_p95_ms": float(p95),
        "query_qps": (phase.queries / phase.serving_seconds
                      if phase.serving_seconds else 0.0),
        "page_reads_per_query": phase.demand_reads / max(phase.queries, 1),
        "commit_p50_ms": 1000.0 * _median(commits),
        "merge_p50_ms": 1000.0 * _median(merges),
        "ingest_eps": applied / sum(commits) if commits else 0.0,
        "disk_bytes_per_element": phase.disk_bytes / max(phase.live_elements, 1),
        "rss_mb": phase.rss_mb,
    }


def provenance(workload: Workload, seed: int, seconds: float,
               phase: Phase) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "dataset": dict(phase.dataset, side_um=VOLUME_SIDE,
                        setup_repeats=len(phase.setup_seconds)),
        "serving": {
            "mode": workload.mode,
            "workers": workload.workers,
            "clients": 1,
            "cache": "cold (cleared per query)" if workload.cold else "warm",
            "codec": workload.codec,
            "prefetch": workload.box == "trajectory" or workload.mode == "cluster",
        },
        "caches": {
            "buffer_pool": "unbounded per worker store view",
            "decoded_cache": "unbounded per worker store view",
            "prefetch_area_pages": PrefetchConfig().area_capacity,
        },
        "updates": {
            "batch_inserts": BATCH_INSERTS,
            "batch_deletes": BATCH_DELETES,
            "probe_batches": PROBE_BATCHES if workload.name in ("sn_cold", "lss_delta64") else 0,
            "probe_warmup_batches": PROBE_WARMUP if workload.name in ("sn_cold", "lss_delta64") else 0,
            "churn_batch_every_queries": CHURN_EVERY if workload.name == "session_churn" else 0,
            "churn_batches": CHURN_BATCHES if workload.name == "session_churn" else 0,
            "rolling_updates": ROLLS if workload.mode == "cluster" else 0,
        },
        "flush_policy": FLUSH_POLICY,
    }


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    problems: list
    info: dict


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path) -> Outcome:
    """Run one workload; with *trace*, an untraced and a traced phase."""
    workload = WORKLOADS[workload_name]
    runner = RUNNERS[workload_name]
    base = Path(root) / WORK_DIRNAME
    workdir = base / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    phases = []
    problems = []
    try:
        plan = [None]
        if trace:
            trace_dir = base / f"trace-{workload_name}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            plan = [None, Tracer(trace_dir)]
        for tracer in plan:
            t0 = time.perf_counter()
            phase = runner(workload, seed, seconds,
                           workdir / f"phase{len(phases)}",
                           1 if trace else SETUP_REPEATS, tracer)
            t1 = time.perf_counter()
            problems += verify(workload, phase)
            phase.stage_seconds = {"serve": t1 - t0,
                                   "verify": time.perf_counter() - t1}
            phases.append(phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = phases[0]
    e2e = end_to_end(untraced)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    info = {
        "provenance": provenance(workload, seed, seconds, untraced),
        "end_to_end": e2e,
        "queries": untraced.queries,
        "latency_samples": len(untraced.latencies),
        "answers_checked": sum(len(p.answers) for p in phases),
        "commits": len(untraced.commits),
        "merges": sum(1 for c in untraced.commits if c.merged),
        "writer_lateness_ms": {
            "max": 1000.0 * max(untraced.lateness, default=0.0),
            "mean": 1000.0 * (statistics.fmean(untraced.lateness)
                              if untraced.lateness else 0.0),
            "batches": len(untraced.lateness),
            "per_batch": [1000.0 * late for late in untraced.lateness],
        },
        "error_rate": failed / attempted if attempted else 0.0,
        "stage_seconds": [
            dict(p.stage_seconds, setup=sum(p.setup_seconds),
                 window=p.window_seconds) for p in phases
        ],
        "reads_by_category": untraced.reads_by_category,
    }
    if trace:
        traced = phases[1]
        traced_e2e = end_to_end(traced)
        latencies_ms = np.asarray(traced.latencies) * 1000.0
        phase_info = {
            "queries": traced.queries,
            "mean_latency_ms": float(latencies_ms.mean()) if len(latencies_ms) else 0.0,
            "merges": sum(1 for c in traced.commits if c.merged),
            "in_task": workload.mode == MODE_PROCESS,
            "window": traced.window_bounds,
            "cluster": workload.mode == "cluster",
            # Set-up is timed untraced.
            "build_s": untraced.setup_split["build_s"],
            "snapshot_s": untraced.setup_split["snapshot_s"],
            "restore_s": untraced.setup_split["restore_s"],
            "overhead_ms": traced_e2e["query_p50_ms"] - e2e["query_p50_ms"],
            "shards_per_query": (traced.shard_requests / traced.queries
                                 if workload.mode == "cluster" and traced.queries
                                 else 0.0),
            "server_rss_mb": traced.server_rss_mb,
            "server_rss_growth_mb": traced.server_rss_growth_mb,
            "worker_rss_mb": (traced.worker_rss_mb
                              if workload.mode == MODE_PROCESS else 0.0),
        }
        values = layers.layer_metrics(traced.trace, phase_info)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in layers.PER_LAYER}
        info["traced_end_to_end"] = traced_e2e
        info["trace_processes"] = traced.trace["processes"]
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END}
    return Outcome(not problems, attempted, failed, metrics, problems, info)
