"""The correctness gate: brute-force answers over a versioned live set.

:class:`LiveSet` mirrors every element the benchmark ever fed the
program — its MBR, the version it became visible in and the version
it was deleted in — so the exact answer of any box at any committed
version is one vectorized :func:`boxes_intersect_box` scan (over the
elements whose low x edge can reach the box).  Served
answers are recorded during the timed window and checked afterwards,
in a small forked pool, so checking never competes with the
measurement.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.geometry.intersect import boxes_intersect_box
from repro.query import run_queries

#: Version stamp of "never" (not yet inserted / never deleted).
NEVER = np.iinfo(np.int64).max

#: Processes the post-run checks fan out to (the measured box has 2 cores).
CHECK_PROCESSES = 2


class CorrectnessError(AssertionError):
    """A served answer differs from the oracle, or page reads drifted."""


@dataclass
class Answer:
    """One served answer and the versions it may legally reflect.

    ``low``..``high`` bracket the committed version the answer was
    served from (equal when no commit raced the request).  ``mixed``
    names a mid-roll state instead: ``(roll, shards already rolled)``.
    """

    query: np.ndarray
    ids: np.ndarray
    low: int
    high: int
    mixed: tuple | None = None


class LiveSet:
    """Every element's MBR with its birth and death version."""

    def __init__(self, mbrs: np.ndarray, shard_of: np.ndarray | None = None):
        n = len(mbrs)
        self.mbrs = np.array(mbrs, dtype=np.float64)
        self.born = np.zeros(n, dtype=np.int64)
        self.died = np.full(n, NEVER, dtype=np.int64)
        self.shard_of = (
            np.full(n, -1, dtype=np.int64) if shard_of is None
            else np.asarray(shard_of, dtype=np.int64).copy()
        )
        self._order = None

    def prepare(self) -> None:
        """Index the elements by their low x edge (after the last update).

        Only an element whose low x edge lies in ``[query low x - widest
        x extent, query high x]`` can intersect the query, so each check
        scans that slice — a superset of the answer — brute force.
        """
        self._order = np.argsort(self.mbrs[:, 0], kind="stable")
        self._low_x = self.mbrs[self._order, 0]
        self._width = float(np.max(self.mbrs[:, 3] - self.mbrs[:, 0], initial=0.0))

    def _intersecting(self, query) -> np.ndarray:
        """Sorted ids of every element (any version) meeting *query*."""
        if self._order is None:
            self.prepare()
        first, last = np.searchsorted(
            self._low_x, [query[0] - self._width, query[3]], side="right"
        )
        candidates = self._order[first:last]
        hits = boxes_intersect_box(self.mbrs[candidates], query)
        return np.sort(candidates[hits])

    def _grow(self, size: int) -> None:
        extra = size - len(self.born)
        if extra <= 0:
            return
        self.mbrs = np.concatenate([self.mbrs, np.zeros((extra, 6))])
        self.born = np.concatenate([self.born, np.full(extra, NEVER, np.int64)])
        self.died = np.concatenate([self.died, np.full(extra, NEVER, np.int64)])
        self.shard_of = np.concatenate([self.shard_of, np.full(extra, -1, np.int64)])

    def insert(self, ids, mbrs, version: int) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if not len(ids):
            return
        self._grow(int(ids.max()) + 1)
        if np.any(self.born[ids] != NEVER):
            raise CorrectnessError(f"insert reused live element ids {ids[:5]}")
        self.mbrs[ids] = mbrs
        self.born[ids] = version
        self._order = None

    def delete(self, ids, version: int) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        self.died[ids] = version

    def live_count(self, version: int) -> int:
        return int(np.count_nonzero((self.born <= version) & (self.died > version)))

    def visible(self, version: int) -> np.ndarray:
        return (self.born <= version) & (self.died > version)

    def expected(self, query, version: int) -> np.ndarray:
        ids = self._intersecting(query)
        born, died = self.born[ids], self.died[ids]
        return ids[(born <= version) & (died > version)]

    def expected_mid_roll(self, query, roll: int, done) -> np.ndarray:
        """Answer while rolling update *roll* has reached only *done* shards."""
        ids = self._intersecting(query)
        born, died = self.born[ids], self.died[ids]
        rolled = np.isin(self.shard_of[ids], np.asarray(list(done), dtype=np.int64))
        visible = (born <= roll - 1) & (died > roll - 1)
        visible &= ~((died == roll) & rolled)
        visible |= (born == roll) & rolled
        return ids[visible]

    def matches(self, answer: Answer) -> bool:
        if answer.mixed is not None:
            roll, done = answer.mixed
            want = self.expected_mid_roll(answer.query, roll, done)
            return np.array_equal(answer.ids, want)
        return any(
            np.array_equal(answer.ids, self.expected(answer.query, version))
            for version in range(answer.low, answer.high + 1)
        )


# -- pool fan-out -----------------------------------------------------------

#: The job a check process works on, set by the pool initializer.
_JOB: tuple | None = None


def _set_job(job) -> None:
    global _JOB
    _JOB = job


def _check_slice(bounds) -> list:
    live, answers = _JOB
    first, last = bounds
    return [i for i in range(first, last) if not live.matches(answers[i])]


def _harness_slice(bounds) -> dict:
    flat, queries = _JOB
    first, last = bounds
    return run_queries(flat, flat.store, queries[first:last]).reads_by_category


def _fan_out(job, fn, count: int) -> list:
    """Map *fn* over slices of ``range(count)`` in forked processes.

    Fork, not spawn: a spawn pool's locks start multiprocessing's
    resource-tracker process, which outlives the pool and the run.
    """
    if count == 0:
        return []
    step = -(-count // (4 * CHECK_PROCESSES))
    slices = [(i, min(i + step, count)) for i in range(0, count, step)]
    pool = multiprocessing.get_context("fork").Pool(
        CHECK_PROCESSES, initializer=_set_job, initargs=(job,)
    )
    try:
        parts = pool.map(fn, slices)
    except BaseException:
        pool.terminate()
        pool.join()
        raise
    pool.close()
    pool.join()
    return parts


def wrong_answers(live: LiveSet, answers: list) -> list:
    """Indices of *answers* that match no legal oracle answer."""
    live.prepare()
    parts = _fan_out((live, answers), _check_slice, len(answers))
    return sorted(i for part in parts for i in part)


def harness_reads(flat, queries: np.ndarray) -> dict:
    """Cold page reads by category of the ``run_queries`` harness.

    Cold reads of one query do not depend on which queries ran before
    it, so the harness may run on slices in parallel and sum.
    """
    totals: dict = {}
    for part in _fan_out((flat, queries), _harness_slice, len(queries)):
        for category, n in part.items():
            totals[category] = totals.get(category, 0) + n
    return dict(sorted(totals.items()))
