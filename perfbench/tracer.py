"""In-memory span tracer for the benchmark's traced run.

:meth:`Tracer.install` replaces named library functions — module
functions and class methods — with thin wrappers, from the benchmark's
own code; the library itself carries no tracing hooks.  Two kinds of
wrapper exist:

* **span** wrappers time every call and keep one span per call
  ``(span id, name, start, end, parent span id, request id)`` in a
  per-thread buffer, plus running per-``(root, name)`` aggregates of
  call count, inclusive time and *self* time (inclusive minus the time
  of wrapped callees in the same thread).  The *root* is the outermost
  wrapped call on the thread's stack, which is how a decode inside a
  query crawl is told apart from the same decode inside a commit;
* **counter** wrappers only bump per-``(root, name)`` counters through
  a hook (page reads by category, decoded-cache hits, staged pages...),
  and only while a span is open on the thread.

Worker processes and shard servers are forked after installation, so
they inherit the wrappers.  Each process keeps its own buffers; a
forked child starts empty (an at-fork hook drops the parent's buffers)
and writes ``trace-<pid>.pkl`` into the trace directory from its
``os._exit`` path — the exit every forked ``multiprocessing`` child
takes, including the shard server's shutdown.  :meth:`collect` writes
the calling process's own file and merges every file of the run.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import threading
import time
from pathlib import Path


class _Frame:
    __slots__ = ("span_id", "name", "child")

    def __init__(self, span_id: int, name: str):
        self.span_id = span_id
        self.name = name
        self.child = 0.0


class _ThreadBuffer:
    """One thread's open-span stack, finished spans and aggregates."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.stack: list = []
        self.spans: list = []
        self.next_id = 0
        self.request_id = None
        #: Set while the thread's calls go untraced (:meth:`Tracer.paused`).
        self.paused = False
        #: (root, name) -> [calls, inclusive seconds, self seconds]
        self.agg: dict = {}
        #: (root, name) -> count
        self.counters: dict = {}


class Tracer:
    """Span recorder over monkeypatched library functions."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.active = False
        self._patches: list = []
        self._buffers: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._real_exit = None
        os.register_at_fork(after_in_child=self._after_fork_child)

    # -- buffers ----------------------------------------------------------

    def _after_fork_child(self) -> None:
        # Fresh locals: the forking thread's buffer belongs to the parent.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            if not self.active:
                return None
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def set_request(self, request_id) -> None:
        """Tag this thread's next spans with *request_id* (None clears)."""
        buf = self._buffer()
        if buf is not None:
            buf.request_id = request_id

    @contextlib.contextmanager
    def paused(self):
        """Leave this thread's wrapped calls untraced inside the block."""
        buf = self._buffer()
        if buf is None:
            yield
            return
        buf.paused = True
        try:
            yield
        finally:
            buf.paused = False

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str, hook=None):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            if buf is None or buf.paused:
                return fn(*args, **kwargs)
            stack = buf.stack
            parent = stack[-1] if stack else None
            root = stack[0].name if stack else name
            frame = _Frame(buf.next_id, name)
            buf.next_id += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent.child += elapsed
                key = (root, name)
                agg = buf.agg.get(key)
                if agg is None:
                    agg = buf.agg[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame.child
                buf.spans.append((
                    frame.span_id, name, start, end,
                    None if parent is None else parent.span_id,
                    buf.request_id,
                ))
            if hook is not None:
                hook(buf.counters, root, args, kwargs, None, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter_wrapper(self, fn, hook, pre):
        tracer = self

        def counted(*args, **kwargs):
            before = None if pre is None else pre(*args, **kwargs)
            result = fn(*args, **kwargs)
            buf = tracer._buffer()
            if buf is not None and buf.stack and not buf.paused:
                hook(buf.counters, buf.stack[0].name, args, kwargs, before, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, wrapper_for) -> None:
        """Replace ``owner.attr`` (and every module alias of a function)."""
        original = owner.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(wrapper_for(original.__func__))
        else:
            wrapped = wrapper_for(original)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))
        if isinstance(owner, type):
            return
        # Module-level functions are often imported by name into other
        # modules; those aliases are patched as well.
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapped)
                    self._patches.append((module, alias, original))

    def span(self, owner, attr: str, name: str, hook=None) -> None:
        """Time every call of ``owner.attr`` as span *name*."""
        self._patch(owner, attr, lambda fn: self._span_wrapper(fn, name, hook))

    def count(self, owner, attr: str, hook, pre=None) -> None:
        """Run *hook* after every call of ``owner.attr`` inside a span.

        The hook gets ``(counters, root, args, kwargs, before, result)``,
        where
        *before* is what *pre* returned when called with the same
        arguments ahead of the call (``None`` without *pre*).
        """
        self._patch(owner, attr, lambda fn: self._counter_wrapper(fn, hook, pre))

    # -- lifecycle --------------------------------------------------------

    def install(self, targets) -> None:
        """Apply *targets* (a callable taking this tracer) and start."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        targets(self)
        self._real_exit = os._exit
        tracer = self

        def exit_with_dump(code):
            if tracer.active and tracer._buffers:
                try:
                    tracer.dump()
                except Exception:
                    pass
            tracer._real_exit(code)

        os._exit = exit_with_dump
        self.active = True

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._real_exit is not None:
            os._exit = self._real_exit
            self._real_exit = None

    def snapshot(self) -> dict:
        """This process's merged aggregates, counters and spans."""
        with self._lock:
            buffers = list(self._buffers)
        agg: dict = {}
        counters: dict = {}
        spans: list = []
        for buf in buffers:
            for key, (calls, incl, own) in list(buf.agg.items()):
                total = agg.setdefault(key, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += incl
                total[2] += own
            for key, value in list(buf.counters.items()):
                counters[key] = counters.get(key, 0) + value
            spans.extend((buf.thread,) + span for span in list(buf.spans))
        return {"pid": os.getpid(), "agg": agg, "counters": counters,
                "spans": spans}

    def dump(self) -> Path:
        """Write this process's snapshot to ``trace-<pid>.pkl``."""
        path = self.out_dir / f"trace-{os.getpid()}.pkl"
        scratch = path.with_suffix(".tmp")
        with open(scratch, "wb") as handle:
            pickle.dump(self.snapshot(), handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, path)
        return path

    def collect(self) -> dict:
        """Dump this process, then merge every process file of the run.

        Returns ``{"agg", "counters", "spans", "processes", "roots",
        "pid"}``: ``spans`` is the total span count (the spans themselves
        stay on disk) and ``roots`` lists every root span as ``(pid,
        name, start, end)`` — ``perf_counter`` is the system-wide
        monotonic clock, so spans of different processes line up.
        """
        self.dump()
        agg: dict = {}
        counters: dict = {}
        roots: list = []
        spans = 0
        processes = 0
        for path in sorted(self.out_dir.glob("trace-*.pkl")):
            with open(path, "rb") as handle:
                part = pickle.load(handle)
            processes += 1
            spans += len(part["spans"])
            roots.extend(
                (part["pid"], name, start, end)
                for _thread, _id, name, start, end, parent, _rid in part["spans"]
                if parent is None
            )
            for key, (calls, incl, own) in part["agg"].items():
                total = agg.setdefault(key, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += incl
                total[2] += own
            for key, value in part["counters"].items():
                counters[key] = counters.get(key, 0) + value
        return {"agg": agg, "counters": counters, "spans": spans,
                "processes": processes, "roots": roots, "pid": os.getpid()}
