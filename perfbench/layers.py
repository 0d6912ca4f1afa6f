"""Traced mode: spans around the program's public functions, kept in memory.

:func:`install` replaces each traced function (a module attribute or a
class method) with a wrapper that records one span — name, start, end,
parent span, job id, process, thread — and a few counts at the same
boundary.  Nothing under ``src/`` changes; the wrappers live only in the
traced process and in pool workers forked from it.  Pool workers append
their spans to one file per worker after every job (they have no
run-end hook), and the parent reads those files back when the run ends.

A span's *self time* is its duration minus the time its child spans
cover.  Per thread, the self times of all spans plus the residue (time
inside no span) add up to the thread's wall.
"""

from __future__ import annotations

import builtins
import functools
import gc
import hashlib
import json
import os
import pickle
import threading
import time
from collections import Counter, defaultdict

MATCHERS = ("derandomized_partial_match", "randomized_partial_match",
            "greedy_match", "greedy_mincost_match")
BASELINES = ("greed_sort", "randomized_distribution_sort", "striped_merge_sort")


class Recorder:
    """In-memory span store of one process (reset in forked children)."""

    def __init__(self):
        self.pid = os.getpid()
        self.owner_pid = self.pid
        self.spans: list[list] = []   # [name, start, end, parent_rec, job, tid]
        self.counts: Counter = Counter()
        self.spill_dir: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def reset_in_child(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    # ---------------------------------------------------------- per thread

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job(self) -> str | None:
        return getattr(self._local, "job", None)

    @job.setter
    def job(self, value: str | None) -> None:
        self._local.job = value

    def open(self, name: str, job: str | None = None) -> list:
        stack = self._stack()
        rec = [name, time.perf_counter(), None, stack[-1] if stack else None,
               job or self.job, threading.get_ident()]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()

    # --------------------------------------------------------- worker spill

    def spill(self) -> None:
        """Append this worker's spans and counts to its file, then clear."""
        if self.spill_dir is None:
            return
        path = os.path.join(self.spill_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": export_spans(self.spans, self.pid),
                                 "counts": dict(self.counts)}) + "\n")
        self.spans = [s for s in self.spans if s[2] is None]
        self.counts = Counter()


REC = Recorder()
os.register_at_fork(after_in_child=REC.reset_in_child)
_PATCHES: list[tuple[object, str, object]] = []
_MISSING = object()
_GC_OPEN: dict[int, list] = {}


def export_spans(spans: list[list], pid: int) -> list[dict]:
    """Spans as plain dicts; ``parent`` is an index into the same list."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    return [
        {"name": name, "start": start, "end": end,
         "parent": index.get(id(parent)) if parent is not None else None,
         "job": job, "pid": pid, "tid": tid}
        for name, start, end, parent, job, tid in spans
    ]


def _wrap(orig, name: str, after=None, job_from=None):
    """``orig`` inside a span named ``name``; ``after`` sees the call."""

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        rec = REC.open(name, job_from(args) if job_from else None)
        try:
            out = orig(*args, **kwargs)
        finally:
            REC.close(rec)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _patch(owner, attr: str, name: str, after=None, job_from=None) -> None:
    """Replace ``owner.attr`` (module function or plain method) by its wrap."""
    orig = vars(owner)[attr]
    _replace(owner, attr, _wrap(orig, name, after, job_from))


def _replace(owner, attr: str, new) -> None:
    """Set ``owner.attr`` to ``new``, remembering what was there (if anything)."""
    _PATCHES.append((owner, attr, vars(owner).get(attr, _MISSING)))
    setattr(owner, attr, new)


def _count(key: str):
    def after(_args, _kwargs, _out):
        REC.add(key)
    return after


def _gc_callback(phase: str, info: dict) -> None:
    tid = threading.get_ident()
    if phase == "start":
        _GC_OPEN[tid] = REC.open("python.gc")
    else:
        rec = _GC_OPEN.pop(tid, None)
        if rec is not None:
            REC.close(rec)


def install(spill_dir: str) -> None:
    """Wrap every traced function; ``spill_dir`` receives worker spans."""
    import repro.baselines as baselines
    import repro.core.balance as balance
    import repro.core.sort_hierarchy as sort_hierarchy
    import repro.core.sort_pdm as sort_pdm
    import repro.exec as exec_pkg
    import repro.exec.cache as cache
    import repro.exec.runner as runner
    import repro.exec.tasks as tasks
    import repro.obs as obs
    import repro.workloads as workloads
    from repro.obs.audit import TheoryAuditor
    from repro.obs.tracer import Tracer
    from repro.pdm.store import ArenaBlockStore, DictBlockStore
    from repro.resilience.journal import SweepJournal

    REC.spill_dir = spill_dir
    os.makedirs(spill_dir, exist_ok=True)

    _patch(workloads, "by_name", "workloads.by_name")
    _patch(sort_pdm, "balance_sort_pdm", "core.balance_sort_pdm")
    _patch(sort_hierarchy, "balance_sort_hierarchy", "core.balance_sort_hierarchy")
    for fn in MATCHERS:
        _patch(balance, fn, f"core.match.{fn}", after=_count("core.match_calls"))
    for store in (ArenaBlockStore, DictBlockStore):
        for method in ("read_batch", "write_batch"):
            _patch(store, method, f"pdm.store.{method}", after=_store_counts)
        _patch(store, "free_batch", "pdm.store.free_batch",
               after=_count("pdm.store_calls"))
    for fn in BASELINES:
        _patch(baselines, fn, f"baselines.{fn}")
    _patch(TheoryAuditor, "finish_pdm", "obs.audit.finish_pdm")
    _patch(TheoryAuditor, "finish_hierarchy", "obs.audit.finish_hierarchy")
    _patch(Tracer, "payload_events", "obs.payload_events")

    # run_task is bound by name in the runner; wrap once, rebind everywhere.
    _patch(tasks, "run_task", "exec.run_task")
    _replace(runner, "run_task", tasks.run_task)
    _replace(exec_pkg, "run_task", tasks.run_task)
    orig_get_task = tasks.get_task
    wrapped_tasks: dict[str, object] = {}

    def get_task(name):
        fn = wrapped_tasks.get(name)
        if fn is None:
            fn = wrapped_tasks[name] = _wrap(orig_get_task(name), f"exec.task.{name}")
        return fn

    _replace(tasks, "get_task", get_task)

    # payload_digest is bound by name in cache.py; its sha256 input size is
    # counted through a stand-in for the module's hashlib reference.
    _patch(cache, "payload_digest", "exec.digest")
    _replace(exec_pkg, "payload_digest", cache.payload_digest)

    class _CountingHashlib:
        @staticmethod
        def sha256(data=b""):
            REC.add("exec.digest_bytes", len(data))
            return hashlib.sha256(data)

    _replace(cache, "hashlib", _CountingHashlib)
    _patch(cache.ResultCache, "put", "exec.cache_put", after=_put_bytes,
           job_from=lambda a: a[1][:16])
    _patch(cache.ResultCache, "get", "exec.cache_get",
           job_from=lambda a: a[1][:16])

    # Entries read from disk (not from the cache's memory) are counted
    # through a stand-in for the module's ``open`` (put writes via fdopen).
    def counting_open(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        REC.add("exec.cache_get_bytes", os.fstat(fh.fileno()).st_size)
        return fh

    _replace(cache, "open", counting_open)
    _patch(exec_pkg, "merge_metrics", "exec.merge.merge_metrics")
    _patch(exec_pkg, "merge_trace_events", "exec.merge.merge_trace_events")
    _patch(obs, "summarize_trace", "exec.merge.summarize_trace")
    _patch(SweepJournal, "record", "resilience.journal.record",
           after=_count("resilience.journal_writes"))
    _patch(SweepJournal, "job", "resilience.journal.job",
           after=_count("resilience.journal_writes"))

    # The cell boundary: job id, plan stats, and (in pool workers) the
    # computed IPC size plus the per-job span spill.
    orig_execute = runner._execute

    @functools.wraps(orig_execute)
    def execute(task, params, plan=None, cell="", *rest, **kw):
        REC.job = cell[:16] or None
        rec = REC.open("exec.execute")
        try:
            payload = orig_execute(task, params, plan, cell, *rest, **kw)
        finally:
            REC.close(rec)
            REC.job = None
        stats = payload.get("_plan_stats") if isinstance(payload, dict) else None
        if stats:
            REC.add("pdm.plan_flushes", stats.get("write_flushes", 0))
            REC.add("pdm.deferred_write_rounds",
                    stats.get("deferred_write_rounds", 0))
        if REC.pid != REC.owner_pid:
            REC.add("exec.ipc_bytes",
                    len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)))
            REC.add("exec.worker_jobs")
            REC.spill()
        return payload

    _replace(runner, "_execute", execute)

    gc.callbacks.append(_gc_callback)


def uninstall() -> None:
    """Put every wrapped function back; stop timing GC."""
    while _PATCHES:
        owner, attr, orig = _PATCHES.pop()
        if orig is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, orig)
    if _gc_callback in gc.callbacks:
        gc.callbacks.remove(_gc_callback)


def _store_counts(args, _kwargs, _out) -> None:
    REC.add("pdm.store_calls")
    REC.add("pdm.blocks_moved", len(args[1]))


def _put_bytes(args, _kwargs, _out) -> None:
    cache, key = args[0], args[1]
    if cache.directory:
        path = os.path.join(cache.directory, f"{key}.json")
        REC.add("exec.cache_put_bytes", os.path.getsize(path))


# --------------------------------------------------------------- analysis


def gather(spill_dir: str, t0: float, t1: float) -> tuple[list[dict], Counter]:
    """This process's spans plus every worker's spilled spans and counts,
    keeping the spans that lie inside the traced window ``[t0, t1]``."""
    spans = export_spans(REC.spans, REC.pid)
    counts = Counter(REC.counts)
    if os.path.isdir(spill_dir):
        for name in sorted(os.listdir(spill_dir)):
            with open(os.path.join(spill_dir, name)) as fh:
                for line in fh:
                    doc = json.loads(line)
                    base = len(spans)
                    for s in doc["spans"]:
                        if s["parent"] is not None:
                            s["parent"] += base
                        spans.append(s)
                    counts.update(doc["counts"])
    return window(spans, t0, t1), counts


def timed_thread() -> list[int]:
    """``[pid, thread id]`` of the calling thread (the one the run timed)."""
    return [os.getpid(), threading.get_ident()]


def window(spans: list[dict], t0: float, t1: float) -> list[dict]:
    """The spans inside ``[t0, t1]``, parents re-indexed (None if dropped)."""
    keep = [i for i, s in enumerate(spans)
            if s["end"] is not None and t0 <= s["start"] and s["end"] <= t1]
    new = {old: i for i, old in enumerate(keep)}
    out = []
    for old in keep:
        s = dict(spans[old])
        s["parent"] = new.get(s["parent"]) if s["parent"] is not None else None
        out.append(s)
    return out


def self_times(spans: list[dict]) -> list[float]:
    """Per-span self time: duration minus the time its children cover."""
    own = [(s["end"] or s["start"]) - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_rows(spans: list[dict], own: list[float], select) -> dict:
    """``name -> [calls, self_s, incl_s]`` over the spans ``select`` keeps."""
    rows: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for s, self_s in zip(spans, own):
        if select(s):
            row = rows[s["name"]]
            row[0] += 1
            row[1] += self_s
            row[2] += (s["end"] or s["start"]) - s["start"]
    return dict(rows)


def inclusive(spans: list[dict], prefix: str) -> float:
    """Total duration of the spans named ``prefix``… (none nest in another)."""
    return sum((s["end"] or s["start"]) - s["start"]
               for s in spans if s["name"].startswith(prefix))


def write_spans(spans: list[dict], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")
