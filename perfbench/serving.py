"""The serve-closed workload: one closed-loop client against ``repro serve``.

The benchmark process is the load generator.  It holds at most
``outstanding`` jobs (``nproc``, capped) over one connection: each job is
a ``submit`` (no wait) followed, oldest first, by a ``wait`` for the full
payload — the requests ``repro submit`` makes.  Latency runs from sending
the submit to receiving the terminal reply.  The connection answers in
order, so a job that finishes early waits for the reply to the job ahead
of it, as it would for any single-connection client.

Untraced runs launch ``python -m repro serve --jobs <outstanding>
--journal DIR`` as its own process; the server's and its pool workers'
CPU time and peak resident set are read from ``/proc``.  Traced runs
host the same service in the benchmark process (``SortService`` on a
``ServiceThread``), so the load generator, the service and its driver
are traced here and the pool workers, forked from this process, spill
their spans to files.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from collections import deque

import common
import grids

TICK = os.sysconf("SC_CLK_TCK")


def outstanding() -> int:
    return max(1, min(common.cores(), grids.MAX_OUTSTANDING))


# ------------------------------------------------------------ the server


def launch(workdir: str) -> tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``; returns (process, port, seconds until ready)."""
    from repro.serve import ServeClient

    os.makedirs(workdir, exist_ok=True)
    port_file = os.path.join(workdir, "port")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", port_file, "--jobs", str(outstanding()),
         "--journal", os.path.join(workdir, "journal")],
        env=common.hermetic_environ(), cwd=common.ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = t0 + 120
    port = None
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"repro serve exited with {proc.returncode}")
        if port is None:
            try:
                with open(port_file) as fh:
                    text = fh.read().strip()
                port = int(text) if text else None
            except (OSError, ValueError):
                port = None
        if port is not None:
            try:
                with ServeClient(port=port, timeout=10) as client:
                    if client.readyz().get("ready"):
                        return proc, port, time.perf_counter() - t0
            except OSError:
                pass
        time.sleep(0.002)
    stop(proc)
    raise RuntimeError("repro serve did not become ready within 120 s")


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain) and wait; SIGKILL if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class _InProcessService:
    """The service of ``repro serve --jobs <outstanding> --journal DIR``, hosted on a
    thread of this process (traced runs): built as ``cmd_serve`` builds it,
    stopped with the same graceful drain SIGTERM requests."""

    def __init__(self, workdir: str):
        from repro.exec import JobRunner
        from repro.obs import Observation
        from repro.resilience import SweepJournal
        from repro.serve import FairShareScheduler, SortService, serve_in_thread

        os.makedirs(workdir, exist_ok=True)
        journal = SweepJournal(os.path.join(workdir, "journal"))
        self.runner = JobRunner(jobs=outstanding(), cache_dir=journal.cells_dir,
                                obs=Observation(), journal=journal,
                                scheduler=FairShareScheduler())
        self.thread = serve_in_thread(SortService(self.runner, port=0, journal=journal))
        self.port = self.thread.port

    def close(self) -> None:
        self.thread.drain()
        self.thread.join(timeout=60)
        self.runner.close()


def _proc_tree(pid: int) -> list[int]:
    """``pid`` and its live descendants (read from /proc)."""
    parents: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(name))
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        todo.extend(parents.get(p, ()))
    return tree


def tree_cpu(pid: int) -> float:
    """CPU seconds of ``pid``, its live descendants and its reaped children."""
    total = 0
    for p in _proc_tree(pid):
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])          # utime, stime
        if p == pid:
            total += int(fields[13]) + int(fields[14])      # cutime, cstime
    return total / TICK


def tree_peak_rss_mb(pid: int) -> float:
    """Largest peak resident set (VmHWM) over ``pid`` and its descendants."""
    peak = 0
    for p in _proc_tree(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


# ------------------------------------------------------- the load generator


def drive(port: int, stream: list[tuple[str, dict]], depth: int, trace: bool) -> list[dict]:
    """Run one stream closed-loop; one record per job, in stream order."""
    from repro.exec import RunSpec
    from repro.serve import ServeClient

    import layers

    jobs: list[dict] = [{} for _ in stream]
    pending: deque = deque()
    nxt = 0
    with ServeClient(port=port, tenant="perfbench", timeout=300) as client:
        while nxt < len(stream) or pending:
            while nxt < len(stream) and len(pending) < depth:
                task, params = stream[nxt]
                span = layers.REC.open(
                    "serve.admit", RunSpec(task, params).fingerprint()[:16]
                ) if trace else None
                t0 = time.perf_counter()
                resp = client.submit(task, params, include="status")
                t1 = time.perf_counter()
                job = jobs[nxt]
                job.update(task=task, params=params, admit_s=t1 - t0)
                if resp.get("ok"):
                    job.update(id=resp["job"]["id"],
                               disposition=resp["job"].get("disposition"))
                    pending.append((nxt, t0))
                else:
                    job["error"] = resp.get("reason", "rejected")
                if span is not None:
                    layers.REC.close(span)
                nxt += 1
            if not pending:
                continue
            idx, t0 = pending.popleft()
            job = jobs[idx]
            span = layers.REC.open("serve.wait", job["id"][:16]) if trace else None
            w0 = time.perf_counter()
            resp = client.wait(job["id"], timeout=300, include="payload")
            w1 = time.perf_counter()
            if span is not None:
                layers.REC.close(span)
            job.update(wait_s=w1 - w0, latency_s=w1 - t0)
            record = resp.get("job") or {}
            if record.get("status") == "done":
                job["payload"] = record.get("payload")
            else:
                job["error"] = record.get("error") or resp.get("reason") or record.get("status")
    return jobs


# ------------------------------------------------------------- the workload


class Rounds:
    """Wall time of each timed round (a fixed number per run)."""

    def __init__(self, count: int):
        self.count = count
        self.walls: list[float] = []
        self.windows: list[tuple[float, float]] = []

    def more(self) -> bool:
        return len(self.walls) < self.count

    def timed(self, fn):
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.walls.append(t1 - t0)
        self.windows.append((t0, t1))
        return out

    def traced(self, fn, process, spill_dir: str) -> dict:
        """An untraced, a traced and an untraced round, each handed to
        ``process``; returns the traced round's spans, counts and wall and
        the mean untraced wall (their difference is the tracing overhead)."""
        import layers

        process(self.timed(fn))
        layers.install(spill_dir)
        try:
            process(self.timed(fn))
        finally:
            layers.uninstall()
        process(self.timed(fn))
        spans, counts = layers.gather(spill_dir, *self.windows[1])
        return {"spans": spans, "counts": counts, "wall": self.walls[1],
                "timed": layers.timed_thread(),
                "untraced_wall": (self.walls[0] + self.walls[2]) / 2}


def run(seed: int, n_rounds: int, trace: bool, rundir: str, probe) -> dict:
    """Run serve-closed; returns measurements, op counts and problems.

    Every round serves the same stream from a fresh service (fresh cache
    and journal), so rounds repeat the same operations.  ``probe()`` (the
    ``setup_s`` launches) runs before each round and once after the last.
    """
    depth = outstanding()
    stream = grids.serve_stream(seed)
    rounds = Rounds(n_rounds)
    per_round: list[list[dict]] = []
    cpus: list[float] = []
    peaks: list[float] = []
    payload_stats = parallel_ios = None

    def process(jobs):
        nonlocal payload_stats, parallel_ios
        if payload_stats is None:
            payload_stats = common.payload_stats(
                j["payload"] for j in jobs if j.get("payload"))
            parallel_ios = sum(
                j["payload"]["result"]["parallel_ios"] for j in jobs
                if j.get("payload") and j.get("disposition") == "new"
                and j["task"] != "hierarchy_sort")
        for job in jobs:
            payload = job.pop("payload", None)
            if payload is not None:
                job["sha"] = common.canonical_sha(payload)
                job["result"] = payload.get("result")
        per_round.append(jobs)

    service_dir = lambda i: os.path.join(rundir, f"service-{i}")  # noqa: E731
    traced = None
    if trace:
        def hosted_round():
            i = len(rounds.walls)
            host = _InProcessService(service_dir(i))
            try:
                return drive(host.port, stream, depth, trace=i == 1)
            finally:
                host.close()

        traced = rounds.traced(hosted_round, process, os.path.join(rundir, "spill"))
        traced.update(_client_stats(per_round[1]))
        peaks.append(common.self_rss_mb())
    else:
        while rounds.more():
            probe()
            proc, port, _ready = launch(service_dir(len(rounds.walls)))
            try:
                c0 = tree_cpu(proc.pid)
                process(rounds.timed(lambda: drive(port, stream, depth, False)))
                cpus.append(tree_cpu(proc.pid) - c0)
                peaks.append(tree_peak_rss_mb(proc.pid))
            finally:
                stop(proc)
        probe()
    store_bytes = common.tree_bytes(os.path.join(service_dir(0), "journal"))
    done = [job for jobs in per_round for job in jobs]
    failed, problems = _check(done, depth, rundir)
    new = [j for j in per_round[0] if j.get("disposition") == "new"]
    return {
        "walls": rounds.walls,
        "cpus": cpus,
        "records_per_round": sum(int(p["n"]) for _t, p in stream),
        "peak_rss_mb": max(peaks),
        "store_bytes": store_bytes,
        "stored_records": sum(int(j["params"]["n"]) for j in new),
        "parallel_ios": parallel_ios,
        "latencies": [j["latency_s"] for j in done if "latency_s" in j],
        "attempted": len(done),
        "failed": len(failed),
        "problems": problems,
        "payload_stats": payload_stats,
        "traced": traced,
    }


def _client_stats(jobs: list[dict]) -> dict:
    """Client-side round trips and submit dispositions of one round."""
    return {
        "admits": [j["admit_s"] for j in jobs if "admit_s" in j],
        "waits": [j["wait_s"] for j in jobs if "wait_s" in j],
        "dispositions": {d: sum(1 for j in jobs if j.get("disposition") == d)
                         for d in ("new", "cached", "coalesced")},
    }


def _check(done: list[dict], depth: int, rundir: str) -> tuple[set[int], list[str]]:
    """Served results against in-process ``run_task``; property checks; re-sorts.

    Rounds serve the same specs, so each distinct spec is run in-process
    once (on ``depth`` fresh processes, after the timed phase).
    """
    import checks

    failed: set[int] = set()
    problems: list[str] = []
    for i, job in enumerate(done):
        if "error" in job or "sha" not in job:
            failed.add(i)
            problems.append(f"job {i} ({job['task']}) failed: {job.get('error')}")
            continue
        found = checks.check_result(job["task"], job["params"], job["result"])
        if found:
            failed.add(i)
            problems += [f"job {i}: {p}" for p in found]
    specs = {}
    for i, job in enumerate(done):
        if i not in failed:
            specs.setdefault(job["id"], (job["task"], job["params"]))
    ids = sorted(specs)
    expected = dict(zip(ids, _reference_shas([specs[k] for k in ids], depth, rundir)))
    for i, job in enumerate(done):
        if i not in failed and job["sha"] != expected[job["id"]]:
            failed.add(i)
            problems.append(f"job {i}: served payload differs from in-process run_task")
    jobs = [(j["task"], j["params"]) for j in done]
    for i in checks.resort_picks(jobs):
        if i in failed:
            continue
        found = checks.resort(done[i]["task"], done[i]["params"], done[i]["result"])
        if found:
            failed.add(i)
            problems += [f"job {i}: re-sort: {p}" for p in found]
    return failed, problems


def _reference_shas(specs: list, depth: int, rundir: str) -> list[str]:
    """sha256 of an in-process ``run_task`` of every spec, split over
    ``depth`` fresh ``child.py reference`` processes."""
    procs = []
    for i in range(depth):
        path = os.path.join(rundir, f"reference-{i}.json")
        with open(path, "w") as fh:
            json.dump(specs[i::depth], fh)
        procs.append(subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "child.py"), "reference",
             "--specs", path, "--out", path],
            env=common.hermetic_environ(), cwd=common.ROOT,
        ))
    shas: list = [None] * len(specs)
    for i, proc in enumerate(procs):
        if proc.wait() != 0:
            raise RuntimeError(f"reference process exited with {proc.returncode}")
        with open(os.path.join(rundir, f"reference-{i}.json")) as fh:
            shas[i::depth] = json.load(fh)
    return shas


def reference(path: str, out: str) -> None:
    """Child side: the sha256 of ``run_task`` for each spec in ``path``."""
    from repro.exec import run_task

    with open(path) as fh:
        specs = json.load(fh)
    shas = [common.canonical_sha(run_task(task, params)) for task, params in specs]
    with open(out, "w") as fh:
        json.dump(shas, fh)
