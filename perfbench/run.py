"""The benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around the program's public functions and prints the
per-layer table and metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it stamps the host and program the run measured.  The full result
(stamp, metrics, check problems) is also written to
``.perfbench_work/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import common

#: Fresh launches per run that ``setup_s`` is the median of, spread in
#: groups before, between and after the rounds so that they sample the
#: host over the whole run.
SETUP_LAUNCHES = 9

#: Timed rounds per run.  A run always makes these rounds, whatever
#: ``--seconds`` says, so that every run of a workload attempts the same
#: operations; ``run_seconds`` in ``BENCHMARK.json`` is about the time
#: they take on the reference host (README).
ROUNDS = {"sweep-cold": 3, "serve-closed": 3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="accepted and recorded; a run makes the workload's fixed rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program sources at {common.SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    common.make_hermetic()
    import repro

    if not os.path.abspath(repro.__file__).startswith(common.SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {common.SRC}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    n_rounds = ROUNDS[args.workload]
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK)
    setup: list[float] = []
    per_group = -(-SETUP_LAUNCHES // (n_rounds + 1))

    def probe() -> None:
        if not trace:
            setup.extend(measure_setup(args.workload, args.seed, rundir, per_group))

    try:
        if args.workload == "serve-closed":
            import serving

            res = serving.run(args.seed, n_rounds, trace, rundir, probe)
        else:
            import sweeps

            res = sweeps.run(args.seed, n_rounds, trace, rundir, probe)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if trace:
        import layers

        table, metrics = layer_report(args.workload, res)
        print(table)
        spans_path = os.path.join(common.WORK, "traces",
                                  f"{args.workload}-seed{args.seed}.spans.jsonl")
        layers.write_spans(res["traced"]["spans"], spans_path)
        print(f"spans: {os.path.relpath(spans_path, common.ROOT)} "
              f"({len(res['traced']['spans'])} spans)")
    else:
        metrics = e2e_metrics(res, setup)
    for problem in res["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    stamp = common.stamp(args.workload, args.seed, trace)
    stamp.update(rounds=len(res["walls"]), seconds=args.seconds)
    result = {
        "correct": not res["problems"],
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }
    out_dir = os.path.join(common.WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({"stamp": stamp, **result, "round_walls": res["walls"],
                   "round_cpus": res["cpus"], "setup_launches": setup,
                   "problems": res["problems"]}, fh, indent=1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ setup


def measure_setup(workload: str, seed: int, rundir: str, launches: int) -> list[float]:
    """Seconds from a fresh interpreter to ready, for ``launches`` launches."""
    times = []
    for _ in range(launches):
        if workload == "serve-closed":
            import serving

            workdir = tempfile.mkdtemp(prefix="setup-", dir=rundir)
            proc, _port, ready = serving.launch(workdir)
            serving.stop(proc)
            times.append(ready)
            continue
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "child.py"), "setup",
             "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, env=common.hermetic_environ(),
            cwd=common.ROOT,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or not line.startswith("ready"):
            raise RuntimeError("setup launch failed")
    return times


# ---------------------------------------------------------------- metrics


def e2e_metrics(res: dict, setup: list[float]) -> dict:
    wall = common.median(res["walls"])
    if "latencies" in res:
        p50 = common.median(res["latencies"])
        p90 = common.percentile(res["latencies"], 0.9)
    else:
        # A sweep user's job is the whole grid, and a run has too few
        # rounds for a tail: both percentiles report the median round.
        p50 = p90 = wall
    values = {
        "setup_s": common.median(setup),
        "wall_s": wall,
        "cpu_s": common.median(res["cpus"]),
        "records_per_s": res["records_per_round"] / wall,
        "job_latency_p50_s": p50,
        "job_latency_p90_s": p90,
        "peak_rss_mb": res["peak_rss_mb"],
        "store_bytes_per_record": res["store_bytes"] / max(1, res["stored_records"]),
        "parallel_ios": res["parallel_ios"],
    }
    return common.metrics_doc("end_to_end", values)


def layer_report(workload: str, res: dict) -> tuple[str, dict]:
    """The per-layer table (self times + residue = traced wall) and metrics."""
    import layers

    traced = res["traced"]
    spans, counts = traced["spans"], traced["counts"]
    own = layers.self_times(spans)
    incl = lambda prefix: layers.inclusive(spans, prefix)  # noqa: E731
    self_of = lambda name: sum(  # noqa: E731
        t for s, t in zip(spans, own) if s["name"] == name)
    stats = res["payload_stats"]
    flushes = counts.get("pdm.plan_flushes", 0)
    wall = traced["wall"]
    admits, waits = traced.get("admits") or [0.0], traced.get("waits") or [0.0]
    dispositions = traced.get("dispositions", {})
    values = {
        "workloads.gen_s": incl("workloads.by_name"),
        "core.engine_s": self_of("core.balance_sort_pdm")
        + self_of("core.balance_sort_hierarchy"),
        "core.rounds": stats["balance_rounds"],
        "core.matcher_s": incl("core.match."),
        "core.match_calls": counts.get("core.match_calls", 0),
        "pdm.store_s": incl("pdm.store."),
        "pdm.store_calls": counts.get("pdm.store_calls", 0),
        "pdm.blocks_moved": counts.get("pdm.blocks_moved", 0),
        "pdm.plan_flushes": flushes,
        "pdm.rounds_per_flush": counts.get("pdm.deferred_write_rounds", 0) / max(1, flushes),
        "hierarchies.sort_s": incl("core.balance_sort_hierarchy"),
        "baselines.sort_s": incl("baselines."),
        "obs.trace_events_per_record": stats["trace_events"] / max(1, stats["records"]),
        "obs.audit_s": incl("obs.audit."),
        "obs.payload_events_s": incl("obs.payload_events"),
        "exec.materialize_s": incl("exec.run_task") - incl("exec.task."),
        "exec.digest_s": incl("exec.digest"),
        "exec.digest_bytes": counts.get("exec.digest_bytes", 0),
        "exec.cache_put_s": incl("exec.cache_put"),
        "exec.cache_put_bytes": counts.get("exec.cache_put_bytes", 0),
        "exec.cache_get_s": incl("exec.cache_get"),
        "exec.cache_get_bytes": counts.get("exec.cache_get_bytes", 0),
        "exec.merge_s": incl("exec.merge."),
        "exec.ipc_bytes": counts.get("exec.ipc_bytes", 0),
        "resilience.journal_s": incl("resilience.journal."),
        "resilience.journal_writes": counts.get("resilience.journal_writes", 0),
        "serve.admit_s_p50": common.median(admits),
        "serve.wait_s_p50": common.median(waits),
        "serve.new": dispositions.get("new", 0),
        "serve.cached": dispositions.get("cached", 0),
        "serve.coalesced": dispositions.get("coalesced", 0),
        "python.gc_s": incl("python.gc"),
        "python.gc_collections": sum(1 for s in spans if s["name"] == "python.gc"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": traced["untraced_wall"],
        "trace.overhead_s": wall - traced["untraced_wall"],
    }
    metrics = common.metrics_doc("per_layer", values)
    return render_table(workload, spans, own, wall, counts, traced["timed"]), metrics


def render_table(workload: str, spans, own, wall: float, counts, timed) -> str:
    """Self time by span name: the timed thread (+ residue = wall), then
    the benchmark process's other threads and the pool workers (busy time)."""
    import layers

    main_pid, main_tid = timed
    sections = [
        ("timed thread (self times + residue = traced wall)",
         lambda s: s["pid"] == main_pid and s["tid"] == main_tid, True),
        ("other threads of the timed process (busy self time)",
         lambda s: s["pid"] == main_pid and s["tid"] != main_tid, False),
        ("pool workers (busy self time, spilled per job)",
         lambda s: s["pid"] != main_pid, False),
    ]
    lines = [f"per-layer self time · {workload} · traced wall {wall:.4f} s"]
    for title, select, with_residue in sections:
        rows = layers.layer_rows(spans, own, select)
        if not rows:
            continue
        total = sum(r[1] for r in rows.values())
        base = wall if with_residue else total
        lines.append(f"\n  {title}")
        lines.append(f"  {'span':40s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
        for name, (calls, self_s, _incl) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {name:40s} {calls:9d} {self_s:10.4f} {self_s / base:7.1%}")
        if with_residue:
            residue = wall - total
            lines.append(f"  {'(residue: inside no span)':40s} {'':9s} {residue:10.4f} "
                         f"{residue / wall:7.1%}")
            lines.append(f"  {'= traced wall':40s} {'':9s} {total + residue:10.4f}")
        else:
            lines.append(f"  {'= busy':40s} {'':9s} {total:10.4f}")
    if counts.get("exec.ipc_bytes"):
        lines.append("\n  exec.ipc_bytes is computed: the pickled size of each "
                     "payload a pool worker returns")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
