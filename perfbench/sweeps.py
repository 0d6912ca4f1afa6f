"""The sweep-cold workload.  Every round is a fresh process, as a user's
``repro sweep`` is, and runs the grid's ``repro sweep`` invocations
(``grids.sweep_invocations``) through ``repro.cli.main``, each with
``--journal DIR`` on a fresh journal (and so a fresh cache: the journal's
``cells/``) and with ``--emit-json FILE`` writing the report.

The round process imports the program before its timed phase starts
(``setup_s`` measures that part separately), times the invocations, reads
its own peak resident set, and only then checks and digests what the
runner returned and writes everything to a JSON file.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import time

import common
import grids


def build_specs(seed: int) -> list:
    """The grid as ``repro sweep`` builds it from the invocations' arguments."""
    from repro import cli

    parser = cli.build_parser()
    return [spec for argv in grids.sweep_invocations(seed)
            for spec in cli._sweep_specs(parser.parse_args(["sweep", *argv]))[1]]


def run_sweeps(seed: int, journals: list[str], reports: list[str]) -> list:
    """Run every invocation in this process, the ``k``-th on ``journals[k]``
    with ``--emit-json reports[k]``; returns the results the sweeps'
    runners returned, in grid order.  The sweeps' stdout and stderr (the
    table and the ``[sweep]`` lines) are kept in memory."""
    from repro import cli
    from repro.exec import ParallelRunner

    kept: list = []
    orig_map = ParallelRunner.map

    def map_and_keep(self, specs):
        results = orig_map(self, specs)
        kept.extend(results)
        return results

    ParallelRunner.map = map_and_keep
    chatter = io.StringIO()
    try:
        with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            for k, argv in enumerate(grids.sweep_invocations(seed)):
                argv = ["sweep", *argv, "--journal", journals[k], "--emit-json", reports[k]]
                code = cli.main(argv)
                if code not in (0, 3):      # 3: some cells failed (counted)
                    raise RuntimeError(f"repro {' '.join(argv)} exited with {code}:\n"
                                       f"{chatter.getvalue()}")
    finally:
        ParallelRunner.map = orig_map
    return kept


# ---------------------------------------------------------- child process


def child_round(seed: int, journal_dir: str, out: str, spill_dir: str | None = None) -> None:
    """One timed round in this (fresh) process; results go to ``out``."""
    import repro.cli  # noqa: F401  (imported before timing, as setup_s does)
    import repro.exec  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.resilience  # noqa: F401

    n = len(grids.sweep_invocations(seed))
    journals = [os.path.join(journal_dir, f"grid-{k}") for k in range(n)]
    reports = [os.path.join(os.path.dirname(out), f"report-{k}.json") for k in range(n)]
    if spill_dir:
        import layers

        layers.install(spill_dir)
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    results = run_sweeps(seed, journals, reports)
    t1 = time.perf_counter()
    doc = {"wall": t1 - t0, "cpu": time.process_time() - c0,
           "peak_rss_mb": common.self_rss_mb()}
    if spill_dir:
        layers.uninstall()
        doc["spans"], doc["counts"] = layers.gather(spill_dir, t0, t1)
        doc["timed"] = layers.timed_thread()
    doc["payload_stats"] = common.payload_stats(r.payload for r in results if not r.failed)
    doc["cells"] = [_cell(r) for r in results]
    with open(out, "w") as fh:
        json.dump(doc, fh)


def _cell(r) -> dict:
    cell = {"key": r.key, "task": r.spec.task, "params": dict(r.spec.params)}
    if r.failed:
        cell["error"] = r.payload.get("error")
    else:
        cell["result"] = r.result
    return cell


def _child(role: str, *args: str) -> None:
    subprocess.run([sys.executable, os.path.join(common.HERE, "child.py"), role, *args],
                   check=True, env=common.hermetic_environ(), cwd=common.ROOT)


# ------------------------------------------------------------- the workload


def run(seed: int, n_rounds: int, trace: bool, rundir: str, probe) -> dict:
    """Run sweep-cold; returns measurements, op counts and problems.

    ``probe()`` (the ``setup_s`` launches) runs before each round and once
    after the last.
    """
    import checks

    docs = []
    failed_cells: set[int] = set()
    problems: list[str] = []
    # Traced: an untraced, a traced and an untraced round; the traced wall
    # minus the mean untraced wall is the tracing overhead.
    plan = [False, True, False] if trace else [False] * n_rounds
    for i, traced in enumerate(plan):
        probe()
        journal = os.path.join(rundir, f"cold-{i}")
        out = os.path.join(rundir, f"round-{i}.json")
        args = ["--seed", str(seed), "--journal", journal, "--out", out]
        if traced:
            args += ["--spill", os.path.join(rundir, "spill")]
        _child("round", *args)
        with open(out) as fh:
            doc = json.load(fh)
        if i == 0:
            store_bytes = common.tree_bytes(journal)
        round_failed, round_problems = _check_round(doc["cells"])
        failed_cells |= round_failed
        problems += round_problems
        shutil.rmtree(journal)
        docs.append(doc)
    probe()

    # Re-sorts once, against the first round (rounds run the same cells).
    cells = docs[0]["cells"]
    jobs = [(c["task"], c["params"]) for c in cells]
    summaries = [c.get("result") for c in cells]
    for i in checks.resort_picks(jobs, max_n=4_000):
        found = ["failed"] if summaries[i] is None else \
            checks.resort(jobs[i][0], jobs[i][1], summaries[i])
        if found:
            failed_cells.add(i)
            problems += [f"cell {i}: re-sort: {p}" for p in found]
    problems += checks.e1_flatness(
        [(p, r) for (_t, p), r in zip(jobs, summaries) if r is not None])

    traced = None
    if trace:
        traced = {"spans": docs[1]["spans"], "counts": docs[1]["counts"],
                  "wall": docs[1]["wall"], "timed": docs[1]["timed"],
                  "untraced_wall": (docs[0]["wall"] + docs[2]["wall"]) / 2}
    records = sum(int(p["n"]) for _t, p in jobs)
    return {
        "walls": [d["wall"] for d in docs],
        "cpus": [d["cpu"] for d in docs],
        "records_per_round": records,
        "peak_rss_mb": max(d["peak_rss_mb"] for d in docs),
        "store_bytes": store_bytes,
        "stored_records": records,
        "parallel_ios": sum(r["parallel_ios"] for r in summaries if r is not None),
        "attempted": len(jobs) * len(docs),
        "failed": len(failed_cells) * len(docs),
        "problems": problems,
        "payload_stats": docs[0]["payload_stats"],
        "traced": traced,
    }


def _check_round(cells) -> tuple[set[int], list[str]]:
    """Property checks on one round's cells."""
    import checks

    failed, problems = set(), []
    for i, cell in enumerate(cells):
        if "result" not in cell:
            failed.add(i)
            problems.append(f"cell {i} failed: {cell.get('error')}")
            continue
        found = checks.check_result(cell["task"], cell["params"], cell["result"])
        if found:
            failed.add(i)
            problems += [f"cell {i}: {p}" for p in found]
    return failed, problems
