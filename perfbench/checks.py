"""Independent output checks, run after the timed phase.

Two kinds:

* property checks on every result summary — ``records == n``, the
  trivial I/O lower bound ``parallel_ios ≥ 2⌈N/(DB)⌉`` (every record is
  read and written at least once), the E1 Theorem-1 band for Balance
  Sort cells, and Theorem 4's balance factor ``≤ 2``;
* re-sorts: a cell is sorted again through the public sort entry points,
  its output compared record for record against ``numpy.sort`` of the
  regenerated input, and its summary compared with the timed payload's.

Every check returns a list of problems (empty when it passes).
"""

from __future__ import annotations

import math

import numpy as np

#: E1's ceiling on measured/bound for Balance Sort (benchmarks/bench_e1).
E1_RATIO_CEILING = 16.0
#: E1's flatness limit: per (D, distribution), max/min ratio over N.
E1_FLATNESS = 2.0
#: Theorem 4: every bucket is read with parallelism within a factor 2.
THEOREM4_LIMIT = 2.0


def pdm_cell(params: dict, result: dict, balance: bool) -> list[str]:
    """Property checks on one PDM cell's result summary."""
    problems = []
    n, d, b = int(params["n"]), int(params["disks"]), int(params["block"])
    if result.get("records") != n:
        problems.append(f"records {result.get('records')} != n {n}")
    floor = 2 * math.ceil(n / (d * b))
    if result["parallel_ios"] < floor:
        problems.append(f"parallel_ios {result['parallel_ios']} < 2⌈N/DB⌉ = {floor}")
    if balance:
        if not 0 < result["ratio"] < E1_RATIO_CEILING:
            problems.append(f"Theorem-1 ratio {result['ratio']} outside (0, 16)")
        if "balance_factor" in result and result["balance_factor"] > THEOREM4_LIMIT:
            problems.append(f"balance factor {result['balance_factor']} > 2")
    return problems


def e1_flatness(cells: list[tuple[dict, dict]]) -> list[str]:
    """E1: per (D, H', distribution) the I/O ratio stays in a 2× band over N."""
    groups: dict = {}
    for params, result in cells:
        key = (params["disks"], params.get("virtual_disks") or 0,
               params.get("workload", "uniform"))
        groups.setdefault(key, []).append(result["ratio"])
    return [
        f"ratio band {min(r)}..{max(r)} wider than 2x for D={d} H'={h or 'default'} {w}"
        for (d, h, w), r in sorted(groups.items())
        if len(r) > 1 and max(r) / min(r) >= E1_FLATNESS
    ]


def hierarchy_cell(params: dict, result: dict) -> list[str]:
    problems = []
    if result.get("records") != int(params["n"]):
        problems.append(f"records {result.get('records')} != n {params['n']}")
    if result["balance_factor"] > THEOREM4_LIMIT:
        problems.append(f"balance factor {result['balance_factor']} > 2")
    return problems


def check_result(task: str, params: dict, result: dict) -> list[str]:
    """Property checks for one cell of any task."""
    if task == "sort_pdm":
        return pdm_cell(params, result, balance=True)
    if task == "compare_pdm":
        return pdm_cell(params, result, balance=params["algorithm"] == "balance")
    return hierarchy_cell(params, result)


# ------------------------------------------------------------- re-sorting


def _expected(data: np.ndarray) -> np.ndarray:
    return np.sort(data, order=("key", "rid"))


def _output_problems(out: np.ndarray, data: np.ndarray) -> list[str]:
    expected = _expected(data)
    if out.shape != expected.shape:
        return [f"output has {out.size} records, expected {expected.size}"]
    if not (np.array_equal(out["key"], expected["key"])
            and np.array_equal(out["rid"], expected["rid"])):
        bad = int(np.flatnonzero((out["key"] != expected["key"])
                                 | (out["rid"] != expected["rid"]))[0])
        return [f"output differs from numpy.sort at record {bad}"]
    return []


def _summary_problems(fields: dict, result: dict) -> list[str]:
    return [
        f"{k}: re-sort {v!r} != timed payload {result.get(k)!r}"
        for k, v in fields.items() if result.get(k) != v
    ]


def resort(task: str, params: dict, result: dict) -> list[str]:
    """Sort the cell's input again through the public entry points."""
    from repro import workloads
    from repro.core.streams import peek_run

    data = workloads.by_name(params.get("workload", "uniform"), int(params["n"]),
                             seed=int(params.get("seed", 0)))
    if task == "hierarchy_sort":
        from repro.core.sort_hierarchy import balance_sort_hierarchy
        from repro.hierarchies import LogCost, ParallelHierarchies, UMHCost

        cost = params.get("cost", "log")
        machine = ParallelHierarchies(
            int(params.get("h", 64)), model=params.get("model", "hmm"),
            cost_fn=UMHCost() if cost == "umh" else LogCost(),
            interconnect=params.get("interconnect", "pram"),
        )
        res = balance_sort_hierarchy(machine, data)
        fields = {
            "records": res.n_records,
            "parallel_steps": res.parallel_steps,
            "recursion_depth": res.recursion_depth,
            "match_calls": res.match_calls,
            "total_time": round(res.total_time, 3),
            "balance_factor": round(res.max_balance_factor, 4),
        }
        return _output_problems(peek_run(res.storage, res.output), data) + \
            _summary_problems(fields, result)

    from repro.pdm import ParallelDiskMachine

    machine = ParallelDiskMachine(
        memory=int(params.get("memory", 512)), block=int(params.get("block", 4)),
        disks=int(params.get("disks", 8)),
    )
    algorithm = params.get("algorithm", "balance")
    if algorithm == "balance":
        from repro.core.sort_pdm import balance_sort_pdm

        res = balance_sort_pdm(machine, data, check_invariants=False,
                               virtual_disks=params.get("virtual_disks"),
                               buckets=params.get("buckets"))
        fields = {"parallel_ios": res.total_ios}
        if task == "sort_pdm":
            fields.update({
                "records": res.n_records,
                "recursion_depth": res.recursion_depth,
                "blocks_swapped": res.blocks_swapped,
                "match_calls": res.match_calls,
                "balance_factor": round(res.max_balance_factor, 4),
            })
    else:
        from repro import baselines

        fn = {"greed": baselines.greed_sort,
              "randomized": baselines.randomized_distribution_sort,
              "striped": baselines.striped_merge_sort}[algorithm]
        res = fn(machine, data)
        fields = {"parallel_ios": res.total_ios}
    return _output_problems(peek_run(res.storage, res.output), data) + \
        _summary_problems(fields, result)


def resort_picks(jobs: list[tuple[str, dict]], max_n: int = 16_000) -> list[int]:
    """One job index per (task, key distribution), spread over the other axes.

    Cells above ``max_n`` records are left to the property checks.
    """
    seen: dict = {}
    for i, (task, params) in enumerate(jobs):
        if int(params["n"]) <= max_n:
            key = (task, params.get("workload", "uniform"))
            seen.setdefault(key, []).append(i)
    picks = []
    for rank, (_key, idxs) in enumerate(sorted(seen.items())):
        picks.append(idxs[(rank * 7 + len(idxs) // 2) % len(idxs)])
    return sorted(picks)
