"""Shared plumbing: checkout paths, the hermetic environment, stamps, stats.

Everything the benchmark writes lives under ``<checkout>/.perfbench_work``
(ignored by git): per-run scratch directories (removed when the run ends),
the span files of traced runs, and one JSON result file per run.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("sweep-cold", "serve-closed")


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def hermetic_environ() -> dict:
    """The environment with every ``REPRO_*`` knob removed.

    Also points ``PYTHONPATH`` at the checkout's ``src`` so children import
    the program under test and nothing else, and ``TMPDIR`` at the
    benchmark's work directory so temporary files stay inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = WORK
    return env


def make_hermetic() -> None:
    """Strip ``REPRO_*`` from this process and import from the checkout."""
    os.makedirs(WORK, exist_ok=True)
    os.environ.clear()
    os.environ.update(hermetic_environ())
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def metrics_doc(kind: str, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every ``kind`` metric (``end_to_end``
    or ``per_layer``) that ``BENCHMARK.json`` declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def cores() -> int:
    """Usable cores of this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def stamp(workload: str, seed: int, trace: bool) -> dict:
    """What the run measured on: host, interpreter, numpy, kernel backend."""
    import importlib.util
    import platform

    import numpy

    import repro
    from repro.core import kernels
    from repro.util import host_key

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host_key": host_key(),
        "nproc": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
        "kernel_backend": kernels.default_backend_name(),
        "speedups_built": importlib.util.find_spec("repro._speedups") is not None,
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def canonical_sha(payload: dict) -> str:
    """sha256 of the sorted, compact JSON of ``payload`` (computed here)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_bytes(*dirs: str) -> int:
    """Total size in bytes of the regular files under ``dirs``."""
    total = 0
    for top in dirs:
        for base, _subdirs, files in os.walk(top):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(base, name))
                except OSError:
                    pass
    return total


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    data = sorted(values)
    if not data:
        return float("nan")
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values))


def self_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def payload_stats(payloads) -> dict:
    """Trace events, Balance rounds and records over a set of payloads."""
    events = rounds = records = 0
    for payload in payloads:
        trace = payload.get("trace") or ()
        events += len(trace)
        rounds += sum(1 for ev in trace if ev.get("name") == "balance.round")
        records += int(payload.get("params", {}).get("n", 0))
    return {"trace_events": events, "balance_rounds": rounds, "records": records}
