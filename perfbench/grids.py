"""The inputs of each workload, made from the benchmark's ``--seed``.

The seed reaches the program only as the ``seed`` parameter of each cell
(the key generator's seed); the make-up of every grid and job stream is
fixed, so two seeds run the same cells on different keys.
"""

from __future__ import annotations

#: Key distributions every sweep cell family covers.
DISTRIBUTIONS = ("uniform", "zipf", "few_distinct", "adversarial_bucket_skew")

#: Machine shape shared by every PDM cell (M records, B records/block).
MEMORY, BLOCK = 512, 4


def sweep_invocations(seed: int) -> list[list[str]]:
    """The ``repro sweep`` arguments of sweep-cold: two
    invocations, each a product grid the CLI expands (28 cells, 400k
    records).

    * N ∈ {4k, 16k} × D ∈ {4, 8, 16} × four key distributions (24 cells,
      default H' = 2);
    * N ∈ {16k, 64k} × D = 16 × {uniform, adversarial_bucket_skew} with
      H' = 4 virtual disks (4 cells).
    """
    machine = ["--task", "sort", "--memory", str(MEMORY), "--block", str(BLOCK),
               "--seed", str(seed)]
    return [
        machine + ["--n", "4000,16000", "--disks", "4,8,16",
                   "--workload", ",".join(DISTRIBUTIONS)],
        machine + ["--n", "16000,64000", "--disks", "16", "--virtual-disks", "4",
                   "--workload", "uniform,adversarial_bucket_skew"],
    ]


def _pdm(n: int, disks: int, dist: str, seed: int, **extra) -> dict:
    """One PDM cell.  ``virtual_disks=4`` overrides the default H' = 2
    (every D below 27), whose closed-form rearrangement never calls the
    public matchers; H' = 4 makes each round run the derandomized matcher."""
    return {"n": n, "memory": MEMORY, "block": BLOCK, "disks": disks,
            "workload": dist, "seed": seed, **extra}


#: Outstanding-job cap of the serve load generator (and its repeat gap
#: must exceed it so a repeat always finds its twin finished).
MAX_OUTSTANDING = 8
REPEAT_GAP = MAX_OUTSTANDING + 2


def serve_stream(seed: int) -> list[tuple[str, dict]]:
    """One round of the serve-closed job stream: 88 distinct specs + 29 repeats.

    Distinct specs, interleaved so every stretch of the stream mixes the
    three tasks:

    * 44 ``sort_pdm``: N ∈ {2k, 4k, 8k} × D ∈ {4, 8, 16} × 4 distributions,
      plus N = 8k × D ∈ {8, 16} × 4 distributions with H' = 4;
    * 12 ``hierarchy_sort``: {hmm, bt, umh} × {pram, hypercube} × N ∈
      {1k, 2k} (H = 16; uniform and zipf keys alternate);
    * 32 ``compare_pdm``: {greed, randomized, striped, balance} × N ∈
      {4k, 8k} × 4 distributions (D = 8).

    After three of every eight distinct specs (from the eleventh on) the
    spec ``REPEAT_GAP`` distinct positions back is submitted again — far
    enough back that it has finished, so every repeat is a cache hit.
    """
    sorts = [
        ("sort_pdm", _pdm(n, disks, dist, seed))
        for n in (2_000, 4_000, 8_000)
        for disks in (4, 8, 16)
        for dist in DISTRIBUTIONS
    ] + [
        ("sort_pdm", _pdm(8_000, disks, dist, seed, virtual_disks=4))
        for disks in (8, 16)
        for dist in DISTRIBUTIONS
    ]
    hierarchies = []
    i = 0
    for model, cost in (("hmm", "log"), ("bt", "log"), ("umh", "umh")):
        for interconnect in ("pram", "hypercube"):
            for n in (1_000, 2_000):
                hierarchies.append(("hierarchy_sort", {
                    "n": n, "h": 16, "model": model, "cost": cost,
                    "interconnect": interconnect,
                    "workload": ("uniform", "zipf")[i % 2], "seed": seed,
                }))
                i += 1
    compares = [
        ("compare_pdm", {"algorithm": algo, **_pdm(n, 8, dist, seed)})
        for algo in ("greed", "randomized", "striped", "balance")
        for n in (4_000, 8_000)
        for dist in DISTRIBUTIONS
    ]
    distinct = _interleave([sorts, compares, hierarchies])
    stream = []
    for i, job in enumerate(distinct):
        stream.append(job)
        if i >= REPEAT_GAP and i % 8 in (0, 3, 5):
            stream.append(distinct[i - REPEAT_GAP])
    return stream


def _interleave(lists: list[list]) -> list:
    """Spread the lists over one sequence in proportion to their lengths."""
    total = sum(len(lst) for lst in lists)
    keyed = []
    for rank, lst in enumerate(lists):
        for j, item in enumerate(lst):
            keyed.append(((j + 0.5) * total / len(lst), rank, item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _pos, _rank, item in keyed]
