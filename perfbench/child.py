"""Fresh-interpreter helpers the benchmark launches.

``setup``  import the program and build the sweep grid as ``repro sweep``
           builds it, then print ``ready`` — sweep-cold's ``setup_s`` is the time from
           launch to that line.
``round``  one timed sweep round (see ``sweeps.child_round``).
``reference``  run ``run_task`` in-process for a list of serve specs and
           write the sha256 of each payload (serve-closed's check).
"""

from __future__ import annotations

import argparse
import sys

import common


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/child.py")
    ap.add_argument("role", choices=("setup", "round", "reference"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--journal")
    ap.add_argument("--out")
    ap.add_argument("--spill", help="trace the round; pool-worker span directory")
    ap.add_argument("--specs", help="reference: JSON list of [task, params]")
    args = ap.parse_args(argv)
    if common.SRC not in sys.path:
        sys.path.insert(0, common.SRC)
    import repro  # noqa: F401  (the import is what setup_s measures)
    import sweeps

    if args.role == "setup":
        specs = sweeps.build_specs(args.seed)
        keys = [spec.fingerprint() for spec in specs]
        print("ready", len(keys), flush=True)
    elif args.role == "round":
        sweeps.child_round(args.seed, args.journal, args.out, args.spill)
    else:
        import serving

        serving.reference(args.specs, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
