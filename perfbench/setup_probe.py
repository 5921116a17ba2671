"""Set up one workload in a fresh interpreter and report when it was done.

Run by ``run.py`` as a subprocess; ``setup_s`` is measured from just
before the spawn to the ``done`` stamp printed here.  Both ends read
``time.monotonic()``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so the two processes share one clock.

    python3 perfbench/setup_probe.py --workload NAME --seed N --workdir DIR
"""

import argparse
import json
import os
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import secgames.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    WORKLOADS[args.workload](args.seed, args.workdir).setup()
    print(json.dumps({"import_s": import_s, "done": time.monotonic()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
