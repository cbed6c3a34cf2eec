"""Record the output digests that run.py checks, from the current program.

Run from the root of a checkout, on a commit whose outputs are trusted:

    python3 bench/record_digests.py

For each workload and each seed in SEEDS it runs the first DIGEST_REQUESTS
requests, requires every one to pass the correctness gate, and stores the
first 8 hex digits of the SHA-256 of each canonical output (the report
JSON without wall_time) in bench/digests.json.  A later run on one of
these seeds counts a request whose output digest differs as failed.
"""

import json
import sys

from run import BENCH, DIGEST_REQUESTS, Bench, digest
from workloads import WORKLOADS

SEEDS = range(11)


def main():
    table = {}
    for workload in sorted(WORKLOADS):
        table[workload] = {}
        for seed in SEEDS:
            bench = Bench(workload, seed)
            parts = []
            for i in range(DIGEST_REQUESTS):
                ok, canonical, _, _ = bench.request(i)
                if not ok:
                    print(f"{workload} seed {seed} request {i} fails the gate", file=sys.stderr)
                    return 1
                parts.append(digest(canonical))
            table[workload][str(seed)] = "".join(parts)
            print(f"{workload} seed {seed}: recorded", flush=True)
    (BENCH / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
