"""Record the input digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py 0 99

Writes perfbench/digests.json.  A benchmark run whose seed is recorded
there and whose generated inputs hash differently is marked incorrect:
the workload changed (for example through an edit to
``bench.sample_instance`` or a preset), so its numbers cannot be compared
with earlier runs.  Re-record only in a change that redefines the
benchmark.
"""
from __future__ import annotations

import json
import os
import sys

from run import DEFAULT_SEED, HERE, import_program, unwrapped


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    import_program()
    import workloads

    seeds = sorted(set(range(first, last + 1)) | {DEFAULT_SEED})
    table = {
        name: {str(seed): workload.build(seed, unwrapped).digest for seed in seeds}
        for name, workload in workloads.WORKLOADS.items()
    }
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
