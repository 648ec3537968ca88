"""Regenerate the committed reference CSVs with `mfs2d sweep`.

    python3 perfbench/make_reference.py [WORKLOAD ...]

The reference is what "no worse than reference" is checked against, so only
regenerate it when a change is meant to alter the sweep tables, and say so.
"""

import os
import sys

from worker import import_program
from workloads import THREAD_VARS, WORKLOADS


def main(argv):
    for var in THREAD_VARS:    # the same pinning as the measured runs
        os.environ[var] = "1"
    import_program()
    from mfs2d import cli

    for name in argv or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        code = cli.main(["sweep", "--config", workload.config, "--out", workload.reference])
        if code:
            return code
        print(workload.reference)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
