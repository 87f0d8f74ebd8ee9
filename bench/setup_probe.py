"""Set-up time of one fresh interpreter: import carlitz and build field towers.

    python3 bench/setup_probe.py SRC_DIR P,E,D [P,E,D ...]

Prints the seconds from the start of this script until the towers are built,
which fill the process-wide ``make_field`` cache a workload's first check uses.
"""

import sys
import time

_T0 = time.perf_counter()


def main(argv):
    sys.path.insert(0, argv[0])
    from carlitz.fields import make_field

    for tower in argv[1:]:
        make_field(*(int(x) for x in tower.split(",")))
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main(sys.argv[1:])
