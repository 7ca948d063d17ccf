"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED OUT_DIR

Prints the seconds from before the first import of numpy and driftmc to a
built scenario (config resolved, model, payoff, grid, covariation, and the
fixed drift for the pricing workload).
"""

import sys
import time


def main(argv):
    start = time.perf_counter()
    src, name, seed, out_dir = argv
    sys.path.insert(1, src)
    import workloads

    workloads.set_up(workloads.WORKLOADS[name], int(seed), out_dir)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1:])
