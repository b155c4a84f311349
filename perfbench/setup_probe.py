"""One set-up of a workload in a fresh process: import xmodkit, write the inputs.

run.py times this whole process several times and reports the median as
``setup_s``.  Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys

import worker

if __name__ == "__main__":
    worker.load_program()
    import workloads
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.build(workload, seed, workdir)
