"""Set-up probe: a fresh interpreter imports the program and builds one
workload's plans, then prints ``ready``.

run.py times a probe from process start to that line, which is the set-up a
user pays before the first ``run_plan`` call. Usage (with the repository's
``src`` on PYTHONPATH): ``python3 bench/setup_probe.py <workload> <seed>``.
"""

import sys

import workloads

workloads.plans(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
