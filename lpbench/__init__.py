"""The repository benchmark: LoopPoint workloads timed from outside.

``python3 lpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (or ``all``) and prints its metrics; see ``README.md``
in this directory for the workloads, the metrics and the findings.
"""
