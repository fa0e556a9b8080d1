"""QFE interaction benchmark: what a user waits for, end to end and per layer.

Run ``python3 qfebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``qfebench/README.md``.
"""
