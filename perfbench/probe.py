"""Fresh-interpreter probes that run.py times from the outside.

    python3 perfbench/probe.py setup <workload> <seed>
        import cowqkd, build the workload's inputs, then print "ready"
    python3 perfbench/probe.py import <module>
        print the seconds that importing <module> takes in this interpreter

run.py sets PYTHONPATH to the checkout's src/ and pins the math libraries
to one thread before it starts a probe.
"""

import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        from workloads import WORKLOADS

        WORKLOADS[argv[1]].make_inputs(int(argv[2]))
        print("ready", flush=True)
        return 0
    if len(argv) == 2 and argv[0] == "import":
        start = time.perf_counter()
        __import__(argv[1])
        print(time.perf_counter() - start, flush=True)
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
