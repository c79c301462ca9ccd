"""Set-up probe: a fresh interpreter that imports unsteer and runs one item.

Reads the warm-up item as JSON on stdin before importing anything heavy, so
the parent's clock, started before this process, covers interpreter start,
`import unsteer` and the first item, and nothing of the benchmark's input
generation.  Prints "ready" once the item has run.

Usage: python3 perfbench/probe.py <workload>   (item JSON on stdin)
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    workload = sys.argv[1]
    item = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import unsteer

    sys.path.insert(0, HERE)
    import workloads

    workloads.RUNNERS[workload](unsteer, item)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
