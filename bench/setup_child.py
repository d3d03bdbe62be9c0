"""One cold set-up, timed by ``run.py``: start the interpreter, import the
package and make the workload's inputs, then print the monotonic clock.

Usage: python3 bench/setup_child.py <workload> <seed>
"""

import sys
import time

import checkout

checkout.use_source_tree()
import workloads  # noqa: E402  (needs the source tree on the path)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(time.monotonic())
