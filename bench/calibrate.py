"""Fixed reference work that gauges how fast the host runs right now.

    python3 bench/calibrate.py OUT

Runs in a child process of its own, like a CLI command: interpreter
start, a numpy import, a scalar float loop with repr formatting,
small-matrix numpy calls and a file write. It uses no se2track code, so
a change to the program cannot move it; run.py interleaves it with the
CLI commands and divides their wall times by its median to take out the
host's changes of speed (see README.md).
"""

import math
import sys

import numpy as np

acc, parts = 0.0, []
for i in range(20000):
    t = i * 1e-3
    c, s = math.cos(t), math.sin(t)
    acc += math.atan2(s, c) * math.sqrt(c * c + s * s)
    parts.append(repr(acc))
m = np.eye(3) + np.outer(np.arange(3.0), np.arange(3.0))
for _ in range(1000):
    acc += float(np.linalg.eigvalsh(m)[0])
with open(sys.argv[1], "w") as fh:
    fh.write(",".join(parts))
