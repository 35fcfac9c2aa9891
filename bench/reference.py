"""Reference kernel: fixed pure-Python work that tracks the machine's speed.

The machine the benchmark runs on may be shared: on a 2-vCPU virtual
machine the same ``maximum_matching`` call was measured at 3.1 ms in one
two-second window and 4.8 ms in the next, in CPU time as well as in wall
time, so the slowdown comes from contention for the hardware and not from
lost scheduling.  The run times this kernel between its ops and scales each
op's latency by ``NOMINAL_MS / (kernel time near the op)``.  A reported time
is then the time the op would take on a machine where the kernel takes
``NOMINAL_MS``, and a change of the package moves it while a change of
machine speed mostly does not.

The kernel does the kinds of work the package does - list and set
traversal, dict lookups, int bit masks and ``bit_count`` - on a fixed graph
built once at import.  It uses nothing from ``matchbound``, so no change of
the package can change it.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# the kernel's median time on an Intel Xeon (2 vCPUs, Python 3.11) in a
# fast phase; only ratios between runs matter, this makes values read as ms
NOMINAL_MS = 3.0

_N = 256
_rng = random.Random(20160417)
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _ in range(3 * _N // 2):
    _a, _b = _rng.randrange(_N), _rng.randrange(_N)
    if _a != _b:
        _ADJ[_a].append(_b)
        _ADJ[_b].append(_a)
_MASKS = [sum(1 << w for w in nbrs) for nbrs in _ADJ]


def kernel() -> int:
    """Breadth-first search from a fixed set of sources, then mask sweeps."""
    total = 0
    for source in range(0, _N, 16):
        depth = {source: 0}
        queue = [source]
        for v in queue:
            for w in _ADJ[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    queue.append(w)
        total += len(queue) + max(depth.values())
    for x_mask in range(1, 1 << 11):
        reach = 0
        for v in range(11):
            if x_mask >> v & 1:
                reach |= _MASKS[v]
        total += reach.bit_count() & 1
    return total


def kernel_ms() -> float:
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3


def local_speed(samples: list[float], index: int, width: int = 3) -> float:
    """Median kernel time of the `width` samples on each side of `index`.

    Sample `index` was taken just before the op it scales and sample
    ``index + 1`` just after it.
    """
    lo = max(0, index + 1 - width)
    return statistics.median(samples[lo:index + 1 + width])
