"""Host-speed sampler for the benchmark's normalised timings.

Run by ``evebench/run.py`` as a child process::

    python3 evebench/hostspeed.py

It times a fixed pure-Python work chunk every ``INTERVAL_S`` seconds
until its standard input closes, then prints the samples as a JSON list
of ``[end_monotonic_s, chunk_seconds]`` on standard output.  On a shared
host the chunk slows down and speeds up with the simulator running beside
it, so the chunk time during an invocation measures how fast the host was
while the invocation ran.  The sampler is busy ~3% of the time, on the
CPU the single-threaded workload leaves free.
"""

from __future__ import annotations

import json
import select
import sys
import time

#: Pause between chunks.
INTERVAL_S = 0.04


def chunk() -> int:
    """A fixed work unit of dict stores and integer arithmetic."""
    table = {}
    acc = 0
    for i in range(12000):
        table[i & 1023] = acc
        acc += i * 3 % 7
    return acc


def main() -> int:
    samples = []
    while True:
        start = time.monotonic()
        chunk()
        end = time.monotonic()
        samples.append((end, end - start))
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable:
            break
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
