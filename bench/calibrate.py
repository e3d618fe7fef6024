"""A fixed calibration loop that gauges how fast the machine runs.

On a shared machine the same work can take up to twice as long from one
minute to the next, as other tenants load the cores, caches and memory
the benchmark runs on. A run therefore interleaves this loop with its
passes and reports each pass's time scaled to a reference speed:

    reported = measured * REFERENCE_S / mean(calibration loop times
                                              right before and after it)

Short passes share the calibration runs around the block of passes they
belong to, so that the loop takes a small part of a run.

The loop uses only Python and numpy, never ``dfqre``, so a change to the
program cannot move it. Its mix follows what the workloads do: text
parsing into a dict, a dict and an array gather larger than the caches,
small dense eigensolves and JSON round trips. Raw wall times are printed
beside the scaled ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

# The loop's median wall time on the 2-core x86-64 VM the benchmark was
# tuned on; it only fixes the scale of the reported times.
REFERENCE_S = 0.09


class Loop:
    """The calibration loop itself, with its fixed inputs."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(20240601))
        values = rng.standard_normal(9000).tolist()
        self.text = "\n".join(f"{v!r} {i % 40 + 1} {i % 7 + 1} {i % 13 + 1} "
                              f"{i % 3 + 1}" for i, v in enumerate(values))
        raw = rng.standard_normal((96, 96))
        self.matrix = raw + raw.T
        self.payload = json.dumps({"values": values[:6000]})
        # a dict and a gather larger than the caches, for memory-bound work
        self.keys = [(i % 97, i % 89, i // 7) for i in range(110000)]
        self.big = rng.standard_normal(2_000_000)
        self.index = rng.integers(0, len(self.big), 800_000)
        self.run()  # the first run pays for lazy set-up

    def run(self) -> float:
        """Run the loop once; return its wall time."""
        start = time.perf_counter()
        entries = {}
        for line in self.text.splitlines():
            parts = line.split()
            key = tuple(int(p) for p in parts[1:])
            entries.setdefault(key, float(parts[0]))
        table = {key: i for i, key in enumerate(self.keys)}
        total = sum(entries.values()) + len(table)
        total += float(self.big[self.index].sum())
        for _ in range(5):
            total += float(np.linalg.eigh(self.matrix)[0][0])
        for _ in range(4):
            total += len(json.dumps(json.loads(self.payload)))
        return time.perf_counter() - start


class Calibration:
    """Runs the loop on request in a helper process, so that the loop's
    memory never counts toward the measuring process's peak RSS. The
    caller waits while the loop runs; nothing runs alongside a pass."""

    def __init__(self):
        self.samples: list[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        """Run the loop once and record its wall time."""
        self._helper.stdin.write("run\n")
        self._helper.stdin.flush()
        self.samples.append(float(self._helper.stdout.readline()))
        return self.samples[-1]

    def close(self):
        self._helper.stdin.close()
        self._helper.wait(timeout=30)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def at_reference_speed(times: list[float], samples: list[float],
                       before: list[int]) -> list[float]:
    """Scale each of ``times`` to the reference speed. ``samples`` holds the
    calibration loop times: time i lies between samples ``before[i]`` and
    ``before[i] + 1`` and is scaled by their mean."""
    return [t * REFERENCE_S / ((samples[j] + samples[j + 1]) / 2.0)
            for t, j in zip(times, before)]


if __name__ == "__main__":
    loop = Loop()
    for _ in sys.stdin:
        print(repr(loop.run()), flush=True)
