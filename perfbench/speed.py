"""How fast this process runs right now, sampled while the program runs.

The reference host gives the benchmark a few vCPUs of a shared machine.
The speed one process sees there swings by up to 1.8x, in spells from
under a second to minutes, and the spells on one vCPU are not those on
another.  A pass of the same cases took from 3.3 s to 4.9 s within two
minutes, so raw times of one commit spread wider than any bound that
would catch a regression.

So the pass process samples its own speed.  Every INTERVAL_S a timer
signal runs a fixed probe, a tight pure-Python integer loop, on the same
thread, in between the program's bytecodes, and records how long it
took.  The median probe during a case measures how fast the interpreter
ran while that case ran.  A case's time scaled by REFERENCE_S over that
median reads in seconds at the reference speed.  A slow spell stretches
the case and the probe alike and cancels out; a change to the program
does not touch the probe, which allocates nothing the garbage collector
tracks and calls nothing of the program.  On ten repeats of one case the
scaling cut the spread (coefficient of variation) from 13-18% to 5-6%.

The probe costs about 1.5% of a pass, the same on every commit.

    python3 perfbench/speed.py     # print probe times, to re-measure REFERENCE_S
"""

from __future__ import annotations

import signal
import sys
import time

# The median probe on the reference machine in a fast spell (see
# README.md).  It only fixes the scale of the reported times; the ratio
# between two runs does not depend on it.
REFERENCE_S = 2.7e-05
INTERVAL_S = 0.002
MIN_PROBES = 5  # a case with fewer probes is scaled by its pass's median

_clock = time.perf_counter
_samples: list = []


def probe() -> float:
    """Seconds for the fixed probe loop."""
    start = _clock()
    x = 0
    for i in range(400):
        x = (x * 31 + i) & 0xFFFF
    return _clock() - start


def _tick(signum, frame):
    _samples.append(probe())


def start() -> None:
    """Start sampling; the probes collect until take() or stop()."""
    for _ in range(50):  # warm the probe's code path
        probe()
    _samples.clear()
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def take() -> list:
    """The probe times since the last take(), and reset."""
    global _samples
    out, _samples = _samples, []
    return out


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def median(values) -> float:
    # Not statistics.median: the set-up probe runs before the program is
    # imported, and importing statistics would load modules for it.
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def scale(probes: list, fallback=()) -> float:
    """REFERENCE_S over the median probe.

    Uses `fallback` when `probes` has fewer than MIN_PROBES, and fresh
    probes when both are empty.
    """
    pool = probes if len(probes) >= MIN_PROBES else list(fallback) or probes
    if not pool:
        pool = [probe() for _ in range(MIN_PROBES)]
    return REFERENCE_S / median(pool)


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    for _ in range(50):
        probe()
    samples = sorted(probe() for _ in range(count))
    print(f"median {median(samples):.4e} s, p10 {samples[count // 10]:.4e} s, "
          f"p90 {samples[9 * count // 10]:.4e} s (n={count})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
