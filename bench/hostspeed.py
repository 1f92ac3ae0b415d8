"""The host's speed, sampled while a round runs.

The benchmark's virtual machine shares its physical host, and its speed
drifts by 30 % and more over seconds to minutes; CPU time drifts with wall
time, so it is no way out.  While armed, a ``SIGALRM`` timer interrupts the
round every ``INTERVAL_S`` and times a fixed pure-Python kernel that does not
touch lastfall.  A round's seconds times ``REFERENCE_S`` over the median
kernel time in that round is the round's time at the reference speed: a
change to the program moves it, a slow spell of the host mostly does not.

The kernel's own time is kept in ``busy_s()`` so that timed calls can leave
it out.  Only the main thread of a process may arm the sampler.
"""

import contextlib
import signal
import statistics
import time

INTERVAL_S = 0.1

# median kernel time at the reference speed: that of an Intel Xeon vCPU
# (2 vCPUs, 2.1 GHz) in a quiet spell.  A scale only; it cancels in any
# comparison of two runs.
REFERENCE_S = 0.005

_TABLE = list(range(256))
_samples = []
_busy = 0.0


def kernel():
    """Integer arithmetic and list indexing, allocating nothing that lives
    on, so that it triggers no garbage collection of the round's objects."""
    table = _TABLE
    acc = 0
    for i in range(40000):
        acc = (acc * 31 + table[i & 255]) % 65521
    return acc


def _sample(signum, frame):
    global _busy
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    _samples.append(t1 - t0)
    _busy += time.perf_counter() - t0


def busy_s():
    """Seconds spent in the kernel since the process started."""
    return _busy


@contextlib.contextmanager
def sampling():
    """Arm the sampler for the body; yields the list its samples go to."""
    del _samples[:]
    previous = signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield _samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def at_reference(seconds, samples):
    """``seconds`` measured while ``samples`` were taken, rescaled to the
    reference speed."""
    return seconds * REFERENCE_S / statistics.median(samples)
