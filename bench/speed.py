"""Speed-normalised timing on a shared machine.

Other tenants of a shared host slow a core by 1.1x to 2x, in phases
that last from seconds to minutes.  In some phases each instruction is
slower; in others the virtual CPU is not scheduled for part of the time.
A slow phase that covers a whole run moves the fastest of its repeats as
much as their median.  So ``Meter`` measures an operation in CPU seconds,
which leave out the time the CPU was taken away, and after every
operation it times a fixed calibration kernel of interpreted Python and
small numpy calls, which slows by the same factor as the gaussrenyi code
beside it.  The operation's CPU time is scaled by ``REFERENCE_S`` over
the mean of the kernel times just before and just after it: the result
is the time the operation would take at the speed where the kernel takes
``REFERENCE_S``, about that of an uncontended core of the machine the
baseline was recorded on.
"""

import resource
import time

import numpy as np

REFERENCE_S = 0.0016

_A = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128) / 128
_X = np.linspace(0.0, 1.0, 128)


def kernel():
    s = 0
    for i in range(20000):
        s += i * i
    y = _X
    for _ in range(40):
        y = np.cos(_A @ y)
    return s


def cpu_time():
    """CPU seconds of this process and of the child processes it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate():
    """Median of three CPU-time timings of the kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    return sorted(times)[1]


class Meter:
    """Times operations in wall seconds and in normalised seconds."""

    def __init__(self):
        self.last = calibrate()

    def measure(self, fn, *args, **kwargs):
        """(fn(*args, **kwargs), wall seconds, normalised seconds)."""
        before = self.last
        t0, c0 = time.perf_counter(), cpu_time()
        result = fn(*args, **kwargs)
        wall, cpu = time.perf_counter() - t0, cpu_time() - c0
        self.last = calibrate()
        return result, wall, cpu * 2.0 * REFERENCE_S / (before + self.last)
